//! The repository benchmark. One command runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scenario_library|fleet_500|campaign_service> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! from the repository root. It prints each metric with its unit and
//! sample count, every conformance digest it checked, and as its last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics untraced, the per-layer metrics
//! with `--trace 1`. A fuller record goes to `.perfbench/`. Any digest,
//! replay or chain mismatch makes the exit code non-zero. See
//! `README.md` for the workloads and the metric map.

mod alloc;
mod campaign;
mod expected;
mod fleet;
mod library;
mod meter;
mod report;
mod shadow;
mod stats;

use report::Report;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Per-layer metrics of the service path; the platform workloads do
/// not exercise them and report 0 with 0 samples.
const SERVER_LAYERS: [&str; 8] = [
    "server.queue_wait_ms",
    "server.run_ms",
    "server.log.append_us",
    "server.job.compile_us",
    "server.log.open_ms",
    "server.log.bytes_per_run",
    "server.replay.read_all_ms",
    "server.stream.dropped",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <scenario_library|fleet_500|campaign_service> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = alloc::probe() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let expected = expected::Expected::load();
    let mut report = Report::new(&args.workload, args.seed, args.seconds, args.trace);
    let run: fn(u64, u64, &mut Report, &expected::Expected) = match args.workload.as_str() {
        "scenario_library" => library::run,
        "fleet_500" => fleet::run,
        "campaign_service" => campaign::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    run(args.seed, args.seconds, &mut report, &expected);
    if args.workload != "campaign_service" {
        for name in SERVER_LAYERS {
            report.set(name, 0.0, 0);
        }
    }
    if !report.finish() {
        std::process::exit(1);
    }
}
