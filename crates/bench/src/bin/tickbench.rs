//! Whole-platform tick benchmark: end-to-end `Platform::step`
//! throughput and heap allocations per tick of the one tick pipeline
//! (incremental EDDI, reused tick scratch, per-UAV Markov solves),
//! across 3/50/200-UAV fleets.
//!
//! ```text
//! cargo run -p sesame-bench --release --bin tickbench           # full run
//! cargo run -p sesame-bench --release --bin tickbench -- smoke  # CI smoke
//! ```
//!
//! Where `eddibench` isolates the EDDI + ConSert evaluation (and holds
//! the incremental engines against the naive reference engines) and
//! `fleetbench` isolates sharding, this bench times the *entire* tick —
//! simulation, telemetry, corruption, EDDI, airspace scan, supervision,
//! ConSerts, bus traffic, observability — so a constant-factor
//! regression anywhere in the pipeline shows up here.
//!
//! The JSON report (schema: `sesame_bench::cli`) goes to stdout
//! (configuration chatter to stderr), so `tickbench > BENCH_tick.json`
//! records the repo's perf trajectory — `scripts/check.sh` does exactly
//! that; `--json PATH` writes a copy. Summary keys are the 3-UAV
//! steady-state numbers (the paper's demonstration fleet) and come
//! first, which is what `scripts/bench_gate.sh` gates on. Per fleet size
//! the report carries ticks per second, UAV-ticks per second and heap
//! allocations per tick from the counting allocator.

use sesame_bench::alloc::{allocations, CountingAllocator};
use sesame_bench::cli::{BenchArgs, JsonReport};
use sesame_core::fleet::FleetSpec;
use sesame_core::orchestrator::{Platform, PlatformConfig};
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Fleet sizes for the full curve and the CI smoke subset. The first
/// entry is the headline (gated) workload.
const FULL_SIZES: [usize; 3] = [3, 50, 200];
const SMOKE_SIZES: [usize; 2] = [3, 50];

fn config(uavs: usize) -> PlatformConfig {
    PlatformConfig {
        // The fleetbench mid-size area: per-UAV strips shrink as the
        // fleet grows; the per-tick pipeline cost is what's measured.
        area_width_m: 400.0,
        area_height_m: 300.0,
        person_count: 5,
        seed: 42,
        fleet: FleetSpec::uniform(uavs),
        ..PlatformConfig::default()
    }
}

struct RunResult {
    elapsed_ns: u128,
    ticks: u64,
    allocs: u64,
}

fn run(cfg: PlatformConfig, ticks: u64) -> RunResult {
    let mut p = Platform::new(cfg);
    p.launch();
    // Warmup outside the measurement: climb-out plus first-touch costs
    // (route upload, cache priming, scratch-buffer growth).
    for _ in 0..10 {
        p.step();
    }
    let allocs_before = allocations();
    let start = Instant::now();
    for _ in 0..ticks {
        p.step();
    }
    let elapsed_ns = start.elapsed().as_nanos();
    RunResult {
        elapsed_ns,
        ticks,
        allocs: allocations() - allocs_before,
    }
}

fn ticks_per_sec(r: &RunResult) -> f64 {
    r.ticks as f64 / (r.elapsed_ns as f64 / 1e9)
}

fn main() {
    let args = BenchArgs::parse();
    let sizes: Vec<usize> = if args.smoke {
        SMOKE_SIZES.to_vec()
    } else {
        FULL_SIZES.to_vec()
    };
    let ticks: u64 = if args.smoke { 20 } else { 60 };
    eprintln!(
        "tickbench: whole-platform ticks, sizes {sizes:?}, {ticks} timed \
         ticks each{}",
        if args.smoke { " (smoke)" } else { "" }
    );

    let mut rows = Vec::new();
    let mut headline = None;
    for &n in &sizes {
        // A short run first, so process-level first-touch costs stay
        // out of the measurement.
        let _ = run(config(n), 2);
        let r = run(config(n), ticks);
        let tps = ticks_per_sec(&r);
        let allocs_per_tick = r.allocs as f64 / r.ticks as f64;
        eprintln!("tickbench: {n:>4} UAVs: {tps:>8.1} ticks/s, {allocs_per_tick:.0} allocs/tick");
        rows.push(format!(
            "{{\"uavs\": {n}, \"ticks_per_sec\": {tps:.1}, \
             \"uav_ticks_per_sec\": {:.0}, \"allocs_per_tick\": {allocs_per_tick:.0}}}",
            tps * n as f64
        ));
        if headline.is_none() {
            headline = Some((n, tps, allocs_per_tick));
        }
    }
    let (uavs, tps, allocs_per_tick) = headline.expect("at least one size");

    // Summary keys (the 3-UAV headline) precede the curve, so
    // first-occurrence key extraction reads the gated values.
    JsonReport::new("platform_tick")
        .int("uavs", uavs as u64)
        .num("ticks_per_sec", tps, 1)
        .num("allocs_per_tick", allocs_per_tick, 0)
        .int("ticks", ticks)
        .raw("sizes", &format!("[\n    {}\n  ]", rows.join(",\n    ")))
        .emit(args.json_path.as_deref());
    eprintln!("tickbench: {uavs}-UAV steady state at {tps:.1} ticks/s");
}
