//! `fleet_500`: 500 uniform UAVs under the default `PlatformConfig`
//! (the ROADMAP baseline row) and `ShardPolicy::Auto`, stepped in steady
//! state after warm-up with no faults scheduled. Only the search area is
//! larger than the default: over the default area some seeds complete
//! the mission and land the fleet inside the timed window, which makes
//! the later ticks far cheaper.
//!
//! At this size the superlinear airspace scan, telemetry publishing and
//! bus delivery carry most of the tick, and the bus is quiet where the
//! scenario library makes it drop, partition and tamper.

use crate::alloc;
use crate::expected::Expected;
use crate::meter::Meter;
use crate::report::Report;
use crate::stats::median_of_few;
use sesame_core::checkpoint::digest_platform;
use sesame_core::fleet::FleetSpec;
use sesame_core::orchestrator::{Platform, PlatformConfig};
use std::time::{Duration, Instant};

const UAVS: usize = 500;
/// Ticks stepped after launch before timing starts (climb-out, cache
/// priming, scratch growth).
const WARMUP_TICKS: u64 = 10;
/// Set-up (construction, launch, warm-up) is repeated this often.
const SETUP_ROUNDS: usize = 5;
/// Timed ticks always run, so that p99 has ten ticks beyond it. The
/// peak heap is read here, so it covers the same work on every run.
const MIN_TIMED_TICKS: u64 = 1010;
/// The timed tick after which the digest is checked.
const CHECK_TICK: u64 = 500;
/// Timed ticks per throughput segment (see `Meter::close_segment`).
const SEGMENT_TICKS: u64 = 101;

/// Nine times the default area: coverage outlasts the timed window,
/// and every point stays close enough to base for a usable link.
const AREA_M: (f64, f64) = (1200.0, 750.0);

fn config(seed: u64) -> PlatformConfig {
    PlatformConfig {
        fleet: FleetSpec::uniform(UAVS),
        area_width_m: AREA_M.0,
        area_height_m: AREA_M.1,
        seed,
        ..PlatformConfig::default()
    }
}

fn set_up(seed: u64) -> Platform {
    let mut platform = Platform::new(config(seed));
    platform.launch();
    for _ in 0..WARMUP_TICKS {
        platform.step();
    }
    platform
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, report: &mut Report, expected: &Expected) {
    alloc::reset_peak();
    let mut setup_s = Vec::with_capacity(SETUP_ROUNDS);
    let mut warm_digest = None;
    let mut platform = None;
    for round in 0..SETUP_ROUNDS {
        drop(platform.take());
        let t = Instant::now();
        let p = set_up(seed);
        setup_s.push(t.elapsed().as_secs_f64());
        let digest = digest_platform(&p);
        report.attempted += 1;
        match warm_digest {
            None => warm_digest = Some(digest),
            Some(first) if first != digest => report.fail(format!(
                "set-up round {round}: warm digest {digest:#018x} differs from \
                 round 0's {first:#018x}"
            )),
            Some(_) => {}
        }
        platform = Some(p);
    }
    let mut platform = platform.expect("at least one set-up round");
    report.set("setup_s", median_of_few(&mut setup_s), SETUP_ROUNDS as u64);
    report.meta_int("uavs", UAVS as u64);
    report.meta_int("shards", platform.shard_count() as u64);

    // A traced run still reaches the checked tick; an untraced one also
    // reaches the p99 minimum.
    let min_ticks = if report.traced() {
        CHECK_TICK
    } else {
        MIN_TIMED_TICKS
    };
    let budget = Duration::from_secs(seconds);
    let mut meter = Meter::new(report.traced(), 4096);
    let cfg = config(seed);
    let mut window = meter.window(&platform, &cfg);
    let started = Instant::now();
    let mut ticks = 0u64;
    let mut peak_bytes = None;
    while ticks < min_ticks || started.elapsed() < budget {
        window.step(&mut platform);
        ticks += 1;
        if ticks.is_multiple_of(SEGMENT_TICKS) {
            window.close_segment(0);
        }
        if ticks == CHECK_TICK {
            let digest = digest_platform(&platform);
            report.attempted += 1;
            expected.check(report, "fleet_500", "fleet_500", seed, digest);
        }
        if ticks == MIN_TIMED_TICKS {
            peak_bytes = Some(alloc::reading().peak_bytes);
        }
    }
    window.close_segment(0);
    window.close(&platform);
    let peak_bytes = peak_bytes.unwrap_or_else(|| alloc::reading().peak_bytes);
    report.set("peak_heap_mb", peak_bytes as f64 / 1e6, 1);
    report.meta_int("timed_ticks", ticks);
    meter.report_ticks(report);
    meter.report_layers(report);
    if let Some(split) = meter.phase_split() {
        let ms = |us: f64| us / 1000.0;
        let share = |us: f64| 100.0 * us / split.total_us;
        let cell = |name: &str| {
            let us = split.phase_us(name);
            format!("{:.2} ms ({:.0}%)", ms(us), share(us))
        };
        report.note(format!(
            "| UAVs | tick | `eddi_eval` | `airspace` | `sense_publish` | `bus_step` |\n\
             |---:|---:|---:|---:|---:|---:|\n\
             | {UAVS} | {:.2} ms | {} | {} | {} | {} |",
            ms(split.total_us),
            cell("eddi_eval"),
            cell("airspace"),
            cell("sense_publish"),
            cell("bus_step"),
        ));
    }
}
