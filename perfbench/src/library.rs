//! `scenario_library`: every pinned `.sesame` file of `scenarios/` run
//! from launch to `should_stop` with the benchmark's seed, in whole
//! passes over the library until the run time is spent.
//!
//! These are paper-sized fleets (3–12 UAVs) under spoofing, comm
//! partitions, compute faults and motor loss: EDDI evaluation dominates
//! the tick, and the airspace scan is a few percent of it.

use crate::alloc;
use crate::expected::Expected;
use crate::meter::Meter;
use crate::report::Report;
use crate::stats::median_of_few;
use sesame_core::checkpoint::{digest_platform, Fnv};
use sesame_scenario_dsl::{CompiledScenario, Compiler};
use std::time::{Duration, Instant};

/// The library, pinned by name. A file added to `scenarios/` later is
/// reported, not run, so it cannot pass for a speed change.
pub const FILES: [&str; 14] = [
    "alpine_ravine_sar.sesame",
    "baseline_nominal.sesame",
    "chaos_base.sesame",
    "coastal_storm_blackouts.sesame",
    "compute_degraded_fleet.sesame",
    "coordinated_spoof_jam_partition.sesame",
    "desert_heat_endurance.sesame",
    "fig6_spoofing.sesame",
    "maritime_sar.sesame",
    "motor_attrition_hexafleet.sesame",
    "multi_incident_triage.sesame",
    "night_ops_degraded_vision.sesame",
    "swarm_interdiction.sesame",
    "urban_canyon_multipath.sesame",
];

/// Files the library includes; hashed with it, not run on their own.
const INCLUDES: [&str; 1] = ["lib/storm_presets.sesame"];

const DIR: &str = "scenarios";

/// Timed passes always run, so that the medians over passes have a
/// middle. An untimed first pass precedes them: it checks the pinned
/// digests and the peak heap, and on the reference host it ran about a
/// fifth slower than the passes after it (first touch of the heap).
const MIN_TIMED_PASSES: u64 = 3;

/// The peak heap is read this many ticks into each scenario's first
/// run (or at its end, when it stops sooner), so that it covers the same
/// work on every seed: how long a run lasts depends on the seed, and
/// the heap grows with it.
const PEAK_TICKS: u64 = 600;

/// Set-up (compile every file, build and launch every scenario) is
/// repeated this often and its median reported.
const SETUP_ROUNDS: usize = 15;

/// Hashes every pinned file, failing on a changed or missing one, and
/// notes any `.sesame` file the pin list does not name.
fn check_files(report: &mut Report, expected: &Expected) {
    for name in FILES.iter().chain(INCLUDES.iter()) {
        let path = format!("{DIR}/{name}");
        let Ok(bytes) = std::fs::read(&path) else {
            report.fail(format!("{path}: cannot read a pinned scenario file"));
            continue;
        };
        let mut h = Fnv::new();
        h.bytes(&bytes);
        let hash = h.finish();
        report.meta_str(&format!("file:{name}"), &format!("{hash:#018x}"));
        println!("file {name} {hash:#018x}");
        if expected.file_hash(name) != Some(hash) {
            report.fail(format!(
                "{path}: content hash {hash:#018x} differs from the pinned one; \
                 the workload changed"
            ));
        }
    }
    let mut unpinned = Vec::new();
    for sub in ["", "lib"] {
        let dir = std::path::Path::new(DIR).join(sub);
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let rel = if sub.is_empty() {
                name
            } else {
                format!("{sub}/{name}")
            };
            if rel.ends_with(".sesame")
                && !FILES.contains(&rel.as_str())
                && !INCLUDES.contains(&rel.as_str())
            {
                unpinned.push(rel);
            }
        }
    }
    if !unpinned.is_empty() {
        unpinned.sort();
        report.note(format!(
            "scenario files present but not run: {}",
            unpinned.join(", ")
        ));
    }
}

fn compile_all(report: &mut Report) -> Vec<CompiledScenario> {
    let mut out = Vec::new();
    for name in FILES {
        match Compiler::new().compile_file(format!("{DIR}/{name}")) {
            Ok(scenarios) if !scenarios.is_empty() => out.extend(scenarios),
            Ok(_) => report.fail(format!("{name} declares no scenario")),
            Err(e) => report.fail(format!("{name} does not compile: {}", e.render())),
        }
    }
    out
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, report: &mut Report, expected: &Expected) {
    check_files(report, expected);

    let mut setup_s = Vec::with_capacity(SETUP_ROUNDS);
    let mut compiled = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        compiled = compile_all(report);
        let launched: Vec<_> = compiled
            .iter()
            .map(|c| {
                let mut s = c.builder(seed).build();
                s.launch();
                s
            })
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
        drop(launched);
    }
    report.set("setup_s", median_of_few(&mut setup_s), SETUP_ROUNDS as u64);
    if compiled.is_empty() {
        report.fail("no scenario compiled");
        return;
    }

    let mut meter = Meter::new(report.traced(), 200_000);
    let mut first_digests = Vec::with_capacity(compiled.len());
    let budget = Duration::from_secs(seconds);
    let mut started = Instant::now();
    let mut passes = 0u64;
    let mut peak_bytes = 0;
    while passes <= MIN_TIMED_PASSES || started.elapsed() < budget {
        for (i, c) in compiled.iter().enumerate() {
            if passes == 0 {
                alloc::reset_peak();
            }
            let builder = c.builder(seed);
            let config = builder.config().clone();
            let mut scenario = builder.build();
            scenario.launch();
            let mut now = scenario.platform().now();
            let mut ticks = 0;
            let mut scenario_peak = None;
            if passes == 0 {
                // Untimed and unmetered, so the heap holds the program's
                // state and no growing buffer of the benchmark's own.
                while !scenario.should_stop(now) {
                    now = scenario.step_once();
                    ticks += 1;
                    if ticks == PEAK_TICKS {
                        scenario_peak = Some(alloc::reading().peak_bytes);
                    }
                }
            } else {
                let mut window = meter.window(scenario.platform(), &config);
                while !scenario.should_stop(now) {
                    now = window.step(&mut scenario);
                }
                window.close(scenario.platform());
                meter.close_segment(i);
            }
            let digest = digest_platform(scenario.platform());
            report.attempted += 1;
            if passes == 0 {
                let scenario_peak = scenario_peak.unwrap_or_else(|| alloc::reading().peak_bytes);
                peak_bytes = peak_bytes.max(scenario_peak);
                report.meta_int(&format!("ticks:{}", c.name()), ticks);
                report.meta_int(&format!("peak_bytes:{}", c.name()), scenario_peak as u64);
                expected.check(report, "scenario_library", c.name(), seed, digest);
                first_digests.push(digest);
            } else if digest != first_digests[i] {
                report.fail(format!(
                    "{} seed {seed}: pass {passes} digest {digest:#018x} differs from \
                     pass 0's {:#018x}",
                    c.name(),
                    first_digests[i]
                ));
            }
        }
        if passes == 0 {
            started = Instant::now();
        }
        passes += 1;
    }
    report.set("peak_heap_mb", peak_bytes as f64 / 1e6, 1);
    report.meta_int("passes", passes);
    report.meta_int("scenarios", compiled.len() as u64);
    report.meta_int("timed_ticks", meter.tick_us.len() as u64);
    meter.report_ticks(report);
    meter.report_layers(report);
}
