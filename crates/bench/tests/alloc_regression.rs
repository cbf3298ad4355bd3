//! Allocation-regression gate for the hot-loop memory discipline
//! (DESIGN.md § "Hot-loop memory discipline").
//!
//! The claim of the inline-storage work is that a quiet
//! steady-state tick of the per-UAV safety pipeline — EDDI evaluation
//! (SafeDrones CTMC + FTA, SafeML, SINADRA, DeepKnowledge, attack tree)
//! plus the ConSert decide — performs **zero heap allocations** once its
//! caches and scratch buffers are warm. This test pins that claim under
//! the counting global allocator: any future `clone()`, `format!` or
//! `Vec::new` sneaking into the steady-state path turns the counter and
//! fails the build.
//!
//! Telemetry snapshots are prebuilt outside the measured span (the
//! platform amortizes that construction through `telemetry_into`; here
//! it would just measure the workload generator).
//!
//! The full `Platform::step` is *not* zero-alloc — the bus publish path
//! (owned topic strings, payload `Arc`s) and the observability ring
//! buffers allocate by design. A second gate therefore holds the whole
//! step to a pinned ceiling instead: the allocations of 100 quiet steps
//! on one shard and on two, which a change may lower but never raise.

use sesame_bench::alloc::{allocations, CountingAllocator};
use sesame_conserts::IncrementalConsertNetwork;
use sesame_core::fleet::{FleetSpec, ShardPolicy};
use sesame_core::orchestrator::{Platform, PlatformConfig};
use sesame_core::UavEddiRuntime;
use sesame_safedrones::monitor::SafeDronesConfig;
use sesame_types::geo::GeoPoint;
use sesame_types::ids::UavId;
use sesame_types::telemetry::UavTelemetry;
use sesame_types::time::{SimDuration, SimTime};
use sesame_vision::features::SceneCondition;
use std::sync::Mutex;

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const UAVS: usize = 3;
/// Must exceed the SafeML sliding window (50 samples): until the window
/// is full, every `push_sample` legitimately allocates its row buffer.
const WARMUP_ROUNDS: u64 = 60;
const MEASURED_ROUNDS: u64 = 50;

fn home() -> GeoPoint {
    GeoPoint::new(35.05, 33.20, 0.0)
}

/// Steady-state scan telemetry, identical to the eddibench workload:
/// cruising at 30 m, healthy battery, clean GPS.
fn telemetry(uav: usize, round: u64) -> UavTelemetry {
    let time = SimTime::from_millis(round * 100);
    let pos = home().destination(90.0, 5.0 * uav as f64).with_alt(30.0);
    let mut tel = UavTelemetry::nominal(UavId::new(uav as u32 + 1), time, pos);
    tel.gps.position = tel.true_position;
    tel
}

/// The allocation counter is process-wide, so the tests in this binary
/// take turns: a concurrent test's allocations would count against the
/// one measuring.
static MEASURING: Mutex<()> = Mutex::new(());

/// Guard against the silent-zero footgun: if this test binary somehow
/// lost the #[global_allocator] attribute, the counter would sit at
/// zero forever and the zero-alloc assertions would pass vacuously.
fn assert_allocator_counts() {
    let probe_before = allocations();
    let probe = vec![0u8; 64];
    assert!(
        allocations() > probe_before,
        "counting allocator is not installed — the zero-alloc assertion \
         would be vacuous"
    );
    drop(probe);
}

fn engines() -> (Vec<UavEddiRuntime>, Vec<IncrementalConsertNetwork>) {
    let eddis = (0..UAVS)
        .map(|i| {
            let mut rt = UavEddiRuntime::new(
                42 ^ ((i as u64 + 1) << 16),
                SafeDronesConfig::default(),
                home(),
            );
            rt.set_remaining_mission(SimDuration::from_secs(600));
            rt
        })
        .collect();
    let conserts = (0..UAVS)
        .map(|i| IncrementalConsertNetwork::new(UavId::new(i as u32 + 1).to_string()))
        .collect();
    (eddis, conserts)
}

const SCENE: SceneCondition = SceneCondition {
    altitude_m: 30.0,
    visibility: 1.0,
};

/// Every telemetry snapshot of the run, prebuilt outside the measured
/// span.
fn telemetry_rounds() -> Vec<Vec<UavTelemetry>> {
    (0..WARMUP_ROUNDS + MEASURED_ROUNDS)
        .map(|r| (0..UAVS).map(|i| telemetry(i, r)).collect())
        .collect()
}

#[test]
fn steady_state_three_uav_tick_allocates_nothing() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    assert_allocator_counts();
    let (mut eddis, mut conserts) = engines();
    let scene = SCENE;
    let tels = telemetry_rounds();

    // Warmup: solver-profile caches, SafeML presort, scratch buffers and
    // ConSert fingerprints all reach steady state.
    for round in tels.iter().take(WARMUP_ROUNDS as usize) {
        for i in 0..UAVS {
            let tel = &round[i];
            let out = eddis[i].tick(tel, &scene);
            let evidence = eddis[i].evidence(tel, false, true);
            let decision = conserts[i].decide(&evidence);
            assert!(out.reliability.pof.is_finite());
            assert!(decision.action.is_some() || decision.action.is_none());
        }
    }

    let before = allocations();
    let mut checksum = 0u64;
    for round in tels.iter().skip(WARMUP_ROUNDS as usize) {
        for i in 0..UAVS {
            let tel = &round[i];
            let out = eddis[i].tick(tel, &scene);
            let evidence = eddis[i].evidence(tel, false, true);
            let decision = conserts[i].decide(&evidence);
            checksum ^= out.reliability.pof.to_bits();
            checksum ^= decision.nav_accuracy_m.map_or(0, f64::to_bits);
        }
    }
    let allocs = allocations() - before;

    assert_ne!(checksum, 0, "the measured loop must do real work");
    assert_eq!(
        allocs, 0,
        "steady-state EDDI + ConSert ticks allocated {allocs} times over \
         {MEASURED_ROUNDS} rounds x {UAVS} UAVs — the hot loop regressed \
         (see DESIGN.md, Hot-loop memory discipline)"
    );
}

/// Measured steps of the whole-platform gate.
const PLATFORM_STEPS: u64 = 100;

/// Ceilings of the whole-platform gate: the allocations of
/// [`PLATFORM_STEPS`] quiet steps, as this test measured them before the
/// Markov solves moved into each UAV's own tick (3 UAVs on one shard,
/// 12 UAVs on two). The bus publish path and the observability rings
/// allocate by design, so these are ceilings, not zeros: a change may
/// lower them, never raise them.
const CEILING_3_UAVS_ONE_SHARD: u64 = 5_609;
const CEILING_12_UAVS_TWO_SHARDS: u64 = 17_702;

/// A quiet platform (no faults, no attacks) warmed past the SafeML
/// window, then stepped [`PLATFORM_STEPS`] times under the counter.
/// Returns the allocations of the measured steps, worker threads
/// included.
fn platform_step_allocations(uavs: usize, policy: ShardPolicy) -> u64 {
    let mut p = Platform::new(PlatformConfig {
        area_width_m: 150.0,
        area_height_m: 100.0,
        person_count: 3,
        fleet: FleetSpec::builder().uavs(uavs).shard_policy(policy).build(),
        ..PlatformConfig::default()
    });
    p.launch();
    for _ in 0..WARMUP_ROUNDS {
        p.step();
    }
    let before = allocations();
    for _ in 0..PLATFORM_STEPS {
        p.step();
    }
    let allocs = allocations() - before;
    assert_eq!(
        p.metrics().counter("eddi.evals.uav0"),
        WARMUP_ROUNDS + PLATFORM_STEPS,
        "every step must evaluate the EDDIs"
    );
    allocs
}

#[test]
fn whole_platform_step_allocations_stay_under_the_ceiling() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    assert_allocator_counts();
    for (uavs, policy, ceiling) in [
        (3, ShardPolicy::Serial, CEILING_3_UAVS_ONE_SHARD),
        (
            12,
            ShardPolicy::Fixed { shards: 2 },
            CEILING_12_UAVS_TWO_SHARDS,
        ),
    ] {
        let allocs = platform_step_allocations(uavs, policy);
        assert!(
            allocs <= ceiling,
            "{PLATFORM_STEPS} quiet steps of {uavs} UAVs ({policy:?}) \
             allocated {allocs} times, above the ceiling of {ceiling} \
             (see DESIGN.md, Hot-loop memory discipline)"
        );
    }
}
