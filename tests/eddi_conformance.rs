//! Lockstep conformance: the incremental EDDI fast path against the
//! naive reference path.
//!
//! The fast path (solver profile cache, presorted SafeML, SINADRA factor
//! caches, fingerprint-gated ConSerts) claims **bit-identical** results,
//! not approximately-equal ones. This suite proves it three ways:
//!
//! 1. 200+ randomized evidence schedules driven through paired runtimes,
//!    comparing every output field, the evidence snapshot and the ConSert
//!    decision bit for bit each tick;
//! 2. full platform runs checked against digests the same runs produced
//!    on the naive reference engines: series bits, nav accuracies,
//!    traces, metrics (minus the `eddi.cache.*` counters only the fast
//!    path maintains) and event counts;
//! 3. the issue's explicit edge cases: NaN-bearing telemetry, evidence
//!    toggling every tick, and cache behaviour across degraded-mode
//!    communication-fault transitions.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sesame::conserts::catalog::{
    certified_navigation_accuracy_m, evaluate_uav, uav_consert_network,
};
use sesame::conserts::{ConsertDecision, IncrementalConsertNetwork};
use sesame::core::checkpoint::Fnv;
use sesame::core::orchestrator::{Platform, PlatformConfig};
use sesame::core::reference::ReferenceEddiRuntime;
use sesame::core::supervision::HealthState;
use sesame::core::{EddiOutputs, UavEddiRuntime};
use sesame::safedrones::monitor::SafeDronesConfig;
use sesame::types::geo::GeoPoint;
use sesame::types::ids::UavId;
use sesame::types::telemetry::UavTelemetry;
use sesame::types::time::{SimDuration, SimTime};
use sesame::vision::features::SceneCondition;

fn home() -> GeoPoint {
    GeoPoint::new(35.0, 33.0, 0.0)
}

/// One randomized telemetry + scene draw. Every stochastic field a real
/// mission varies is varied here; both paths receive the same values.
fn random_inputs(rng: &mut StdRng, tick: u64) -> (UavTelemetry, SceneCondition) {
    let alt = 5.0 + rng.random::<f64>() * 65.0;
    let pos = home()
        .destination(rng.random::<f64>() * 360.0, rng.random::<f64>() * 200.0)
        .with_alt(alt);
    let mut tel = UavTelemetry::nominal(UavId::new(1), SimTime::from_millis(tick * 100), pos);
    // The reported fix drifts off truth now and then (spoof-ish jitter).
    tel.gps.position = if rng.random::<f64>() < 0.2 {
        pos.destination(rng.random::<f64>() * 360.0, rng.random::<f64>() * 30.0)
            .with_alt(alt)
    } else {
        pos
    };
    if rng.random::<f64>() < 0.1 {
        tel.gps.satellites = 4; // unusable fix
    }
    tel.battery_soc = 0.2 + rng.random::<f64>() * 0.8;
    tel.battery_temp_c = 15.0 + rng.random::<f64>() * 45.0;
    tel.vision_health = rng.random::<f64>();
    tel.link_quality = rng.random::<f64>();
    let scene = SceneCondition {
        altitude_m: alt,
        visibility: 0.4 + rng.random::<f64>() * 0.6,
    };
    (tel, scene)
}

/// Asserts every field of two [`EddiOutputs`] is bit-identical.
fn assert_outputs_bit_equal(f: &EddiOutputs, r: &EddiOutputs, ctx: &str) {
    assert_eq!(
        f.reliability.pof.to_bits(),
        r.reliability.pof.to_bits(),
        "pof diverged: {ctx}"
    );
    assert_eq!(f.reliability.level, r.reliability.level, "level: {ctx}");
    assert_eq!(
        f.safeml_uncertainty.to_bits(),
        r.safeml_uncertainty.to_bits(),
        "safeml: {ctx}"
    );
    assert_eq!(f.safeml_verdict, r.safeml_verdict, "verdict: {ctx}");
    assert_eq!(
        f.dk_uncertainty.to_bits(),
        r.dk_uncertainty.to_bits(),
        "dk: {ctx}"
    );
    assert_eq!(
        f.combined_uncertainty.to_bits(),
        r.combined_uncertainty.to_bits(),
        "combined: {ctx}"
    );
    assert_eq!(
        f.risk.missed_person_prob.to_bits(),
        r.risk.missed_person_prob.to_bits(),
        "missed: {ctx}"
    );
    assert_eq!(
        f.risk.criticality_high_prob.to_bits(),
        r.risk.criticality_high_prob.to_bits(),
        "criticality: {ctx}"
    );
    assert_eq!(
        f.risk.rescan_advised, r.risk.rescan_advised,
        "rescan: {ctx}"
    );
    assert_eq!(f.spoof.spoofed, r.spoof.spoofed, "spoofed: {ctx}");
    assert_eq!(
        f.spoof.innovation_m.to_bits(),
        r.spoof.innovation_m.to_bits(),
        "innovation: {ctx}"
    );
}

/// The tentpole acceptance gate: 200 randomized evidence schedules, every
/// tick compared bit for bit — outputs, evidence and ConSert decision.
#[test]
fn fast_path_locksteps_with_reference_over_200_randomized_schedules() {
    for schedule in 0u64..200 {
        let seed = 0xEDD1 ^ (schedule << 8);
        let mut fast = UavEddiRuntime::new(seed, SafeDronesConfig::default(), home());
        let mut reference = ReferenceEddiRuntime::new(seed, SafeDronesConfig::default(), home());
        let mut inc = IncrementalConsertNetwork::new("uav1");
        let naive_net = uav_consert_network("uav1");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let remaining = SimDuration::from_secs(60 + schedule * 3);
        fast.set_remaining_mission(remaining);
        reference.set_remaining_mission(remaining);
        for tick in 0..12 {
            let (tel, scene) = random_inputs(&mut rng, tick);
            let f = fast.tick(&tel, &scene);
            let r = reference.tick(&tel, &scene);
            assert_outputs_bit_equal(&f, &r, &format!("schedule {schedule} tick {tick}"));

            let attack = rng.random::<bool>();
            let neighbors = rng.random::<bool>();
            let ev_fast = fast.evidence(&tel, attack, neighbors);
            let ev_ref = reference.evidence(&tel, attack, neighbors);
            assert_eq!(ev_fast, ev_ref, "evidence: schedule {schedule} tick {tick}");

            let fast_decision = inc.decide(&ev_fast);
            let naive_decision = ConsertDecision {
                action: evaluate_uav(&naive_net, "uav1", &ev_ref),
                nav_accuracy_m: certified_navigation_accuracy_m(&naive_net, "uav1", &ev_ref),
            };
            assert_eq!(
                fast_decision, naive_decision,
                "consert decision: schedule {schedule} tick {tick}"
            );
        }
    }
}

/// NaN-bearing telemetry (dead vision sensor, garbage GPS coordinates)
/// must flow through both paths identically — caches key on exact bit
/// patterns, so NaNs may only hit against the very same NaN.
#[test]
fn nan_bearing_telemetry_stays_in_lockstep() {
    let mut fast = UavEddiRuntime::new(77, SafeDronesConfig::default(), home());
    let mut reference = ReferenceEddiRuntime::new(77, SafeDronesConfig::default(), home());
    let scene = SceneCondition {
        altitude_m: 30.0,
        visibility: 1.0,
    };
    for tick in 0u64..30 {
        let pos = home().with_alt(30.0);
        let mut tel = UavTelemetry::nominal(UavId::new(1), SimTime::from_millis(tick * 100), pos);
        tel.gps.position = pos;
        match tick % 3 {
            // A dead vision sensor reports NaN health.
            0 => tel.vision_health = f64::NAN,
            // A garbage fix: NaN coordinates poison the spoof innovation.
            1 => tel.gps.position = GeoPoint::new(f64::NAN, 33.0, 30.0),
            _ => {}
        }
        let f = fast.tick(&tel, &scene);
        let r = reference.tick(&tel, &scene);
        assert_outputs_bit_equal(&f, &r, &format!("nan tick {tick}"));
        assert_eq!(
            fast.evidence(&tel, false, true),
            reference.evidence(&tel, false, true),
            "nan evidence at tick {tick}"
        );
    }
}

/// Evidence toggling every tick: the last-tick ConSert cache must never
/// hit, and the answers must stay correct anyway.
#[test]
fn toggling_evidence_defeats_the_cache_but_not_correctness() {
    let mut fast = UavEddiRuntime::new(13, SafeDronesConfig::default(), home());
    let mut reference = ReferenceEddiRuntime::new(13, SafeDronesConfig::default(), home());
    let mut inc = IncrementalConsertNetwork::new("uav1");
    let naive_net = uav_consert_network("uav1");
    let scene = SceneCondition {
        altitude_m: 30.0,
        visibility: 1.0,
    };
    for tick in 0u64..24 {
        let pos = home().with_alt(30.0);
        let mut tel = UavTelemetry::nominal(UavId::new(1), SimTime::from_millis(tick * 100), pos);
        tel.gps.position = pos;
        // The link flaps every tick, flipping comm_ok in the evidence.
        tel.link_quality = if tick % 2 == 0 { 1.0 } else { 0.1 };
        let f = fast.tick(&tel, &scene);
        let r = reference.tick(&tel, &scene);
        assert_outputs_bit_equal(&f, &r, &format!("toggle tick {tick}"));
        let ev = fast.evidence(&tel, false, true);
        assert_eq!(ev, reference.evidence(&tel, false, true));
        let fast_decision = inc.decide(&ev);
        let naive_decision = ConsertDecision {
            action: evaluate_uav(&naive_net, "uav1", &ev),
            nav_accuracy_m: certified_navigation_accuracy_m(&naive_net, "uav1", &ev),
        };
        assert_eq!(fast_decision, naive_decision, "toggle tick {tick}");
    }
    assert_eq!(inc.stats().hits, 0, "alternating evidence must never hit");
    assert_eq!(inc.stats().misses, 24);
}

/// The zero-alloc gate: a slow battery drain walks the reliability tier
/// ladder (high → medium → low), which stresses exactly the machinery the
/// zero-alloc work rewrote — the in-place CTMC rate rewrite on every
/// telemetry tick, the solver-profile cache check, and the compiled
/// ConSert evaluator's miss path (each tier flip changes the evidence
/// fingerprint and forces a fresh decide). Every tick must stay bit-
/// identical to the naive reference, and the decision must match the
/// naive tree walk.
#[test]
fn battery_drain_tier_ladder_stays_in_lockstep() {
    let mut fast = UavEddiRuntime::new(4242, SafeDronesConfig::default(), home());
    let mut reference = ReferenceEddiRuntime::new(4242, SafeDronesConfig::default(), home());
    let mut inc = IncrementalConsertNetwork::new("uav1");
    let naive_net = uav_consert_network("uav1");
    fast.set_remaining_mission(SimDuration::from_secs(900));
    reference.set_remaining_mission(SimDuration::from_secs(900));
    let scene = SceneCondition {
        altitude_m: 30.0,
        visibility: 1.0,
    };
    let mut decisions = std::collections::HashSet::new();
    for tick in 0u64..120 {
        let pos = home().with_alt(30.0);
        let mut tel = UavTelemetry::nominal(UavId::new(1), SimTime::from_millis(tick * 100), pos);
        tel.gps.position = pos;
        // Drain from full charge to 5% while heating up: the SoC-stress
        // and Arrhenius terms sweep the whole rate ladder, and the
        // reliability tier crosses both thresholds.
        tel.battery_soc = (1.0 - tick as f64 / 126.0).max(0.05);
        tel.battery_temp_c = 25.0 + tick as f64 * 0.25;
        let f = fast.tick(&tel, &scene);
        let r = reference.tick(&tel, &scene);
        assert_outputs_bit_equal(&f, &r, &format!("drain tick {tick}"));
        let ev = fast.evidence(&tel, false, true);
        assert_eq!(ev, reference.evidence(&tel, false, true), "tick {tick}");
        let fast_decision = inc.decide(&ev);
        let naive_decision = ConsertDecision {
            action: evaluate_uav(&naive_net, "uav1", &ev),
            nav_accuracy_m: certified_navigation_accuracy_m(&naive_net, "uav1", &ev),
        };
        assert_eq!(fast_decision, naive_decision, "drain tick {tick}");
        decisions.insert(format!("{fast_decision:?}"));
    }
    assert!(
        decisions.len() >= 2,
        "the drain must actually flip the decision at least once \
         (saw {decisions:?})"
    );
    assert!(
        inc.stats().misses >= 2,
        "tier flips must force compiled-evaluator misses"
    );
}

fn platform_config(seed: u64) -> PlatformConfig {
    PlatformConfig {
        area_width_m: 150.0,
        area_height_m: 100.0,
        person_count: 3,
        seed,
        ..PlatformConfig::default()
    }
}

/// The pinned surface of one platform run: FNV-1a digests of the PoF and
/// uncertainty series bits, of every trace record and of the
/// wall-clock-free metrics minus the `eddi.cache.*` counters (the
/// reference engines kept none), each UAV's certified navigation
/// accuracy bits, and the event count.
#[derive(Debug, PartialEq)]
struct RunDigest {
    series: u64,
    trace: u64,
    metrics: u64,
    nav_accuracy_bits: Vec<Option<u64>>,
    events: usize,
}

fn run_digest(p: &Platform) -> RunDigest {
    let mut series = Fnv::new();
    for (t, v) in p.series().pof().iter().chain(p.series().uncertainty()) {
        series.f64(*t);
        series.f64(*v);
    }
    let mut trace = Fnv::new();
    for rec in p.trace().iter() {
        trace.bytes(format!("{rec:?}").as_bytes());
    }
    let mut snap = p.metrics_snapshot().without_wall_clock();
    snap.counters
        .retain(|name, _| !name.starts_with("eddi.cache."));
    let mut metrics = Fnv::new();
    metrics.bytes(format!("{snap:?}").as_bytes());
    RunDigest {
        series: series.finish(),
        trace: trace.finish(),
        metrics: metrics.finish(),
        nav_accuracy_bits: (0..p.uav_count())
            .map(|i| p.certified_nav_accuracy_m(i).map(f64::to_bits))
            .collect(),
        events: p.events().iter().count(),
    }
}

/// Every UAV certified 0.5 m navigation accuracy at the end of each
/// pinned run.
const NAV_HALF_METRE: Option<u64> = Some(0x3fe0_0000_0000_0000);

/// Full platform runs reproduce, bit for bit, what the platform produced
/// when it still ran the naive reference engines (`ReferenceEddiRuntime`
/// plus the naive ConSert catalog): the digests below were recorded from
/// those runs, which matched the incremental engines digest for digest.
/// The per-tick, per-record replay against the live reference engines
/// is the orchestrator's `*_locksteps_with_the_reference_engines` unit
/// tests.
#[test]
fn platform_runs_are_bit_identical_across_the_fast_path_switch() {
    let pinned = [
        (3u64, 0xd776_e5ce_1fa9_60de_u64, 101),
        (17, 0x1a0a_bcdd_0f31_3a3a, 97),
        (99, 0x8dfc_1e95_769d_c213, 88),
    ];
    for (seed, series, events) in pinned {
        let mut p = Platform::new(platform_config(seed));
        p.launch();
        for _ in 0..120 {
            p.step();
        }
        assert_eq!(
            run_digest(&p),
            RunDigest {
                series,
                trace: 0x82f3_3d41_134e_67e9,
                metrics: 0x4e23_f1f1_ef7b_c9f3,
                nav_accuracy_bits: vec![NAV_HALF_METRE; 3],
                events,
            },
            "seed {seed} diverged from the reference-engine digests"
        );
        // The incremental engines actually cached.
        assert!(p.metrics().counter("eddi.cache.hit") > 0, "seed {seed}");
    }
}

/// A degraded-mode communication-fault transition (link blackout →
/// supervision demotion → recovery) must invalidate caches, not corrupt
/// them: the run reproduces the reference-engine digests of the same
/// episode, and the caches keep missing (re-evaluating) as the evidence
/// shifts.
#[test]
fn comm_fault_transitions_invalidate_but_stay_in_lockstep() {
    use sesame::middleware::chaos::CommFaultKind;

    let mut p = Platform::new(platform_config(7));
    p.launch();
    for _ in 0..50 {
        p.step();
    }
    let misses_before = p.metrics().counter("eddi.cache.miss");
    // Cut uav1 off for 10 s: supervision demotes it through Degraded
    // into SafeFallback, and the ConSert evidence flips.
    let now = p.now();
    p.comm_faults_mut().schedule(
        now,
        SimDuration::from_secs(10),
        CommFaultKind::LinkBlackout { uav: UavId::new(1) },
    );
    for _ in 0..150 {
        p.step();
    }
    assert_eq!(
        p.health(0),
        HealthState::Nominal,
        "recovered after the blackout"
    );
    assert_eq!(
        run_digest(&p),
        RunDigest {
            series: 0x7368_687e_7666_1643,
            trace: 0x1c48_6588_9c74_dd94,
            metrics: 0x1b7b_6d91_6c0a_d0a1,
            nav_accuracy_bits: vec![NAV_HALF_METRE; 3],
            events: 121,
        },
        "the blackout episode diverged from the reference-engine digests"
    );
    let misses_after = p.metrics().counter("eddi.cache.miss");
    assert!(
        misses_after > misses_before,
        "the transition must force re-evaluations ({misses_before} -> {misses_after})"
    );
}
