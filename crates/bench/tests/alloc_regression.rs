//! Allocation-regression gate for the hot-loop memory discipline
//! (DESIGN.md § "Hot-loop memory discipline").
//!
//! The tentpole claim of the arena/inline-storage work is that a quiet
//! steady-state tick of the per-UAV safety pipeline — EDDI evaluation
//! (SafeDrones CTMC + FTA, SafeML, SINADRA, DeepKnowledge, attack tree)
//! plus the ConSert decide — performs **zero heap allocations** once its
//! caches and scratch buffers are warm. This test pins that claim under
//! the counting global allocator: any future `clone()`, `format!` or
//! `Vec::new` sneaking into the steady-state path turns the counter and
//! fails the build.
//!
//! A second gate pins the same claim for the split tick the platform
//! makes on every tick (`begin_tick` → one batched CTMC solve per
//! profile group → `finish_tick` with the primed distributions →
//! ConSert decide), driven here the way the orchestrator drives it.
//!
//! Telemetry snapshots are prebuilt outside the measured span (the
//! platform amortizes that construction through `telemetry_into`; here
//! it would just measure the workload generator). The full
//! `Platform::step` is *not* asserted to be zero-alloc — the bus publish
//! path (owned topic strings, payload `Arc`s) and the observability ring
//! buffers allocate by design; `tickbench` reports those as
//! `allocs_per_tick`.

use sesame_bench::alloc::{allocations, CountingAllocator};
use sesame_conserts::IncrementalConsertNetwork;
use sesame_core::eddi::TickPlan;
use sesame_core::UavEddiRuntime;
use sesame_safedrones::markov::{BatchSolveScratch, ProfileKey};
use sesame_safedrones::monitor::SafeDronesConfig;
use sesame_safedrones::MARKOV_SLOTS;
use sesame_types::geo::GeoPoint;
use sesame_types::ids::UavId;
use sesame_types::inline::InlineVec;
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

/// The warm buffers of the split tick, reused across rounds the way the
/// platform leases them from its tick scratch.
#[derive(Default)]
struct SplitTick {
    plans: Vec<Option<TickPlan>>,
    /// One batch group per distinct `(slot, ProfileKey)`, with its
    /// member UAVs.
    groups: Vec<(usize, ProfileKey, InlineVec<usize, 8>)>,
    /// Each UAV's primed distribution per slot: a span into `solved`.
    spans: Vec<[Option<(usize, usize)>; MARKOV_SLOTS]>,
    solved: Vec<f64>,
    batch_out: Vec<f64>,
    batch: BatchSolveScratch,
}

impl SplitTick {
    /// One split tick of every UAV; returns a checksum of the outputs.
    fn round(
        &mut self,
        eddis: &mut [UavEddiRuntime],
        conserts: &mut [IncrementalConsertNetwork],
        tels: &[UavTelemetry],
    ) -> u64 {
        let n = eddis.len();
        self.plans.clear();
        for (eddi, tel) in eddis.iter_mut().zip(tels) {
            self.plans.push(Some(eddi.begin_tick(tel)));
        }

        self.groups.clear();
        for (i, plan) in self.plans.iter().enumerate() {
            let Some(plan) = plan.as_ref().filter(|p| p.solve_keys().is_some()) else {
                continue;
            };
            for slot in 0..MARKOV_SLOTS {
                let key = eddis[i]
                    .safedrones()
                    .markov_process(slot)
                    .profile_key(plan.dt().as_secs_f64());
                match self
                    .groups
                    .iter_mut()
                    .find(|(s, k, _)| *s == slot && *k == key)
                {
                    Some((_, _, members)) => members.push(i),
                    None => {
                        let mut members = InlineVec::new();
                        members.push(i);
                        self.groups.push((slot, key, members));
                    }
                }
            }
        }

        self.solved.clear();
        self.spans.clear();
        self.spans.resize(n, [None; MARKOV_SLOTS]);
        for (slot, _, members) in &self.groups {
            let dt = self.plans[members[0]].as_ref().expect("planned").dt();
            let process = |i: usize| eddis[i].safedrones().markov_process(*slot);
            let mut dists: InlineVec<&[f64], 8> = InlineVec::new();
            dists.extend(members.iter().map(|&i| process(i).distribution()));
            let rep = process(members[0]);
            rep.solve_dists_batch(
                &dists,
                dt.as_secs_f64(),
                &mut self.batch_out,
                &mut self.batch,
            );
            let len = rep.distribution().len();
            for (d, &i) in members.iter().enumerate() {
                self.spans[i][*slot] = Some((self.solved.len(), len));
                self.solved
                    .extend_from_slice(&self.batch_out[d * len..][..len]);
            }
        }

        let mut checksum = 0u64;
        for i in 0..n {
            let plan = self.plans[i].take().expect("planned above");
            let mut primes: [Option<&[f64]>; MARKOV_SLOTS] = [None; MARKOV_SLOTS];
            for (prime, span) in primes.iter_mut().zip(self.spans[i]) {
                *prime = span.map(|(at, len)| &self.solved[at..at + len]);
            }
            let out = eddis[i].finish_tick(&tels[i], &SCENE, plan, primes);
            let evidence = eddis[i].evidence(&tels[i], false, true);
            let decision = conserts[i].decide(&evidence);
            checksum ^= out.reliability.pof.to_bits();
            checksum ^= decision.nav_accuracy_m.map_or(0, f64::to_bits);
        }
        checksum
    }
}

#[test]
fn steady_state_split_tick_with_batched_solves_allocates_nothing() {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    assert_allocator_counts();
    let (mut eddis, mut conserts) = engines();
    // A twin fleet on the whole-tick path checks, during warmup, that
    // the split tick driven here computes the same outputs.
    let (mut twins, mut twin_conserts) = engines();
    let tels = telemetry_rounds();
    let mut split = SplitTick::default();

    for round in tels.iter().take(WARMUP_ROUNDS as usize) {
        let checksum = split.round(&mut eddis, &mut conserts, round);
        let mut want = 0u64;
        for i in 0..UAVS {
            let out = twins[i].tick(&round[i], &SCENE);
            let evidence = twins[i].evidence(&round[i], false, true);
            let decision = twin_conserts[i].decide(&evidence);
            want ^= out.reliability.pof.to_bits();
            want ^= decision.nav_accuracy_m.map_or(0, f64::to_bits);
        }
        assert_eq!(checksum, want, "split tick diverged from the whole tick");
    }
    assert!(
        !split.groups.is_empty(),
        "the batched solve must actually run"
    );

    let before = allocations();
    let mut checksum = 0u64;
    for round in tels.iter().skip(WARMUP_ROUNDS as usize) {
        checksum ^= split.round(&mut eddis, &mut conserts, round);
    }
    let allocs = allocations() - before;

    assert_ne!(checksum, 0, "the measured loop must do real work");
    assert_eq!(
        allocs, 0,
        "steady-state split ticks (begin, batched solve, finish, decide) \
         allocated {allocs} times over {MEASURED_ROUNDS} rounds x {UAVS} \
         UAVs — the tick pipeline regressed (see DESIGN.md, Hot-loop \
         memory discipline)"
    );
}
