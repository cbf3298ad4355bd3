//! The traced run's EDDI layer timings.
//!
//! A shadow stack per UAV is fed each tick from
//! `Platform::sim_mut().telemetry(h)`, which reads simulator state
//! without changing it, so the platform under test computes exactly
//! what an untraced run computes (the digest checks prove it). Each
//! shadow UAV holds:
//!
//! * a [`UavEddiRuntime`], whose `tick` gives `core.eddi.tick_us`;
//! * the same monitors built layer by layer from each crate's public
//!   API, in the order `UavEddiRuntime::tick` calls them, each call
//!   timed on its own;
//! * an [`IncrementalConsertNetwork`] deciding on the runtime's
//!   evidence, for `conserts.decide_us`.
//!
//! Every tick the layer-by-layer outputs must equal the runtime's own
//! [`EddiOutputs`]; a difference counts as drift and fails the run, so
//! the copied construction cannot silently part from
//! `UavEddiRuntime::new`.
//!
//! The shadow measures a neighbouring computation, not the platform's
//! own: it holds the energy-risk horizon at [`REMAINING_MISSION_S`]
//! where the platform re-estimates it every tick, and it advances every
//! UAV's Markov chains on its own where a sharded platform tick solves
//! each distinct key once across UAVs. A change to that batching or to
//! the horizon estimate therefore does not move the shadow's figures.

use sesame_conserts::IncrementalConsertNetwork;
use sesame_core::orchestrator::{Platform, PlatformConfig};
use sesame_core::{EddiOutputs, UavEddiRuntime};
use sesame_deepknowledge::nn::{Activation, Mlp};
use sesame_deepknowledge::transfer::TransferAnalyzer;
use sesame_deepknowledge::uncertainty::UncertaintyMonitor;
use sesame_safedrones::monitor::{SafeDronesConfig, SafeDronesMonitor};
use sesame_safeml::monitor::{SafeMlConfig, SafeMlMonitor};
use sesame_security::spoof::SpoofDetector;
use sesame_sinadra::risk::{SarRiskModel, SituationInputs};
use sesame_sinadra::CachedSarRiskModel;
use sesame_types::geo::GeoPoint;
use sesame_types::ids::UavId;
use sesame_types::telemetry::UavTelemetry;
use sesame_types::time::{SimDuration, SimTime};
use sesame_vision::features::{FeatureExtractor, SceneCondition};
use std::hint::black_box;
use std::time::Instant;

/// The platform's mission origin, which it also hands its EDDI runtimes.
fn origin() -> GeoPoint {
    GeoPoint::new(35.05, 33.20, 0.0)
}

/// The horizon the shadow runtimes assume for the energy-risk term (the
/// platform derives it from the remaining route, which is private).
const REMAINING_MISSION_S: u64 = 600;

/// Accumulated µs and call counts of every timed layer call, plus the
/// shadow caches' hit counters.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    /// UAV-ticks evaluated.
    pub evaluations: u64,
    pub vision_us: f64,
    pub safeml_us: f64,
    pub deepknowledge_us: f64,
    pub sinadra_us: f64,
    pub safedrones_us: f64,
    pub spoof_us: f64,
    pub conserts_us: f64,
    pub eddi_tick_us: f64,
    pub sinadra_cache: (u64, u64),
    pub safedrones_cache: (u64, u64),
    pub conserts_cache: (u64, u64),
    /// UAV-ticks whose layer-by-layer outputs differed from the
    /// runtime's, and the first such difference.
    pub drifted: u64,
    pub first_drift: Option<String>,
}

impl LayerTimes {
    /// Mean µs per UAV-tick of an accumulated sum.
    pub fn per_eval(&self, sum_us: f64) -> f64 {
        if self.evaluations == 0 {
            0.0
        } else {
            sum_us / self.evaluations as f64
        }
    }

    /// The six monitor layers `UavEddiRuntime::tick` runs, summed.
    pub fn monitor_layers_us(&self) -> f64 {
        self.vision_us
            + self.safeml_us
            + self.deepknowledge_us
            + self.sinadra_us
            + self.safedrones_us
            + self.spoof_us
    }

    fn absorb_caches(&mut self, uav: &ShadowUav) {
        let bn = uav.sinadra.stats();
        let solver = uav.safedrones.solver_cache_stats();
        let consert = uav.consert.stats();
        self.sinadra_cache.0 += bn.hits();
        self.sinadra_cache.1 += bn.misses();
        self.safedrones_cache.0 += solver.hits;
        self.safedrones_cache.1 += solver.misses;
        self.conserts_cache.0 += consert.hits;
        self.conserts_cache.1 += consert.misses;
    }
}

/// Hit share of a `(hits, misses)` pair, 0 when nothing was looked up.
pub fn hit_ratio((hits, misses): (u64, u64)) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

struct ShadowUav {
    runtime: UavEddiRuntime,
    safedrones: SafeDronesMonitor,
    features: FeatureExtractor,
    frame: Vec<f64>,
    safeml: SafeMlMonitor,
    dk_model: Mlp,
    dk: UncertaintyMonitor,
    sinadra: CachedSarRiskModel,
    spoof: SpoofDetector,
    consert: IncrementalConsertNetwork,
    last_time: Option<SimTime>,
}

impl ShadowUav {
    /// Builds the layers as `UavEddiRuntime::new` does.
    fn new(seed: u64, safedrones: &SafeDronesConfig, index: usize) -> Self {
        let mut runtime = UavEddiRuntime::new(seed, safedrones.clone(), origin());
        runtime.set_remaining_mission(SimDuration::from_secs(REMAINING_MISSION_S));

        let mut features = FeatureExtractor::new(8, seed);
        let reference = features.reference_set(200);
        let mut dk_model = Mlp::new(&[8, 12, 1], Activation::Tanh, seed ^ 0xD);
        for epoch in 0..3 {
            for (i, row) in reference.iter().enumerate() {
                if (i + epoch) % 2 == 0 {
                    let label = f64::from(row.iter().sum::<f64>() > 0.0);
                    dk_model.train_step(row, &[label], 0.05);
                }
            }
        }
        let mut probe = FeatureExtractor::new(8, seed ^ 0x5117);
        let shifted: Vec<Vec<f64>> = (0..200)
            .map(|_| {
                probe.extract(&SceneCondition {
                    altitude_m: 60.0,
                    visibility: 1.0,
                })
            })
            .collect();
        let analyzer = TransferAnalyzer::analyze(&dk_model, &reference, &shifted, 0.5);
        let safeml = SafeMlMonitor::new(reference, SafeMlConfig::default())
            .expect("the generated reference set is well-formed");
        let mut monitor = SafeDronesMonitor::new(safedrones.clone());
        monitor.enable_solver_cache();
        monitor.set_remaining_mission(SimDuration::from_secs(REMAINING_MISSION_S));
        ShadowUav {
            runtime,
            safedrones: monitor,
            features,
            frame: Vec::new(),
            safeml,
            dk_model,
            dk: UncertaintyMonitor::new(analyzer, 40),
            sinadra: CachedSarRiskModel::new(SarRiskModel::new()),
            spoof: SpoofDetector::new(origin(), 20.0),
            consert: IncrementalConsertNetwork::new(UavId::new(index as u32 + 1).to_string()),
            last_time: None,
        }
    }

    fn tick(&mut self, tel: &UavTelemetry, scene: &SceneCondition, times: &mut LayerTimes) {
        let t = Instant::now();
        let outputs = black_box(self.runtime.tick(tel, scene));
        times.eddi_tick_us += us_since(t);

        let t = Instant::now();
        let dt = self
            .last_time
            .map_or(SimDuration::ZERO, |prev| tel.time.since(prev));
        self.last_time = Some(tel.time);
        self.safedrones.ingest(tel);
        if dt > SimDuration::ZERO {
            self.safedrones.advance(dt);
        }
        let reliability = black_box(self.safedrones.estimate());
        times.safedrones_us += us_since(t);

        let t = Instant::now();
        self.features.extract_into(scene, &mut self.frame);
        times.vision_us += us_since(t);

        let t = Instant::now();
        self.safeml
            .push_sample(&self.frame)
            .expect("extractor and monitor share the feature width");
        let (safeml_uncertainty, safeml_verdict) = black_box(self.safeml.assessment());
        times.safeml_us += us_since(t);

        let t = Instant::now();
        let dk_uncertainty = black_box(self.dk.assess(&self.dk_model, &self.frame));
        times.deepknowledge_us += us_since(t);

        let t = Instant::now();
        let risk = black_box(self.sinadra.assess(&SituationInputs {
            detection_uncertainty: safeml_uncertainty.max(dk_uncertainty),
            altitude_high: tel.true_position.alt_m > 40.0,
            visibility_poor: scene.visibility < 0.7,
            person_likely: true,
            time_pressure_high: true,
        }));
        times.sinadra_us += us_since(t);

        let t = Instant::now();
        let spoof = black_box(self.spoof.check(&tel.gps.position, tel.velocity, tel.time));
        times.spoof_us += us_since(t);

        let layers = EddiOutputs {
            reliability,
            safeml_verdict,
            safeml_uncertainty,
            dk_uncertainty,
            combined_uncertainty: safeml_uncertainty.max(dk_uncertainty),
            risk,
            spoof,
        };
        let same = layers.reliability == outputs.reliability
            && layers.safeml_verdict == outputs.safeml_verdict
            && layers.safeml_uncertainty.to_bits() == outputs.safeml_uncertainty.to_bits()
            && layers.dk_uncertainty.to_bits() == outputs.dk_uncertainty.to_bits()
            && layers.combined_uncertainty.to_bits() == outputs.combined_uncertainty.to_bits()
            && layers.risk == outputs.risk
            && layers.spoof == outputs.spoof;
        if !same {
            times.drifted += 1;
            times.first_drift.get_or_insert_with(|| {
                format!("at {:?}: layers {layers:?}, runtime {outputs:?}", tel.time)
            });
        }

        let evidence = self.runtime.evidence(tel, false, true);
        let t = Instant::now();
        black_box(self.consert.decide(&evidence));
        times.conserts_us += us_since(t);

        times.evaluations += 1;
    }
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// One shadow stack per UAV of a platform.
pub struct ShadowFleet {
    uavs: Vec<ShadowUav>,
}

impl ShadowFleet {
    /// Seeds each UAV's stack as the platform seeds its runtimes.
    pub fn new(config: &PlatformConfig, uav_count: usize) -> Self {
        let uavs = (0..uav_count)
            .map(|i| ShadowUav::new(config.seed ^ ((i as u64 + 1) << 16), &config.safedrones, i))
            .collect();
        ShadowFleet { uavs }
    }

    /// Feeds every UAV's current telemetry through its shadow stack.
    pub fn tick(&mut self, platform: &mut Platform, times: &mut LayerTimes) {
        let visibility = platform.sim().world().visibility();
        for (i, uav) in self.uavs.iter_mut().enumerate() {
            let handle = platform.handle(i);
            let tel = platform.sim_mut().telemetry(handle);
            let scene = SceneCondition {
                altitude_m: tel.true_position.alt_m,
                visibility,
            };
            uav.tick(&tel, &scene, times);
        }
    }

    /// Adds the shadow caches' counters into `times`.
    pub fn finish(self, times: &mut LayerTimes) {
        for uav in &self.uavs {
            times.absorb_caches(uav);
        }
    }
}
