//! The SafeDrones runtime monitor.
//!
//! Glues the subsystem models into the UAV-level fault tree and exposes the
//! runtime loop of the paper's §III-A1: every tick, feed telemetry, advance
//! the Markov beliefs, evaluate the tree, and compare the probability of
//! failure against the mission-abort threshold (0.9 in the §V-A
//! evaluation). The monitor is the "Safety EDDI" executable model for one
//! UAV; `sesame-core` hosts one per airframe.

use crate::battery::{BatteryModel, BatteryParams};
use crate::comms::CommsModel;
use crate::fta::{BasicEventId, FaultTree, Node};
use crate::markov::SolverCacheStats;
use crate::processor::ProcessorModel;
use crate::propulsion::{MotorLayout, PropulsionModel};
use crate::ReliabilityLevel;
use sesame_types::telemetry::UavTelemetry;
use sesame_types::time::{SimDuration, SimTime};

/// Configuration of a [`SafeDronesMonitor`].
#[derive(Debug, Clone)]
pub struct SafeDronesConfig {
    /// Airframe layout.
    pub layout: MotorLayout,
    /// Per-motor failure rate, per second.
    pub lambda_motor: f64,
    /// Battery model parameters.
    pub battery: BatteryParams,
    /// Processor permanent-fault rate, per second.
    pub lambda_processor: f64,
    /// Processor full-utilization soft-error rate, per second.
    pub lambda_ser: f64,
    /// Comms drop rate at perfect link quality, per second.
    pub lambda_comms: f64,
    /// Comms recovery rate at perfect link quality, per second.
    pub mu_comms: f64,
    /// PoF at or above which the monitor demands an emergency landing —
    /// the paper's "predefined failure probability threshold (0.9)".
    pub pof_threshold: f64,
    /// PoF below which reliability is High.
    pub high_max: f64,
    /// PoF below which reliability is Medium (and above which Low).
    pub medium_max: f64,
}

impl Default for SafeDronesConfig {
    fn default() -> Self {
        SafeDronesConfig {
            layout: MotorLayout::Quad,
            lambda_motor: 1e-6,
            battery: BatteryParams::default(),
            lambda_processor: 1e-8,
            lambda_ser: 5e-8,
            lambda_comms: 1e-5,
            mu_comms: 0.05,
            pof_threshold: 0.9,
            high_max: 0.1,
            medium_max: 0.5,
        }
    }
}

/// What the monitor recommends to the ConSert layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReliabilityAction {
    /// Reliability supports continuing the mission.
    Continue,
    /// Degraded: finish gracefully, take no new tasks, return when
    /// convenient.
    ReturnToBase,
    /// PoF reached the abort threshold: land immediately.
    EmergencyLand,
}

/// A full reliability report for one tick.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityEstimate {
    /// When the estimate was produced.
    pub time: SimTime,
    /// Top-event (UAV loss) probability.
    pub pof: f64,
    /// Banded level fed to the Safety EDDI ConSert.
    pub level: ReliabilityLevel,
    /// Recommended action.
    pub action: ReliabilityAction,
    /// Propulsion-subsystem PoF.
    pub pof_propulsion: f64,
    /// Battery chemical-failure PoF.
    pub pof_battery: f64,
    /// Energy-exhaustion risk before mission end.
    pub pof_energy: f64,
    /// Processor PoF.
    pub pof_processor: f64,
    /// Comms-down probability.
    pub pof_comms: f64,
}

/// The per-UAV SafeDrones monitor. See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct SafeDronesMonitor {
    config: SafeDronesConfig,
    propulsion: PropulsionModel,
    battery: BatteryModel,
    processor: ProcessorModel,
    comms: CommsModel,
    tree: FaultTree,
    now: SimTime,
    last_telemetry: Option<SimTime>,
    remaining_mission_secs: f64,
}

impl SafeDronesMonitor {
    /// Creates a monitor from a configuration.
    pub fn new(config: SafeDronesConfig) -> Self {
        let tree = FaultTree::new(Node::or(vec![
            Node::basic("propulsion"),
            Node::basic("battery"),
            Node::basic("energy"),
            Node::basic("processor"),
            Node::basic("comms"),
        ]))
        .expect("static tree is well-formed");
        SafeDronesMonitor {
            propulsion: PropulsionModel::new(config.layout, config.lambda_motor),
            battery: BatteryModel::new(config.battery),
            processor: ProcessorModel::new(config.lambda_processor, config.lambda_ser),
            comms: CommsModel::new(config.lambda_comms, config.mu_comms),
            config,
            tree,
            now: SimTime::ZERO,
            last_telemetry: None,
            remaining_mission_secs: 0.0,
        }
    }

    /// Sets how much mission time remains (drives the energy-exhaustion
    /// term).
    pub fn set_remaining_mission(&mut self, remaining: SimDuration) {
        self.remaining_mission_secs = remaining.as_secs_f64();
    }

    /// Feeds one telemetry snapshot: motor flags, battery temperature and
    /// state of charge, and link quality.
    pub fn ingest(&mut self, telemetry: &UavTelemetry) {
        let dt = match self.last_telemetry {
            Some(prev) => telemetry.time.since(prev).as_secs_f64(),
            None => 0.0,
        };
        self.last_telemetry = Some(telemetry.time);
        self.propulsion
            .observe_motor_failures_if_changed(telemetry.failed_motors());
        self.battery
            .update_telemetry(telemetry.battery_temp_c, telemetry.battery_soc, dt);
        self.comms.update_link_quality(telemetry.link_quality);
    }

    /// Advances every subsystem belief by `dt`.
    pub fn advance(&mut self, dt: SimDuration) {
        let s = dt.as_secs_f64();
        self.propulsion.advance(s);
        self.battery.advance(s);
        self.processor.advance(s);
        self.comms.advance(s);
        self.now += dt;
    }

    /// Top-event probability of failure right now.
    pub fn probability_of_failure(&self) -> f64 {
        self.estimate().pof
    }

    /// The full per-subsystem report.
    pub fn estimate(&self) -> ReliabilityEstimate {
        let pof_propulsion = self.propulsion.probability_of_failure();
        let pof_battery = self.battery.probability_of_failure();
        let pof_energy = self
            .battery
            .energy_exhaustion_risk(self.remaining_mission_secs);
        let pof_processor = self.processor.probability_of_failure();
        let pof_comms = self.comms.probability_of_failure();
        // Leaf lookup by name match instead of a freshly built HashMap:
        // bit-identical tree evaluation with zero heap allocations per
        // tick (see DESIGN.md "Hot-loop memory discipline").
        let pof = self
            .tree
            .evaluate_with(&mut |id: &BasicEventId| match id.as_str() {
                "propulsion" => Some(pof_propulsion),
                "battery" => Some(pof_battery),
                "energy" => Some(pof_energy),
                "processor" => Some(pof_processor),
                "comms" => Some(pof_comms),
                _ => None,
            })
            .expect("all leaves supplied with valid probabilities");
        let level = ReliabilityLevel::from_pof(pof, self.config.high_max, self.config.medium_max);
        let action = if pof >= self.config.pof_threshold {
            ReliabilityAction::EmergencyLand
        } else if level == ReliabilityLevel::Low {
            ReliabilityAction::ReturnToBase
        } else {
            ReliabilityAction::Continue
        };
        ReliabilityEstimate {
            time: self.now,
            pof,
            level,
            action,
            pof_propulsion,
            pof_battery,
            pof_energy,
            pof_processor,
            pof_comms,
        }
    }

    /// Direct access to the battery model (used by experiments to inspect
    /// the belief).
    pub fn battery(&self) -> &BatteryModel {
        &self.battery
    }

    /// Direct access to the propulsion model.
    pub fn propulsion(&self) -> &PropulsionModel {
        &self.propulsion
    }

    /// The configured abort threshold.
    pub fn pof_threshold(&self) -> f64 {
        self.config.pof_threshold
    }

    /// Enables the bit-identical rate-keyed Markov solver cache on every
    /// CTMC-backed subsystem model (propulsion, battery, comms; the
    /// processor model is closed-form and has nothing to cache). The
    /// belief trajectory is unchanged — only repeated exit-rate and
    /// uniformization-rate computations are skipped while the
    /// failure-rate vector stays bit-identical across ticks.
    pub fn enable_solver_cache(&mut self) {
        self.propulsion.enable_solver_cache();
        self.battery.enable_solver_cache();
        self.comms.enable_solver_cache();
    }

    /// Aggregated solver-cache counters across all subsystem models.
    pub fn solver_cache_stats(&self) -> SolverCacheStats {
        let parts = [
            self.propulsion.solver_cache_stats(),
            self.battery.solver_cache_stats(),
            self.comms.solver_cache_stats(),
        ];
        parts
            .iter()
            .fold(SolverCacheStats::default(), |acc, s| SolverCacheStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
            })
    }
}

impl PropulsionModel {
    /// Observes a failed-motor count only when it differs from the last
    /// observation (re-observing the same diagnosis every tick would keep
    /// resetting the Markov belief).
    pub fn observe_motor_failures_if_changed(&mut self, failed: usize) {
        if failed != self.observed_failures() {
            self.observe_motor_failures(failed);
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use sesame_types::geo::GeoPoint;
    use sesame_types::ids::UavId;

    fn telemetry(t_secs: u64, soc: f64, temp: f64) -> UavTelemetry {
        let mut tel = UavTelemetry::nominal(
            UavId::new(1),
            SimTime::from_secs(t_secs),
            GeoPoint::new(35.0, 33.0, 30.0),
        );
        tel.battery_soc = soc;
        tel.battery_temp_c = temp;
        tel
    }

    #[test]
    fn nominal_mission_stays_high_reliability() {
        let mut mon = SafeDronesMonitor::new(SafeDronesConfig::default());
        mon.set_remaining_mission(SimDuration::from_secs(600));
        for t in 0..600u64 {
            let soc = 1.0 - t as f64 * 0.0005; // gentle discharge
            mon.ingest(&telemetry(t, soc, 25.0));
            mon.advance(SimDuration::from_secs(1));
        }
        let est = mon.estimate();
        assert!(est.pof < 0.05, "pof = {}", est.pof);
        assert_eq!(est.level, ReliabilityLevel::High);
        assert_eq!(est.action, ReliabilityAction::Continue);
    }

    #[test]
    fn battery_fault_escalates_and_crosses_threshold() {
        // Reproduces the §V-A dynamics in miniature: sharp SoC drop + heat,
        // PoF climbs until the 0.9 threshold commands an emergency landing.
        let mut cfg = SafeDronesConfig::default();
        cfg.battery.activation_energy_ev = 1.0;
        let mut mon = SafeDronesMonitor::new(cfg);
        mon.set_remaining_mission(SimDuration::from_secs(260));
        mon.ingest(&telemetry(0, 0.8, 25.0));
        mon.advance(SimDuration::from_secs(1));
        let before = mon.probability_of_failure();
        // Fault: 80 % -> 40 % within a second, 60 °C pack.
        mon.ingest(&telemetry(1, 0.4, 60.0));
        let mut crossed_at = None;
        for t in 2..1500u64 {
            mon.advance(SimDuration::from_secs(1));
            mon.ingest(&telemetry(t, 0.4, 60.0));
            let est = mon.estimate();
            if est.action == ReliabilityAction::EmergencyLand {
                crossed_at = Some(t);
                break;
            }
        }
        let t_cross = crossed_at.expect("threshold must eventually be crossed");
        assert!(before < 0.01);
        assert!(
            (120..=1200).contains(&t_cross),
            "crossing time {t_cross}s out of plausible band"
        );
    }

    #[test]
    fn motor_failure_drops_level() {
        let mut cfg = SafeDronesConfig::default();
        cfg.layout = MotorLayout::Quad;
        let mut mon = SafeDronesMonitor::new(cfg);
        let mut tel = telemetry(1, 0.9, 25.0);
        tel.motors_ok = vec![true, true, false, true];
        mon.ingest(&tel);
        let est = mon.estimate();
        // Quad with one motor out has lost controllability.
        assert!(est.pof > 0.9, "pof = {}", est.pof);
        assert_eq!(est.action, ReliabilityAction::EmergencyLand);
    }

    #[test]
    fn hexa_tolerates_one_motor() {
        let mut cfg = SafeDronesConfig::default();
        cfg.layout = MotorLayout::Hexa;
        let mut mon = SafeDronesMonitor::new(cfg);
        let mut tel = telemetry(1, 0.9, 25.0);
        tel.motors_ok = vec![true, true, false, true, true, true];
        mon.ingest(&tel);
        let est = mon.estimate();
        assert!(est.pof < 0.5, "pof = {}", est.pof);
        assert_ne!(est.action, ReliabilityAction::EmergencyLand);
    }

    #[test]
    fn repeated_identical_motor_observation_does_not_reset_belief() {
        let mut cfg = SafeDronesConfig::default();
        cfg.lambda_motor = 1e-4;
        let mut mon = SafeDronesMonitor::new(cfg);
        for t in 0..100u64 {
            mon.ingest(&telemetry(t, 0.9, 25.0));
            mon.advance(SimDuration::from_secs(10));
        }
        // With per-tick resets this would stay at exactly zero.
        assert!(mon.estimate().pof_propulsion > 0.0);
    }

    #[test]
    fn energy_term_reacts_to_remaining_mission() {
        let mut mon = SafeDronesMonitor::new(SafeDronesConfig::default());
        mon.ingest(&telemetry(0, 0.5, 25.0));
        mon.ingest(&telemetry(10, 0.49, 25.0)); // 0.1 %/s discharge
        mon.set_remaining_mission(SimDuration::from_secs(10));
        let short = mon.estimate().pof_energy;
        mon.set_remaining_mission(SimDuration::from_secs(5000));
        let long = mon.estimate().pof_energy;
        assert!(long > short);
    }

    #[test]
    fn estimate_fields_are_consistent() {
        let mon = SafeDronesMonitor::new(SafeDronesConfig::default());
        let est = mon.estimate();
        // OR-tree output dominates every subsystem term.
        for sub in [
            est.pof_propulsion,
            est.pof_battery,
            est.pof_energy,
            est.pof_processor,
            est.pof_comms,
        ] {
            assert!(est.pof >= sub - 1e-12);
        }
        assert!(mon.pof_threshold() > 0.0);
    }
}
