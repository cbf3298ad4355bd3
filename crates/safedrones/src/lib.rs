//! SafeDrones — real-time reliability evaluation of UAVs.
//!
//! Reproduces the SafeDrones technology of the paper (§III-A1, \[28\]): a
//! runtime safety monitor that combines **fault tree analysis** with
//! **Markov-based complex basic events** to produce a continuously updated
//! probability of failure (PoF) for each UAV, covering the propulsion
//! system, the battery, the processor and the communication subsystem.
//!
//! The flow mirrors the paper:
//!
//! 1. Each subsystem is a continuous-time Markov chain ([`markov::Ctmc`])
//!    whose rates respond to live telemetry — motor failures reshape the
//!    propulsion chain ([`propulsion`]), battery temperature accelerates
//!    degradation through an Arrhenius factor ([`battery`]).
//! 2. The subsystem failure probabilities enter a UAV-level fault tree
//!    ([`fta::FaultTree`]) as *complex basic events*.
//! 3. [`monitor::SafeDronesMonitor`] advances everything per tick, yields
//!    the current PoF and a [`ReliabilityLevel`], and recommends an action
//!    (continue / return / emergency land) against a configurable PoF
//!    threshold — the 0.9 threshold of the paper's §V-A battery scenario.
//!
//! # Examples
//!
//! ```
//! use sesame_safedrones::monitor::{SafeDronesConfig, SafeDronesMonitor};
//! use sesame_types::time::SimDuration;
//!
//! let mut mon = SafeDronesMonitor::new(SafeDronesConfig::default());
//! // One second of nominal operation barely moves the PoF.
//! for _ in 0..10 {
//!     mon.advance(SimDuration::from_millis(100));
//! }
//! assert!(mon.probability_of_failure() < 1e-3);
//! ```

pub mod battery;
pub mod comms;
pub mod export;
pub mod fta;
pub mod markov;
pub mod models;
pub mod monitor;
pub mod processor;
pub mod propulsion;

pub use fta::{BasicEventId, FaultTree, Gate};
pub use markov::{Ctmc, SolverCacheStats};
pub use monitor::{ReliabilityAction, ReliabilityEstimate, SafeDronesConfig, SafeDronesMonitor};

/// The three reliability bands the Safety EDDI ConSert consumes ("High /
/// Medium / Low Reliability" guarantees in Fig. 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReliabilityLevel {
    /// PoF below the `high` threshold — full mission capability.
    High,
    /// PoF between the thresholds — mission continues, no new tasks.
    Medium,
    /// PoF above the `medium` threshold — abort is advised.
    Low,
}

impl ReliabilityLevel {
    /// Classifies a probability of failure using the given thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `high_max >= medium_max` does not hold a sensible order
    /// (i.e. `high_max > medium_max`).
    pub fn from_pof(pof: f64, high_max: f64, medium_max: f64) -> Self {
        assert!(
            high_max < medium_max,
            "thresholds must satisfy high_max < medium_max"
        );
        if pof < high_max {
            ReliabilityLevel::High
        } else if pof < medium_max {
            ReliabilityLevel::Medium
        } else {
            ReliabilityLevel::Low
        }
    }
}

impl std::fmt::Display for ReliabilityLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReliabilityLevel::High => "high",
            ReliabilityLevel::Medium => "medium",
            ReliabilityLevel::Low => "low",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_classification() {
        assert_eq!(
            ReliabilityLevel::from_pof(0.01, 0.1, 0.5),
            ReliabilityLevel::High
        );
        assert_eq!(
            ReliabilityLevel::from_pof(0.3, 0.1, 0.5),
            ReliabilityLevel::Medium
        );
        assert_eq!(
            ReliabilityLevel::from_pof(0.9, 0.1, 0.5),
            ReliabilityLevel::Low
        );
    }

    #[test]
    #[should_panic(expected = "thresholds")]
    fn bad_thresholds_panic() {
        let _ = ReliabilityLevel::from_pof(0.5, 0.5, 0.1);
    }

    #[test]
    fn levels_are_ordered_best_first() {
        assert!(ReliabilityLevel::High < ReliabilityLevel::Medium);
        assert!(ReliabilityLevel::Medium < ReliabilityLevel::Low);
    }
}
