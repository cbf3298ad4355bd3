//! Communication subsystem reliability.
//!
//! The SafeDrones guarantees cover "Reliable Propulsion, Communication,
//! Energy Control" (Fig. 1). The comms model is a two-state repairable
//! Markov chain — links drop and recover — whose failure rate responds to
//! the observed link quality: a weak radio link is both more likely to
//! drop and slower to recover.

use crate::markov::{Ctmc, CtmcProcess};

/// State indices of the comms chain.
pub mod state {
    /// Link operating.
    pub const UP: usize = 0;
    /// Link down (recoverable, so not absorbing).
    pub const DOWN: usize = 1;
}

/// Runtime communication reliability model.
///
/// # Examples
///
/// ```
/// use sesame_safedrones::comms::CommsModel;
///
/// let mut c = CommsModel::new(1e-4, 0.05);
/// c.update_link_quality(0.9);
/// c.advance(60.0);
/// assert!(c.probability_down() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct CommsModel {
    lambda_drop: f64,
    mu_recover: f64,
    link_quality: f64,
    pub(crate) process: CtmcProcess,
}

impl CommsModel {
    /// Creates the model with a baseline drop rate and recovery rate (per
    /// second) at perfect link quality.
    ///
    /// # Panics
    ///
    /// Panics if either rate is negative or non-finite.
    pub fn new(lambda_drop: f64, mu_recover: f64) -> Self {
        assert!(
            lambda_drop.is_finite() && lambda_drop >= 0.0,
            "drop rate must be ≥ 0"
        );
        assert!(
            mu_recover.is_finite() && mu_recover >= 0.0,
            "recovery rate must be ≥ 0"
        );
        let mut m = CommsModel {
            lambda_drop,
            mu_recover,
            link_quality: 1.0,
            process: CtmcProcess::new(Ctmc::new(2), state::UP),
        };
        m.rebuild();
        m
    }

    /// Rewrites the link-quality-dependent rates into the existing chain
    /// in place (no allocation; see DESIGN.md, "Hot-loop memory
    /// discipline").
    fn rebuild(&mut self) {
        let q = self.link_quality.clamp(0.01, 1.0);
        let lambda = self.lambda_drop / (q * q);
        let mu = self.mu_recover * q;
        // Weak link: drop rate grows as 1/q², recovery shrinks with q.
        let chain = self.process.chain_mut();
        chain.clear_rates();
        chain.set_rate(state::UP, state::DOWN, lambda);
        chain.set_rate(state::DOWN, state::UP, mu);
    }

    /// Feeds the latest link quality in `[0, 1]`.
    pub fn update_link_quality(&mut self, quality: f64) {
        self.link_quality = quality.clamp(0.0, 1.0);
        self.rebuild();
    }

    /// Advances the belief by `dt_secs`.
    pub fn advance(&mut self, dt_secs: f64) {
        self.process.advance(dt_secs);
    }

    /// Enables the bit-identical rate-keyed solver cache on the
    /// underlying Markov process (see [`CtmcProcess::enable_solver_cache`]).
    pub fn enable_solver_cache(&mut self) {
        self.process.enable_solver_cache();
    }

    /// Hit/miss counters of the solver cache.
    pub fn solver_cache_stats(&self) -> crate::markov::SolverCacheStats {
        self.process.solver_cache_stats()
    }

    /// Probability the link is down right now.
    pub fn probability_down(&self) -> f64 {
        self.process.mass_in(&[state::DOWN])
    }

    /// Marks the link observed down (e.g. heartbeat loss).
    pub fn observe_down(&mut self) {
        self.process.observe_state(state::DOWN);
    }

    /// Marks the link observed up.
    pub fn observe_up(&mut self) {
        self.process.observe_state(state::UP);
    }

    /// Probability the link is down at any point used as the comms
    /// contribution to the UAV fault tree: we take the current belief.
    pub fn probability_of_failure(&self) -> f64 {
        self.probability_down()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_matches_birth_death_formula() {
        let mut c = CommsModel::new(0.01, 0.04);
        c.update_link_quality(1.0);
        c.advance(10_000.0);
        // p_down = λ/(λ+μ) = 0.01/0.05.
        assert!((c.probability_down() - 0.2).abs() < 1e-6);
    }

    #[test]
    fn weak_link_is_less_reliable() {
        let mut strong = CommsModel::new(1e-3, 0.1);
        strong.update_link_quality(1.0);
        let mut weak = CommsModel::new(1e-3, 0.1);
        weak.update_link_quality(0.3);
        strong.advance(600.0);
        weak.advance(600.0);
        assert!(weak.probability_down() > strong.probability_down() * 2.0);
    }

    #[test]
    fn observation_overrides_belief() {
        let mut c = CommsModel::new(1e-4, 0.05);
        c.advance(100.0);
        c.observe_down();
        assert_eq!(c.probability_down(), 1.0);
        c.observe_up();
        assert_eq!(c.probability_down(), 0.0);
    }

    #[test]
    fn recovery_pulls_down_probability_back() {
        let mut c = CommsModel::new(1e-4, 0.1);
        c.observe_down();
        c.advance(60.0);
        assert!(c.probability_down() < 0.1, "p = {}", c.probability_down());
    }

    #[test]
    fn quality_clamped() {
        let mut c = CommsModel::new(1e-3, 0.1);
        c.update_link_quality(7.0);
        c.update_link_quality(-2.0);
        c.advance(1.0);
        assert!(c.probability_of_failure() <= 1.0);
    }
}
