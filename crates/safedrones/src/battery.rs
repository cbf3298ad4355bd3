//! Temperature-accelerated battery reliability.
//!
//! The §V-A evaluation injects a battery fault "due to high temperature,
//! causing a sharp drop from 80 % to 40 %" of charge. This module provides
//! the Markov battery model that turns such telemetry into a probability of
//! failure:
//!
//! * a four-state chain Healthy → Stressed → Critical → Failed, with the
//!   base degradation rate multiplied by an **Arrhenius acceleration
//!   factor** in temperature and by a depth-of-discharge stress term;
//! * an energy-exhaustion check: given the observed discharge rate, the
//!   probability the pack is empty before the mission ends.

use crate::markov::{Ctmc, CtmcProcess};

/// Boltzmann constant in eV/K.
const K_B_EV: f64 = 8.617_333e-5;

/// State indices of the battery chain.
pub mod state {
    /// Nominal cell behaviour.
    pub const HEALTHY: usize = 0;
    /// Elevated temperature / deep discharge observed.
    pub const STRESSED: usize = 1;
    /// Imminent-failure symptoms (voltage sag, thermal runaway onset).
    pub const CRITICAL: usize = 2;
    /// Absorbing failure.
    pub const FAILED: usize = 3;
}

/// Arrhenius acceleration factor relative to a reference temperature.
///
/// `AF = exp[(Ea/k) · (1/T_ref − 1/T)]` with temperatures in Kelvin; above
/// the reference the factor exceeds 1 and degradation accelerates.
///
/// # Examples
///
/// ```
/// use sesame_safedrones::battery::arrhenius_factor;
///
/// assert!((arrhenius_factor(25.0, 25.0, 0.5) - 1.0).abs() < 1e-12);
/// assert!(arrhenius_factor(60.0, 25.0, 0.5) > 5.0);
/// ```
pub fn arrhenius_factor(temp_c: f64, ref_temp_c: f64, activation_energy_ev: f64) -> f64 {
    let t = temp_c + 273.15;
    let tr = ref_temp_c + 273.15;
    ((activation_energy_ev / K_B_EV) * (1.0 / tr - 1.0 / t)).exp()
}

/// Configuration of the battery reliability model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryParams {
    /// Base Healthy→Stressed rate at the reference temperature, per second.
    pub lambda_base: f64,
    /// Escalation multiplier for Stressed→Critical over the base rate.
    pub escalate_factor: f64,
    /// Escalation multiplier for Critical→Failed over the base rate.
    pub fail_factor: f64,
    /// Arrhenius activation energy in eV.
    pub activation_energy_ev: f64,
    /// Reference temperature in °C.
    pub ref_temp_c: f64,
    /// State of charge below which depletion stress kicks in.
    pub low_soc: f64,
}

impl Default for BatteryParams {
    fn default() -> Self {
        BatteryParams {
            lambda_base: 2e-6,
            escalate_factor: 8.0,
            fail_factor: 40.0,
            activation_energy_ev: 0.5,
            ref_temp_c: 25.0,
            low_soc: 0.2,
        }
    }
}

/// The runtime battery reliability model.
///
/// Call [`BatteryModel::update_telemetry`] with the latest temperature and
/// state of charge, then [`BatteryModel::advance`] each tick; the failure
/// probability accounts for both chemical degradation (Markov chain) and
/// energy exhaustion.
#[derive(Debug, Clone)]
pub struct BatteryModel {
    params: BatteryParams,
    pub(crate) process: CtmcProcess,
    temp_c: f64,
    soc: f64,
    /// Observed discharge rate (fraction of capacity per second).
    discharge_rate: f64,
}

impl BatteryModel {
    /// Creates a model with the given parameters, starting healthy at 25 °C
    /// and full charge.
    pub fn new(params: BatteryParams) -> Self {
        let chain = Self::build_chain(&params, 25.0, 1.0);
        BatteryModel {
            params,
            process: CtmcProcess::new(chain, state::HEALTHY),
            temp_c: 25.0,
            soc: 1.0,
            discharge_rate: 0.0,
        }
    }

    fn build_chain(p: &BatteryParams, temp_c: f64, soc: f64) -> Ctmc {
        let mut chain = Ctmc::new(4);
        Self::write_rates(p, temp_c, soc, &mut chain);
        chain
    }

    /// Writes the temperature/SoC-dependent rates into `chain` in place —
    /// bit-identical to a fresh [`BatteryModel::build_chain`] but without
    /// allocating, so the per-telemetry refresh stays off the heap.
    fn write_rates(p: &BatteryParams, temp_c: f64, soc: f64, chain: &mut Ctmc) {
        let af = arrhenius_factor(temp_c, p.ref_temp_c, p.activation_energy_ev);
        // Depth-of-discharge stress: 1 at full charge, ramping up sharply
        // below `low_soc`.
        let soc_stress = if soc >= p.low_soc {
            1.0 + (1.0 - soc)
        } else {
            2.0 + 20.0 * (p.low_soc - soc) / p.low_soc
        };
        let l = p.lambda_base * af * soc_stress;
        chain.clear_rates();
        chain.set_rate(state::HEALTHY, state::STRESSED, l);
        chain.set_rate(state::STRESSED, state::CRITICAL, l * p.escalate_factor);
        chain.set_rate(state::CRITICAL, state::FAILED, l * p.fail_factor);
        // Mild self-recovery while not failed (cooling down, load shed).
        chain.set_rate(state::STRESSED, state::HEALTHY, p.lambda_base);
    }

    /// Feeds the latest telemetry. A *sharp* state-of-charge drop (more
    /// than 20 percentage points against the trend) is diagnosed as a fault
    /// and collapses the belief to the Critical state — this is the §V-A
    /// trigger.
    pub fn update_telemetry(&mut self, temp_c: f64, soc: f64, dt_secs: f64) {
        let soc = soc.clamp(0.0, 1.0);
        if dt_secs > 0.0 {
            let drop = self.soc - soc;
            if drop > 0.2 {
                // Sharp drop — observed fault, not normal discharge; the
                // discharge-trend estimate must not absorb the step.
                self.process.observe_state(state::CRITICAL);
            } else {
                // Exponentially smoothed discharge trend.
                let instant = (drop / dt_secs).max(0.0);
                self.discharge_rate = if self.discharge_rate == 0.0 {
                    instant
                } else {
                    0.9 * self.discharge_rate + 0.1 * instant
                };
            }
        }
        self.temp_c = temp_c;
        self.soc = soc;
        Self::write_rates(&self.params, temp_c, soc, self.process.chain_mut());
    }

    /// Advances the degradation chain by `dt_secs`.
    pub fn advance(&mut self, dt_secs: f64) {
        self.process.advance(dt_secs);
    }

    /// Enables the bit-identical rate-keyed solver cache on the
    /// underlying Markov process (see [`CtmcProcess::enable_solver_cache`]).
    /// The per-telemetry chain rebuild in
    /// [`BatteryModel::update_telemetry`] self-invalidates it whenever the
    /// rebuilt rates differ bit-wise from the cached ones.
    pub fn enable_solver_cache(&mut self) {
        self.process.enable_solver_cache();
    }

    /// Hit/miss counters of the solver cache.
    pub fn solver_cache_stats(&self) -> crate::markov::SolverCacheStats {
        self.process.solver_cache_stats()
    }

    /// Probability the battery has failed chemically by now.
    pub fn probability_of_failure(&self) -> f64 {
        self.process.mass_in(&[state::FAILED])
    }

    /// Probability the battery fails within a further `horizon_secs`
    /// (prognosis; does not mutate the belief).
    pub fn pof_within(&self, horizon_secs: f64) -> f64 {
        let dist = self
            .process
            .chain()
            .transient(self.process.distribution(), horizon_secs);
        dist[state::FAILED]
    }

    /// Probability that the pack is *empty* before `remaining_mission_secs`
    /// elapse, from the observed discharge trend. Deterministic projection
    /// smoothed into a probability with a logistic margin.
    pub fn energy_exhaustion_risk(&self, remaining_mission_secs: f64) -> f64 {
        if self.discharge_rate <= 0.0 {
            return 0.0;
        }
        let endurance = self.soc / self.discharge_rate;
        // Margin in units of 10% of the remaining mission time.
        let margin = (endurance - remaining_mission_secs) / (0.1 * remaining_mission_secs + 1.0);
        1.0 / (1.0 + margin.exp())
    }

    /// Latest state of charge.
    pub fn soc(&self) -> f64 {
        self.soc
    }

    /// Latest temperature in °C.
    pub fn temperature_c(&self) -> f64 {
        self.temp_c
    }

    /// The belief over the four chain states.
    pub fn belief(&self) -> &[f64] {
        self.process.distribution()
    }
}

impl Default for BatteryModel {
    fn default() -> Self {
        Self::new(BatteryParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrhenius_is_one_at_reference() {
        assert!((arrhenius_factor(25.0, 25.0, 0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arrhenius_monotone_in_temperature() {
        let f30 = arrhenius_factor(30.0, 25.0, 0.5);
        let f50 = arrhenius_factor(50.0, 25.0, 0.5);
        let f70 = arrhenius_factor(70.0, 25.0, 0.5);
        assert!(1.0 < f30 && f30 < f50 && f50 < f70);
        assert!(arrhenius_factor(0.0, 25.0, 0.5) < 1.0, "cold slows aging");
    }

    #[test]
    fn nominal_operation_keeps_pof_tiny() {
        let mut b = BatteryModel::default();
        for _ in 0..600 {
            b.update_telemetry(25.0, 1.0 - 0.0001, 1.0);
            b.advance(1.0);
        }
        assert!(b.probability_of_failure() < 1e-4);
    }

    #[test]
    fn high_temperature_accelerates_failure() {
        let run = |temp: f64| {
            let mut b = BatteryModel::default();
            b.update_telemetry(temp, 0.8, 1.0);
            b.advance(3600.0);
            b.probability_of_failure()
        };
        assert!(run(70.0) > run(25.0) * 3.0);
    }

    #[test]
    fn sharp_soc_drop_collapses_to_critical() {
        let mut b = BatteryModel::default();
        b.update_telemetry(25.0, 0.8, 1.0);
        b.advance(1.0);
        // The §V-A event: 80 % -> 40 % in one tick.
        b.update_telemetry(60.0, 0.4, 1.0);
        assert!(b.belief()[state::CRITICAL] > 0.99);
        // From Critical at 60 °C, failure accumulates fast relative to base.
        let pof_10min = b.pof_within(600.0);
        assert!(pof_10min > 0.05, "pof after fault = {pof_10min}");
    }

    #[test]
    fn gradual_discharge_is_not_a_fault() {
        let mut b = BatteryModel::default();
        let mut soc = 1.0;
        for _ in 0..100 {
            soc -= 0.001;
            b.update_telemetry(25.0, soc, 1.0);
            b.advance(1.0);
        }
        assert!(b.belief()[state::CRITICAL] < 0.01);
    }

    #[test]
    fn exhaustion_risk_tracks_endurance() {
        let mut b = BatteryModel::default();
        b.update_telemetry(25.0, 1.0, 0.0);
        // Discharge 0.1%/s -> endurance 500 s at soc 0.5.
        b.update_telemetry(25.0, 0.999, 1.0);
        let plenty = b.energy_exhaustion_risk(10.0);
        let tight = b.energy_exhaustion_risk(2000.0);
        assert!(plenty < 0.05, "plenty = {plenty}");
        assert!(tight > 0.5, "tight = {tight}");
        assert!(b.energy_exhaustion_risk(0.0) <= 1.0);
    }

    #[test]
    fn no_discharge_means_no_exhaustion_risk() {
        let b = BatteryModel::default();
        assert_eq!(b.energy_exhaustion_risk(1e6), 0.0);
    }

    #[test]
    fn soc_clamped_into_unit_interval() {
        let mut b = BatteryModel::default();
        b.update_telemetry(25.0, 1.7, 1.0);
        assert_eq!(b.soc(), 1.0);
        b.update_telemetry(25.0, -0.3, 1.0);
        assert_eq!(b.soc(), 0.0);
        assert_eq!(b.temperature_c(), 25.0);
    }
}
