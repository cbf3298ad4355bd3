//! Continuous-time Markov chains with a uniformization transient solver.
//!
//! SafeDrones models each UAV subsystem as a small CTMC whose failure
//! states are absorbing. The monitor needs the *transient* distribution —
//! "what is the probability the propulsion system has failed by time t,
//! given the rates observed so far" — which [`Ctmc::transient`] computes by
//! uniformization (Jensen's method): with `Λ ≥ max|q_ii|` and
//! `P = I + Q/Λ`,
//!
//! ```text
//! p(t) = Σ_k  e^{-Λt} (Λt)^k / k!  ·  p(0) P^k
//! ```
//!
//! truncated when the accumulated Poisson mass exceeds `1 − tol`. Rates may
//! change between ticks (temperature jumps, motor failures); the monitor
//! simply advances the distribution piecewise with the current generator.
//!
//! # Step-count bound
//!
//! The truncation point grows with `Λt`; extreme rate inputs (surfaced by
//! the scenario-DSL fuzz corpus) can push `Λt` past 10¹⁴, which would turn
//! one solve into an effective hang. The iteration count is therefore
//! clamped to [`MAX_UNIFORMIZATION_STEPS`]. When the Poisson window lies
//! entirely beyond the clamp the solver returns the DTMC power iterate at
//! the clamp, `p(0)·Pᵏ` with `k = MAX_UNIFORMIZATION_STEPS` — for the
//! absorbing-failure chains SafeDrones uses, the iterate has converged to
//! the long-run distribution well before that many steps, so the answer
//! is the correct `t → ∞` limit rather than a truncation artifact.
//!
//! # Memory discipline
//!
//! All solver entry points funnel into one in-place kernel that works on
//! caller-provided [`UniformizationScratch`] buffers; with a warm scratch
//! (and a warm solver cache) a steady-state solve performs zero heap
//! allocations.

/// A continuous-time Markov chain over states `0..n`.
///
/// # Examples
///
/// ```
/// use sesame_safedrones::markov::Ctmc;
///
/// // Two states: 0 = working, 1 = failed (absorbing), rate 0.1 /s.
/// let mut c = Ctmc::new(2);
/// c.set_rate(0, 1, 0.1);
/// let p = c.transient(&[1.0, 0.0], 10.0);
/// // P(failed by 10 s) = 1 - e^{-1}
/// assert!((p[1] - (1.0 - (-1.0f64).exp())).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmc {
    n: usize,
    /// Row-major rate matrix; `rates[i*n + j]` is the transition rate
    /// i → j for i ≠ j. Diagonals are derived.
    rates: Vec<f64>,
}

impl Ctmc {
    /// Creates a chain with `n` states and no transitions.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "chain needs at least one state");
        Ctmc {
            n,
            rates: vec![0.0; n * n],
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the chain has no states (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sets the transition rate `from → to` (per second).
    ///
    /// # Panics
    ///
    /// Panics if `from == to`, if either index is out of range, or if the
    /// rate is negative or non-finite.
    pub fn set_rate(&mut self, from: usize, to: usize, rate: f64) {
        assert!(from < self.n && to < self.n, "state out of range");
        assert!(from != to, "self-transitions are implicit");
        assert!(rate.is_finite() && rate >= 0.0, "rate must be ≥ 0");
        self.rates[from * self.n + to] = rate;
    }

    /// Resets every transition rate to zero without reallocating.
    ///
    /// Per-tick model refreshes (battery temperature/SoC, comms link
    /// quality) rebuild their rate matrix from scratch; clearing the
    /// existing buffer and re-issuing [`Ctmc::set_rate`] calls produces a
    /// chain bit-identical to a fresh [`Ctmc::new`] + `set_rate` sequence
    /// while keeping the steady-state tick allocation-free (see
    /// DESIGN.md, "Hot-loop memory discipline").
    pub fn clear_rates(&mut self) {
        self.rates.fill(0.0);
    }

    /// The transition rate `from → to`.
    pub fn rate(&self, from: usize, to: usize) -> f64 {
        if from == to {
            0.0
        } else {
            self.rates[from * self.n + to]
        }
    }

    /// Total exit rate of state `i` (the negated diagonal of the
    /// generator).
    pub fn exit_rate(&self, i: usize) -> f64 {
        (0..self.n).map(|j| self.rate(i, j)).sum()
    }

    /// Whether state `i` is absorbing (no outgoing transitions).
    pub fn is_absorbing(&self, i: usize) -> bool {
        self.exit_rate(i) == 0.0
    }

    /// Transient distribution after `t` seconds starting from `p0`,
    /// computed by uniformization with truncation tolerance `1e-12`.
    ///
    /// # Panics
    ///
    /// Panics if `p0.len() != self.len()`, if `t` is negative/non-finite,
    /// or if `p0` is not (approximately) a probability vector.
    pub fn transient(&self, p0: &[f64], t: f64) -> Vec<f64> {
        self.transient_with_tol(p0, t, 1e-12)
    }

    /// [`Ctmc::transient`] with an explicit truncation tolerance.
    pub fn transient_with_tol(&self, p0: &[f64], t: f64, tol: f64) -> Vec<f64> {
        // The profile is the exact same exit-rate sums and Λ the naive
        // solver used to recompute inline, so the result is bit-identical.
        let profile = SolveProfile::build(self);
        let mut out = Vec::new();
        let mut scratch = UniformizationScratch::default();
        self.uniformize_into(p0, t, tol, &profile, &mut out, &mut scratch);
        out
    }

    /// The shared in-place uniformization kernel: advances `p0` by `t`
    /// seconds, writing the result to `out`. All work happens in
    /// `scratch`; with warm buffers the kernel performs zero heap
    /// allocations.
    ///
    /// Accumulation order (pinned bit for bit by the kernel tests): each
    /// DTMC step walks the sources in ascending order, adding the
    /// source's diagonal term first and then its off-diagonal targets in
    /// ascending order; the Poisson-weighted sum and the renormalization
    /// then run in state order.
    fn uniformize_into(
        &self,
        p0: &[f64],
        t: f64,
        tol: f64,
        profile: &SolveProfile,
        out: &mut Vec<f64>,
        scratch: &mut UniformizationScratch,
    ) {
        let n = self.n;
        assert_eq!(p0.len(), n, "initial distribution size mismatch");
        assert!(t.is_finite() && t >= 0.0, "time must be ≥ 0");
        let sum: f64 = p0.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-6 && p0.iter().all(|p| *p >= -1e-12),
            "p0 must be a probability vector (sums to {sum})"
        );
        out.clear();
        if t == 0.0 || profile.lambda_raw == 0.0 {
            // Nothing moves (zero step, or no transitions anywhere).
            out.extend_from_slice(p0);
            return;
        }
        // Slight inflation improves numerical behaviour.
        let lambda = profile.lambda_raw * 1.02;
        let lt = lambda * t;

        let UniformizationScratch { v, next, acc } = scratch;
        v.clear();
        v.extend_from_slice(p0);
        next.clear();
        next.resize(n, 0.0);
        acc.clear();
        acc.resize(n, 0.0);

        // Poisson weights e^{-lt} lt^k / k!, computed iteratively in log
        // space via scaling to avoid under/overflow for large lt. The
        // truncation point is clamped (see the module docs): beyond the
        // clamp the weighted sum may capture no mass at all, in which
        // case the power iterate at the clamp is the answer.
        let mut log_w = -lt; // log weight of k = 0
        let mut mass = 0.0;
        let k_max = (((lt + 8.0 * lt.sqrt() + 20.0).ceil()) as usize).min(MAX_UNIFORMIZATION_STEPS);
        for k in 0..=k_max {
            if k > 0 {
                log_w += (lt).ln() - (k as f64).ln();
                // One DTMC step, next = v·P with P = I + Q/Λ.
                next.fill(0.0);
                for i in 0..n {
                    let vi = v[i];
                    if vi == 0.0 {
                        continue;
                    }
                    next[i] += vi * (1.0 - profile.exits[i] / lambda);
                    for (j, &r) in self.rates[i * n..(i + 1) * n].iter().enumerate() {
                        if i != j && r > 0.0 {
                            next[j] += vi * r / lambda;
                        }
                    }
                }
                std::mem::swap(v, next);
            }
            let w = log_w.exp();
            if w > 0.0 {
                for (a, vi) in acc.iter_mut().zip(v.iter()) {
                    *a += w * vi;
                }
                mass += w;
            }
            if 1.0 - mass < tol {
                break;
            }
        }
        // Renormalize the tiny truncation remainder.
        let s: f64 = acc.iter().sum();
        if s > 0.0 {
            out.extend(acc.iter().map(|a| a / s));
        } else {
            // The whole Poisson window sat beyond the step clamp: the
            // weighted sum captured no mass. Return the power iterate at
            // the clamp — the t → ∞ limit for chains that have converged
            // by then (see the module docs).
            out.extend_from_slice(v);
        }
    }
}

/// Upper bound on uniformization steps per solve. `Λt` beyond ~10⁵ would
/// otherwise iterate once per expected Poisson event — extreme (but
/// finite) rate inputs from the scenario-DSL fuzz corpus produced `Λt`
/// past 10¹⁴, an effective hang. See the module docs for the semantics of
/// a clamped solve.
pub const MAX_UNIFORMIZATION_STEPS: usize = 100_000;

/// Reusable working buffers for the in-place uniformization kernel. Keep
/// one per solver call site and reuse it across ticks: after the first
/// (warm-up) solve the buffers hold their high-water capacity and
/// steady-state solves allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct UniformizationScratch {
    v: Vec<f64>,
    next: Vec<f64>,
    acc: Vec<f64>,
}

/// Hit/miss counters of a process-level solver cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCacheStats {
    /// Solves served with a profile reused from an earlier tick.
    pub hits: u64,
    /// Solves that had to rebuild the profile (rate matrix changed).
    pub misses: u64,
}

/// The memoized, rate-matrix-keyed part of a uniformization solve: the
/// per-state exit rates and the (uninflated) uniformization rate Λ. Both
/// depend only on the rate matrix, so they are reusable across ticks as
/// long as the rates are bit-identical.
#[derive(Debug, Clone, Default)]
struct SolveProfile {
    rates_bits: Vec<u64>,
    exits: Vec<f64>,
    lambda_raw: f64,
}

impl SolveProfile {
    fn build(chain: &Ctmc) -> Self {
        let mut profile = SolveProfile::default();
        profile.rebuild(chain);
        profile
    }

    /// Recomputes the profile for `chain` in place: once the buffers
    /// have held a chain of this size, a rebuild allocates nothing.
    fn rebuild(&mut self, chain: &Ctmc) {
        self.exits.clear();
        self.exits
            .extend((0..chain.len()).map(|i| chain.exit_rate(i)));
        self.lambda_raw = self.exits.iter().copied().fold(0.0_f64, f64::max);
        self.rates_bits.clear();
        self.rates_bits
            .extend(chain.rates.iter().map(|r| r.to_bits()));
    }

    fn matches(&self, chain: &Ctmc) -> bool {
        self.rates_bits.len() == chain.rates.len()
            && self
                .rates_bits
                .iter()
                .zip(chain.rates.iter())
                .all(|(b, r)| *b == r.to_bits())
    }
}

/// A CTMC paired with a live state distribution, advanced tick by tick.
/// This is the "complex basic event" carrier: rates can be swapped at any
/// tick and the distribution keeps integrating forward.
///
/// With [`CtmcProcess::enable_solver_cache`] the per-solve exit-rate and
/// uniformization-rate computations are memoized keyed on the exact bit
/// pattern of the rate matrix (the failure-rate vector); the cached solve
/// is bit-identical to the naive one, so enabling the cache never changes
/// the belief trajectory.
#[derive(Debug, Clone)]
pub struct CtmcProcess {
    chain: Ctmc,
    dist: Vec<f64>,
    cache: Option<Box<SolveProfile>>,
    cache_enabled: bool,
    stats: SolverCacheStats,
    /// In-place solver working set, reused across ticks so steady-state
    /// advances allocate nothing. Pure accelerator state: excluded from
    /// `PartialEq` along with the cache.
    scratch: UniformizationScratch,
    /// Solve output buffer, swapped with `dist` after each advance.
    solve_out: Vec<f64>,
}

impl PartialEq for CtmcProcess {
    fn eq(&self, other: &Self) -> bool {
        // The solver cache is a pure accelerator; two processes with the
        // same chain and belief are the same process.
        self.chain == other.chain && self.dist == other.dist
    }
}

impl CtmcProcess {
    /// Starts the process in state `initial` with certainty.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is out of range.
    pub fn new(chain: Ctmc, initial: usize) -> Self {
        assert!(initial < chain.len(), "initial state out of range");
        let mut dist = vec![0.0; chain.len()];
        dist[initial] = 1.0;
        CtmcProcess {
            chain,
            dist,
            cache: None,
            cache_enabled: false,
            stats: SolverCacheStats::default(),
            scratch: UniformizationScratch::default(),
            solve_out: Vec::new(),
        }
    }

    /// Turns on the rate-keyed solver cache for subsequent
    /// [`CtmcProcess::advance`] calls.
    pub fn enable_solver_cache(&mut self) {
        self.cache_enabled = true;
    }

    /// Hit/miss counters of the solver cache (all zero when disabled).
    pub fn solver_cache_stats(&self) -> SolverCacheStats {
        self.stats
    }

    /// The live distribution.
    pub fn distribution(&self) -> &[f64] {
        &self.dist
    }

    /// Mutable access to the chain, for runtime rate updates.
    pub fn chain_mut(&mut self) -> &mut Ctmc {
        &mut self.chain
    }

    /// The chain.
    pub fn chain(&self) -> &Ctmc {
        &self.chain
    }

    /// Advances the distribution by `dt_secs` with the current rates.
    ///
    /// When the solver cache is enabled, the exit-rate/uniformization-rate
    /// profile is reused as long as the rate matrix is bit-identical to
    /// the one the profile was built from; callers that mutate rates via
    /// [`CtmcProcess::chain_mut`] therefore self-invalidate the cache.
    pub fn advance(&mut self, dt_secs: f64) {
        if !self.cache_enabled {
            self.dist = self.chain.transient(&self.dist, dt_secs);
            return;
        }
        self.refresh_profile();
        let profile = self.cache.as_ref().expect("profile just ensured");
        // Solve in place through the persistent scratch: with a warm
        // cache and warm buffers this path performs zero heap
        // allocations. Bit-identical to the allocating path (same kernel).
        self.chain.uniformize_into(
            &self.dist,
            dt_secs,
            1e-12,
            profile,
            &mut self.solve_out,
            &mut self.scratch,
        );
        std::mem::swap(&mut self.dist, &mut self.solve_out);
    }

    /// Brings the cached profile up to the current rates, counting a hit
    /// when it already matches and a miss when it had to be rebuilt. A
    /// rebuild reuses the cached profile's buffers.
    fn refresh_profile(&mut self) {
        match &mut self.cache {
            Some(profile) if profile.matches(&self.chain) => self.stats.hits += 1,
            Some(profile) => {
                profile.rebuild(&self.chain);
                self.stats.misses += 1;
            }
            None => {
                self.cache = Some(Box::new(SolveProfile::build(&self.chain)));
                self.stats.misses += 1;
            }
        }
    }

    /// Probability mass currently in the given states (e.g. the absorbing
    /// failure states).
    pub fn mass_in(&self, states: &[usize]) -> f64 {
        states.iter().map(|&s| self.dist[s]).sum()
    }

    /// Collapses the distribution back to certainty in `state` — used when
    /// a failure is *observed* (diagnosis replaces belief).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn observe_state(&mut self, state: usize) {
        assert!(state < self.chain.len(), "state out of range");
        self.dist.iter_mut().for_each(|p| *p = 0.0);
        self.dist[state] = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state(rate: f64) -> Ctmc {
        let mut c = Ctmc::new(2);
        c.set_rate(0, 1, rate);
        c
    }

    #[test]
    fn exponential_failure_matches_closed_form() {
        let c = two_state(0.05);
        for t in [0.0, 1.0, 10.0, 50.0, 200.0] {
            let p = c.transient(&[1.0, 0.0], t);
            let expect = 1.0 - (-0.05 * t).exp();
            assert!(
                (p[1] - expect).abs() < 1e-9,
                "t={t}: got {} want {expect}",
                p[1]
            );
            assert!((p[0] + p[1] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn extreme_rates_hit_the_step_clamp_and_still_absorb() {
        // Λt ≈ 1.02e15 here; unclamped uniformization would iterate once
        // per expected Poisson event — an effective hang surfaced by the
        // scenario-DSL fuzz corpus. The clamp must keep the solve prompt
        // and return the converged (fully absorbed) distribution.
        let c = two_state(1e12);
        let p = c.transient(&[1.0, 0.0], 1000.0);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "stochastic");
        assert!(p[1] > 1.0 - 1e-9, "mass must be absorbed in the limit");

        // A clamped repairable chain lands on its steady state
        // p_fail = λ/(λ+μ) instead of a truncation artifact.
        let mut c = Ctmc::new(2);
        c.set_rate(0, 1, 2e11);
        c.set_rate(1, 0, 8e11);
        let p = c.transient(&[1.0, 0.0], 1e6);
        assert!((p[1] - 0.2).abs() < 1e-6, "steady state, got {}", p[1]);
    }

    #[test]
    fn moderate_solves_stay_below_the_clamp() {
        // The monitor's realistic Λt values truncate after tens of steps,
        // far below the clamp, so clamping changes nothing there.
        let lt_max = 10.0_f64; // rates ≤ ~0.1/s, dt ≤ ~100 s
        let k = (lt_max + 8.0 * lt_max.sqrt() + 20.0).ceil() as usize;
        assert!(k < MAX_UNIFORMIZATION_STEPS / 100);
    }

    #[test]
    fn steady_state_advance_allocates_nothing_after_warmup() {
        // Indirect check: the scratch high-water marks stop growing after
        // the first cached solve (the allocation-regression test in
        // sesame-bench pins the stronger global-allocator property).
        let mut p = CtmcProcess::new(two_state(0.05), 0);
        p.enable_solver_cache();
        p.advance(1.0);
        let caps = (
            p.scratch.v.capacity(),
            p.scratch.next.capacity(),
            p.scratch.acc.capacity(),
            p.solve_out.capacity(),
        );
        for _ in 0..100 {
            p.advance(1.0);
        }
        assert_eq!(
            caps,
            (
                p.scratch.v.capacity(),
                p.scratch.next.capacity(),
                p.scratch.acc.capacity(),
                p.solve_out.capacity(),
            ),
            "warm buffers must not regrow"
        );
        assert_eq!(p.solver_cache_stats().misses, 1);
    }

    /// The SafeDrones chains plus a four-state repairable chain whose
    /// targets collect three or more terms per step (so a reordered
    /// accumulation changes the rounding), each with its initial
    /// distribution.
    fn kernel_cases() -> Vec<(&'static str, Ctmc, Vec<f64>)> {
        use crate::battery::{BatteryModel, BatteryParams};
        use crate::comms::CommsModel;
        use crate::propulsion::{MotorLayout, PropulsionModel};
        let quad = PropulsionModel::new(MotorLayout::Quad, 1e-6);
        let hexa = PropulsionModel::new(MotorLayout::Hexa, 1e-6);
        let mut cool = BatteryModel::new(BatteryParams::default());
        cool.update_telemetry(20.0, 0.9, 0.0);
        let mut hot = BatteryModel::new(BatteryParams::default());
        hot.update_telemetry(60.0, 0.15, 0.0);
        let mut comms = CommsModel::new(1e-5, 0.05);
        comms.update_link_quality(0.5);
        let mut repair = Ctmc::new(4);
        for (from, to, rate) in [
            (0, 1, 0.3),
            (0, 2, 0.05),
            (1, 0, 0.4),
            (1, 2, 0.7),
            (2, 1, 0.2),
            (2, 3, 0.01),
            (3, 0, 0.02),
        ] {
            repair.set_rate(from, to, rate);
        }
        vec![
            ("quad", quad.process.chain().clone(), vec![1.0, 0.0]),
            ("hexa", hexa.process.chain().clone(), vec![0.5, 0.5, 0.0]),
            (
                "battery_cool",
                cool.process.chain().clone(),
                vec![1.0, 0.0, 0.0, 0.0],
            ),
            ("battery_hot", hot.process.chain().clone(), vec![0.25; 4]),
            ("comms", comms.process.chain().clone(), vec![1.0, 0.0]),
            ("repair", repair, vec![0.1, 0.2, 0.3, 0.4]),
        ]
    }

    /// Exact output bits of the uniformization kernel, pinned so that any
    /// rewrite of it (which every oracle and lockstep shares) must keep the
    /// accumulation order: the diagonal and off-diagonal terms of each DTMC
    /// step in ascending source order, then the weighted sum and the
    /// renormalization in state order. The last row is a `Λt` of ~10⁷,
    /// past [`MAX_UNIFORMIZATION_STEPS`]: the clamped power iterate.
    #[test]
    fn transient_output_bits_are_pinned() {
        const PINNED: &[(&str, f64, &[u64])] = &[
            ("quad", 0.1, &[0x3fefffff294070e8, 0x3e9ad7f1e2fd81a5]),
            ("quad", 600.0, &[0x3fefec5cdec36244, 0x3f63a3213c9dbba7]),
            (
                "hexa",
                0.1,
                &[0x3fdffffebde0b0e5, 0x3fdfffffaf782c39, 0x3e992a722e12ddb5],
            ),
            (
                "hexa",
                600.0,
                &[0x3fdfe28fd378284f, 0x3fdff897402b4e9b, 0x3f626c762e4489f9],
            ),
            (
                "battery_cool",
                0.1,
                &[
                    0x3fefffffab400fde,
                    0x3e852ffb27e19ca3,
                    0x3d3c0e7a4edae660,
                    0x0000000000000000,
                ],
            ),
            (
                "battery_cool",
                600.0,
                &[
                    0x3feff83fce1d7ba2,
                    0x3f4ee2c67322e503,
                    0x3ecda0ebfdf33b6d,
                    0x3e680abc286f31d2,
                ],
            ),
            (
                "battery_hot",
                0.1,
                &[
                    0x3fcfffe9bcd3a0bf,
                    0x3fcfff60d057a255,
                    0x3fcffd2a540c5740,
                    0x3fd001c58f6432d6,
                ],
            ),
            (
                "battery_hot",
                600.0,
                &[
                    0x3fce04eeb722d0e9,
                    0x3fc4950606398128,
                    0x3fab0b6f53b7982c,
                    0x3fe1a8cbdb6d71fa,
                ],
            ),
            ("comms", 0.1, &[0x3feffff79f33e800, 0x3ed0c1982fff6e21]),
            ("comms", 600.0, &[0x3feff2e9eafdaefa, 0x3f5a2c2a04a20af2]),
            (
                "repair",
                0.1,
                &[
                    0x3fbadecae4ba1c39,
                    0x3fc80b184c04a46e,
                    0x3fd3b1461cdffe0f,
                    0x3fd9917b03ef28ab,
                ],
            ),
            (
                "repair",
                600.0,
                &[
                    0x3fc4be933e092f49,
                    0x3fc0a421b6fe4ba8,
                    0x3fde346e491b45e7,
                    0x3fce346e78c1f93e,
                ],
            ),
            (
                "repair",
                1e7,
                &[
                    0x3fc4be93433f99ee,
                    0x3fc0a421bcfac1ce,
                    0x3fde346e5541e184,
                    0x3fce346e5541e19b,
                ],
            ),
        ];
        let cases = kernel_cases();
        for &(name, t, want) in PINNED {
            let (_, chain, p0) = cases.iter().find(|c| c.0 == name).expect("known case");
            let got: Vec<u64> = chain.transient(p0, t).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "{name} at t = {t}");
        }
    }

    #[test]
    fn absorbing_state_retains_mass() {
        let c = two_state(1.0);
        let p = c.transient(&[0.0, 1.0], 100.0);
        assert!((p[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn birth_death_chain_conserves_probability() {
        // 0 -> 1 -> 2 (absorbing), plus repair 1 -> 0.
        let mut c = Ctmc::new(3);
        c.set_rate(0, 1, 0.3);
        c.set_rate(1, 0, 0.5);
        c.set_rate(1, 2, 0.2);
        let p = c.transient(&[1.0, 0.0, 0.0], 25.0);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p[2] > 0.5, "most mass should be absorbed eventually");
        assert!(c.is_absorbing(2));
        assert!(!c.is_absorbing(0));
    }

    #[test]
    fn repairable_system_approaches_steady_state() {
        // Working <-> failed with repair; steady state p_fail = λ/(λ+μ).
        let mut c = Ctmc::new(2);
        c.set_rate(0, 1, 0.1);
        c.set_rate(1, 0, 0.4);
        let p = c.transient(&[1.0, 0.0], 500.0);
        assert!((p[1] - 0.2).abs() < 1e-6, "p_fail = {}", p[1]);
    }

    #[test]
    fn large_lambda_t_is_stable() {
        // Fast rates over long horizons stress the Poisson truncation.
        let mut c = Ctmc::new(2);
        c.set_rate(0, 1, 50.0);
        c.set_rate(1, 0, 50.0);
        let p = c.transient(&[1.0, 0.0], 10.0);
        assert!((p[0] - 0.5).abs() < 1e-6);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_time_returns_initial() {
        let c = two_state(0.1);
        assert_eq!(c.transient(&[0.3, 0.7], 0.0), vec![0.3, 0.7]);
    }

    #[test]
    fn piecewise_advancement_equals_single_solve() {
        let c = two_state(0.02);
        let mut proc = CtmcProcess::new(c.clone(), 0);
        for _ in 0..100 {
            proc.advance(1.0);
        }
        let direct = c.transient(&[1.0, 0.0], 100.0);
        assert!((proc.distribution()[1] - direct[1]).abs() < 1e-8);
    }

    #[test]
    fn rate_swap_mid_flight() {
        let mut proc = CtmcProcess::new(two_state(0.0), 0);
        proc.advance(100.0);
        assert!(proc.mass_in(&[1]) < 1e-12, "no failures at zero rate");
        proc.chain_mut().set_rate(0, 1, 0.1);
        proc.advance(10.0);
        let expect = 1.0 - (-1.0f64).exp();
        assert!((proc.mass_in(&[1]) - expect).abs() < 1e-9);
    }

    #[test]
    fn observe_state_collapses_belief() {
        let mut proc = CtmcProcess::new(two_state(0.5), 0);
        proc.advance(5.0);
        proc.observe_state(0);
        assert_eq!(proc.distribution(), &[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "rate must be ≥ 0")]
    fn negative_rate_panics() {
        let mut c = Ctmc::new(2);
        c.set_rate(0, 1, -1.0);
    }

    #[test]
    #[should_panic(expected = "probability vector")]
    fn bad_initial_distribution_panics() {
        let c = two_state(0.1);
        let _ = c.transient(&[0.5, 0.1], 1.0);
    }

    #[test]
    #[should_panic(expected = "self-transitions")]
    fn self_transition_panics() {
        let mut c = Ctmc::new(2);
        c.set_rate(1, 1, 0.1);
    }

    /// A four-state chain with asymmetric rates, exercised over a mixed
    /// schedule of advances and mid-flight rate swaps: the cached solver
    /// must track the naive one bit for bit and self-invalidate on every
    /// rate mutation.
    #[test]
    fn solver_cache_is_bit_identical_and_self_invalidating() {
        let mut chain = Ctmc::new(4);
        chain.set_rate(0, 1, 0.3);
        chain.set_rate(0, 2, 0.05);
        chain.set_rate(1, 2, 0.7);
        chain.set_rate(1, 3, 0.01);
        chain.set_rate(2, 3, 1.3);
        let mut naive = CtmcProcess::new(chain.clone(), 0);
        let mut cached = CtmcProcess::new(chain, 0);
        cached.enable_solver_cache();

        let dts = [0.1, 0.1, 2.5, 0.0, 0.1, 7.0, 0.1, 0.1];
        for (k, dt) in dts.iter().enumerate() {
            if k == 4 {
                naive.chain_mut().set_rate(0, 1, 0.9);
                cached.chain_mut().set_rate(0, 1, 0.9);
            }
            naive.advance(*dt);
            cached.advance(*dt);
            let bits = |p: &CtmcProcess| -> Vec<u64> {
                p.distribution().iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&naive), bits(&cached), "diverged at step {k}");
        }
        let stats = cached.solver_cache_stats();
        assert_eq!(stats.misses, 2, "initial build + one rate-swap rebuild");
        assert_eq!(stats.hits as usize, dts.len() - 2);
        assert_eq!(naive.solver_cache_stats(), SolverCacheStats::default());
    }
}
