//! Fingerprint-gated ConSert evaluation — the ConSert leg of the EDDI
//! fast path.
//!
//! The naive per-tick flow evaluates the UAV's certificate network
//! **twice** (once in [`catalog::evaluate_uav`] for the action, once in
//! [`catalog::certified_navigation_accuracy_m`] for the accuracy bound),
//! rebuilding a `HashMap<String, EvalResult>` with freshly-cloned `String`
//! keys each time. [`IncrementalConsertNetwork`] folds both lookups into
//! one evaluation, and short-circuits that single evaluation entirely
//! when the ten-boolean evidence snapshot is bit-identical to the
//! previous tick ([`UavEvidence::fingerprint`]).
//!
//! The cache deliberately remembers only the **previous tick** — not an
//! unbounded memo — so evidence that genuinely toggles every tick is
//! re-evaluated every tick (the cache must not win, but must stay
//! correct), while the steady-state common case costs one `u16` compare.
//! [`ConsertNetwork::evaluate`] is a pure function of the evidence set,
//! so replaying a stored decision for equal evidence is exact.
//!
//! Cache **misses** are allocation-free too: at construction the gate
//! trees are compiled to an index-based form (the private
//! `CompiledTree`) — evidence leaves become fingerprint bit tests,
//! demands become `(certificate, guarantee)` indices into a
//! per-certificate fulfilled bitset — so a re-evaluation walks the same
//! trees in the same order as [`ConsertNetwork::evaluate`] without
//! touching a `String` or a `HashMap` (see DESIGN.md § "Hot-loop memory
//! discipline"). The all-1024-masks conformance test locksteps the
//! compiled evaluator against the naive path.

use crate::catalog::{self, UavAction, UavEvidence};
use crate::engine::ConsertNetwork;
use crate::model::{Dimension, Tree};

/// The per-tick ConSert outcome for one UAV: what the naive path computes
/// with two network evaluations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsertDecision {
    /// The UAV certificate's top guarantee, as an action.
    pub action: Option<UavAction>,
    /// The navigation certificate's certified accuracy bound, metres.
    pub nav_accuracy_m: Option<f64>,
}

/// Hit/miss counters of the fingerprint gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsertCacheStats {
    /// Ticks whose evidence matched the previous tick bit for bit.
    pub hits: u64,
    /// Ticks that re-evaluated the network.
    pub misses: u64,
}

/// A gate tree compiled to indices: evidence leaves test fingerprint
/// bits, demand leaves test the fulfilled bitset of an already-evaluated
/// certificate. Shape and child order mirror the source [`Tree`] exactly,
/// so evaluation visits the same leaves in the same order.
#[derive(Debug, Clone)]
enum CompiledTree {
    Always,
    /// Fingerprint bit of the evidence id; `None` for an id outside the
    /// UAV vocabulary, which the evidence set never contains.
    Evidence(Option<u8>),
    /// (certificate index, guarantee index) of the demanded guarantee.
    Demand(usize, usize),
    And(Vec<CompiledTree>),
    Or(Vec<CompiledTree>),
}

fn compile(tree: &Tree, conserts: &[crate::model::Consert]) -> CompiledTree {
    match tree {
        Tree::Always => CompiledTree::Always,
        Tree::Evidence(id) => CompiledTree::Evidence(UavEvidence::evidence_bit(id.as_str())),
        Tree::Demand(d) => {
            let ci = conserts
                .iter()
                .position(|c| c.name == d.consert)
                .expect("network construction validated the demand");
            let gi = conserts[ci]
                .guarantees
                .iter()
                .position(|g| g.name == d.guarantee)
                .expect("network construction validated the guarantee");
            CompiledTree::Demand(ci, gi)
        }
        Tree::And(children) => {
            CompiledTree::And(children.iter().map(|c| compile(c, conserts)).collect())
        }
        Tree::Or(children) => {
            CompiledTree::Or(children.iter().map(|c| compile(c, conserts)).collect())
        }
    }
}

/// Evaluates a compiled tree. `fulfilled[ci]` holds one bit per guarantee
/// of certificate `ci`; a demand on a not-yet-evaluated guarantee reads a
/// zero bit — the same "absent means false" the naive evaluator's
/// `unwrap_or(false)` implements.
fn eval_compiled(tree: &CompiledTree, fp: u16, fulfilled: &[u64]) -> bool {
    match tree {
        CompiledTree::Always => true,
        CompiledTree::Evidence(Some(bit)) => fp & (1 << bit) != 0,
        CompiledTree::Evidence(None) => false,
        CompiledTree::Demand(ci, gi) => fulfilled[*ci] & (1 << gi) != 0,
        CompiledTree::And(children) => children.iter().all(|c| eval_compiled(c, fp, fulfilled)),
        CompiledTree::Or(children) => children.iter().any(|c| eval_compiled(c, fp, fulfilled)),
    }
}

/// A per-UAV certificate network with the previous-tick decision cached
/// under its evidence fingerprint and the gate trees pre-compiled for
/// allocation-free misses.
#[derive(Debug, Clone)]
pub struct IncrementalConsertNetwork {
    network: ConsertNetwork,
    uav: String,
    last: Option<(u16, ConsertDecision)>,
    /// Compiled guarantee trees, indexed `[certificate][guarantee]` in
    /// `network.conserts()` order.
    compiled: Vec<Vec<CompiledTree>>,
    /// Per-guarantee action of the UAV certificate, by guarantee index.
    actions: Vec<Option<UavAction>>,
    /// Per-guarantee accuracy bound of the navigation certificate.
    nav_dims: Vec<Option<f64>>,
    uav_idx: usize,
    nav_idx: usize,
    /// Scratch: fulfilled bitset per certificate, reused across misses.
    fulfilled: Vec<u64>,
    stats: ConsertCacheStats,
}

impl IncrementalConsertNetwork {
    /// Builds the Fig. 1 catalog network for `uav` and wraps it,
    /// compiling the gate trees for allocation-free evaluation.
    pub fn new(uav: impl Into<String>) -> Self {
        let uav = uav.into();
        let network = catalog::uav_consert_network(&uav);
        let conserts = network.conserts();
        let compiled: Vec<Vec<CompiledTree>> = conserts
            .iter()
            .map(|c| {
                assert!(
                    c.guarantees.len() <= 64,
                    "fulfilled bitset is one u64 per certificate"
                );
                c.guarantees
                    .iter()
                    .map(|g| compile(&g.tree, conserts))
                    .collect()
            })
            .collect();
        let uav_idx = conserts
            .iter()
            .position(|c| c.name == catalog::scoped(&uav, "uav"))
            .expect("catalog network has the UAV certificate");
        let nav_idx = conserts
            .iter()
            .position(|c| c.name == catalog::scoped(&uav, "navigation"))
            .expect("catalog network has the navigation certificate");
        let actions = conserts[uav_idx]
            .guarantees
            .iter()
            .map(|g| UavAction::from_guarantee(&g.name))
            .collect();
        let nav_dims = conserts[nav_idx]
            .guarantees
            .iter()
            .map(|g| match g.dimension {
                Some(Dimension::NavigationAccuracyM(m)) => Some(m),
                _ => None,
            })
            .collect();
        let fulfilled = vec![0u64; conserts.len()];
        IncrementalConsertNetwork {
            network,
            uav,
            last: None,
            compiled,
            actions,
            nav_dims,
            uav_idx,
            nav_idx,
            fulfilled,
            stats: ConsertCacheStats::default(),
        }
    }

    /// The wrapped network.
    pub fn network(&self) -> &ConsertNetwork {
        &self.network
    }

    /// The UAV name the certificate scope uses.
    pub fn uav(&self) -> &str {
        &self.uav
    }

    /// Cache counters.
    pub fn stats(&self) -> ConsertCacheStats {
        self.stats
    }

    /// Evaluates the network for the current evidence — or replays the
    /// previous tick's decision when the fingerprint is unchanged. One
    /// evaluation serves both the action and the navigation accuracy, and
    /// a miss runs entirely on the compiled trees: no allocation either
    /// way.
    pub fn decide(&mut self, evidence: &UavEvidence) -> ConsertDecision {
        let fp = evidence.fingerprint();
        if let Some((last_fp, decision)) = &self.last {
            if *last_fp == fp {
                self.stats.hits += 1;
                return *decision;
            }
        }
        self.stats.misses += 1;
        // Walk certificates providers-first (the engine's validated
        // order), guarantees in declaration order — exactly what
        // `ConsertNetwork::evaluate` does, so tops agree.
        self.fulfilled.iter_mut().for_each(|b| *b = 0);
        let mut uav_top = None;
        let mut nav_top = None;
        for &ci in self.network.order() {
            let mut first = None;
            for (gi, tree) in self.compiled[ci].iter().enumerate() {
                if eval_compiled(tree, fp, &self.fulfilled) {
                    self.fulfilled[ci] |= 1 << gi;
                    if first.is_none() {
                        first = Some(gi);
                    }
                }
            }
            if ci == self.uav_idx {
                uav_top = first;
            } else if ci == self.nav_idx {
                nav_top = first;
            }
        }
        let decision = ConsertDecision {
            action: uav_top.and_then(|gi| self.actions[gi]),
            nav_accuracy_m: nav_top.and_then(|gi| self.nav_dims[gi]),
        };
        self.last = Some((fp, decision));
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{certified_navigation_accuracy_m, evaluate_uav, uav_consert_network};

    fn naive(net: &ConsertNetwork, uav: &str, e: &UavEvidence) -> ConsertDecision {
        ConsertDecision {
            action: evaluate_uav(net, uav, e),
            nav_accuracy_m: certified_navigation_accuracy_m(net, uav, e),
        }
    }

    /// Sweep all 1024 evidence combinations: the single-evaluation decide
    /// must match the naive two-evaluation path exactly.
    #[test]
    fn decide_matches_naive_over_all_evidence_combinations() {
        let net = uav_consert_network("uav0");
        let mut inc = IncrementalConsertNetwork::new("uav0");
        for mask in 0u16..1024 {
            let e = UavEvidence {
                gps_usable: mask & 1 != 0,
                no_attack: mask & 2 != 0,
                vision_healthy: mask & 4 != 0,
                safeml_ok: mask & 8 != 0,
                comm_ok: mask & 16 != 0,
                neighbors_available: mask & 32 != 0,
                assistant_available: mask & 64 != 0,
                rel_high: mask & 128 != 0,
                rel_med: mask & 256 != 0,
                rel_low: mask & 512 != 0,
            };
            assert_eq!(e.fingerprint(), mask, "fingerprint must mirror the mask");
            assert_eq!(
                inc.decide(&e),
                naive(&net, "uav0", &e),
                "diverged at mask {mask:#06b}"
            );
        }
        // Every mask differs from its predecessor: all misses.
        assert_eq!(inc.stats().misses, 1024);
        assert_eq!(inc.stats().hits, 0);
    }

    #[test]
    fn steady_evidence_short_circuits() {
        let mut inc = IncrementalConsertNetwork::new("uav1");
        let e = UavEvidence::nominal();
        let first = inc.decide(&e);
        for _ in 0..9 {
            assert_eq!(inc.decide(&e), first);
        }
        assert_eq!(inc.stats().misses, 1);
        assert_eq!(inc.stats().hits, 9);
        assert_eq!(first.action, Some(UavAction::ContinueCanTakeMore));
        assert_eq!(first.nav_accuracy_m, Some(0.5));
    }

    /// Evidence toggling every tick never hits the last-tick cache but
    /// every answer stays correct — the issue's explicit edge case.
    #[test]
    fn toggling_evidence_never_hits_but_stays_correct() {
        let net = uav_consert_network("uav2");
        let mut inc = IncrementalConsertNetwork::new("uav2");
        let healthy = UavEvidence::nominal();
        let degraded = UavEvidence {
            gps_usable: false,
            rel_high: false,
            rel_med: true,
            ..UavEvidence::nominal()
        };
        for tick in 0..20 {
            let e = if tick % 2 == 0 { healthy } else { degraded };
            assert_eq!(inc.decide(&e), naive(&net, "uav2", &e), "tick {tick}");
        }
        assert_eq!(inc.stats().hits, 0, "alternating evidence must not hit");
        assert_eq!(inc.stats().misses, 20);
    }
}
