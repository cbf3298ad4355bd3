//! The sliding-window SafeML runtime monitor.
//!
//! "SafeML assesses a sliding window of images captured by UAV cameras
//! against a reference set derived from the model's training images"
//! (§III-A2). Here each "image" is a feature vector (produced by
//! `sesame-vision`'s synthetic extractor or any other source); the monitor
//! keeps one reference sample per feature, maintains the runtime window,
//! and aggregates per-feature distances into:
//!
//! * a **dissimilarity** score in `[0, 1]` (bounded measures are used
//!   as-is; unbounded ones are squashed),
//! * a **confidence** `= 1 − dissimilarity` in the ML outcome,
//! * a three-way [`SafeMlVerdict`] against configurable thresholds.

use crate::distance::{finite_cmp, DistanceMeasure};
use std::collections::VecDeque;

/// Verdict levels the ConSert layer maps to mitigations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SafeMlVerdict {
    /// Runtime data statistically matches the training data.
    Accept,
    /// Noticeable shift: treat ML outputs with caution (e.g. descend to a
    /// more favourable altitude, as in §V-B).
    Caution,
    /// Strong shift: ML outputs should not be trusted.
    Reject,
}

/// Configuration of the monitor.
#[derive(Debug, Clone)]
pub struct SafeMlConfig {
    /// Sliding window length (number of runtime samples).
    pub window: usize,
    /// Distance measure to use.
    pub measure: DistanceMeasure,
    /// Dissimilarity at or above which the verdict is `Caution`.
    pub caution_threshold: f64,
    /// Dissimilarity at or above which the verdict is `Reject`.
    pub reject_threshold: f64,
    /// Scale used to squash unbounded measures: `d ↦ d / (d + scale)`.
    pub squash_scale: f64,
}

impl Default for SafeMlConfig {
    fn default() -> Self {
        SafeMlConfig {
            window: 50,
            measure: DistanceMeasure::KolmogorovSmirnov,
            caution_threshold: 0.5,
            reject_threshold: 0.9,
            squash_scale: 1.0,
        }
    }
}

/// The runtime monitor. Feed it samples with [`SafeMlMonitor::push_sample`]
/// and read [`SafeMlMonitor::dissimilarity`] / [`SafeMlMonitor::verdict`].
///
/// # Examples
///
/// ```
/// use sesame_safeml::monitor::{SafeMlConfig, SafeMlMonitor, SafeMlVerdict};
///
/// // Reference: two features, values near 0.
/// let reference: Vec<Vec<f64>> = (0..100)
///     .map(|i| vec![(i % 10) as f64 * 0.01, (i % 7) as f64 * 0.01])
///     .collect();
/// let mut mon = SafeMlMonitor::new(reference, SafeMlConfig::default())?;
/// // Runtime data shifted far away.
/// for i in 0..50 {
///     mon.push_sample(&[5.0 + (i % 10) as f64 * 0.01, 5.0]);
/// }
/// assert_eq!(mon.verdict(), SafeMlVerdict::Reject);
/// # Ok::<(), sesame_safeml::monitor::SafeMlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SafeMlMonitor {
    config: SafeMlConfig,
    /// Column-major reference: one Vec per feature, each sorted ascending
    /// at construction with the stable sort the distance measures apply
    /// to their inputs, so their own re-sort is the identity.
    reference: Vec<Vec<f64>>,
    /// Sliding window of runtime samples (row-major).
    window: VecDeque<Vec<f64>>,
    /// KS only (empty otherwise): each window column kept sorted
    /// ascending, every entry carrying the reference ECDF at its value.
    sorted_window: Vec<Vec<Ranked>>,
    samples_seen: u64,
}

/// One window value in a sorted window column, with the reference
/// column's ECDF evaluated at it: `cdf = (#ref ≤ v) / n` and
/// `cdf_below = (#ref < v) / n` (its left limit), each computed once, as
/// `i as f64 / n` with `i` found by binary search, when the sample is
/// pushed.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    v: f64,
    cdf: f64,
    cdf_below: f64,
}

/// Errors from monitor construction and feeding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SafeMlError {
    /// Reference set was empty.
    EmptyReference,
    /// Reference rows disagree on feature count.
    RaggedReference,
    /// A runtime sample had the wrong number of features.
    FeatureCountMismatch {
        /// Expected feature count.
        expected: usize,
        /// Received feature count.
        got: usize,
    },
    /// Reference or sample contained non-finite values.
    NonFinite,
    /// Config thresholds non-finite or out of order (`caution >= reject`).
    BadThresholds,
    /// Config window length is zero, or too large for the sorted KS
    /// window columns to be allocated.
    BadWindow,
}

impl std::fmt::Display for SafeMlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SafeMlError::EmptyReference => write!(f, "empty reference set"),
            SafeMlError::RaggedReference => write!(f, "reference rows have differing widths"),
            SafeMlError::FeatureCountMismatch { expected, got } => {
                write!(f, "sample has {got} features, reference has {expected}")
            }
            SafeMlError::NonFinite => write!(f, "non-finite feature value"),
            SafeMlError::BadThresholds => {
                write!(f, "thresholds must be finite, with caution below reject")
            }
            SafeMlError::BadWindow => {
                write!(f, "window length must be at least 1 and allocatable")
            }
        }
    }
}

impl std::error::Error for SafeMlError {}

impl SafeMlMonitor {
    /// Builds a monitor from row-major reference samples.
    ///
    /// # Errors
    ///
    /// See [`SafeMlError`] for the rejected shapes.
    pub fn new(reference_rows: Vec<Vec<f64>>, config: SafeMlConfig) -> Result<Self, SafeMlError> {
        if reference_rows.is_empty() {
            return Err(SafeMlError::EmptyReference);
        }
        let (caution, reject) = (config.caution_threshold, config.reject_threshold);
        if !caution.is_finite() || !reject.is_finite() || caution >= reject {
            return Err(SafeMlError::BadThresholds);
        }
        if config.window == 0 {
            return Err(SafeMlError::BadWindow);
        }
        let width = reference_rows[0].len();
        if width == 0 {
            return Err(SafeMlError::EmptyReference);
        }
        // Built one by one: `vec![v; n]` clones would drop the capacity.
        let mut reference: Vec<Vec<f64>> = (0..width)
            .map(|_| Vec::with_capacity(reference_rows.len()))
            .collect();
        for row in &reference_rows {
            if row.len() != width {
                return Err(SafeMlError::RaggedReference);
            }
            for (c, v) in row.iter().enumerate() {
                if !v.is_finite() {
                    return Err(SafeMlError::NonFinite);
                }
                reference[c].push(*v);
            }
        }
        for col in &mut reference {
            col.sort_by(finite_cmp);
        }
        let mut sorted_window = Vec::new();
        if config.measure == DistanceMeasure::KolmogorovSmirnov {
            for _ in 0..width {
                let mut col = Vec::new();
                col.try_reserve_exact(config.window)
                    .map_err(|_| SafeMlError::BadWindow)?;
                sorted_window.push(col);
            }
        }
        Ok(SafeMlMonitor {
            config,
            reference,
            window: VecDeque::new(),
            sorted_window,
            samples_seen: 0,
        })
    }

    /// Number of features per sample.
    pub fn feature_count(&self) -> usize {
        self.reference.len()
    }

    /// Pushes one runtime sample into the sliding window.
    ///
    /// # Errors
    ///
    /// Returns [`SafeMlError::FeatureCountMismatch`] or
    /// [`SafeMlError::NonFinite`] on malformed samples.
    pub fn push_sample(&mut self, features: &[f64]) -> Result<(), SafeMlError> {
        if features.len() != self.reference.len() {
            return Err(SafeMlError::FeatureCountMismatch {
                expected: self.reference.len(),
                got: features.len(),
            });
        }
        if features.iter().any(|v| !v.is_finite()) {
            return Err(SafeMlError::NonFinite);
        }
        // Recycle the evicted row's buffer: once the window is full the
        // ring steady-states with zero heap allocations per sample.
        let mut slot = if self.window.len() == self.config.window {
            self.window.pop_front().expect("full window is non-empty")
        } else {
            Vec::with_capacity(features.len())
        };
        // The evicted values leave the sorted columns before the new ones
        // enter, so no column ever outgrows its `window` capacity.
        for (col, &v) in self.sorted_window.iter_mut().zip(slot.iter()) {
            let at = col.partition_point(|e| e.v < v);
            debug_assert!(col[at].v == v, "evicted value is in its column");
            col.remove(at);
        }
        for ((col, ref_col), &v) in self
            .sorted_window
            .iter_mut()
            .zip(&self.reference)
            .zip(features)
        {
            let n = ref_col.len() as f64;
            let entry = Ranked {
                v,
                cdf: ref_col.partition_point(|r| *r <= v) as f64 / n,
                cdf_below: ref_col.partition_point(|r| *r < v) as f64 / n,
            };
            col.insert(col.partition_point(|e| e.v <= v), entry);
        }
        slot.clear();
        slot.extend_from_slice(features);
        self.window.push_back(slot);
        self.samples_seen += 1;
        Ok(())
    }

    /// Whether the window holds enough samples to judge (at least half the
    /// configured length).
    pub fn is_warmed_up(&self) -> bool {
        self.window.len() * 2 >= self.config.window
    }

    /// Aggregated dissimilarity in `[0, 1]`: the mean per-feature distance,
    /// squashed for unbounded measures. Returns 0 before any samples
    /// arrive.
    pub fn dissimilarity(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        for (c, ref_col) in self.reference.iter().enumerate() {
            let col: Vec<f64> = self.window.iter().map(|row| row[c]).collect();
            let d = self.config.measure.compute(ref_col, &col);
            acc += self.squash(d);
        }
        acc / self.reference.len() as f64
    }

    fn squash(&self, d: f64) -> f64 {
        match self.config.measure {
            DistanceMeasure::KolmogorovSmirnov => d,
            DistanceMeasure::Kuiper => d / 2.0,
            DistanceMeasure::CramerVonMises => d.min(1.0),
            // AD, Wasserstein and energy are unbounded: squash smoothly.
            _ => d / (d + self.config.squash_scale),
        }
    }

    /// Computes the dissimilarity **once** and derives the verdict from
    /// it — the fast-path equivalent of calling
    /// [`SafeMlMonitor::dissimilarity`] followed by
    /// [`SafeMlMonitor::verdict`], which walk the full window/reference
    /// comparison twice. For the KS measure no sort or merge runs here:
    /// each column's statistic is one walk over its sorted window column,
    /// whose entries carry their reference ECDF values. Both results are
    /// bit-identical to the naive accessors; other measures fall back to
    /// the naive path.
    pub fn assessment(&self) -> (f64, SafeMlVerdict) {
        let d = if self.config.measure == DistanceMeasure::KolmogorovSmirnov {
            self.dissimilarity_sorted()
        } else {
            self.dissimilarity()
        };
        let verdict = if d >= self.config.reject_threshold {
            SafeMlVerdict::Reject
        } else if d >= self.config.caution_threshold {
            SafeMlVerdict::Caution
        } else {
            SafeMlVerdict::Accept
        };
        (d, verdict)
    }

    /// [`SafeMlMonitor::dissimilarity`] for KS from the sorted window
    /// columns, summed over the columns in the same order.
    /// An empty window leaves every column at 0, as the naive path does.
    fn dissimilarity_sorted(&self) -> f64 {
        let m = self.window.len() as f64;
        let mut acc = 0.0;
        for col in &self.sorted_window {
            acc += ks_sorted_window(col, m); // squash() is the identity for KS
        }
        acc / self.reference.len() as f64
    }

    /// Confidence in the ML component's outcome: `1 − dissimilarity`.
    pub fn confidence(&self) -> f64 {
        1.0 - self.dissimilarity()
    }

    /// The three-way verdict against the configured thresholds.
    pub fn verdict(&self) -> SafeMlVerdict {
        let d = self.dissimilarity();
        if d >= self.config.reject_threshold {
            SafeMlVerdict::Reject
        } else if d >= self.config.caution_threshold {
            SafeMlVerdict::Caution
        } else {
            SafeMlVerdict::Accept
        }
    }

    /// Total samples ever pushed.
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Current window occupancy.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }
}

/// The KS statistic `sup |F − G|` between a reference column (seen only
/// through each entry's `cdf`/`cdf_below`) and a window column of `m`
/// values sorted ascending.
///
/// Over the distinct window values `w_k`, with `j_k = #window ≤ w_k`
/// and `j_{-1} = 0`, it returns
/// `max_k max(|cdf_k − j_k/m|, |cdf_below_k − j_{k−1}/m|)`, bit-identical
/// to the merge walk of `distance::kolmogorov_smirnov`:
///
/// * every candidate is a point the walk visits — `w_k` itself, and the
///   largest reference value below `w_k` when one lies above `w_{k−1}`
///   (otherwise `cdf_below_k` equals `cdf_{k−1}` and the candidate
///   repeats `w_{k−1}`'s);
/// * between two window values the walk visits only reference values,
///   at a fixed `j`, and `fl(i/n − j/m)` is monotone in `i`, so that run
///   of `|diff|` peaks at an endpoint, and both endpoints are candidates
///   (past the last window value the right endpoint is `1 − 1 = 0`);
/// * the candidates are evaluated with the walk's exact expression
///   `i as f64 / n − j as f64 / m`, and `max` over `|·|` is exact and
///   ignores order.
fn ks_sorted_window(col: &[Ranked], m: f64) -> f64 {
    let mut sup = 0.0f64;
    let mut below = 0.0; // j_{k−1} / m
    let mut k = 0;
    while k < col.len() {
        let e = col[k];
        let mut j = k + 1;
        while j < col.len() && col[j].v == e.v {
            j += 1;
        }
        let at = j as f64 / m;
        sup = sup.max((e.cdf_below - below).abs()).max((e.cdf - at).abs());
        below = at;
        k = j;
    }
    sup
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    fn reference() -> Vec<Vec<f64>> {
        (0..200)
            .map(|i| {
                vec![
                    (i % 20) as f64 * 0.05,      // uniform-ish 0..1
                    ((i * 7) % 13) as f64 * 0.1, // uniform-ish 0..1.3
                ]
            })
            .collect()
    }

    #[test]
    fn in_distribution_data_accepts() {
        let mut mon = SafeMlMonitor::new(reference(), SafeMlConfig::default()).unwrap();
        for i in 0..50 {
            mon.push_sample(&[(i % 20) as f64 * 0.05, ((i * 7) % 13) as f64 * 0.1])
                .unwrap();
        }
        assert!(mon.is_warmed_up());
        assert!(mon.dissimilarity() < 0.3, "d = {}", mon.dissimilarity());
        assert_eq!(mon.verdict(), SafeMlVerdict::Accept);
        assert!(mon.confidence() > 0.7);
    }

    #[test]
    fn shifted_data_rejects() {
        let mut mon = SafeMlMonitor::new(reference(), SafeMlConfig::default()).unwrap();
        for _ in 0..50 {
            mon.push_sample(&[10.0, -5.0]).unwrap();
        }
        assert_eq!(mon.verdict(), SafeMlVerdict::Reject);
        assert!(mon.confidence() < 0.15);
    }

    #[test]
    fn partial_shift_cautions() {
        // One feature in-distribution, the other fully out: mean KS ≈ 0.5+.
        let mut cfg = SafeMlConfig::default();
        cfg.caution_threshold = 0.4;
        cfg.reject_threshold = 0.8;
        let mut mon = SafeMlMonitor::new(reference(), cfg).unwrap();
        for i in 0..50 {
            mon.push_sample(&[(i % 20) as f64 * 0.05, 99.0]).unwrap();
        }
        assert_eq!(mon.verdict(), SafeMlVerdict::Caution);
    }

    #[test]
    fn window_slides() {
        let mut mon = SafeMlMonitor::new(reference(), SafeMlConfig::default()).unwrap();
        // Fill with shifted data, then flush with in-distribution data.
        for _ in 0..50 {
            mon.push_sample(&[10.0, 10.0]).unwrap();
        }
        let bad = mon.dissimilarity();
        for i in 0..50 {
            mon.push_sample(&[(i % 20) as f64 * 0.05, ((i * 7) % 13) as f64 * 0.1])
                .unwrap();
        }
        let good = mon.dissimilarity();
        assert!(good < bad, "window must forget old shift: {bad} -> {good}");
        assert_eq!(mon.window_len(), 50);
        assert_eq!(mon.samples_seen(), 100);
    }

    #[test]
    fn empty_window_is_neutral() {
        let mon = SafeMlMonitor::new(reference(), SafeMlConfig::default()).unwrap();
        assert_eq!(mon.dissimilarity(), 0.0);
        assert_eq!(mon.verdict(), SafeMlVerdict::Accept);
        assert!(!mon.is_warmed_up());
    }

    #[test]
    fn construction_rejects_bad_shapes() {
        assert_eq!(
            SafeMlMonitor::new(vec![], SafeMlConfig::default()).unwrap_err(),
            SafeMlError::EmptyReference
        );
        assert_eq!(
            SafeMlMonitor::new(vec![vec![]], SafeMlConfig::default()).unwrap_err(),
            SafeMlError::EmptyReference
        );
        assert_eq!(
            SafeMlMonitor::new(vec![vec![1.0], vec![1.0, 2.0]], SafeMlConfig::default())
                .unwrap_err(),
            SafeMlError::RaggedReference
        );
        assert_eq!(
            SafeMlMonitor::new(vec![vec![f64::NAN]], SafeMlConfig::default()).unwrap_err(),
            SafeMlError::NonFinite
        );
        let mut cfg = SafeMlConfig::default();
        cfg.caution_threshold = 0.9;
        cfg.reject_threshold = 0.5;
        assert_eq!(
            SafeMlMonitor::new(vec![vec![1.0]], cfg).unwrap_err(),
            SafeMlError::BadThresholds
        );
        // A NaN threshold compares false both ways and would otherwise
        // yield `Accept` forever; infinities are refused with it.
        for (caution, reject) in [
            (f64::NAN, 0.9),
            (0.5, f64::NAN),
            (f64::NEG_INFINITY, 0.9),
            (0.5, f64::INFINITY),
        ] {
            let mut cfg = SafeMlConfig::default();
            cfg.caution_threshold = caution;
            cfg.reject_threshold = reject;
            assert_eq!(
                SafeMlMonitor::new(vec![vec![1.0]], cfg).unwrap_err(),
                SafeMlError::BadThresholds,
                "thresholds ({caution}, {reject})"
            );
        }
        // A zero-length window used to panic on the first push; one too
        // large to allocate is refused instead of aborting.
        for window in [0, usize::MAX] {
            let mut cfg = SafeMlConfig::default();
            cfg.window = window;
            assert_eq!(
                SafeMlMonitor::new(vec![vec![1.0]], cfg).unwrap_err(),
                SafeMlError::BadWindow,
                "window {window}"
            );
        }
        let mut cfg = SafeMlConfig::default();
        cfg.window = 1;
        let mut mon = SafeMlMonitor::new(vec![vec![1.0]], cfg).unwrap();
        mon.push_sample(&[1.0]).unwrap();
        mon.push_sample(&[2.0]).unwrap();
        assert_eq!(mon.window_len(), 1);
    }

    #[test]
    fn sample_shape_checked() {
        let mut mon = SafeMlMonitor::new(reference(), SafeMlConfig::default()).unwrap();
        assert_eq!(
            mon.push_sample(&[1.0]).unwrap_err(),
            SafeMlError::FeatureCountMismatch {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            mon.push_sample(&[1.0, f64::INFINITY]).unwrap_err(),
            SafeMlError::NonFinite
        );
        assert_eq!(mon.feature_count(), 2);
    }

    #[test]
    fn assessment_is_bit_identical_to_naive_accessors() {
        let mut mon = SafeMlMonitor::new(reference(), SafeMlConfig::default()).unwrap();
        // Empty window first, then a drifting stream crossing thresholds.
        assert_eq!(mon.assessment(), (0.0, SafeMlVerdict::Accept));
        for i in 0..120u32 {
            let drift = f64::from(i) * 0.15;
            mon.push_sample(&[(i % 20) as f64 * 0.05 + drift, drift])
                .unwrap();
            let naive = (mon.dissimilarity(), mon.verdict());
            let fast = mon.assessment();
            assert_eq!(naive.0.to_bits(), fast.0.to_bits(), "tick {i}");
            assert_eq!(naive.1, fast.1, "tick {i}");
        }
    }

    #[test]
    fn sorted_window_ks_is_bit_identical_on_ties_signed_zeros_and_short_windows() {
        const A: [f64; 8] = [0.1, 0.4, 0.5, 0.7, 1.0, 1.2, 1.4, 2.0];
        let reference: Vec<Vec<f64>> = A.iter().map(|&a| vec![a]).collect();
        for (window, stream) in [
            (8, A.iter().map(|a| a + 0.3).collect::<Vec<_>>()),
            (8, A.iter().map(|a| a - 2.0).collect()),
            (8, vec![0.5; 8]),                         // whole-window ties
            (6, vec![0.0, -0.0, 0.4, 1.2, -0.0, 0.7]), // signed-zero ties
            (1, vec![42.0, 0.4, 0.4, -7.0]),           // one-sample window
        ] {
            let mut cfg = SafeMlConfig::default();
            cfg.window = window;
            let mut mon = SafeMlMonitor::new(reference.clone(), cfg).unwrap();
            for (t, v) in stream.iter().enumerate() {
                mon.push_sample(&[*v]).unwrap();
                let naive = (mon.dissimilarity(), mon.verdict());
                let fast = mon.assessment();
                assert_eq!(naive.0.to_bits(), fast.0.to_bits(), "{stream:?} at {t}");
                assert_eq!(naive.1, fast.1, "{stream:?} at {t}");
            }
        }
    }

    #[test]
    fn assessment_falls_back_for_non_ks_measures() {
        let mut cfg = SafeMlConfig::default();
        cfg.measure = DistanceMeasure::Wasserstein;
        let mut mon = SafeMlMonitor::new(reference(), cfg).unwrap();
        for i in 0..50 {
            mon.push_sample(&[f64::from(i) * 0.3, 2.0]).unwrap();
            let naive = (mon.dissimilarity(), mon.verdict());
            let fast = mon.assessment();
            assert_eq!(naive.0.to_bits(), fast.0.to_bits());
            assert_eq!(naive.1, fast.1);
        }
    }

    #[test]
    fn unbounded_measure_squashes_into_unit_interval() {
        let mut cfg = SafeMlConfig::default();
        cfg.measure = DistanceMeasure::Wasserstein;
        let mut mon = SafeMlMonitor::new(reference(), cfg).unwrap();
        for _ in 0..50 {
            mon.push_sample(&[1e6, 1e6]).unwrap();
        }
        let d = mon.dissimilarity();
        assert!((0.0..=1.0).contains(&d));
        assert!(d > 0.99);
    }
}
