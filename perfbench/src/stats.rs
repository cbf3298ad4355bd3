//! Small numeric helpers with their own tests: the percentile rank
//! rule, metric-name validation and the tick phase split.

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise it is withheld.
pub const SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..1`) of `samples`, or `None` when
/// fewer than [`SAMPLES_BEYOND`] samples lie above its rank. The slice
/// is sorted in place.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    let rank = reportable_rank(samples.len(), q)?;
    samples.sort_by(f64::total_cmp);
    Some(samples[rank - 1])
}

/// The 1-based nearest rank of percentile `q` among `n` samples, when
/// at least [`SAMPLES_BEYOND`] samples lie above it.
fn reportable_rank(n: usize, q: f64) -> Option<usize> {
    // The epsilon keeps `0.9 * 100` from ceiling to 91.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).max(1);
    (rank <= n && n - rank >= SAMPLES_BEYOND).then_some(rank)
}

/// The highest of `ladder` (percentiles in `0..1`) that
/// [`percentile`] would report for `n` samples.
pub fn highest_reportable(n: usize, ladder: &[f64]) -> Option<f64> {
    ladder
        .iter()
        .copied()
        .filter(|&q| reportable_rank(n, q).is_some())
        .reduce(f64::max)
}

/// Median of `samples` with the same withholding rule.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Median of a few repeated measurements (such as set-up rounds),
/// where the sample-count rule of [`percentile`] does not apply; the
/// mean of the two middle values for an even count. Panics on an empty
/// slice.
pub fn median_of_few(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Mean time per tick of each tick phase plus the remainder no phase
/// claims, so that the phases and `unattributed_us` sum to the mean
/// tick total exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSplit {
    /// `(phase, mean µs per tick)` in tick order.
    pub phases: Vec<(&'static str, f64)>,
    /// Mean `tick.total` minus the sum of the phases.
    pub unattributed_us: f64,
    /// Mean `tick.total`, µs.
    pub total_us: f64,
}

impl PhaseSplit {
    /// Splits a window of `ticks` ticks, given the µs each phase and
    /// the whole tick accumulated over it.
    pub fn new(phase_sums_us: &[(&'static str, f64)], total_sum_us: f64, ticks: u64) -> Self {
        let per_tick = |sum: f64| if ticks == 0 { 0.0 } else { sum / ticks as f64 };
        let phases: Vec<(&'static str, f64)> = phase_sums_us
            .iter()
            .map(|&(name, sum)| (name, per_tick(sum)))
            .collect();
        let total_us = per_tick(total_sum_us);
        let attributed: f64 = phases.iter().map(|(_, us)| us).sum();
        PhaseSplit {
            phases,
            unattributed_us: total_us - attributed,
            total_us,
        }
    }

    /// Mean µs per tick of one phase (0 when the phase is unknown).
    pub fn phase_us(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, us)| *us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1009 samples: rank ceil(0.99 * 1009) = 999 leaves 10 beyond.
        let mut enough: Vec<f64> = (1..=1009).map(f64::from).collect();
        assert_eq!(percentile(&mut enough, 0.99), Some(999.0));
        // 1000 samples: rank 990 leaves exactly 10 beyond.
        let mut thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut thousand, 0.99), Some(990.0));
        // 999 samples: rank 990 leaves 9 beyond, so p99 is withheld.
        let mut short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&mut short, 0.99), None);
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn the_median_is_withheld_below_twenty_samples() {
        let mut twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(median(&mut twenty), Some(10.0));
        let mut nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(median(&mut nineteen), None);
    }

    #[test]
    fn the_highest_reportable_percentile_follows_the_sample_count() {
        let ladder = [0.5, 0.9, 0.99, 0.999];
        assert_eq!(highest_reportable(10_000, &ladder), Some(0.999));
        assert_eq!(highest_reportable(1_000, &ladder), Some(0.99));
        assert_eq!(highest_reportable(999, &ladder), Some(0.9));
        assert_eq!(highest_reportable(100, &ladder), Some(0.9));
        assert_eq!(highest_reportable(99, &ladder), Some(0.5));
        assert_eq!(highest_reportable(19, &ladder), None);
    }

    #[test]
    fn a_few_repeats_report_their_middle() {
        assert_eq!(median_of_few(&mut [0.9, 0.7, 0.8]), 0.8);
        assert_eq!(median_of_few(&mut [2.0]), 2.0);
        assert_eq!(median_of_few(&mut [3.0, 1.0]), 2.0);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in [
            "tick_p50_us",
            "core.phase.eddi_eval_us",
            "server.log.open_ms",
            "9a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "µs",
            "a/b",
            "a:b",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn phases_and_unattributed_sum_to_the_tick_total() {
        let sums = [
            ("sim_step", 300.0),
            ("eddi_eval", 1200.0),
            ("airspace", 450.0),
        ];
        let split = PhaseSplit::new(&sums, 2_100.0, 30);
        let phase_total: f64 = split.phases.iter().map(|(_, us)| us).sum();
        assert!((phase_total + split.unattributed_us - split.total_us).abs() < 1e-9);
        assert!((split.total_us - 70.0).abs() < 1e-9);
        assert!((split.unattributed_us - 5.0).abs() < 1e-9);
        assert!((split.phase_us("eddi_eval") - 40.0).abs() < 1e-9);
        assert_eq!(split.phase_us("decide"), 0.0);
    }
}
