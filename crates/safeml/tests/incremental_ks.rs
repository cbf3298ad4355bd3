//! Property test of the monitor's incremental KS kernel.
//!
//! After every push, `SafeMlMonitor::assessment()` (sorted window columns
//! carrying reference ECDF values, no per-tick sort or merge) must equal
//! the naive `(dissimilarity(), verdict())` pair bit for bit. The streams
//! are constructed to hit the kernel's edges: window lengths 1, 2 and 50
//! (and a few in between), partly filled windows, values equal to
//! reference points, whole-window ties, mixed `-0.0`/`0.0`, values below
//! and above the reference range, and evictions of a value that occurs
//! several times in the window.
//!
//! The case budget defaults to 64 and can be raised with
//! `SESAME_FUZZ_CASES` (CI runs 2048 in release mode).

use proptest::collection::vec;
use proptest::prelude::*;
use sesame_safeml::monitor::{SafeMlConfig, SafeMlMonitor};

fn cases() -> u32 {
    std::env::var("SESAME_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// A reference value: on a 0.5 grid (so streams can tie with it), a
/// signed zero, or anywhere in `[-3, 3)`.
fn reference_value() -> impl Strategy<Value = f64> {
    (0u8..4, -3.0..3.0f64).prop_map(|(kind, x)| match kind {
        0 => (x * 2.0).round() / 2.0,
        1 => -0.0,
        2 => 0.0,
        _ => x,
    })
}

/// How one stream value is chosen; resolved against the reference and
/// the previous row in [`resolve`].
#[derive(Debug, Clone, Copy)]
enum Pick {
    /// A reference point of the same feature, exactly.
    Reference(usize),
    /// `-0.0` or `0.0`.
    SignedZero(bool),
    /// Strictly below the reference range.
    Below(f64),
    /// Strictly above the reference range.
    Above(f64),
    /// On the reference's 0.5 grid.
    Grid(f64),
    /// The previous row's value of the same feature, so runs of equal
    /// values build up and are later evicted one copy at a time.
    Repeat,
}

fn pick() -> impl Strategy<Value = Pick> {
    (0u8..6, 0usize..1024, -3.0..3.0f64).prop_map(|(kind, i, x)| match kind {
        0 => Pick::Reference(i),
        1 => Pick::SignedZero(i % 2 == 0),
        2 => Pick::Below(x.abs()),
        3 => Pick::Above(x.abs()),
        4 => Pick::Grid(x),
        _ => Pick::Repeat,
    })
}

/// A monitor setup: reference rows, window length and a stream of
/// per-feature picks. With `constant`, every row repeats the first, so
/// the window ends up one whole-window tie.
type Setup = (Vec<Vec<f64>>, usize, Vec<Vec<Pick>>, bool);

fn setup() -> impl Strategy<Value = Setup> {
    let window = prop_oneof![Just(1usize), Just(2usize), Just(50usize), 3usize..9];
    (1usize..4, 1usize..60, window, 0u8..8).prop_flat_map(|(width, rows, window, mode)| {
        (
            vec(vec(reference_value(), width), rows),
            Just(window),
            vec(vec(pick(), width), 0..2 * window + 12),
            Just(mode == 0),
        )
    })
}

fn resolve(pick: Pick, column: &[f64], previous: Option<f64>) -> f64 {
    let lo = column.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = column.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    match pick {
        Pick::Reference(i) => column[i % column.len()],
        Pick::SignedZero(negative) => {
            if negative {
                -0.0
            } else {
                0.0
            }
        }
        Pick::Below(d) => lo - 0.25 - d,
        Pick::Above(d) => hi + 0.25 + d,
        Pick::Grid(x) => (x * 2.0).round() / 2.0,
        Pick::Repeat => previous.unwrap_or(lo),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn assessment_is_bit_identical_to_naive_after_every_push(setup in setup()) {
        let (reference, window, picks, constant) = setup;
        let width = reference[0].len();
        let columns: Vec<Vec<f64>> = (0..width)
            .map(|c| reference.iter().map(|row| row[c]).collect())
            .collect();
        let config = SafeMlConfig { window, ..SafeMlConfig::default() };
        let mut mon = SafeMlMonitor::new(reference, config).expect("valid setup");
        let mut previous: Option<Vec<f64>> = None;
        for (t, row_picks) in picks.iter().enumerate() {
            let row: Vec<f64> = match (&previous, constant) {
                (Some(first), true) => first.clone(),
                _ => row_picks
                    .iter()
                    .enumerate()
                    .map(|(c, p)| resolve(*p, &columns[c], previous.as_ref().map(|r| r[c])))
                    .collect(),
            };
            mon.push_sample(&row).expect("finite row of the right width");
            let naive = (mon.dissimilarity(), mon.verdict());
            let fast = mon.assessment();
            prop_assert_eq!(
                naive.0.to_bits(),
                fast.0.to_bits(),
                "push {} ({:?}): naive {} vs fast {}",
                t,
                row,
                naive.0,
                fast.0
            );
            prop_assert_eq!(naive.1, fast.1, "push {}", t);
            previous = Some(row);
        }
        prop_assert_eq!(mon.window_len(), picks.len().min(window));
    }
}
