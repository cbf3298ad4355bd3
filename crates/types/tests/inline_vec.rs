//! Property tests of [`sesame_types::inline::InlineVec`].
//!
//! The hot-loop collections (bus route tables, attack-tree frontiers,
//! evidence sets, SINADRA factor storage) all ride on
//! `InlineVec`, so its observable behaviour must match `Vec<T>` exactly —
//! across the inline representation, the spill boundary, and the spilled
//! heap representation. These tests drive an `InlineVec` and a `Vec`
//! oracle through randomized operation schedules and assert lockstep
//! agreement, plus representation-independence of `Eq`/`Ord`/`Hash`
//! (an inline and a spilled vector with equal elements must be
//! indistinguishable to a `HashMap` or `BTreeMap` key lookup).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use sesame_types::inline::InlineVec;

/// One step of a randomized operation schedule.
#[derive(Debug, Clone)]
enum Op {
    Push(i32),
    Pop,
    Clear,
    ExtendFromSlice(Vec<i32>),
    MutateAt(usize, i32),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-1000i32..1000).prop_map(Op::Push),
        (-1000i32..1000).prop_map(Op::Push),
        (-1000i32..1000).prop_map(Op::Push),
        Just(Op::Pop),
        Just(Op::Clear),
        proptest::collection::vec(-1000i32..1000, 0..6).prop_map(Op::ExtendFromSlice),
        (0usize..64, -1000i32..1000).prop_map(|(i, v)| Op::MutateAt(i, v)),
    ]
}

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Builds an `InlineVec<i32, 16>` holding `xs` in the **spilled**
/// representation: pushes past the inline capacity to trigger the spill
/// (one-way), then pops back down to the original content.
fn force_spilled(xs: &[i32]) -> InlineVec<i32, 16> {
    let mut v: InlineVec<i32, 16> = xs.iter().copied().collect();
    while !v.spilled() {
        v.push(0);
    }
    while v.len() > xs.len() {
        v.pop();
    }
    v
}

/// Runs a schedule against both containers, asserting lockstep agreement
/// after every step. `N = 4` keeps the spill boundary in constant play.
fn run_schedule(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut v: InlineVec<i32, 4> = InlineVec::new();
    let mut oracle: Vec<i32> = Vec::new();
    for op in ops {
        match op {
            Op::Push(x) => {
                v.push(*x);
                oracle.push(*x);
            }
            Op::Pop => {
                prop_assert_eq!(v.pop(), oracle.pop());
            }
            Op::Clear => {
                v.clear();
                oracle.clear();
            }
            Op::ExtendFromSlice(xs) => {
                v.extend_from_slice(xs);
                oracle.extend_from_slice(xs);
            }
            Op::MutateAt(i, x) => {
                if !oracle.is_empty() {
                    let i = i % oracle.len();
                    v.as_mut_slice()[i] = *x;
                    oracle[i] = *x;
                }
            }
        }
        prop_assert_eq!(v.as_slice(), oracle.as_slice());
        prop_assert_eq!(v.len(), oracle.len());
        prop_assert_eq!(v.is_empty(), oracle.is_empty());
    }
    // Iteration, FromIterator round-trip and Debug agree at the end.
    prop_assert_eq!(v.iter().copied().collect::<Vec<_>>(), oracle.clone());
    let rebuilt: InlineVec<i32, 4> = oracle.iter().copied().collect();
    prop_assert_eq!(&rebuilt, &v);
    prop_assert_eq!(format!("{v:?}"), format!("{oracle:?}"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `InlineVec` and `Vec` agree after every step of any schedule.
    #[test]
    fn lockstep_with_vec(ops in proptest::collection::vec(op(), 0..40)) {
        run_schedule(&ops)?;
    }

    /// Equality, ordering and hashing are representation-independent:
    /// the same elements held inline (large `N`) and spilled (tiny `N`)
    /// compare equal, order identically against other content, and hash
    /// to the same value — required for map lookups keyed by an
    /// `InlineVec` to be oblivious to whether a key spilled.
    #[test]
    fn eq_ord_hash_ignore_representation(
        xs in proptest::collection::vec(-3i32..3, 0..8),
        ys in proptest::collection::vec(-3i32..3, 0..8),
    ) {
        let inline_x: InlineVec<i32, 16> = xs.iter().copied().collect();
        let spilled_x = force_spilled(&xs);
        let inline_y: InlineVec<i32, 16> = ys.iter().copied().collect();
        let spilled_y = force_spilled(&ys);
        prop_assert!(!inline_x.spilled() && spilled_x.spilled());

        prop_assert_eq!(&inline_x, &spilled_x);
        prop_assert_eq!(hash_of(&inline_x), hash_of(&spilled_x));
        prop_assert_eq!(inline_x.cmp(&spilled_x), std::cmp::Ordering::Equal);

        // Cross-content comparisons track the slice semantics of `Vec`.
        prop_assert_eq!(inline_x == inline_y, xs == ys);
        prop_assert_eq!(inline_x.cmp(&inline_y), xs.cmp(&ys));
        prop_assert_eq!(spilled_x.cmp(&spilled_y), xs.cmp(&ys));
        prop_assert_eq!(
            inline_x.partial_cmp(&spilled_y),
            xs.partial_cmp(&ys)
        );
        if xs == ys {
            prop_assert_eq!(hash_of(&inline_x), hash_of(&spilled_y));
        }
    }

    /// The spill point is exactly `N`: `N` pushes stay inline, the
    /// `N+1`-th spills, and `clear` keeps the heap buffer while `reset`
    /// returns to inline storage.
    #[test]
    fn spill_boundary_is_exact(xs in proptest::collection::vec(-1000i32..1000, 5..20)) {
        let mut v: InlineVec<i32, 4> = InlineVec::new();
        for (i, x) in xs.iter().enumerate() {
            v.push(*x);
            prop_assert_eq!(v.spilled(), i + 1 > 4, "len {}", i + 1);
        }
        v.clear();
        prop_assert!(v.spilled(), "clear keeps the heap buffer");
        prop_assert!(v.is_empty());
        v.reset();
        prop_assert!(!v.spilled(), "reset returns to inline storage");
    }

    /// `drain_to_vec` empties the container and yields the elements in
    /// order, for both representations.
    #[test]
    fn drain_to_vec_matches(xs in proptest::collection::vec(-1000i32..1000, 0..12)) {
        let mut inline: InlineVec<i32, 16> = xs.iter().copied().collect();
        let mut spilled: InlineVec<i32, 1> = xs.iter().copied().collect();
        prop_assert_eq!(inline.drain_to_vec(), xs.clone());
        prop_assert_eq!(spilled.drain_to_vec(), xs.clone());
        prop_assert!(inline.is_empty());
        prop_assert!(spilled.is_empty());
    }
}
