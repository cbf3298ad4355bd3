//! `InlineVec<T, N>`: a std-only small-vector with inline storage.
//!
//! The tick pipeline's hottest collections — bus route tables, attack-tree
//! child lists, SINADRA factor storage, detection-event buffers — are
//! almost always tiny (a handful of entries) but were stored in `Vec`s,
//! which heap-allocate on first push and again on growth. `InlineVec`
//! keeps up to `N` elements in a fixed inline array and only *spills* to a
//! heap `Vec` when the length exceeds `N`. Steady-state ticks whose
//! collections stay within `N` therefore perform zero allocations.
//!
//! Design constraints, in order:
//! * **No `unsafe`.** Inline storage is a plain `[T; N]` initialised with
//!   `T::default()`, so every slot is always a live value and slices can
//!   be handed out safely. That costs `T: Default + Clone` (satisfied by
//!   the hot element types: indices, ids, small Copy structs) instead of
//!   `MaybeUninit` gymnastics.
//! * **`Vec`-compatible observable behaviour.** `push`, `pop`, `clear`,
//!   `len`, iteration order and slice contents match `Vec<T>` exactly —
//!   the property tests in `crates/types/tests/inline_vec.rs` pin this by
//!   driving both through randomized operation schedules.
//! * **One-way spill.** Once spilled, the buffer stays heap-backed until
//!   `clear()`; shrinking back on `pop` would thrash at the boundary.
//!
//! # Examples
//!
//! ```
//! use sesame_types::inline::InlineVec;
//!
//! let mut v: InlineVec<u32, 4> = InlineVec::new();
//! for i in 0..4 {
//!     v.push(i);
//! }
//! assert!(!v.spilled());
//! v.push(99); // fifth element: spills to the heap
//! assert!(v.spilled());
//! assert_eq!(v.as_slice(), &[0, 1, 2, 3, 99]);
//! ```

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A growable vector that stores up to `N` elements inline and spills to
/// a heap `Vec` beyond that. See the module docs for the contract.
#[derive(Clone)]
pub enum InlineVec<T, const N: usize> {
    /// Inline storage: `buf[..len]` are the live elements, `buf[len..]`
    /// hold default placeholders.
    Inline {
        /// Number of live elements in `buf`.
        len: usize,
        /// Fixed inline storage.
        buf: [T; N],
    },
    /// Heap storage after exceeding `N` elements.
    Spilled(Vec<T>),
}

impl<T: Default + Clone, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector (no heap allocation).
    pub fn new() -> Self {
        InlineVec::Inline {
            len: 0,
            buf: std::array::from_fn(|_| T::default()),
        }
    }

    /// Appends an element, spilling to the heap when the inline capacity
    /// is exceeded.
    pub fn push(&mut self, value: T) {
        match self {
            InlineVec::Inline { len, buf } => {
                if *len < N {
                    buf[*len] = value;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(N * 2);
                    v.extend_from_slice(&buf[..*len]);
                    v.push(value);
                    *self = InlineVec::Spilled(v);
                }
            }
            InlineVec::Spilled(v) => v.push(value),
        }
    }

    /// Removes and returns the last element, or `None` when empty. A
    /// popped inline slot is reset to `T::default()` so the storage
    /// invariant (every slot live) holds.
    pub fn pop(&mut self) -> Option<T> {
        match self {
            InlineVec::Inline { len, buf } => {
                if *len == 0 {
                    None
                } else {
                    *len -= 1;
                    Some(std::mem::take(&mut buf[*len]))
                }
            }
            InlineVec::Spilled(v) => v.pop(),
        }
    }

    /// Drops every element. A spilled buffer returns to inline storage
    /// only via [`InlineVec::reset`]; `clear` keeps the heap capacity so
    /// a hot loop that spilled once does not re-allocate every tick.
    pub fn clear(&mut self) {
        match self {
            InlineVec::Inline { len, buf } => {
                for slot in &mut buf[..*len] {
                    *slot = T::default();
                }
                *len = 0;
            }
            InlineVec::Spilled(v) => v.clear(),
        }
    }

    /// Clears and returns to inline storage, releasing any heap buffer.
    pub fn reset(&mut self) {
        *self = InlineVec::new();
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        match self {
            InlineVec::Inline { len, .. } => *len,
            InlineVec::Spilled(v) => v.len(),
        }
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the contents have spilled to the heap.
    pub fn spilled(&self) -> bool {
        matches!(self, InlineVec::Spilled(_))
    }

    /// The live elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match self {
            InlineVec::Inline { len, buf } => &buf[..*len],
            InlineVec::Spilled(v) => v.as_slice(),
        }
    }

    /// The live elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            InlineVec::Inline { len, buf } => &mut buf[..*len],
            InlineVec::Spilled(v) => v.as_mut_slice(),
        }
    }

    /// Iterates over the live elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }

    /// Appends every element of `slice`.
    pub fn extend_from_slice(&mut self, slice: &[T]) {
        for item in slice {
            self.push(item.clone());
        }
    }

    /// Moves the live elements out, leaving the vector empty.
    pub fn drain_to_vec(&mut self) -> Vec<T> {
        match self {
            InlineVec::Inline { len, buf } => {
                let mut out = Vec::with_capacity(*len);
                for slot in &mut buf[..*len] {
                    out.push(std::mem::take(slot));
                }
                *len = 0;
                out
            }
            InlineVec::Spilled(v) => std::mem::take(v),
        }
    }
}

impl<T: Default + Clone, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Default + Clone, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Default + Clone, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Default + Clone + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Default + Clone + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Default + Clone + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Default + Clone + std::hash::Hash, const N: usize> std::hash::Hash for InlineVec<T, N> {
    /// Hashes as the contained slice (like `Vec`): an inline and a
    /// spilled vector with equal elements hash equally.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl<T: Default + Clone + PartialOrd, const N: usize> PartialOrd for InlineVec<T, N> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.as_slice().partial_cmp(other.as_slice())
    }
}

impl<T: Default + Clone + Ord, const N: usize> Ord for InlineVec<T, N> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl<T: Default + Clone, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<'a, T: Default + Clone, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Default + Clone, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<usize, 3> = InlineVec::new();
        assert!(v.is_empty());
        for i in 0..3 {
            v.push(i);
            assert!(!v.spilled(), "still inline at len {}", v.len());
        }
        assert_eq!(v.as_slice(), &[0, 1, 2]);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn spills_beyond_capacity_and_preserves_order() {
        let mut v: InlineVec<usize, 2> = InlineVec::new();
        for i in 0..5 {
            v.push(i);
        }
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn pop_matches_vec_semantics_across_the_spill_boundary() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        let mut oracle: Vec<u8> = Vec::new();
        for i in 0..4 {
            v.push(i);
            oracle.push(i);
        }
        for _ in 0..5 {
            assert_eq!(v.pop(), oracle.pop());
            assert_eq!(v.as_slice(), oracle.as_slice());
        }
    }

    #[test]
    fn clear_keeps_spilled_capacity_reset_releases_it() {
        let mut v: InlineVec<u32, 1> = InlineVec::new();
        v.push(1);
        v.push(2);
        assert!(v.spilled());
        v.clear();
        assert!(v.is_empty());
        assert!(v.spilled(), "clear keeps the heap buffer");
        v.reset();
        assert!(!v.spilled(), "reset returns to inline storage");
    }

    #[test]
    fn mutable_slice_and_iteration() {
        let mut v: InlineVec<i64, 4> = (0..4).collect();
        for x in v.as_mut_slice() {
            *x *= 10;
        }
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![0, 10, 20, 30]);
        assert_eq!(v[2], 20, "deref to slice indexes");
    }

    #[test]
    fn drain_to_vec_empties_both_representations() {
        let mut inline: InlineVec<u8, 4> = (0..3).collect();
        assert_eq!(inline.drain_to_vec(), vec![0, 1, 2]);
        assert!(inline.is_empty());
        let mut spilled: InlineVec<u8, 2> = (0..4).collect();
        assert_eq!(spilled.drain_to_vec(), vec![0, 1, 2, 3]);
        assert!(spilled.is_empty());
    }

    #[test]
    fn equality_ignores_representation() {
        let inline: InlineVec<u8, 8> = (0..3).collect();
        let mut spilled: InlineVec<u8, 1> = (0..3).collect();
        assert!(spilled.spilled());
        assert_eq!(inline.as_slice(), spilled.as_slice());
        spilled.push(9);
        assert_ne!(inline.as_slice(), spilled.as_slice());
    }
}
