//! Dense, word-packed bitvectors.
//!
//! CIAO clients attach one bitvector per pushed-down predicate to every
//! chunk of raw JSON records: bit `i` is 1 when record `i` *may* satisfy
//! the predicate (false positives allowed, false negatives never). The
//! server combines these with `AND`/`OR` to drive partial loading and
//! data skipping, so the bitvector is the single most heavily exercised
//! data structure in the system.
//!
//! The implementation packs bits little-endian into `u64` words. All
//! bulk operations (`and`, `or`, `count_ones`, …) work a word at a time.
//!
//! # Example
//!
//! ```
//! use ciao_bitvec::BitVec;
//!
//! let mut bv = BitVec::zeros(10);
//! bv.set(3, true);
//! bv.set(7, true);
//! assert_eq!(bv.count_ones(), 2);
//! assert_eq!(bv.iter_ones().collect::<Vec<_>>(), vec![3, 7]);
//! ```

#![warn(missing_docs)]

mod iter;
mod ops;
mod serde_impl;
mod wire;

pub use iter::{BitIter, OnesIter};
pub use wire::WireError;

const WORD_BITS: usize = 64;

/// A growable, densely packed vector of bits.
///
/// Invariant: all bits in `words` at positions `>= len` are zero. Every
/// mutating operation restores this invariant, which lets bulk word-wise
/// operations (`count_ones`, `union_count`, equality) avoid per-bit
/// masking.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

#[inline]
pub(crate) fn words_for(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

impl BitVec {
    /// Creates an empty bitvector.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bitvector with room for `cap` bits before
    /// reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        BitVec {
            words: Vec::with_capacity(words_for(cap)),
            len: 0,
        }
    }

    /// Creates a bitvector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; words_for(len)],
            len,
        }
    }

    /// Creates a bitvector of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut bv = BitVec {
            words: vec![!0u64; words_for(len)],
            len,
        };
        bv.mask_tail();
        bv
    }

    /// Builds a bitvector by evaluating `f` at every index in `0..len`.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut bv = BitVec::zeros(len);
        for i in 0..len {
            if f(i) {
                bv.set(i, true);
            }
        }
        bv
    }

    /// Builds a bitvector from a slice of booleans.
    pub fn from_bools(bools: &[bool]) -> Self {
        Self::from_fn(bools.len(), |i| bools[i])
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`, or `None` when out of range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<bool> {
        if i >= self.len {
            return None;
        }
        Some(unsafe { self.get_unchecked(i) })
    }

    /// Returns bit `i` without bounds checking.
    ///
    /// # Safety
    ///
    /// `i` must be `< self.len()`.
    #[inline]
    pub unsafe fn get_unchecked(&self, i: usize) -> bool {
        (self.words.get_unchecked(i / WORD_BITS) >> (i % WORD_BITS)) & 1 == 1
    }

    /// Returns bit `i`, panicking when out of range.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        unsafe { self.get_unchecked(i) }
    }

    /// Sets bit `i` to `value`. Panics when out of range.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Appends one bit.
    #[inline]
    pub fn push(&mut self, value: bool) {
        let i = self.len;
        if i / WORD_BITS == self.words.len() {
            self.words.push(0);
        }
        self.len += 1;
        if value {
            self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
        }
    }

    /// Removes and returns the last bit.
    pub fn pop(&mut self) -> Option<bool> {
        if self.len == 0 {
            return None;
        }
        let last = self.bit(self.len - 1);
        self.truncate(self.len - 1);
        Some(last)
    }

    /// Shortens the vector to `len` bits. No-op if already shorter.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.len = len;
        self.words.truncate(words_for(len));
        self.mask_tail();
    }

    /// Resizes to `len` bits, filling new bits with `value`.
    pub fn resize(&mut self, len: usize, value: bool) {
        if len <= self.len {
            self.truncate(len);
            return;
        }
        if value {
            // Fill the tail of the current last word, then whole words.
            while self.len < len && !self.len.is_multiple_of(WORD_BITS) {
                self.push(true);
            }
            while len - self.len >= WORD_BITS {
                self.words.push(!0u64);
                self.len += WORD_BITS;
            }
            while self.len < len {
                self.push(true);
            }
        } else {
            self.words.resize(words_for(len), 0);
            self.len = len;
        }
    }

    /// Removes all bits.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Makes room for `additional` more bits without reallocating.
    pub fn reserve(&mut self, additional: usize) {
        let words = words_for(self.len + additional);
        self.words
            .reserve_exact(words.saturating_sub(self.words.len()));
    }

    /// Releases the room [`BitVec::reserve`] made beyond the bits held.
    pub fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of clear bits.
    #[inline]
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// True when at least one bit is set.
    #[inline]
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// True when no bit is set.
    #[inline]
    pub fn none(&self) -> bool {
        !self.any()
    }

    /// True when every bit is set (vacuously true when empty).
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Number of set bits strictly before index `i` (classic `rank`).
    ///
    /// Panics when `i > len` (note: `i == len` is allowed and counts all
    /// set bits).
    pub fn rank(&self, i: usize) -> usize {
        assert!(
            i <= self.len,
            "rank index {i} out of range (len {})",
            self.len
        );
        let full_words = i / WORD_BITS;
        let mut count: usize = self.words[..full_words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        let rem = i % WORD_BITS;
        if rem != 0 {
            let mask = (1u64 << rem) - 1;
            count += (self.words[full_words] & mask).count_ones() as usize;
        }
        count
    }

    /// Index of the `k`-th (0-based) set bit, or `None` if fewer than
    /// `k + 1` bits are set (classic `select`).
    pub fn select(&self, k: usize) -> Option<usize> {
        let mut remaining = k;
        for (wi, &w) in self.words.iter().enumerate() {
            let ones = w.count_ones() as usize;
            if remaining < ones {
                let mut word = w;
                for _ in 0..remaining {
                    word &= word - 1; // clear lowest set bit
                }
                return Some(wi * WORD_BITS + word.trailing_zeros() as usize);
            }
            remaining -= ones;
        }
        None
    }

    /// Index of the first set bit.
    pub fn first_one(&self) -> Option<usize> {
        self.select(0)
    }

    /// Index of the last set bit.
    pub fn last_one(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return Some(wi * WORD_BITS + (63 - w.leading_zeros() as usize));
            }
        }
        None
    }

    /// Fraction of set bits, in `[0, 1]`. Returns 0 for an empty vector.
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// Appends all bits of `other`.
    pub fn extend_from_bitvec(&mut self, other: &BitVec) {
        if self.len.is_multiple_of(WORD_BITS) {
            // Word-aligned fast path.
            self.words.extend_from_slice(&other.words);
            self.len += other.len;
            // other's invariant guarantees our tail stays masked.
        } else {
            for b in other.iter() {
                self.push(b);
            }
        }
    }

    /// Access to the raw words (tail bits beyond `len` are zero).
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Zeroes any bits at positions `>= len` in the last word.
    #[inline]
    pub(crate) fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl std::fmt::Debug for BitVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        const PREVIEW: usize = 128;
        for i in 0..self.len.min(PREVIEW) {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        if self.len > PREVIEW {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut bv = BitVec::with_capacity(iter.size_hint().0);
        for b in iter {
            bv.push(b);
        }
        bv
    }
}

impl Extend<bool> for BitVec {
    fn extend<T: IntoIterator<Item = bool>>(&mut self, iter: T) {
        for b in iter {
            self.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(100);
        assert_eq!(z.len(), 100);
        assert_eq!(z.count_ones(), 0);
        assert!(z.none());
        assert!(!z.all());

        let o = BitVec::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert!(o.all());
        assert!(o.any());
    }

    #[test]
    fn empty_vector_properties() {
        let e = BitVec::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(e.all(), "all() is vacuously true on empty");
        assert!(e.none());
        assert_eq!(e.first_one(), None);
        assert_eq!(e.last_one(), None);
        assert_eq!(e.density(), 0.0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bv = BitVec::zeros(130);
        for i in (0..130).step_by(7) {
            bv.set(i, true);
        }
        for i in 0..130 {
            assert_eq!(bv.bit(i), i % 7 == 0, "bit {i}");
        }
        bv.set(0, false);
        assert!(!bv.bit(0));
    }

    #[test]
    fn get_out_of_range_is_none() {
        let bv = BitVec::zeros(10);
        assert_eq!(bv.get(10), None);
        assert_eq!(bv.get(9), Some(false));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut bv = BitVec::zeros(10);
        bv.set(10, true);
    }

    #[test]
    fn push_pop() {
        let mut bv = BitVec::new();
        for i in 0..200 {
            bv.push(i % 3 == 0);
        }
        assert_eq!(bv.len(), 200);
        assert_eq!(bv.count_ones(), 67);
        assert_eq!(bv.pop(), Some(false)); // index 199
        assert_eq!(bv.pop(), Some(true)); // index 198, divisible by 3
        assert_eq!(bv.pop(), Some(false)); // index 197
        assert_eq!(bv.len(), 197);
    }

    #[test]
    fn pop_empty() {
        let mut bv = BitVec::new();
        assert_eq!(bv.pop(), None);
    }

    #[test]
    fn truncate_masks_tail() {
        let mut bv = BitVec::ones(100);
        bv.truncate(65);
        assert_eq!(bv.len(), 65);
        assert_eq!(bv.count_ones(), 65);
        // Growing again must not resurrect stale bits.
        bv.resize(100, false);
        assert_eq!(bv.count_ones(), 65);
    }

    #[test]
    fn resize_with_ones() {
        let mut bv = BitVec::zeros(10);
        bv.resize(200, true);
        assert_eq!(bv.len(), 200);
        assert_eq!(bv.count_ones(), 190);
        assert!(!bv.bit(9));
        assert!(bv.bit(10));
        assert!(bv.bit(199));
    }

    #[test]
    fn rank_select_inverse() {
        let bv = BitVec::from_fn(300, |i| i % 5 == 2);
        assert_eq!(bv.rank(0), 0);
        assert_eq!(bv.rank(3), 1);
        assert_eq!(bv.rank(300), 60);
        for k in 0..60 {
            let pos = bv.select(k).unwrap();
            assert_eq!(bv.rank(pos), k);
            assert!(bv.bit(pos));
        }
        assert_eq!(bv.select(60), None);
    }

    #[test]
    fn first_last_one() {
        let mut bv = BitVec::zeros(500);
        bv.set(77, true);
        bv.set(402, true);
        assert_eq!(bv.first_one(), Some(77));
        assert_eq!(bv.last_one(), Some(402));
    }

    #[test]
    fn from_bools_and_iter() {
        let bools = [true, false, true, true, false];
        let bv = BitVec::from_bools(&bools);
        let back: Vec<bool> = bv.iter().collect();
        assert_eq!(back, bools);
        let collected: BitVec = bools.iter().copied().collect();
        assert_eq!(collected, bv);
    }

    #[test]
    fn extend_from_bitvec_aligned_and_unaligned() {
        let a = BitVec::from_fn(64, |i| i % 2 == 0);
        let b = BitVec::from_fn(37, |i| i % 3 == 0);

        let mut aligned = a.clone();
        aligned.extend_from_bitvec(&b);
        assert_eq!(aligned.len(), 101);

        let mut unaligned = BitVec::from_fn(10, |i| i % 2 == 0);
        unaligned.extend_from_bitvec(&b);
        assert_eq!(unaligned.len(), 47);

        for i in 0..37 {
            assert_eq!(aligned.bit(64 + i), b.bit(i));
            assert_eq!(unaligned.bit(10 + i), b.bit(i));
        }
    }

    #[test]
    fn density() {
        let bv = BitVec::from_fn(100, |i| i < 25);
        assert!((bv.density() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn debug_format_truncates() {
        let bv = BitVec::ones(3);
        assert_eq!(format!("{bv:?}"), "BitVec[3; 111]");
        let long = BitVec::zeros(200);
        assert!(format!("{long:?}").contains('…'));
    }
}
