//! Word-wise logical operations.
//!
//! The server intersects per-predicate bitvectors with `AND` to apply a
//! query's conjunctive clauses (data skipping, paper §VI-B) and unions
//! them with `OR` to decide which records to load at all (partial
//! loading, paper §VI-A). These are the hot loops of chunk admission, so
//! they all run a `u64` at a time.

use crate::BitVec;

impl BitVec {
    /// In-place intersection: `self &= other`.
    ///
    /// Panics when lengths differ — mismatched lengths mean a chunk /
    /// bitvector desynchronization upstream, which must not be masked.
    pub fn and_assign(&mut self, other: &BitVec) {
        self.check_len(other, "and");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place union: `self |= other`.
    pub fn or_assign(&mut self, other: &BitVec) {
        self.check_len(other, "or");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place symmetric difference: `self ^= other`.
    pub fn xor_assign(&mut self, other: &BitVec) {
        self.check_len(other, "xor");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= *b;
        }
    }

    /// In-place difference: clears every bit of `self` that is set in
    /// `other` (`self &= !other`).
    pub fn and_not_assign(&mut self, other: &BitVec) {
        self.check_len(other, "and_not");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// Flips every bit in place.
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Returns `self & other` as a new vector.
    pub fn and(&self, other: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// Returns `self | other` as a new vector.
    pub fn or(&self, other: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }

    /// Returns `self ^ other` as a new vector.
    pub fn xor(&self, other: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.xor_assign(other);
        out
    }

    /// Returns `!self` as a new vector.
    pub fn not(&self) -> BitVec {
        let mut out = self.clone();
        out.not_assign();
        out
    }

    /// `popcount(self & other)` without materializing the intersection.
    pub fn count_and(&self, other: &BitVec) -> usize {
        self.check_len(other, "count_and");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `popcount(self & !other)` without materializing either the
    /// complement or the difference. Sound despite `!other`'s tail bits
    /// because `self`'s tail is zero by invariant.
    pub fn count_and_not(&self, other: &BitVec) -> usize {
        self.check_len(other, "count_and_not");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// `popcount(self | other)` without materializing the union.
    pub fn union_count(&self, other: &BitVec) -> usize {
        self.check_len(other, "union_count");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum()
    }

    /// True when every set bit of `self` is also set in `other`.
    pub fn is_subset_of(&self, other: &BitVec) -> bool {
        self.check_len(other, "is_subset_of");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Multi-operand intersection: the first operand, cloned, with
    /// every other one ANDed in. Returns `None` when the slice is empty
    /// (an empty conjunction has no well-defined width here; callers
    /// that want "all ones" should use [`BitVec::ones`] explicitly).
    pub fn and_all(vecs: &[&BitVec]) -> Option<BitVec> {
        let (first, rest) = vecs.split_first()?;
        let mut out = (*first).clone();
        for v in rest {
            out.and_assign(v);
        }
        Some(out)
    }

    /// Multi-operand union; see [`BitVec::and_all`]. Returns `None`
    /// when the slice is empty.
    pub fn or_all(vecs: &[&BitVec]) -> Option<BitVec> {
        let (first, rest) = vecs.split_first()?;
        let mut out = (*first).clone();
        for v in rest {
            out.or_assign(v);
        }
        Some(out)
    }

    #[inline]
    fn check_len(&self, other: &BitVec, op: &str) {
        assert_eq!(
            self.len, other.len,
            "bitvec length mismatch in `{op}`: {} vs {}",
            self.len, other.len
        );
    }
}

impl std::ops::BitAnd for &BitVec {
    type Output = BitVec;
    fn bitand(self, rhs: Self) -> BitVec {
        self.and(rhs)
    }
}

impl std::ops::BitOr for &BitVec {
    type Output = BitVec;
    fn bitor(self, rhs: Self) -> BitVec {
        self.or(rhs)
    }
}

impl std::ops::BitXor for &BitVec {
    type Output = BitVec;
    fn bitxor(self, rhs: Self) -> BitVec {
        self.xor(rhs)
    }
}

impl std::ops::Not for &BitVec {
    type Output = BitVec;
    fn not(self) -> BitVec {
        BitVec::not(self)
    }
}

impl std::ops::BitAndAssign<&BitVec> for BitVec {
    fn bitand_assign(&mut self, rhs: &BitVec) {
        self.and_assign(rhs);
    }
}

impl std::ops::BitOrAssign<&BitVec> for BitVec {
    fn bitor_assign(&mut self, rhs: &BitVec) {
        self.or_assign(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evens(n: usize) -> BitVec {
        BitVec::from_fn(n, |i| i % 2 == 0)
    }
    fn div3(n: usize) -> BitVec {
        BitVec::from_fn(n, |i| i % 3 == 0)
    }

    #[test]
    fn and_or_xor_not() {
        let n = 130;
        let a = evens(n);
        let b = div3(n);

        let and = a.and(&b);
        let or = a.or(&b);
        let xor = a.xor(&b);
        let not_a = a.not();

        for i in 0..n {
            assert_eq!(and.bit(i), i % 2 == 0 && i % 3 == 0);
            assert_eq!(or.bit(i), i % 2 == 0 || i % 3 == 0);
            assert_eq!(xor.bit(i), (i % 2 == 0) ^ (i % 3 == 0));
            assert_eq!(not_a.bit(i), i % 2 != 0);
        }
    }

    #[test]
    fn not_preserves_tail_invariant() {
        let a = BitVec::zeros(70);
        let n = a.not();
        assert_eq!(n.count_ones(), 70);
        // Double negation round-trips.
        assert_eq!(n.not(), a);
    }

    #[test]
    fn operators() {
        let a = evens(64);
        let b = div3(64);
        assert_eq!(&a & &b, a.and(&b));
        assert_eq!(&a | &b, a.or(&b));
        assert_eq!(&a ^ &b, a.xor(&b));
        assert_eq!(!&a, a.not());
        let mut c = a.clone();
        c &= &b;
        assert_eq!(c, a.and(&b));
        let mut d = a.clone();
        d |= &b;
        assert_eq!(d, a.or(&b));
    }

    #[test]
    fn counts_without_materializing() {
        let a = evens(100);
        let b = div3(100);
        assert_eq!(a.union_count(&b), a.or(&b).count_ones());
        assert_eq!(a.count_and(&b), a.and(&b).count_ones());
        let mut diff = a.clone();
        diff.and_not_assign(&b);
        assert_eq!(a.count_and_not(&b), diff.count_ones());
    }

    #[test]
    fn count_and_not_honors_tail_invariant() {
        // `!other` flips tail bits past `len`; the count must not see
        // them because `self`'s tail is zero.
        let a = BitVec::ones(67);
        let b = BitVec::zeros(67);
        assert_eq!(a.count_and_not(&b), 67);
        assert_eq!(b.count_and_not(&a), 0);
    }

    #[test]
    fn fused_reductions_match_pairwise_folds() {
        let n = 131;
        let a = evens(n);
        let b = div3(n);
        let c = BitVec::from_fn(n, |i| i % 5 == 0);

        let mut and_fold = a.clone();
        and_fold.and_assign(&b);
        and_fold.and_assign(&c);
        assert_eq!(BitVec::and_all(&[&a, &b, &c]).unwrap(), and_fold);

        let mut or_fold = a.clone();
        or_fold.or_assign(&b);
        or_fold.or_assign(&c);
        assert_eq!(BitVec::or_all(&[&a, &b, &c]).unwrap(), or_fold);

        assert_eq!(BitVec::and_all(&[&a]).unwrap(), a);
        assert_eq!(BitVec::or_all(&[&a]).unwrap(), a);
        assert!(BitVec::and_all(&[]).is_none());
        assert!(BitVec::or_all(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn fused_reduction_length_mismatch_panics() {
        let a = BitVec::zeros(10);
        let b = BitVec::zeros(11);
        BitVec::and_all(&[&a, &b]);
    }

    #[test]
    fn subset() {
        let a = BitVec::from_fn(50, |i| i % 6 == 0);
        let b = BitVec::from_fn(50, |i| i % 3 == 0);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        assert!(BitVec::zeros(50).is_subset_of(&a));
    }

    #[test]
    fn intersect_union_all() {
        let n = 40;
        let a = evens(n);
        let b = div3(n);
        let c = BitVec::from_fn(n, |i| i % 5 == 0);

        let inter = BitVec::and_all(&[&a, &b, &c]).unwrap();
        let union = BitVec::or_all(&[&a, &b, &c]).unwrap();
        for i in 0..n {
            assert_eq!(inter.bit(i), i % 30 == 0);
            assert_eq!(union.bit(i), i % 2 == 0 || i % 3 == 0 || i % 5 == 0);
        }
        assert!(BitVec::and_all(&[]).is_none());
        assert!(BitVec::or_all(&[]).is_none());
        assert_eq!(BitVec::and_all(&[&a]).unwrap(), a);
    }

    #[test]
    fn and_not() {
        let a = evens(64);
        let b = div3(64);
        let mut d = a.clone();
        d.and_not_assign(&b);
        for i in 0..64 {
            assert_eq!(d.bit(i), i % 2 == 0 && i % 3 != 0);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut a = BitVec::zeros(10);
        let b = BitVec::zeros(11);
        a.and_assign(&b);
    }
}
