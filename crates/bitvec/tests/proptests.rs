//! Property-based tests for the bitvector invariants the rest of CIAO
//! leans on: boolean-algebra identities, rank/select duality, and
//! encode/decode round-trips.

use ciao_bitvec::BitVec;
use proptest::prelude::*;

fn arb_bitvec(max_len: usize) -> impl Strategy<Value = BitVec> {
    prop::collection::vec(any::<bool>(), 0..=max_len).prop_map(|v| BitVec::from_bools(&v))
}

/// Two equal-length bitvectors.
fn arb_pair(max_len: usize) -> impl Strategy<Value = (BitVec, BitVec)> {
    (0..=max_len).prop_flat_map(|n| {
        (
            prop::collection::vec(any::<bool>(), n),
            prop::collection::vec(any::<bool>(), n),
        )
            .prop_map(|(a, b)| (BitVec::from_bools(&a), BitVec::from_bools(&b)))
    })
}

proptest! {
    #[test]
    fn from_bools_roundtrip(bools in prop::collection::vec(any::<bool>(), 0..300)) {
        let bv = BitVec::from_bools(&bools);
        prop_assert_eq!(bv.len(), bools.len());
        let back: Vec<bool> = bv.iter().collect();
        prop_assert_eq!(back, bools);
    }

    #[test]
    fn wire_roundtrip(bv in arb_bitvec(300)) {
        let bytes = bv.to_bytes();
        let back = BitVec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, bv);
    }

    #[test]
    fn serde_roundtrip(bv in arb_bitvec(300)) {
        let s = serde_json::to_string(&bv).unwrap();
        let back: BitVec = serde_json::from_str(&s).unwrap();
        prop_assert_eq!(back, bv);
    }

    #[test]
    fn de_morgan((a, b) in arb_pair(256)) {
        let lhs = a.and(&b).not();
        let rhs = a.not().or(&b.not());
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn and_or_absorption((a, b) in arb_pair(256)) {
        prop_assert_eq!(a.and(&a.or(&b)), a.clone());
        prop_assert_eq!(a.or(&a.and(&b)), a.clone());
    }

    #[test]
    fn xor_self_is_zero(bv in arb_bitvec(256)) {
        let z = bv.xor(&bv);
        prop_assert!(z.none());
        prop_assert_eq!(z.len(), bv.len());
    }

    #[test]
    fn inclusion_exclusion((a, b) in arb_pair(256)) {
        prop_assert_eq!(
            a.count_ones() + b.count_ones(),
            a.union_count(&b) + a.count_and(&b)
        );
    }

    #[test]
    fn rank_select_duality(bv in arb_bitvec(256)) {
        let ones = bv.count_ones();
        for k in 0..ones {
            let pos = bv.select(k).unwrap();
            prop_assert!(bv.bit(pos));
            prop_assert_eq!(bv.rank(pos), k);
        }
        prop_assert!(bv.select(ones).is_none());
        prop_assert_eq!(bv.rank(bv.len()), ones);
    }

    #[test]
    fn iter_ones_matches_bits(bv in arb_bitvec(256)) {
        let from_iter: Vec<usize> = bv.iter_ones().collect();
        let from_scan: Vec<usize> = (0..bv.len()).filter(|&i| bv.bit(i)).collect();
        prop_assert_eq!(from_iter, from_scan);
    }

    #[test]
    fn extend_matches_concat((a, b) in (arb_bitvec(200), arb_bitvec(200))) {
        let mut joined = a.clone();
        joined.extend_from_bitvec(&b);
        prop_assert_eq!(joined.len(), a.len() + b.len());
        for i in 0..a.len() {
            prop_assert_eq!(joined.bit(i), a.bit(i));
        }
        for i in 0..b.len() {
            prop_assert_eq!(joined.bit(a.len() + i), b.bit(i));
        }
    }

    #[test]
    fn truncate_then_ops_safe(bv in arb_bitvec(256), cut in 0usize..256) {
        let mut t = bv.clone();
        let cut = cut.min(t.len());
        t.truncate(cut);
        prop_assert_eq!(t.len(), cut);
        // not() twice must be identity even after truncation (tail invariant).
        prop_assert_eq!(t.not().not(), t);
    }

    /// Fused counts vs materialize-then-count, at lengths straddling
    /// the word boundary (63/64/65) where the tail-bit invariant is
    /// easiest to violate.
    #[test]
    fn fused_counts_match_materialized((a, b) in arb_word_boundary_pair()) {
        prop_assert_eq!(a.count_and(&b), a.and(&b).count_ones());
        prop_assert_eq!(a.count_and_not(&b), a.and(&b.not()).count_ones());
    }

    /// `and_not_assign` vs the two-step `not` + `and` composition.
    #[test]
    fn and_not_assign_matches_composition((a, b) in arb_word_boundary_pair()) {
        let mut fused = a.clone();
        fused.and_not_assign(&b);
        prop_assert_eq!(fused, a.and(&b.not()));
    }

    /// Multi-operand reductions vs folding pairwise ops, for 1–6
    /// operands (1 exercises the clone-only path).
    #[test]
    fn fused_reductions_match_pairwise((vecs, _n) in arb_operand_family()) {
        let refs: Vec<&BitVec> = vecs.iter().collect();
        let fused_and = BitVec::and_all(&refs).unwrap();
        let fused_or = BitVec::or_all(&refs).unwrap();
        let mut fold_and = vecs[0].clone();
        let mut fold_or = vecs[0].clone();
        for v in &vecs[1..] {
            fold_and.and_assign(v);
            fold_or.or_assign(v);
        }
        prop_assert_eq!(fused_and, fold_and);
        prop_assert_eq!(fused_or, fold_or);
    }
}

/// Two equal-length bitvectors whose length clusters on word edges.
fn arb_word_boundary_pair() -> impl Strategy<Value = (BitVec, BitVec)> {
    prop::sample::select(vec![0usize, 1, 62, 63, 64, 65, 127, 128, 129, 200]).prop_flat_map(|n| {
        (
            prop::collection::vec(any::<bool>(), n),
            prop::collection::vec(any::<bool>(), n),
        )
            .prop_map(|(a, b)| (BitVec::from_bools(&a), BitVec::from_bools(&b)))
    })
}

/// 1–6 equal-length random operands at a word-boundary length.
fn arb_operand_family() -> impl Strategy<Value = (Vec<BitVec>, usize)> {
    (
        prop::sample::select(vec![0usize, 1, 63, 64, 65, 130]),
        1usize..=6,
    )
        .prop_flat_map(|(n, k)| {
            prop::collection::vec(prop::collection::vec(any::<bool>(), n), k)
                .prop_map(move |vs| (vs.iter().map(|v| BitVec::from_bools(v)).collect(), n))
        })
}

#[test]
fn subset_transitivity_smoke() {
    let a = BitVec::from_fn(100, |i| i % 12 == 0);
    let b = BitVec::from_fn(100, |i| i % 6 == 0);
    let c = BitVec::from_fn(100, |i| i % 3 == 0);
    assert!(a.is_subset_of(&b));
    assert!(b.is_subset_of(&c));
    assert!(a.is_subset_of(&c));
}
