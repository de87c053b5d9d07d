//! Differential property tests for the batched multi-pattern engine:
//! [`PatternSet`] over a random clause mix must be bit-identical to
//! evaluating each clause's [`CompiledClause`] independently, on every
//! scan target this CPU runs — the portable pair-bitmap loop and, when
//! the host has AVX2, the 32-position kernel. Prefix groups, shared
//! buckets, the zero-padded tail block, the early exit, and the
//! empty-needle/empty-key special cases may change *cost*, never
//! *answers*.

use ciao_client::pattern_set::ScanTarget;
use ciao_client::raw_eval::CompiledClause;
use ciao_client::PatternSet;
use ciao_predicate::{ClausePattern, Pattern};
use proptest::prelude::*;

/// Needles/keys drawn from a tiny alphabet so fingerprints collide
/// across groups and buckets hold several entries; empties included
/// (the always-match and scalar-fallback paths).
fn arb_token() -> impl Strategy<Value = String> {
    prop_oneof![
        "[ab\"]{1,6}".prop_map(String::from),
        "[ab\"]{1,6}".prop_map(String::from),
        "[ab\"]{1,6}".prop_map(String::from),
        Just(String::new()),
    ]
}

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        arb_token().prop_map(|needle| Pattern::Find { needle }),
        (arb_token(), arb_token()).prop_map(|(key, value)| Pattern::KeyThenValue { key, value }),
    ]
}

/// A clause is a disjunction of 1–3 patterns (IN-lists compile to
/// several disjuncts).
fn arb_clause() -> impl Strategy<Value = ClausePattern> {
    prop::collection::vec(arb_pattern(), 1..=3).prop_map(|patterns| ClausePattern { patterns })
}

/// Records over the same alphabet, with JSON structure bytes mixed in
/// so `KeyThenValue`'s `,`-bounded window rule gets exercised.
fn arb_record() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(b"ab\",:{}x".to_vec()), 0..=60)
}

fn reference(clauses: &[ClausePattern], record: &[u8]) -> Vec<bool> {
    clauses
        .iter()
        .map(|c| CompiledClause::new(c).is_match(record))
        .collect()
}

/// Every scan target this CPU runs.
fn targets() -> Vec<ScanTarget> {
    [ScanTarget::Portable, ScanTarget::Avx2]
        .into_iter()
        .filter(|t| t.is_available())
        .collect()
}

/// Asserts that every target answers like the per-clause reference.
fn assert_targets_agree(clauses: &[ClausePattern], record: &[u8]) -> Result<(), TestCaseError> {
    let set = PatternSet::new(clauses);
    let expected = reference(clauses, record);
    let mut got = Vec::new();
    for target in targets() {
        set.eval_into_on(target, record, &mut got);
        prop_assert_eq!(
            &got,
            &expected,
            "{:?}: clauses {:?} record {:?}",
            target,
            clauses,
            String::from_utf8_lossy(record)
        );
    }
    Ok(())
}

fn finds(needles: impl IntoIterator<Item = String>) -> Vec<ClausePattern> {
    needles
        .into_iter()
        .map(|needle| ClausePattern {
            patterns: vec![Pattern::Find { needle }],
        })
        .collect()
}

/// Filler bytes of 0–200, with each needle written over it at a chosen
/// offset: around the AVX2 block edges (31/32/33, 63/64/65), or flush
/// with the record tail.
fn arb_placed_record(needles: Vec<String>) -> impl Strategy<Value = (Vec<String>, Vec<u8>)> {
    let n = needles.len();
    (
        Just(needles),
        prop::collection::vec(prop::sample::select(b"abcxyz,:\"".to_vec()), 0..=200),
        prop::collection::vec(
            prop::sample::select(vec![0usize, 29, 30, 31, 32, 33, 62, 63, 64, 65, usize::MAX]),
            n,
        ),
    )
        .prop_map(|(needles, mut record, offsets)| {
            for (needle, offset) in needles.iter().zip(offsets) {
                let needle = needle.as_bytes();
                if needle.len() > record.len() {
                    continue;
                }
                let at = offset.min(record.len() - needle.len());
                record[at..at + needle.len()].copy_from_slice(needle);
            }
            (needles, record)
        })
}

proptest! {
    /// Random clause set, random record: every target and the
    /// per-needle loop agree on every predicate bit.
    #[test]
    fn one_pass_is_bit_identical_to_per_needle(
        clauses in prop::collection::vec(arb_clause(), 0..=12),
        record in arb_record(),
    ) {
        prop_assert_eq!(PatternSet::new(&clauses).predicate_count(), clauses.len());
        assert_targets_agree(&clauses, &record)?;
    }

    /// Needles straddling the 32-byte block edges and the record tail,
    /// over records of 0–200 bytes.
    #[test]
    fn needles_across_block_edges_and_the_tail(
        (needles, record) in prop::collection::vec("[abcxyz,:\"]{1,6}", 1..=6)
            .prop_flat_map(arb_placed_record),
    ) {
        assert_targets_agree(&finds(needles), &record)?;
    }

    /// 1- and 2-byte prefixes are shorter than the fingerprint: their
    /// missing positions must allow every byte, up to the last one.
    #[test]
    fn prefixes_shorter_than_the_fingerprint(
        (needles, record) in prop::collection::vec("[abcxyz,:\"]{1,2}", 1..=6)
            .prop_flat_map(arb_placed_record),
        keys in prop::collection::vec(("[abc\"]{1,2}", "[xyz]{0,2}"), 0..=4),
    ) {
        let mut clauses = finds(needles);
        clauses.extend(keys.into_iter().map(|(key, value)| ClausePattern {
            patterns: vec![Pattern::KeyThenValue { key, value }],
        }));
        assert_targets_agree(&clauses, &record)?;
    }

    /// More than eight groups: buckets are shared, and their nibble
    /// tables admit fingerprints no member has.
    #[test]
    fn more_groups_than_buckets(
        (needles, record) in prop::collection::vec("[a-f0-9\"]{1,5}", 9..=24)
            .prop_flat_map(arb_placed_record),
    ) {
        assert_targets_agree(&finds(needles), &record)?;
    }

    /// Many atoms on one key (a YCSB plan pushes six `linear_score`
    /// values): one group, one window per key occurrence, and each
    /// member's value searched in every window until it matches.
    #[test]
    fn many_atoms_share_one_key(
        values in prop::collection::vec(0u32..40, 1..=16),
        pairs in prop::collection::vec((prop::sample::select(vec!["\"k\"", "\"kk\"", "\"k_by\""]), 0u32..40), 0..=12),
        also_find in any::<bool>(),
    ) {
        let mut clauses: Vec<ClausePattern> = values
            .iter()
            .map(|v| ClausePattern {
                patterns: vec![Pattern::KeyThenValue { key: "\"k\"".into(), value: v.to_string() }],
            })
            .collect();
        if also_find {
            clauses.extend(finds(["\"k\"".to_owned()]));
        }
        let body: Vec<String> = pairs.iter().map(|(k, v)| format!("{k}:{v}")).collect();
        let record = format!("{{{}}}", body.join(","));
        assert_targets_agree(&clauses, record.as_bytes())?;
    }

    /// Reused output buffer: a dirty, wrongly-sized buffer must come
    /// back exactly as a fresh one would.
    #[test]
    fn eval_into_resets_the_buffer(
        clauses in prop::collection::vec(arb_clause(), 0..=6),
        record in arb_record(),
        garbage in prop::collection::vec(any::<bool>(), 0..=20),
    ) {
        let set = PatternSet::new(&clauses);
        for target in targets() {
            let mut buf = garbage.clone();
            set.eval_into_on(target, &record, &mut buf);
            prop_assert_eq!(buf, set.eval(&record));
        }
    }
}
