//! The load-bearing invariant of the whole system (paper §IV-B):
//!
//! > if we cannot find the pattern strings in a JSON object, this JSON
//! > object is not valid to the corresponding predicate.
//!
//! Equivalently: `typed_eval(p, record) == true` ⟹
//! `raw_match(compile(p), serialize(record)) == true`, for every
//! supported predicate and every record. False positives are fine;
//! false negatives are forbidden. We drive this with proptest over
//! randomly generated flat records and predicates derived from them,
//! through the per-clause matcher ([`CompiledClause`]) and through the
//! path clients run ([`Prefilter::run_chunk`], the one-pass
//! `PatternSet` scan).

use ciao_client::raw_eval::CompiledClause;
use ciao_client::Prefilter;
use ciao_json::{to_string, JsonValue, RecordChunk};
use ciao_predicate::{compile_clause, eval_clause, Clause, SimplePredicate};
use proptest::prelude::*;

/// Flat records shaped like CIAO's datasets: string/int/bool/null
/// fields with machine-ish keys and values.
fn arb_record() -> impl Strategy<Value = JsonValue> {
    let key = "[a-z][a-z_]{0,8}";
    let scalar = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::from),
        (-1000i64..1000).prop_map(JsonValue::from),
        // Includes quotes, backslashes, newlines, and unicode so the
        // escaped-pattern compilation is genuinely exercised.
        "[a-zA-Z0-9 ,:\\.\\-\"\\\\\n\té😀]{0,24}".prop_map(JsonValue::from),
        // Nested object to exercise the multi-occurrence key search.
        prop::collection::vec(("[a-z]{1,4}", (-99i64..99).prop_map(JsonValue::from)), 0..3)
            .prop_map(JsonValue::Object),
    ];
    prop::collection::vec((key, scalar), 1..8).prop_map(JsonValue::Object)
}

/// A pushable predicate derived from the record (so that hits are
/// common) or random (so that misses are common too).
fn arb_predicate(record: JsonValue) -> impl Strategy<Value = (JsonValue, SimplePredicate)> {
    let keys: Vec<String> = record
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    let key_strategy = prop::sample::select(keys);
    (
        Just(record),
        key_strategy,
        0..5u8,
        "[a-zA-Z0-9 ]{0,6}",
        -1000i64..1000,
        any::<bool>(),
    )
        .prop_map(|(record, key, kind, s, i, b)| {
            // Half the time, steal the record's actual value so the
            // predicate really matches (exercising the implication's
            // antecedent, not just vacuous truth).
            let actual = record.get(&key).cloned();
            let pred = match kind {
                0 => {
                    let value = match &actual {
                        Some(JsonValue::String(v)) => v.clone(),
                        _ => s.clone(),
                    };
                    SimplePredicate::StrEq { key, value }
                }
                1 => {
                    let needle = match &actual {
                        Some(JsonValue::String(v)) if !v.is_empty() => {
                            let half = v.len() / 2;
                            let mut end = half.max(1).min(v.len());
                            while !v.is_char_boundary(end) {
                                end += 1;
                            }
                            v[..end].to_owned()
                        }
                        _ => s.clone(),
                    };
                    SimplePredicate::StrContains { key, needle }
                }
                2 => SimplePredicate::NotNull { key },
                3 => {
                    let value = match &actual {
                        Some(v) => v.as_i64().unwrap_or(i),
                        None => i,
                    };
                    SimplePredicate::IntEq { key, value }
                }
                _ => {
                    let value = match &actual {
                        Some(v) => v.as_bool().unwrap_or(b),
                        None => b,
                    };
                    SimplePredicate::BoolEq { key, value }
                }
            };
            (record, pred)
        })
}

/// The bits [`Prefilter::run_chunk`] sets for `text` (chunked between
/// two unrelated records), one per clause, in order.
fn prefilter_bits(clauses: &[Clause], text: &str) -> Vec<bool> {
    let prefilter = Prefilter::for_clauses(clauses.iter().enumerate().map(|(i, c)| (i as u32, c)));
    let chunk = RecordChunk::from_records(&[r#"{"zz":0}"#, text, "{}"]).unwrap();
    prefilter
        .run_chunk(&chunk)
        .bitvecs
        .iter()
        .map(|bits| bits.get(1) == Some(true))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn raw_match_never_false_negative(
        (record, pred) in arb_record().prop_flat_map(arb_predicate)
    ) {
        prop_assume!(pred.is_pushable());
        let clause = Clause::single(pred.clone());
        let typed = eval_clause(&clause, &record);
        if typed {
            let pattern = compile_clause(&clause).expect("pushable clause compiles");
            let raw = CompiledClause::new(&pattern);
            let text = to_string(&record);
            prop_assert!(
                raw.is_match(text.as_bytes()),
                "FALSE NEGATIVE: predicate {pred} matched typed record {text} but raw match failed"
            );
        }
    }

    #[test]
    fn disjunction_never_false_negative(
        (record, p1) in arb_record().prop_flat_map(arb_predicate),
        other_value in "[a-z]{1,6}",
    ) {
        prop_assume!(p1.is_pushable());
        let p2 = SimplePredicate::StrEq { key: "zzz_none".into(), value: other_value };
        let clause = Clause::new(vec![p1, p2]);
        if eval_clause(&clause, &record) {
            let pattern = compile_clause(&clause).unwrap();
            let text = to_string(&record);
            prop_assert!(CompiledClause::new(&pattern).is_match(text.as_bytes()));
        }
    }

    /// The invariant on the client's path: several predicates pushed
    /// together share the one-pass scan's groups and buckets, and every
    /// one the typed record satisfies must get its bit.
    #[test]
    fn prefilter_never_false_negative(
        cases in arb_record().prop_flat_map(|r| prop::collection::vec(arb_predicate(r), 1..8)),
    ) {
        let record = cases[0].0.clone();
        let clauses: Vec<Clause> = cases
            .into_iter()
            .map(|(_, p)| p)
            .filter(SimplePredicate::is_pushable)
            .map(Clause::single)
            .collect();
        let text = to_string(&record);
        let bits = prefilter_bits(&clauses, &text);
        for (clause, bit) in clauses.iter().zip(bits) {
            prop_assert!(
                bit || !eval_clause(clause, &record),
                "FALSE NEGATIVE in Prefilter::run_chunk: {clause} matched typed record {text}"
            );
        }
    }
}

/// Deterministic regression corpus for the same invariant.
#[test]
fn corpus_no_false_negatives() {
    let cases: Vec<(&str, SimplePredicate)> = vec![
        (
            r#"{"name":"Bob"}"#,
            SimplePredicate::StrEq {
                key: "name".into(),
                value: "Bob".into(),
            },
        ),
        (
            r#"{"person":{"age":99},"age":10}"#,
            SimplePredicate::IntEq {
                key: "age".into(),
                value: 10,
            },
        ),
        (
            r#"{"a":1,"flag":true}"#,
            SimplePredicate::BoolEq {
                key: "flag".into(),
                value: true,
            },
        ),
        (
            r#"{"text":"pretty delicious pie"}"#,
            SimplePredicate::StrContains {
                key: "text".into(),
                needle: "delicious".into(),
            },
        ),
        (
            r#"{"email":"a@b.c"}"#,
            SimplePredicate::NotNull {
                key: "email".into(),
            },
        ),
        // Value is the final member: the key-value window runs to EOR.
        (
            r#"{"x":"y","stars":5}"#,
            SimplePredicate::IntEq {
                key: "stars".into(),
                value: 5,
            },
        ),
    ];
    for (text, pred) in cases {
        let record = ciao_json::parse(text).unwrap();
        let clause = Clause::single(pred.clone());
        assert!(
            eval_clause(&clause, &record),
            "case should match typed: {pred} on {text}"
        );
        let pattern = compile_clause(&clause).unwrap();
        assert!(
            CompiledClause::new(&pattern).is_match(text.as_bytes()),
            "false negative for {pred} on {text}"
        );
        assert_eq!(
            prefilter_bits(&[clause], text),
            vec![true],
            "Prefilter::run_chunk false negative for {pred} on {text}"
        );
    }
}
