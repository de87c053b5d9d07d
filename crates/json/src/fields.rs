//! What [`crate::parse_fields`] reads records for and hands back.

use crate::escape::unescapes_to;
use crate::number::JsonNumber;
use crate::ser::to_string;
use crate::value::JsonValue;
use std::borrow::Cow;
use std::collections::HashMap;

/// One top-level member's value as [`crate::parse_fields`] hands it
/// over: what [`crate::parse`] would build for it, typed, without the
/// tree.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent that fits `i64`
    /// ([`JsonNumber::Int`]).
    Int(i64),
    /// Any other (finite) number ([`JsonNumber::Float`]).
    Float(f64),
    /// A string, unescaped: borrowed from the record unless it held an
    /// escape sequence.
    Str(Cow<'a, str>),
    /// An array or object, as the compact text [`crate::to_string`]
    /// prints for it.
    Json(Cow<'a, str>),
}

impl FieldValue<'_> {
    /// The same value, owning its text.
    pub fn into_owned(self) -> FieldValue<'static> {
        match self {
            FieldValue::Null => FieldValue::Null,
            FieldValue::Bool(b) => FieldValue::Bool(b),
            FieldValue::Int(i) => FieldValue::Int(i),
            FieldValue::Float(f) => FieldValue::Float(f),
            FieldValue::Str(s) => FieldValue::Str(Cow::Owned(s.into_owned())),
            FieldValue::Json(s) => FieldValue::Json(Cow::Owned(s.into_owned())),
        }
    }
}

impl<'a> From<&'a JsonValue> for FieldValue<'a> {
    /// The value [`crate::parse_fields`] hands over for a member that
    /// [`crate::parse`] builds as `value`.
    fn from(value: &'a JsonValue) -> FieldValue<'a> {
        match value {
            JsonValue::Null => FieldValue::Null,
            JsonValue::Bool(b) => FieldValue::Bool(*b),
            JsonValue::Number(JsonNumber::Int(i)) => FieldValue::Int(*i),
            JsonValue::Number(JsonNumber::Float(f)) => FieldValue::Float(*f),
            JsonValue::String(s) => FieldValue::Str(Cow::Borrowed(s)),
            nested => FieldValue::Json(Cow::Owned(to_string(nested))),
        }
    }
}

/// The top-level keys [`crate::parse_fields`] reads — a schema's
/// columns, in column order — indexed once, with the scratch space one
/// scan leaves for the next: which keys the current record has
/// delivered, and the buffer nested values are copied into.
#[derive(Debug)]
pub struct FieldKeys {
    names: Vec<String>,
    index: HashMap<String, usize>,
    /// One bit per key: delivered in the current record.
    seen: Vec<u64>,
    /// Where a nested value's compact text is written.
    pub(crate) json: String,
}

impl FieldKeys {
    /// Indexes `names`; a key's index is its position.
    ///
    /// Panics on a repeated name: each key stands for one column.
    pub fn new<S: Into<String>>(names: impl IntoIterator<Item = S>) -> FieldKeys {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        let mut index = HashMap::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            let earlier = index.insert(name.clone(), i);
            assert!(earlier.is_none(), "key `{name}` listed twice");
        }
        FieldKeys {
            seen: vec![0; names.len().div_ceil(64)],
            names,
            index,
            json: String::new(),
        }
    }

    /// Forgets which keys the previous record delivered.
    pub(crate) fn start_record(&mut self) {
        self.seen.fill(0);
    }

    /// The index of the key a member's name spells — `raw` is its text
    /// between the quotes, escapes intact — unless the record already
    /// delivered that key. `guess` is compared first.
    pub(crate) fn resolve(&mut self, raw: &str, escaped: bool, guess: usize) -> Option<usize> {
        let i = if escaped {
            self.names.iter().position(|key| unescapes_to(raw, key))?
        } else if self.names.get(guess).is_some_and(|key| key == raw) {
            guess
        } else {
            *self.index.get(raw)?
        };
        let (word, bit) = (&mut self.seen[i / 64], 1u64 << (i % 64));
        if *word & bit != 0 {
            return None;
        }
        *word |= bit;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_by_guess_by_lookup_and_by_unescaping_once_per_record() {
        let mut keys = FieldKeys::new(["a", "b", "é"]);
        keys.start_record();
        assert_eq!(keys.resolve("a", false, 0), Some(0));
        // A wrong guess falls back to the lookup.
        assert_eq!(keys.resolve("é", false, 1), Some(2));
        assert_eq!(keys.resolve("\\u0062", true, 3), Some(1));
        assert_eq!(keys.resolve("absent", false, 0), None);
        // A key already delivered is not delivered again.
        assert_eq!(keys.resolve("a", false, 0), None);
        assert_eq!(keys.resolve("\\u0061", true, 0), None);
        keys.start_record();
        assert_eq!(keys.resolve("a", false, 0), Some(0));
    }

    #[test]
    fn wide_key_sets_track_every_key() {
        let names: Vec<String> = (0..130).map(|i| format!("k{i}")).collect();
        let mut keys = FieldKeys::new(names.iter().map(String::as_str));
        keys.start_record();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(keys.resolve(name, false, i), Some(i));
            assert_eq!(keys.resolve(name, false, i), None);
        }
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn repeated_keys_are_rejected() {
        FieldKeys::new(["a", "a"]);
    }

    #[test]
    fn conversion_from_a_parsed_value() {
        let v = crate::parse(r#"[1, {"a": "x\n"}]"#).unwrap();
        assert_eq!(
            FieldValue::from(&v),
            FieldValue::Json(r#"[1,{"a":"x\n"}]"#.into())
        );
        assert_eq!(
            FieldValue::from(&JsonValue::from(2.5)),
            FieldValue::Float(2.5)
        );
        assert_eq!(FieldValue::from(&JsonValue::from(-3)), FieldValue::Int(-3));
        assert_eq!(
            FieldValue::from(&JsonValue::from("s")),
            FieldValue::Str("s".into())
        );
    }
}
