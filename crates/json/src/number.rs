//! JSON numbers with an exact-integer / floating split.
//!
//! CIAO's key-value match compares the *textual* representation of a
//! number (paper §IV-B explicitly refuses to unify `2.4` and `24e-1`
//! because that would risk false negatives). Keeping integers exact
//! means that serializing a parsed record reproduces the digits the
//! client pattern-matched.

use std::fmt::Write as _;

/// A JSON number: either an exact 64-bit integer or a double.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JsonNumber {
    /// Written without fraction/exponent and fits `i64`.
    Int(i64),
    /// Everything else.
    Float(f64),
}

impl JsonNumber {
    /// The exact integer, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonNumber::Int(i) => Some(*i),
            JsonNumber::Float(_) => None,
        }
    }

    /// A floating view (lossy above 2^53 for integers).
    pub fn as_f64(&self) -> f64 {
        match self {
            JsonNumber::Int(i) => *i as f64,
            JsonNumber::Float(f) => *f,
        }
    }

    /// True for the integer variant.
    pub fn is_int(&self) -> bool {
        matches!(self, JsonNumber::Int(_))
    }

    /// Formats with the same rules the serializer uses.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends [`JsonNumber::to_json_string`]'s text to `out` without
    /// allocating anything else.
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            JsonNumber::Int(i) => write!(out, "{i}").expect("writing to a String cannot fail"),
            JsonNumber::Float(f) => write_float(*f, out),
        }
    }
}

/// Appends a float as JSON: shortest round-trippable form, with a
/// trailing `.0` added to integral floats so the value re-parses as a
/// float (`1.0`, not `1`). Extreme magnitudes use scientific notation
/// — both for compactness and because very long decimal expansions
/// tickle rounding bugs in fast float parsers downstream.
fn write_float(f: f64, out: &mut String) {
    debug_assert!(
        f.is_finite(),
        "non-finite floats are unrepresentable in JSON"
    );
    let a = f.abs();
    let start = out.len();
    if a != 0.0 && !(1e-5..1e17).contains(&a) {
        write!(out, "{f:e}").expect("writing to a String cannot fail");
        return;
    }
    write!(out, "{f}").expect("writing to a String cannot fail");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

impl std::fmt::Display for JsonNumber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_json_string())
    }
}

impl From<i64> for JsonNumber {
    fn from(i: i64) -> Self {
        JsonNumber::Int(i)
    }
}

impl From<f64> for JsonNumber {
    fn from(f: f64) -> Self {
        JsonNumber::Float(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_views() {
        let n = JsonNumber::Int(-42);
        assert_eq!(n.as_i64(), Some(-42));
        assert_eq!(n.as_f64(), -42.0);
        assert!(n.is_int());
        assert_eq!(n.to_json_string(), "-42");
    }

    #[test]
    fn float_views() {
        let n = JsonNumber::Float(2.5);
        assert_eq!(n.as_i64(), None);
        assert_eq!(n.as_f64(), 2.5);
        assert!(!n.is_int());
        assert_eq!(n.to_json_string(), "2.5");
    }

    #[test]
    fn integral_float_keeps_point() {
        assert_eq!(JsonNumber::Float(3.0).to_json_string(), "3.0");
        assert_eq!(JsonNumber::Float(-0.0).to_json_string(), "-0.0");
    }

    #[test]
    fn display_matches_to_json_string() {
        assert_eq!(format!("{}", JsonNumber::Int(5)), "5");
        assert_eq!(format!("{}", JsonNumber::Float(0.125)), "0.125");
    }

    #[test]
    fn scientific_preserved_by_format() {
        let tiny = JsonNumber::Float(1e-300);
        let s = tiny.to_json_string();
        assert!(
            s.contains('e'),
            "extreme magnitude should use scientific: {s}"
        );
        let reparsed: f64 = s.parse().unwrap();
        assert_eq!(reparsed, 1e-300);
    }

    #[test]
    fn extreme_magnitudes_roundtrip_exactly() {
        for &x in &[
            1.8313042101781934e-4,
            3.387399918868267e156,
            -1.4059539319553631e32,
            9.901469416441159e-145,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
        ] {
            let s = JsonNumber::Float(x).to_json_string();
            let back: f64 = s.parse().unwrap();
            assert_eq!(back, x, "roundtrip failed for {x:e} via {s}");
        }
    }
}
