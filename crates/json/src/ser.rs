//! JSON serialization (compact and pretty).

use crate::escape::escape_into;
use crate::value::JsonValue;

/// Serializes a value to compact JSON (no whitespace) — the format the
/// data generators emit and the client pattern-matches against.
pub fn to_string(value: &JsonValue) -> String {
    let mut out = String::with_capacity(64);
    write_value(value, &mut out);
    out
}

/// Appends the compact serialization of `value` to `out`.
pub fn write_value(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(true) => out.push_str("true"),
        JsonValue::Bool(false) => out.push_str("false"),
        JsonValue::Number(n) => n.write_json(out),
        JsonValue::String(s) => {
            out.push('"');
            escape_into(s, out);
            out.push('"');
        }
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(pairs) => {
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_into(k, out);
                out.push_str("\":");
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

/// Serializes with two-space indentation, for human consumption.
pub fn to_pretty_string(value: &JsonValue) -> String {
    let mut out = String::with_capacity(128);
    write_pretty(value, &mut out, 0);
    out
}

fn write_pretty(value: &JsonValue, out: &mut String, indent: usize) {
    match value {
        JsonValue::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                write_pretty(item, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push(']');
        }
        JsonValue::Object(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(out, indent + 1);
                out.push('"');
                escape_into(k, out);
                out.push_str("\": ");
                write_pretty(v, out, indent + 1);
            }
            out.push('\n');
            push_indent(out, indent);
            out.push('}');
        }
        other => write_value(other, out),
    }
}

fn push_indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

impl std::fmt::Display for JsonValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn compact_shapes() {
        let v = JsonValue::object([
            ("name", JsonValue::from("Bob")),
            ("age", JsonValue::from(22)),
            (
                "xs",
                JsonValue::array([JsonValue::from(1), JsonValue::Null]),
            ),
        ]);
        assert_eq!(to_string(&v), r#"{"name":"Bob","age":22,"xs":[1,null]}"#);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(to_string(&JsonValue::Array(vec![])), "[]");
        assert_eq!(to_string(&JsonValue::Object(vec![])), "{}");
        assert_eq!(to_pretty_string(&JsonValue::Array(vec![])), "[]");
        assert_eq!(to_pretty_string(&JsonValue::Object(vec![])), "{}");
    }

    #[test]
    fn escapes_in_keys_and_values() {
        let v = JsonValue::object([("a\"b", JsonValue::from("x\ny"))]);
        let s = to_string(&v);
        assert_eq!(s, "{\"a\\\"b\":\"x\\ny\"}");
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn parse_serialize_roundtrip() {
        let inputs = [
            r#"{"a":1,"b":[true,false,null],"c":{"d":"e"},"f":2.5}"#,
            r#"[1,2,3]"#,
            r#""just a string""#,
            r#"-0.125"#,
        ];
        for input in inputs {
            let v = parse(input).unwrap();
            assert_eq!(to_string(&v), input);
        }
    }

    #[test]
    fn pretty_is_reparseable() {
        let v = parse(r#"{"a":[1,{"b":2}],"c":"x"}"#).unwrap();
        let pretty = to_pretty_string(&v);
        assert!(pretty.contains('\n'));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn display_matches_to_string() {
        let v = parse("[1,2]").unwrap();
        assert_eq!(format!("{v}"), "[1,2]");
    }
}
