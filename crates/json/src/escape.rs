//! JSON string escaping and unescaping.

use std::fmt::Write as _;

/// Appends `s` to `out` with JSON escaping applied (no surrounding
/// quotes). Escapes the two mandatory characters (`"`, `\`), control
/// characters below 0x20, and nothing else — multi-byte UTF-8 passes
/// through verbatim, which keeps serialized records byte-identical to
//  typical producers (rapidJSON, serde_json default behaviour).
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\x08' => out.push_str("\\b"),
            '\x0c' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
}

/// Escapes a string, returning a fresh buffer (with quotes omitted).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

/// Errors from [`unescape`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnescapeError {
    /// `\` at end of input.
    TrailingBackslash,
    /// `\x` where `x` is not a legal escape introducer.
    InvalidEscape(char),
    /// `\u` not followed by 4 hex digits.
    InvalidUnicodeEscape,
    /// A high surrogate without a following low surrogate (or vice
    /// versa), or a combined pair outside the scalar range.
    LoneSurrogate,
}

impl std::fmt::Display for UnescapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnescapeError::TrailingBackslash => write!(f, "backslash at end of string"),
            UnescapeError::InvalidEscape(c) => write!(f, "invalid escape sequence `\\{c}`"),
            UnescapeError::InvalidUnicodeEscape => write!(f, "`\\u` needs four hex digits"),
            UnescapeError::LoneSurrogate => write!(f, "unpaired UTF-16 surrogate"),
        }
    }
}

impl std::error::Error for UnescapeError {}

/// Decodes the escape sequences in the *contents* of a JSON string
/// (quotes already stripped). Handles `\uXXXX` including surrogate
/// pairs.
pub fn unescape(s: &str) -> Result<String, UnescapeError> {
    let Some(mut at) = s.find('\\') else {
        return Ok(s.to_owned());
    };
    let mut out = String::with_capacity(s.len());
    let mut copied = 0;
    loop {
        out.push_str(&s[copied..at]);
        let (c, len) = decode_escape(&s[at..])?;
        out.push(c);
        copied = at + len;
        match s[copied..].find('\\') {
            Some(next) => at = copied + next,
            None => break,
        }
    }
    out.push_str(&s[copied..]);
    Ok(out)
}

/// Decodes the one escape sequence `s` starts with (at a backslash):
/// the character it stands for and the sequence's length in bytes — 2,
/// 6, or 12 for a surrogate pair. This is the only place escapes are
/// interpreted: [`unescape`] builds strings from it, and the parser's
/// string scanner validates with it (discarding the character) so a
/// skipped string is checked without being built.
pub(crate) fn decode_escape(s: &str) -> Result<(char, usize), UnescapeError> {
    let esc = s[1..].chars().next();
    let simple = match esc.ok_or(UnescapeError::TrailingBackslash)? {
        '"' => '"',
        '\\' => '\\',
        '/' => '/',
        'n' => '\n',
        'r' => '\r',
        't' => '\t',
        'b' => '\x08',
        'f' => '\x0c',
        'u' => return decode_unicode_escape(s.as_bytes()),
        other => return Err(UnescapeError::InvalidEscape(other)),
    };
    Ok((simple, 2))
}

fn decode_unicode_escape(bytes: &[u8]) -> Result<(char, usize), UnescapeError> {
    let hi = read_hex4(bytes, 2)?;
    let (scalar, len) = if (0xD800..0xDC00).contains(&hi) {
        // High surrogate: must be followed by \uDC00..\uDFFF.
        if bytes.get(6) != Some(&b'\\') || bytes.get(7) != Some(&b'u') {
            return Err(UnescapeError::LoneSurrogate);
        }
        let lo = read_hex4(bytes, 8)?;
        if !(0xDC00..0xE000).contains(&lo) {
            return Err(UnescapeError::LoneSurrogate);
        }
        (0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00), 12)
    } else if (0xDC00..0xE000).contains(&hi) {
        return Err(UnescapeError::LoneSurrogate);
    } else {
        (hi, 6)
    };
    let c = char::from_u32(scalar).ok_or(UnescapeError::LoneSurrogate)?;
    Ok((c, len))
}

fn read_hex4(bytes: &[u8], at: usize) -> Result<u32, UnescapeError> {
    let mut v = 0u32;
    for i in at..at + 4 {
        let digit = bytes.get(i).and_then(|&b| char::from(b).to_digit(16));
        v = v * 16 + digit.ok_or(UnescapeError::InvalidUnicodeEscape)?;
    }
    Ok(v)
}

/// Whether `raw` — the contents of a string literal whose escapes
/// [`decode_escape`] accepts — unescapes to `target`, decided without
/// building the unescaped string.
pub(crate) fn unescapes_to(mut raw: &str, mut target: &str) -> bool {
    while let Some(plain) = raw.chars().next() {
        let (c, len) = if plain == '\\' {
            let Ok(decoded) = decode_escape(raw) else {
                return false;
            };
            decoded
        } else {
            (plain, plain.len_utf8())
        };
        let Some(rest) = target.strip_prefix(c) else {
            return false;
        };
        (raw, target) = (&raw[len..], rest);
    }
    target.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line1\nline2\ttab"), "line1\\nline2\\ttab");
        assert_eq!(escape("\x01"), "\\u0001");
        assert_eq!(escape("héllo ünïcode"), "héllo ünïcode");
    }

    #[test]
    fn unescape_simple() {
        assert_eq!(unescape("plain").unwrap(), "plain");
        assert_eq!(unescape("a\\\"b").unwrap(), "a\"b");
        assert_eq!(unescape("a\\/b").unwrap(), "a/b");
        assert_eq!(unescape("\\n\\r\\t\\b\\f").unwrap(), "\n\r\t\x08\x0c");
    }

    #[test]
    fn unescape_unicode() {
        assert_eq!(unescape("\\u0041").unwrap(), "A");
        assert_eq!(unescape("\\u00e9").unwrap(), "é");
        // U+1F600 as surrogate pair
        assert_eq!(unescape("\\ud83d\\ude00").unwrap(), "😀");
    }

    #[test]
    fn unescape_errors() {
        assert_eq!(
            unescape("bad\\").unwrap_err(),
            UnescapeError::TrailingBackslash
        );
        assert_eq!(
            unescape("\\q").unwrap_err(),
            UnescapeError::InvalidEscape('q')
        );
        assert_eq!(
            unescape("\\u12").unwrap_err(),
            UnescapeError::InvalidUnicodeEscape
        );
        assert_eq!(
            unescape("\\uZZZZ").unwrap_err(),
            UnescapeError::InvalidUnicodeEscape
        );
        assert_eq!(
            unescape("\\ud800x").unwrap_err(),
            UnescapeError::LoneSurrogate
        );
        assert_eq!(
            unescape("\\udc00").unwrap_err(),
            UnescapeError::LoneSurrogate
        );
        assert_eq!(
            unescape("\\ud83d\\u0041").unwrap_err(),
            UnescapeError::LoneSurrogate
        );
    }

    #[test]
    fn unescapes_to_agrees_with_unescape() {
        for (raw, target) in [
            ("", ""),
            ("plain", "plain"),
            ("a\\u0062c", "abc"),
            ("\\ud83d\\ude00!", "😀!"),
            ("h\u{e9}\\n", "hé\n"),
            ("abc", "ab"),
            ("ab", "abc"),
            ("\\u0041", "B"),
        ] {
            assert_eq!(
                unescapes_to(raw, target),
                unescape(raw).unwrap() == target,
                "{raw:?} vs {target:?}"
            );
        }
        assert!(!unescapes_to("\\q", "q"));
    }

    #[test]
    fn invalid_escape_names_the_whole_character() {
        assert_eq!(
            unescape("\\é").unwrap_err(),
            UnescapeError::InvalidEscape('é')
        );
    }

    #[test]
    fn roundtrip() {
        for s in [
            "",
            "plain",
            "with \"quotes\"",
            "tab\there",
            "emoji 😀",
            "\x07bell",
        ] {
            assert_eq!(
                unescape(&escape(s)).unwrap(),
                s,
                "roundtrip failed for {s:?}"
            );
        }
    }
}
