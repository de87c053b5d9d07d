//! A strict recursive-descent JSON parser, and two scans over the same
//! grammar that build no tree.
//!
//! [`parse`] is the "expensive full parse" side of CIAO's cost
//! asymmetry: it allocates a DOM, unescapes every string, and
//! validates numbers — exactly the work the client-side prefilter
//! avoids. It is written to be *correct and representative*, not
//! exotic: one pass, byte-oriented, with a recursion-depth limit so
//! adversarial inputs cannot blow the stack.
//!
//! [`parse_projected`] is what a query over parked raw records pays
//! instead: the same cursor walks the record once, builds values only
//! for the top-level keys the query reads, and *validates and skips*
//! everything else without allocating. [`parse_fields`] is what loading
//! a record into columns pays: the same walk hands each top-level
//! member a schema column reads to a sink as a typed [`FieldValue`] —
//! a nested one as the compact text [`crate::to_string`] would print,
//! copied token by token — and skips the rest. All three go through
//! one string scanner, one number grammar and one literal matcher,
//! which is what makes the contract cheap to keep: both scans are
//! `Err` exactly when `parse` is `Err`, and a key's value is the one
//! `parse(..).get(key)` would return. [`parse_member_offsets`] is the
//! same walk again, reporting where each top-level value starts, and
//! [`parse_value_at`] builds one value from such an offset.

use crate::escape::{decode_escape, escape_into, unescape, unescapes_to, UnescapeError};
use crate::fields::{FieldKeys, FieldValue};
use crate::number::JsonNumber;
use crate::value::JsonValue;
use std::borrow::Cow;

/// Position-annotated parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The failure categories the parser reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended inside a value.
    UnexpectedEof,
    /// A byte that cannot start/continue the expected production.
    UnexpectedByte(u8),
    /// Malformed number literal.
    BadNumber,
    /// Malformed string literal (bad escape, unpaired surrogate, raw
    /// control character, or invalid UTF-8).
    BadString(String),
    /// Nesting exceeded [`ParserOptions::max_depth`].
    TooDeep,
    /// Valid value followed by trailing non-whitespace bytes.
    TrailingData,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ParseErrorKind::UnexpectedEof => {
                write!(f, "unexpected end of input at byte {}", self.offset)
            }
            ParseErrorKind::UnexpectedByte(b) => write!(
                f,
                "unexpected byte {:?} at offset {}",
                char::from(*b),
                self.offset
            ),
            ParseErrorKind::BadNumber => write!(f, "malformed number at offset {}", self.offset),
            ParseErrorKind::BadString(msg) => {
                write!(f, "malformed string at offset {}: {msg}", self.offset)
            }
            ParseErrorKind::TooDeep => write!(f, "nesting too deep at offset {}", self.offset),
            ParseErrorKind::TrailingData => {
                write!(f, "trailing data after value at offset {}", self.offset)
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parser knobs.
#[derive(Debug, Clone, Copy)]
pub struct ParserOptions {
    /// Maximum object/array nesting depth (default 128).
    pub max_depth: usize,
}

impl Default for ParserOptions {
    fn default() -> Self {
        ParserOptions { max_depth: 128 }
    }
}

/// Parses a complete JSON document from a string.
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    Cursor::new(input, ParserOptions::default()).document(|p| p.value(0))
}

/// Parses a complete JSON document from bytes (must be UTF-8 in string
/// literals; everything structural is ASCII).
pub fn parse_bytes(input: &[u8]) -> Result<JsonValue, ParseError> {
    parse_bytes_with(input, ParserOptions::default())
}

/// Parses with explicit options.
pub fn parse_bytes_with(input: &[u8], options: ParserOptions) -> Result<JsonValue, ParseError> {
    // The one UTF-8 check bytes get; `parse` arrives with it done.
    let text = std::str::from_utf8(input).map_err(|e| ParseError {
        offset: e.valid_up_to(),
        kind: ParseErrorKind::BadString(format!("invalid UTF-8: {e}")),
    })?;
    Cursor::new(text, options).document(|p| p.value(0))
}

/// Scans one record, building only the values of the requested
/// top-level `keys`.
///
/// The whole document is validated — skipped strings (escapes
/// included), numbers (grammar and finiteness), literals, nesting depth
/// and trailing data all hold to [`parse`]'s rules — so the result is
/// `Err` exactly when `parse(input)` is `Err`. When it is `Ok`, the
/// returned [`JsonValue::Object`] holds, for each requested key the
/// record has, that key's **first** occurrence with the value `parse`
/// would build for it, and nothing else: `get(k)` equals
/// `parse(input)?.get(k)` for every requested `k` and is `None` for
/// every other key. A document whose top level is not an object yields
/// the empty object (`get` is `None` on both).
///
/// Nothing is allocated for a skipped field; the only allocations are
/// the returned pairs.
pub fn parse_projected(input: &str, keys: &[&str]) -> Result<JsonValue, ParseError> {
    Cursor::new(input, ParserOptions::default()).document(|p| p.projected_object(keys))
}

/// Scans one record, handing `sink` the value of every top-level
/// member whose key is one of `keys`, with that key's index.
///
/// Validation is [`parse`]'s, so the result is `Err` exactly when
/// `parse(input)` is `Err` — but `sink` may have been handed values
/// before the error was found, and the caller must discard them. On
/// `Ok`, `sink` was called once for each key the record has, with its
/// **first** occurrence, in record order; the value is the one
/// `parse(input)?.get(key)` returns, as a [`FieldValue`]. A document
/// whose top level is not an object is validated and delivers nothing.
///
/// Each member's key is tried first against the key after the
/// previous match, so a record whose members follow `keys`' order
/// resolves every key with one comparison (Mison's speculation, Li et
/// al., VLDB 2017); any other key costs one hash lookup. Nothing is
/// allocated except an escaped string's unescaped copy; nested values
/// are written into a buffer `keys` keeps for the next record.
pub fn parse_fields(
    input: &str,
    keys: &mut FieldKeys,
    mut sink: impl FnMut(usize, FieldValue<'_>),
) -> Result<(), ParseError> {
    Cursor::new(input, ParserOptions::default()).document(|p| p.fields(keys, &mut sink))
}

/// Validates one record as [`parse`] does and hands `sink` each
/// top-level member's key, unescaped, with the byte offset its value
/// starts at — in record order, later occurrences of a key included.
///
/// The result is `Err` exactly when `parse(input)` is `Err`; `sink` may
/// have been handed members before the error was found, and the caller
/// must discard them. A document whose top level is not an object is
/// validated and delivers nothing. Together with [`parse_value_at`]
/// this is a positional map's build and its read (NoDB, Alagiannis et
/// al., SIGMOD 2012): a scan that keeps the offsets of a record it has
/// validated never needs to validate that record again.
///
/// Nothing is allocated unless a key holds an escape sequence.
pub fn parse_member_offsets(
    input: &str,
    mut sink: impl FnMut(&str, usize),
) -> Result<(), ParseError> {
    Cursor::new(input, ParserOptions::default()).document(|p| p.member_offsets(&mut sink))
}

/// Builds the one value that starts at byte `offset` of `input`, as a
/// top-level member's value: for an offset [`parse_member_offsets`]
/// reported for a member of a record it accepted, the value [`parse`]
/// builds for that member. Bytes after the value are not read.
pub fn parse_value_at(input: &str, offset: usize) -> Result<JsonValue, ParseError> {
    let mut cursor = Cursor::new(input, ParserOptions::default());
    cursor.pos = offset;
    cursor.value(1)
}

struct Cursor<'a> {
    /// The document as text, which string literals are sliced out of.
    text: &'a str,
    /// The same bytes, which everything else reads.
    input: &'a [u8],
    pos: usize,
    options: ParserOptions,
}

/// Offset of the first byte at or after `from` that ends a run of
/// plain string contents — `"`, `\`, or a control character below
/// 0x20 — or `input.len()`. Eight bytes at a time: per byte lane,
/// `(x - k) & !x & 0x80` flags a lane whose value is below `k`, and a
/// lane's flag can only be wrong when a lower lane was flagged, so the
/// lowest flag of a little-endian word is the first hit.
fn find_string_special(input: &[u8], from: usize) -> usize {
    const LANES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let below = |x: u64, k: u64| x.wrapping_sub(LANES * k) & !x & HIGH;
    let mut pos = from;
    while let Some(word) = input.get(pos..pos + 8) {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte slice"));
        let hits = below(w ^ (LANES * u64::from(b'"')), 1)
            | below(w ^ (LANES * u64::from(b'\\')), 1)
            | below(w, 0x20);
        if hits != 0 {
            return pos + (hits.trailing_zeros() / 8) as usize;
        }
        pos += 8;
    }
    input[pos..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
        .map_or(input.len(), |i| pos + i)
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str, options: ParserOptions) -> Cursor<'a> {
        Cursor {
            text,
            input: text.as_bytes(),
            pos: 0,
            options,
        }
    }

    /// Runs `root` on the document's one value, allowing whitespace
    /// around it and nothing else.
    fn document<T>(
        &mut self,
        root: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.skip_ws();
        let v = root(self)?;
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.err(ParseErrorKind::TrailingData));
        }
        Ok(v)
    }

    #[inline]
    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError {
            offset: self.pos,
            kind,
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        match self.peek() {
            Some(x) if x == b => {
                self.pos += 1;
                Ok(())
            }
            Some(x) => Err(self.err(ParseErrorKind::UnexpectedByte(x))),
            None => Err(self.err(ParseErrorKind::UnexpectedEof)),
        }
    }

    /// Consumes `word`, reporting the first byte that differs, or
    /// end-of-input when the input is a proper prefix of it.
    fn literal(&mut self, word: &[u8]) -> Result<(), ParseError> {
        word.iter().try_for_each(|&b| self.expect(b))
    }

    /// What follows a container member: `,` continues, `close` ends.
    #[inline(always)]
    fn more_members(&mut self, close: u8) -> Result<bool, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            Some(b) => Err(self.err(ParseErrorKind::UnexpectedByte(b))),
            None => Err(self.err(ParseErrorKind::UnexpectedEof)),
        }
    }

    /// Consumes a container's opening byte and reports whether it is
    /// empty (then its closing byte is consumed too).
    fn open_container(&mut self, close: u8) -> bool {
        self.pos += 1;
        self.skip_ws();
        let empty = self.peek() == Some(close);
        if empty {
            self.pos += 1;
        }
        empty
    }

    /// Consumes an object member's key and the `:` after it.
    #[inline(always)]
    fn member_key(&mut self) -> Result<RawString, ParseError> {
        self.skip_ws();
        let key = self.scan_string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    fn check_depth(&self, depth: usize) -> Result<(), ParseError> {
        if depth > self.options.max_depth {
            return Err(self.err(ParseErrorKind::TooDeep));
        }
        Ok(())
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        self.check_depth(depth)?;
        match self.peek() {
            None => Err(self.err(ParseErrorKind::UnexpectedEof)),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => {
                let raw = self.scan_string()?;
                Ok(JsonValue::String(self.build_string(raw)?))
            }
            Some(b't') => self.literal(b"true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal(b"false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.literal(b"null").map(|()| JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number().map(JsonValue::Number),
            Some(b) => Err(self.err(ParseErrorKind::UnexpectedByte(b))),
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        let mut pairs = Vec::new();
        if self.open_container(b'}') {
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            let key = self.member_key()?;
            let key = self.build_string(key)?;
            pairs.push((key, self.value(depth + 1)?));
            if !self.more_members(b'}')? {
                return Ok(JsonValue::Object(pairs));
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        let mut items = Vec::new();
        if self.open_container(b']') {
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            if !self.more_members(b']')? {
                return Ok(JsonValue::Array(items));
            }
        }
    }

    /// The root of [`parse_projected`]: an object whose requested
    /// members are built and whose other members are skipped.
    fn projected_object(&mut self, keys: &[&str]) -> Result<JsonValue, ParseError> {
        let mut pairs = Vec::with_capacity(keys.len());
        if self.peek() != Some(b'{') {
            self.skip_value(0)?;
            return Ok(JsonValue::Object(pairs));
        }
        if self.open_container(b'}') {
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            let key = self.member_key()?;
            match self.requested(&key, keys, &pairs) {
                Some(name) => pairs.push((name.to_owned(), self.value(1)?)),
                None => self.skip_value(1)?,
            }
            if !self.more_members(b'}')? {
                return Ok(JsonValue::Object(pairs));
            }
        }
    }

    /// The requested key `raw` spells, unless an earlier member
    /// already supplied it (lookups return the first occurrence).
    fn requested<'k>(
        &self,
        raw: &RawString,
        keys: &[&'k str],
        found: &[(String, JsonValue)],
    ) -> Option<&'k str> {
        if found.len() == keys.len() {
            return None;
        }
        let name = keys.iter().copied().find(|key| {
            if raw.escaped {
                unescapes_to(self.contents(raw), key)
            } else {
                self.input[raw.start + 1..raw.end - 1] == *key.as_bytes()
            }
        });
        name.filter(|name| !found.iter().any(|(k, _)| k == name))
    }

    /// The root of [`parse_member_offsets`]: an object whose every
    /// member's key and value offset go to `sink` and whose values are
    /// skipped.
    fn member_offsets(&mut self, sink: &mut impl FnMut(&str, usize)) -> Result<(), ParseError> {
        if self.peek() != Some(b'{') {
            return self.skip_value(0);
        }
        if self.open_container(b'}') {
            return Ok(());
        }
        loop {
            let key = self.member_key()?;
            let unescaped;
            let name = if key.escaped {
                unescaped = self.build_string(key)?;
                &unescaped
            } else {
                self.contents(&key)
            };
            sink(name, self.pos);
            self.skip_value(1)?;
            if !self.more_members(b'}')? {
                return Ok(());
            }
        }
    }

    /// The root of [`parse_fields`]: an object whose members with a
    /// key in `keys` go to `sink` and whose other members are skipped.
    fn fields(
        &mut self,
        keys: &mut FieldKeys,
        sink: &mut impl FnMut(usize, FieldValue<'_>),
    ) -> Result<(), ParseError> {
        if self.peek() != Some(b'{') {
            return self.skip_value(0);
        }
        if self.open_container(b'}') {
            return Ok(());
        }
        keys.start_record();
        let mut next = 0;
        loop {
            let key = self.member_key()?;
            match keys.resolve(self.contents(&key), key.escaped, next) {
                Some(i) => {
                    next = i + 1;
                    sink(i, self.field_value(&mut keys.json)?);
                }
                None => self.skip_value(1)?,
            }
            if !self.more_members(b'}')? {
                return Ok(());
            }
        }
    }

    /// One top-level member's value, at depth 1: scalars typed,
    /// strings borrowed unless escaped, and containers copied into
    /// `json` as their compact text.
    fn field_value<'b>(&mut self, json: &'b mut String) -> Result<FieldValue<'b>, ParseError>
    where
        'a: 'b,
    {
        Ok(match self.peek() {
            None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            Some(b'{' | b'[') => {
                json.clear();
                self.copy_value(1, json)?;
                FieldValue::Json(Cow::Borrowed(json))
            }
            Some(b'"') => {
                let raw = self.scan_string()?;
                FieldValue::Str(if raw.escaped {
                    Cow::Owned(self.build_string(raw)?)
                } else {
                    Cow::Borrowed(self.contents(&raw))
                })
            }
            Some(b't') => self.literal(b"true").map(|()| FieldValue::Bool(true))?,
            Some(b'f') => self.literal(b"false").map(|()| FieldValue::Bool(false))?,
            Some(b'n') => self.literal(b"null").map(|()| FieldValue::Null)?,
            Some(b'-' | b'0'..=b'9') => match self.number()? {
                JsonNumber::Int(i) => FieldValue::Int(i),
                JsonNumber::Float(f) => FieldValue::Float(f),
            },
            Some(b) => return Err(self.err(ParseErrorKind::UnexpectedByte(b))),
        })
    }

    /// Validates one value of any shape without building it.
    fn skip_value(&mut self, depth: usize) -> Result<(), ParseError> {
        self.check_depth(depth)?;
        match self.peek() {
            None => Err(self.err(ParseErrorKind::UnexpectedEof)),
            Some(open @ (b'{' | b'[')) => self.skip_container(open, depth),
            Some(b'"') => self.scan_string().map(drop),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.skip_number(),
            Some(b) => Err(self.err(ParseErrorKind::UnexpectedByte(b))),
        }
    }

    fn skip_container(&mut self, open: u8, depth: usize) -> Result<(), ParseError> {
        let close = if open == b'{' { b'}' } else { b']' };
        if self.open_container(close) {
            return Ok(());
        }
        loop {
            if open == b'{' {
                self.member_key()?;
            } else {
                self.skip_ws();
            }
            self.skip_value(depth + 1)?;
            if !self.more_members(close)? {
                return Ok(());
            }
        }
    }

    /// Validates one value of any shape like [`Cursor::skip_value`],
    /// appending the compact text [`crate::to_string`] prints for the
    /// value [`parse`] would build — without building it. The two walks
    /// stay apart: folding the copy into the skip (one walk generic
    /// over what it does with each token) made projected scans of
    /// parked records, which skip most of every record, ~10% slower.
    fn copy_value(&mut self, depth: usize, out: &mut String) -> Result<(), ParseError> {
        self.check_depth(depth)?;
        match self.peek() {
            None => Err(self.err(ParseErrorKind::UnexpectedEof)),
            Some(open @ (b'{' | b'[')) => self.copy_container(open, depth, out),
            Some(b'"') => {
                let raw = self.scan_string()?;
                self.respell_string(&raw, out)
            }
            Some(b't') => self.literal(b"true").map(|()| out.push_str("true")),
            Some(b'f') => self.literal(b"false").map(|()| out.push_str("false")),
            Some(b'n') => self.literal(b"null").map(|()| out.push_str("null")),
            Some(b'-' | b'0'..=b'9') => {
                let n = self.scan_number()?;
                match self.number_value(&n)? {
                    // JSON's integer grammar has no leading zeros or
                    // plus sign, so the literal is printed as written —
                    // but for `-0`.
                    JsonNumber::Int(0) => out.push('0'),
                    JsonNumber::Int(_) => out.push_str(&self.text[n.start..n.end]),
                    float => float.write_json(out),
                }
                Ok(())
            }
            Some(b) => Err(self.err(ParseErrorKind::UnexpectedByte(b))),
        }
    }

    fn copy_container(
        &mut self,
        open: u8,
        depth: usize,
        out: &mut String,
    ) -> Result<(), ParseError> {
        let close = if open == b'{' { b'}' } else { b']' };
        out.push(char::from(open));
        if self.open_container(close) {
            out.push(char::from(close));
            return Ok(());
        }
        loop {
            if open == b'{' {
                let key = self.member_key()?;
                self.respell_string(&key, out)?;
                out.push(':');
            } else {
                self.skip_ws();
            }
            self.copy_value(depth + 1, out)?;
            if !self.more_members(close)? {
                out.push(char::from(close));
                return Ok(());
            }
            out.push(',');
        }
    }

    /// Scans a string literal to its closing quote: raw control
    /// characters are rejected and every escape sequence is validated,
    /// but nothing is built.
    ///
    /// Forced inline, with the two per-member helpers above: records
    /// are mostly short strings, so the call and the `RawString`
    /// passed back through memory cost as much as the scan. Measured
    /// on generated YCSB records, it is worth 30% of a full parse and
    /// 25% of a projected scan; `#[inline]` alone does not get it.
    #[inline(always)]
    fn scan_string(&mut self) -> Result<RawString, ParseError> {
        let start = self.pos;
        self.expect(b'"')?;
        let mut escaped = false;
        loop {
            self.pos = find_string_special(self.input, self.pos);
            match self.peek() {
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(RawString {
                        start,
                        end: self.pos,
                        escaped,
                    });
                }
                Some(b'\\') => match decode_escape(&self.text[self.pos..]) {
                    Ok((_, len)) => {
                        escaped = true;
                        self.pos += len;
                    }
                    Err(UnescapeError::TrailingBackslash) => {
                        self.pos = self.input.len();
                        return Err(self.err(ParseErrorKind::UnexpectedEof));
                    }
                    Err(e) => {
                        return Err(ParseError {
                            offset: start,
                            kind: ParseErrorKind::BadString(e.to_string()),
                        })
                    }
                },
                Some(b) => {
                    return Err(self.err(ParseErrorKind::BadString(format!(
                        "raw control character 0x{b:02x} in string"
                    ))));
                }
            }
        }
    }

    /// The text between a scanned literal's quotes, escapes intact.
    /// Both ends sit next to an ASCII quote, so on char boundaries.
    ///
    /// This, [`Cursor::number`] and [`Cursor::number_value`] are forced
    /// inline: with callers in more than one walk they were left out of
    /// line, which cost [`parse`] and [`parse_projected`] 5–10% on
    /// generated records.
    #[inline(always)]
    fn contents(&self, raw: &RawString) -> &'a str {
        &self.text[raw.start + 1..raw.end - 1]
    }

    /// The unescaped contents of a scanned literal.
    fn build_string(&self, raw: RawString) -> Result<String, ParseError> {
        let contents = self.contents(&raw);
        if !raw.escaped {
            return Ok(contents.to_owned());
        }
        unescape(contents).map_err(|e| string_error(&raw, e))
    }

    /// Appends a scanned literal, quotes included, as
    /// [`crate::to_string`] prints the string it unescapes to.
    fn respell_string(&self, raw: &RawString, out: &mut String) -> Result<(), ParseError> {
        let mut rest = self.contents(raw);
        out.push('"');
        // Between escapes the contents hold no quote, backslash or
        // control character: they are already spelled as printed.
        while let Some(at) = rest.find('\\') {
            out.push_str(&rest[..at]);
            let (c, len) = decode_escape(&rest[at..]).map_err(|e| string_error(raw, e))?;
            escape_into(c.encode_utf8(&mut [0; 4]), out);
            rest = &rest[at + len..];
        }
        out.push_str(rest);
        out.push('"');
        Ok(())
    }

    /// Consumes a number literal's grammar.
    fn scan_number(&mut self) -> Result<NumberText, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err(ParseErrorKind::BadNumber)),
        }
        let fraction = self.peek() == Some(b'.');
        if fraction {
            self.pos += 1;
            self.required_digits()?;
        }
        let exponent = matches!(self.peek(), Some(b'e' | b'E'));
        if exponent {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.required_digits()?;
        }
        Ok(NumberText {
            start,
            end: self.pos,
            fraction,
            exponent,
        })
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn required_digits(&mut self) -> Result<(), ParseError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err(ParseErrorKind::BadNumber));
        }
        self.digits();
        Ok(())
    }

    fn skip_number(&mut self) -> Result<(), ParseError> {
        let n = self.scan_number()?;
        // Without an exponent, fewer than 300 digits stay below 1e300
        // and cannot overflow to infinity; only the rest need the
        // conversion to find out.
        if n.exponent || n.end - n.start >= 300 {
            self.finite_f64(&n)?;
        }
        Ok(())
    }

    #[inline(always)]
    fn number(&mut self) -> Result<JsonNumber, ParseError> {
        let n = self.scan_number()?;
        self.number_value(&n)
    }

    /// A scanned literal's value: an exact integer when it has no
    /// fraction or exponent and fits `i64`, a finite float otherwise.
    #[inline(always)]
    fn number_value(&self, n: &NumberText) -> Result<JsonNumber, ParseError> {
        if !n.fraction && !n.exponent {
            if let Ok(i) = self.text[n.start..n.end].parse::<i64>() {
                return Ok(JsonNumber::Int(i));
            }
            // Integer overflow: fall back to float like most parsers.
        }
        self.finite_f64(n).map(JsonNumber::Float)
    }

    /// The literal as an `f64`; JSON cannot represent the infinity an
    /// oversized literal converts to, so that is an error.
    fn finite_f64(&self, n: &NumberText) -> Result<f64, ParseError> {
        match self.text[n.start..n.end].parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(f),
            _ => Err(ParseError {
                offset: n.start,
                kind: ParseErrorKind::BadNumber,
            }),
        }
    }
}

/// A scanned string literal: `start..end` spans it quotes included.
struct RawString {
    start: usize,
    end: usize,
    /// Whether it holds at least one escape sequence.
    escaped: bool,
}

/// The error for a literal whose escapes do not decode.
fn string_error(raw: &RawString, e: UnescapeError) -> ParseError {
    ParseError {
        offset: raw.start,
        kind: ParseErrorKind::BadString(e.to_string()),
    }
}

/// A scanned number literal: `start..end` spans its (ASCII) text.
struct NumberText {
    start: usize,
    end: usize,
    fraction: bool,
    exponent: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse("42").unwrap(), JsonValue::from(42));
        assert_eq!(parse("-7").unwrap(), JsonValue::from(-7));
        assert_eq!(parse("2.5").unwrap(), JsonValue::from(2.5));
        assert_eq!(parse("1e3").unwrap(), JsonValue::from(1000.0));
        assert_eq!(parse("2.5E-1").unwrap(), JsonValue::from(0.25));
        assert_eq!(parse("\"hi\"").unwrap(), JsonValue::from("hi"));
    }

    #[test]
    fn containers() {
        let v = parse(r#"  {"a": [1, 2, {"b": null}], "c": "x"}  "#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 3);
        assert!(a[2].get("b").unwrap().is_null());
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(vec![]));
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#""tab\there A \"q\" 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\there A \"q\" 😀"));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "nul",
            "tru",
            "{",
            "[",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a:1}",
            "01",
            "1.",
            ".5",
            "1e",
            "+1",
            "--1",
            "\"unterminated",
            "[1]]",
            "{} x",
            "\"bad \\q escape\"",
            "nan",
            "Infinity",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn raw_control_char_rejected() {
        let err = parse("\"a\nb\"").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadString(_)));
    }

    #[test]
    fn error_offsets() {
        let err = parse("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert_eq!(err.kind, ParseErrorKind::UnexpectedByte(b'x'));
    }

    #[test]
    fn literal_reports_the_first_differing_byte() {
        // A wrong byte is reported where it stands...
        let err = parse("nx").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedByte(b'x'));
        assert_eq!(err.offset, 1);
        let err = parse("[falsy]").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedByte(b'y'));
        assert_eq!(err.offset, 5);
        // ...and end-of-input only when the input is a proper prefix.
        let err = parse("tru").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedEof);
        assert_eq!(err.offset, 3);
        // The skip path shares the matcher.
        let err = parse_projected(r#"{"a":nx}"#, &[]).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedByte(b'x'));
        assert_eq!(err.offset, 6);
    }

    #[test]
    fn string_scanner_finds_specials_at_every_alignment() {
        // The special byte lands in every lane of the 8-byte word and
        // in the byte-at-a-time tail; multi-byte UTF-8 never trips it.
        for pad in 0..20 {
            let plain = "é".repeat(pad / 2) + &"x".repeat(pad % 2 + pad);
            let ok = format!("\"{plain}\\n{plain}\"");
            assert_eq!(
                parse(&ok).unwrap().as_str().unwrap(),
                format!("{plain}\n{plain}")
            );
            let ctrl = format!("\"{plain}\u{1f}{plain}\"");
            assert!(matches!(
                parse(&ctrl).unwrap_err().kind,
                ParseErrorKind::BadString(_)
            ));
            assert_eq!(
                parse(&format!("\"{plain}")).unwrap_err().kind,
                ParseErrorKind::UnexpectedEof
            );
        }
    }

    #[test]
    fn parse_bytes_rejects_invalid_utf8() {
        let err = parse_bytes(b"[\"ok\", \"\xff\"]").unwrap_err();
        assert_eq!(err.offset, 8);
        assert!(matches!(err.kind, ParseErrorKind::BadString(_)));
        assert_eq!(parse_bytes("\"é\"".as_bytes()).unwrap().as_str(), Some("é"));
    }

    #[test]
    fn projected_builds_only_requested_keys() {
        let rec = r#" {"a":1,"s":"x\ty","n":{"deep":[1,{"a":2}]},"a":3,"f":2.5e0,"z":null} "#;
        let full = parse(rec).unwrap();
        let p = parse_projected(rec, &["a", "n", "absent"]).unwrap();
        // First occurrence of a duplicate, nested values whole, and
        // nothing that was not asked for.
        assert_eq!(
            p,
            JsonValue::object([
                ("a", JsonValue::from(1)),
                ("n", full.get("n").unwrap().clone()),
            ])
        );
        assert_eq!(
            parse_projected(rec, &[]).unwrap(),
            JsonValue::Object(vec![])
        );
        // A key spelled with escapes is still the key it spells.
        let p = parse_projected(r#"{"\u0061b":7,"ab":8}"#, &["ab"]).unwrap();
        assert_eq!(p.get("ab").unwrap().as_i64(), Some(7));
    }

    #[test]
    fn projected_non_object_is_validated_and_empty() {
        assert_eq!(
            parse_projected("[1, \"a\"]", &["a"]).unwrap(),
            JsonValue::Object(vec![])
        );
        assert_eq!(
            parse_projected(" 42 ", &["a"]).unwrap(),
            JsonValue::Object(vec![])
        );
        assert!(parse_projected("[1,", &["a"]).is_err());
    }

    #[test]
    fn projected_validates_what_it_skips() {
        for bad in [
            r#"{"a":1,"b":tru}"#,
            r#"{"a":1,"b":01}"#,
            r#"{"a":1,"b":1e999}"#,
            r#"{"a":1,"b":"\q"}"#,
            r#"{"a":1,"b":"\ud800"}"#,
            "{\"a\":1,\"b\":\"\n\"}",
            r#"{"a":1,"b":[1 2]}"#,
            r#"{"a":1,"b":{"c"}}"#,
            r#"{"a":1,"b":2"#,
            r#"{"a":1,"b":2} x"#,
            r#"{"a":1,"b\q":2}"#,
            r#"{"a":1,b:2}"#,
        ] {
            assert!(parse(bad).is_err(), "oracle should reject {bad:?}");
            assert!(
                parse_projected(bad, &["a"]).is_err(),
                "should reject {bad:?}"
            );
        }
        let deep = format!(r#"{{"a":1,"b":{}{}}}"#, "[".repeat(200), "]".repeat(200));
        assert_eq!(
            parse_projected(&deep, &["a"]).unwrap_err().kind,
            ParseErrorKind::TooDeep
        );
        // A long exponent-free literal is still checked for finiteness.
        let huge = format!(r#"{{"b":{}}}"#, "9".repeat(400));
        assert!(parse(&huge).is_err() && parse_projected(&huge, &[]).is_err());
        let big = format!(r#"{{"b":{}}}"#, "9".repeat(299));
        assert!(parse(&big).is_ok() && parse_projected(&big, &[]).is_ok());
    }

    #[test]
    fn fields_are_typed_nested_ones_printed_and_strings_borrowed_unless_escaped() {
        let rec = r#" { "i" : -0, "f":2.50, "big":99999999999999999999, "s":"x\ty\/", "p":"plain",
            "n": { "a" : 2.50 , "b":[1E+2,-0, 7, true,null], "c":"\/é\u0001" , "d":{ } },
            "skip":[1,{"deep":"x"}], "z":null } "#;
        let mut keys = FieldKeys::new(["i", "f", "big", "s", "p", "n", "z"]);
        let mut fields = Vec::new();
        parse_fields(rec, &mut keys, |i, v| {
            let borrowed = matches!(v, FieldValue::Str(Cow::Borrowed(_)));
            fields.push((i, v.into_owned(), borrowed));
        })
        .unwrap();
        let nested = r#"{"a":2.5,"b":[100.0,0,7,true,null],"c":"/é\u0001","d":{}}"#;
        assert_eq!(
            fields,
            [
                (0, FieldValue::Int(0), false),
                (1, FieldValue::Float(2.5), false),
                (2, FieldValue::Float(1e20), false),
                (3, FieldValue::Str("x\ty/".into()), false),
                (4, FieldValue::Str("plain".into()), true),
                (5, FieldValue::Json(nested.into()), false),
                (6, FieldValue::Null, false),
            ]
        );
    }

    #[test]
    fn trailing_data() {
        let err = parse("1 1").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TrailingData);
    }

    #[test]
    fn depth_limit() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());

        let custom = parse_bytes_with(b"[[1]]", ParserOptions { max_depth: 1 });
        assert!(custom.is_err());
    }

    #[test]
    fn integer_overflow_becomes_float() {
        let v = parse("99999999999999999999999").unwrap();
        assert!(v.as_i64().is_none());
        assert!(v.as_f64().unwrap() > 9.9e22);
    }

    #[test]
    fn huge_exponent_rejected() {
        // Overflows to infinity, which JSON cannot represent.
        assert!(parse("1e999").is_err());
    }

    #[test]
    fn duplicate_keys_preserved() {
        let v = parse(r#"{"k":1,"k":2}"#).unwrap();
        assert_eq!(v.as_object().unwrap().len(), 2);
        assert_eq!(v.get("k").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn negative_zero_and_int_bounds() {
        assert_eq!(parse("-0").unwrap().as_i64(), Some(0));
        assert_eq!(
            parse("9223372036854775807").unwrap().as_i64(),
            Some(i64::MAX)
        );
        assert_eq!(
            parse("-9223372036854775808").unwrap().as_i64(),
            Some(i64::MIN)
        );
    }
}
