//! The strings of one column chunk, in one buffer.

/// The strings of one column chunk: their text back to back in one
/// buffer, and the end offset of each — the offsets-plus-heap string
/// storage of MonetDB/X100 (Boncz et al., CIDR 2005). Appending a
/// string copies its bytes into the buffer and allocates nothing once
/// the buffer has room, so a block of string cells costs a few
/// allocations, not one per cell.
///
/// Offsets are `u32`: a chunk holds at most [`StrColumn::MAX_TEXT`]
/// bytes of text, and [`StrColumn::push`] panics rather than wrap past
/// it.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct StrColumn {
    text: String,
    /// `ends[i]` is where string `i` ends in `text`; string `i` starts
    /// where string `i - 1` ends (string 0 at 0).
    ends: Vec<u32>,
}

impl StrColumn {
    /// The most bytes of text one column holds.
    pub const MAX_TEXT: usize = u32::MAX as usize;

    /// An empty column.
    pub fn new() -> StrColumn {
        StrColumn::default()
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the column holds no strings.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes of text the strings hold together.
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// Appends one string. Panics when the column would hold more
    /// than [`StrColumn::MAX_TEXT`] bytes.
    pub fn push(&mut self, s: &str) {
        self.text.push_str(s);
        let end = u32::try_from(self.text.len())
            .expect("a column chunk holds at most StrColumn::MAX_TEXT bytes of text");
        self.ends.push(end);
    }

    /// String `i`. Panics when `i` is out of range.
    pub fn get(&self, i: usize) -> &str {
        &self.text[self.start(i)..self.ends[i] as usize]
    }

    /// String `i`'s bytes: [`StrColumn::get`] without checking that
    /// they start and end on character boundaries, which comparing them
    /// to a string's bytes does not need.
    pub fn bytes(&self, i: usize) -> &[u8] {
        &self.text.as_bytes()[self.start(i)..self.ends[i] as usize]
    }

    /// The strings in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let s = &self.text[start..end as usize];
            start = end as usize;
            s
        })
    }

    /// Keeps the first `len` strings and drops the rest, keeping the
    /// room they took.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.text.truncate(self.start(len));
            self.ends.truncate(len);
        }
    }

    /// Makes room for `strings` more strings of `bytes` more bytes
    /// together.
    pub fn reserve(&mut self, strings: usize, bytes: usize) {
        self.ends.reserve_exact(strings);
        self.text.reserve_exact(bytes);
    }

    /// Releases room beyond what the strings take.
    pub fn shrink_to_fit(&mut self) {
        self.ends.shrink_to_fit();
        self.text.shrink_to_fit();
    }

    /// Where string `i` starts.
    fn start(&self, i: usize) -> usize {
        match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        }
    }
}

impl std::fmt::Debug for StrColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<S: AsRef<str>> FromIterator<S> for StrColumn {
    fn from_iter<I: IntoIterator<Item = S>>(strings: I) -> StrColumn {
        let mut column = StrColumn::new();
        for s in strings {
            column.push(s.as_ref());
        }
        column
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_truncate() {
        let mut c: StrColumn = ["ab", "", "é"].into_iter().collect();
        assert_eq!((c.len(), c.text_len()), (3, 4));
        assert_eq!(c.iter().collect::<Vec<_>>(), ["ab", "", "é"]);
        assert_eq!(c.get(2), "é");
        assert_eq!(c.bytes(2), "é".as_bytes());
        assert_eq!(c.bytes(1), b"");
        c.truncate(1);
        assert_eq!((c.len(), c.text_len()), (1, 2));
        c.truncate(5);
        c.push("xyz");
        assert_eq!(c.iter().collect::<Vec<_>>(), ["ab", "xyz"]);
        assert_eq!(format!("{c:?}"), r#"["ab", "xyz"]"#);
        c.truncate(0);
        assert!(c.is_empty());
        assert_eq!(c.text_len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_range() {
        StrColumn::new().get(0);
    }
}
