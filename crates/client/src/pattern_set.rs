//! Batched multi-pattern evaluation: all of a plan's predicates in one
//! pass per record.
//!
//! The per-needle prefilter walks every record once *per predicate*.
//! A [`PatternSet`] is compiled once per pushdown plan and inverts the
//! loop with the fingerprint shape of Teddy, Hyperscan's multi-pattern
//! matcher (Wang et al., NSDI 2019):
//!
//! 1. Every disjunct of every clause is an **atom** with a *prefix*: a
//!    `Find` needle or a `KeyThenValue` key. Atoms with the same prefix
//!    form one **group**, so a plan that pushes six `linear_score`
//!    values compares `"linear_score"` once per occurrence, finds its
//!    `,`-bounded value window once, and runs only the value searches
//!    of members that have not matched yet.
//! 2. The first (up to) three prefix bytes of each group are its
//!    **fingerprint**. Groups are sorted by fingerprint and spread over
//!    eight **buckets**; per fingerprint position `k`, two 16-entry
//!    tables map a byte's low and high nibble to the buckets that allow
//!    it there. A position's candidate buckets are the AND over `k` of
//!    `lo[k][b & 15] & hi[k][b >> 4]`.
//! 3. **Dispatch.** With AVX2 (checked once with
//!    `is_x86_feature_detected!`) the nibble tables are `vpshufb`
//!    lookups and one iteration tests 32 positions; the record tail is
//!    copied into a zero-padded block. Without it, a portable loop
//!    tests each position's first byte pair against an exact 64 Ki-bit
//!    pair bitmap, then the same nibble tables. The portable loop is
//!    also the oracle the AVX2 kernel is differentially tested against
//!    ([`PatternSet::eval_into_on`]).
//! 4. Each candidate bucket's groups compare their whole prefix at the
//!    position. The scan stops once every predicate matched.
//!
//! **Exactness.** Every occurrence of a prefix carries its group's
//! fingerprint bytes, whose nibbles are set in its bucket's tables;
//! positions past a short fingerprint, and bytes past the record end,
//! either allow every bucket or leave a candidate the prefix compare
//! rejects. So the candidates are a superset of the occurrences, every
//! occurrence is verified, and the answers are **bit-identical** to
//! [`CompiledClause::is_match`](crate::raw_eval::CompiledClause) per
//! predicate (differentially property-tested): a `Find` atom matches
//! when its needle occurs anywhere, a `KeyThenValue` atom when some key
//! occurrence's window up to the next `,` holds the value.

use crate::raw_eval::CompiledPattern;
use crate::search::Finder;
use crate::swar;
use ciao_predicate::{ClausePattern, Pattern};

/// Fingerprint bytes taken from the start of each group's prefix.
const FP_LEN: usize = 3;
/// Teddy buckets: one bit of a candidate mask byte each.
const BUCKETS: usize = 8;

/// The atoms of one prefix.
#[derive(Debug, Clone)]
struct Group {
    prefix: Box<[u8]>,
    /// Predicates of the `Find` atoms: the prefix alone matches them.
    finds: Vec<u32>,
    /// `(predicate, value)` of the `KeyThenValue` atoms: the value is
    /// searched in the window between the prefix end and the next `,`.
    values: Vec<(u32, Finder)>,
}

impl Group {
    /// The prefix bytes the candidate scan tests.
    fn fingerprint(&self) -> &[u8] {
        &self.prefix[..self.prefix.len().min(FP_LEN)]
    }

    /// Verifies the group at `at`, marking what matches. Returns `true`
    /// when every predicate has now matched (the scan can stop).
    #[inline]
    fn check(&self, record: &[u8], at: usize, matched: &mut [bool], remaining: &mut usize) -> bool {
        let wstart = at + self.prefix.len();
        if record.get(at..wstart) != Some(&self.prefix[..]) {
            return false;
        }
        let mut hit = |p: u32, matched: &mut [bool]| {
            matched[p as usize] = true;
            *remaining -= 1;
        };
        for &p in &self.finds {
            if !matched[p as usize] {
                hit(p, matched);
            }
        }
        let mut window = None;
        for (p, value) in &self.values {
            if matched[*p as usize] {
                continue;
            }
            // CompiledPattern's window rule, found once per occurrence.
            let window = *window.get_or_insert_with(|| {
                let wend = swar::memchr_from(b',', record, wstart).unwrap_or(record.len());
                &record[wstart..wend]
            });
            if value.find(window).is_some() {
                hit(*p, matched);
            }
        }
        *remaining == 0
    }
}

/// The candidate scan a [`PatternSet`] runs. Public only so the
/// differential tests can run each target explicitly.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanTarget {
    /// Pair bitmap, then the nibble tables one position at a time.
    Portable,
    /// The nibble tables as `vpshufb` lookups, 32 positions at a time.
    Avx2,
}

impl ScanTarget {
    /// The fastest target this CPU runs.
    pub fn detected() -> ScanTarget {
        if ScanTarget::Avx2.is_available() {
            ScanTarget::Avx2
        } else {
            ScanTarget::Portable
        }
    }

    /// Whether this CPU can run the target.
    pub fn is_available(self) -> bool {
        match self {
            ScanTarget::Portable => true,
            #[cfg(target_arch = "x86_64")]
            ScanTarget::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            ScanTarget::Avx2 => false,
        }
    }
}

/// A set of clause patterns compiled for one-pass evaluation.
#[derive(Debug, Clone)]
pub struct PatternSet {
    pred_count: usize,
    /// Sorted by fingerprint; bucket `b` holds
    /// `groups[bucket_start[b]..bucket_start[b + 1]]`.
    groups: Vec<Group>,
    bucket_start: [usize; BUCKETS + 1],
    /// `lo[k][n]` / `hi[k][n]`: buckets allowing low / high nibble `n`
    /// at fingerprint position `k`.
    lo: [[u8; 16]; FP_LEN],
    hi: [[u8; 16]; FP_LEN],
    /// Bit `a << 8 | b` is set when some fingerprint starts with bytes
    /// `a, b` (or is the single byte `a`).
    pairs: Box<[u64; 1024]>,
    target: ScanTarget,
    /// Predicate indices that match every record (an empty `Find`
    /// needle — the empty string occurs in anything).
    always: Vec<u32>,
    /// `(predicate index, pattern)` pairs the scan cannot anchor (an
    /// empty `KeyThenValue` key); evaluated per record the scalar way.
    fallback: Vec<(u32, CompiledPattern)>,
}

impl Default for PatternSet {
    fn default() -> PatternSet {
        PatternSet::new(&[])
    }
}

impl PatternSet {
    /// Compiles the clause patterns of a plan, in pushdown order.
    pub fn new<'a>(clauses: impl IntoIterator<Item = &'a ClausePattern>) -> PatternSet {
        let mut pred_count = 0;
        let mut groups: Vec<Group> = Vec::new();
        let (mut always, mut fallback) = (Vec::new(), Vec::new());
        for (p, clause) in clauses.into_iter().enumerate() {
            let p = p as u32;
            pred_count += 1;
            for pattern in &clause.patterns {
                let (prefix, value) = match pattern {
                    Pattern::Find { needle } => (needle.as_bytes(), None),
                    Pattern::KeyThenValue { key, value } => (key.as_bytes(), Some(value)),
                };
                if prefix.is_empty() {
                    match value {
                        // find("") matches every record.
                        None => always.push(p),
                        // An empty key anchors nowhere; keep exact
                        // semantics via the scalar matcher.
                        Some(_) => fallback.push((p, CompiledPattern::new(pattern))),
                    }
                    continue;
                }
                let g = match groups.iter().position(|g| &g.prefix[..] == prefix) {
                    Some(g) => g,
                    None => {
                        groups.push(Group {
                            prefix: prefix.into(),
                            finds: Vec::new(),
                            values: Vec::new(),
                        });
                        groups.len() - 1
                    }
                };
                match value {
                    None => groups[g].finds.push(p),
                    Some(v) => groups[g].values.push((p, Finder::new(v))),
                }
            }
        }
        always.sort_unstable();
        always.dedup();

        // Neighbours in fingerprint order share buckets, so a shared
        // bucket's nibble tables stay close to its members' bytes.
        groups.sort_by(|a, b| a.fingerprint().cmp(b.fingerprint()));
        let mut bucket_start = [groups.len(); BUCKETS + 1];
        let (mut lo, mut hi) = ([[0u8; 16]; FP_LEN], [[0u8; 16]; FP_LEN]);
        let mut pairs = Box::new([0u64; 1024]);
        for (i, group) in groups.iter().enumerate().rev() {
            let bucket = i * BUCKETS / groups.len();
            bucket_start[..=bucket].fill(i);
            let bit = 1u8 << bucket;
            for k in 0..FP_LEN {
                match group.fingerprint().get(k) {
                    Some(&b) => {
                        lo[k][usize::from(b & 15)] |= bit;
                        hi[k][usize::from(b >> 4)] |= bit;
                    }
                    None => {
                        lo[k].iter_mut().for_each(|m| *m |= bit);
                        hi[k].iter_mut().for_each(|m| *m |= bit);
                    }
                }
            }
            let first = usize::from(group.prefix[0]) << 8;
            let seconds = match group.prefix.get(1) {
                Some(&b) => usize::from(b)..usize::from(b) + 1,
                None => 0..256,
            };
            for pair in seconds.map(|s| first | s) {
                pairs[pair >> 6] |= 1 << (pair & 63);
            }
        }
        PatternSet {
            pred_count,
            groups,
            bucket_start,
            lo,
            hi,
            pairs,
            target: ScanTarget::detected(),
            always,
            fallback,
        }
    }

    /// Number of compiled predicates (clauses).
    pub fn predicate_count(&self) -> usize {
        self.pred_count
    }

    /// Evaluates every predicate against one record in a single pass.
    ///
    /// `matched` is cleared and resized to the predicate count; entry
    /// `p` is `true` ⇔ predicate `p` (in compile order) matches. The
    /// buffer is caller-owned so chunk loops allocate once.
    pub fn eval_into(&self, record: &[u8], matched: &mut Vec<bool>) {
        self.eval_into_on(self.target, record, matched);
    }

    /// [`PatternSet::eval_into`] on an explicit scan target.
    ///
    /// # Panics
    ///
    /// Panics when the CPU cannot run `target`.
    #[doc(hidden)]
    pub fn eval_into_on(&self, target: ScanTarget, record: &[u8], matched: &mut Vec<bool>) {
        matched.clear();
        matched.resize(self.pred_count, false);
        let mut remaining = self.pred_count;

        for &p in &self.always {
            if !matched[p as usize] {
                matched[p as usize] = true;
                remaining -= 1;
            }
        }
        for (p, pattern) in &self.fallback {
            if !matched[*p as usize] && pattern.is_match(record) {
                matched[*p as usize] = true;
                remaining -= 1;
            }
        }
        if remaining == 0 || self.groups.is_empty() {
            return;
        }
        match target {
            ScanTarget::Portable => self.scan_portable(record, matched, &mut remaining),
            #[cfg(target_arch = "x86_64")]
            ScanTarget::Avx2 => {
                assert!(target.is_available(), "this CPU has no AVX2");
                // SAFETY: the CPU supports AVX2, checked just above.
                unsafe { self.scan_avx2(record, matched, &mut remaining) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            ScanTarget::Avx2 => panic!("AVX2 exists only on x86_64"),
        }
    }

    /// Convenience wrapper allocating a fresh buffer.
    pub fn eval(&self, record: &[u8]) -> Vec<bool> {
        let mut out = Vec::new();
        self.eval_into(record, &mut out);
        out
    }

    /// Verifies the groups of every bucket in `buckets` at `at`.
    /// Returns `true` when every predicate has now matched.
    #[inline]
    fn verify(
        &self,
        record: &[u8],
        at: usize,
        mut buckets: u8,
        matched: &mut [bool],
        remaining: &mut usize,
    ) -> bool {
        while buckets != 0 {
            let b = buckets.trailing_zeros() as usize;
            buckets &= buckets - 1;
            for group in &self.groups[self.bucket_start[b]..self.bucket_start[b + 1]] {
                if group.check(record, at, matched, remaining) {
                    return true;
                }
            }
        }
        false
    }

    /// The portable target: an exact pair-bitmap test, then the nibble
    /// tables. A byte past the record end allows every bucket.
    fn scan_portable(&self, record: &[u8], matched: &mut [bool], remaining: &mut usize) {
        for at in 0..record.len() {
            if let Some(&next) = record.get(at + 1) {
                let pair = usize::from(record[at]) << 8 | usize::from(next);
                if self.pairs[pair >> 6] >> (pair & 63) & 1 == 0 {
                    continue;
                }
            }
            let mut buckets = u8::MAX;
            for (k, &b) in record[at..].iter().take(FP_LEN).enumerate() {
                buckets &= self.lo[k][usize::from(b & 15)] & self.hi[k][usize::from(b >> 4)];
            }
            if buckets != 0 && self.verify(record, at, buckets, matched, remaining) {
                return;
            }
        }
    }

    /// The AVX2 target: 32 positions per iteration. Blocks whose loads
    /// would read past the record are copied into a zero-padded buffer
    /// first, and their positions past the end are masked off.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn scan_avx2(&self, record: &[u8], matched: &mut [bool], remaining: &mut usize) {
        use std::arch::x86_64::*;
        const BLOCK: usize = 32;
        /// The bytes one block's loads read: positions `0..BLOCK`, each
        /// with its `FP_LEN` fingerprint bytes.
        const WINDOW: usize = BLOCK + FP_LEN - 1;
        let table = |t: &[u8; 16]| {
            // SAFETY: the load reads the 16 bytes of `t`.
            _mm256_broadcastsi128_si256(unsafe { _mm_loadu_si128(t.as_ptr().cast()) })
        };
        let (lo, hi) = (self.lo.map(|t| table(&t)), self.hi.map(|t| table(&t)));
        let nibble = _mm256_set1_epi8(0x0f);
        let block = |w: &[u8; WINDOW]| {
            let mut acc = _mm256_set1_epi8(-1);
            for k in 0..FP_LEN {
                // SAFETY: the load reads `w[k..k + BLOCK]`, inside `w`
                // because `k < FP_LEN`.
                let v = unsafe { _mm256_loadu_si256(w[k..].as_ptr().cast()) };
                let l = _mm256_shuffle_epi8(lo[k], _mm256_and_si256(v, nibble));
                let h =
                    _mm256_shuffle_epi8(hi[k], _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble));
                acc = _mm256_and_si256(acc, _mm256_and_si256(l, h));
            }
            acc
        };
        let n = record.len();
        let mut at = 0;
        while at < n {
            let buckets = match record.get(at..at + WINDOW) {
                Some(w) => block(w.try_into().expect("sliced to the window length")),
                None => {
                    let mut padded = [0u8; WINDOW];
                    padded[..n - at].copy_from_slice(&record[at..]);
                    block(&padded)
                }
            };
            let zero = _mm256_cmpeq_epi8(buckets, _mm256_setzero_si256());
            let mut candidates = !(_mm256_movemask_epi8(zero) as u32);
            if n - at < BLOCK {
                candidates &= (1u32 << (n - at)) - 1;
            }
            if candidates != 0 {
                let mut lanes = [0u8; BLOCK];
                // SAFETY: the store writes the 32 bytes of `lanes`.
                unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), buckets) };
                while candidates != 0 {
                    let j = candidates.trailing_zeros() as usize;
                    candidates &= candidates - 1;
                    if self.verify(record, at + j, lanes[j], matched, remaining) {
                        return;
                    }
                }
            }
            at += BLOCK;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw_eval::CompiledClause;
    use ciao_predicate::{compile_clause, parse_clause};

    fn pattern(text: &str) -> ClausePattern {
        compile_clause(&parse_clause(text).unwrap()).unwrap()
    }

    fn reference(clauses: &[ClausePattern], record: &str) -> Vec<bool> {
        clauses
            .iter()
            .map(|c| CompiledClause::new(c).is_match(record.as_bytes()))
            .collect()
    }

    #[test]
    fn one_pass_agrees_with_per_needle_loop() {
        let clauses = vec![
            pattern(r#"name = "Bob""#),
            pattern("stars = 5"),
            pattern(r#"text LIKE "%delicious%""#),
            pattern("email != NULL"),
            pattern(r#"name IN ("Alice","Carol")"#),
            pattern("isActive = true"),
        ];
        let set = PatternSet::new(&clauses);
        assert_eq!(set.predicate_count(), 6);
        let records = [
            r#"{"name":"Bob","stars":5,"text":"so delicious!"}"#,
            r#"{"name":"Alice","stars":3,"email":"a@b.c"}"#,
            r#"{"name":"Carol","isActive":true}"#,
            r#"{"stars":50,"text":"awful"}"#,
            r#"{}"#,
            "",
        ];
        for rec in records {
            assert_eq!(
                set.eval(rec.as_bytes()),
                reference(&clauses, rec),
                "record {rec:?}"
            );
        }
    }

    #[test]
    fn key_value_checks_every_key_occurrence() {
        // The nested "age" window lacks "10"; the top-level pair has
        // it. A first-occurrence-only scan would false-negative.
        let clauses = vec![pattern("age = 10")];
        let set = PatternSet::new(&clauses);
        assert_eq!(set.eval(br#"{"person":{"age":99},"age":10}"#), vec![true]);
        assert_eq!(set.eval(br#"{"person":{"age":99},"age":11}"#), vec![false]);
    }

    #[test]
    fn anchor_offset_near_record_edges() {
        // Anchor chosen inside the needle: candidate windows straddling
        // the record start/end must be rejected, not wrap or panic.
        let clauses = vec![pattern(r#"name = "Bob""#)]; // needle is "Bob" with quotes
        let set = PatternSet::new(&clauses);
        assert_eq!(set.eval(b"Bob"), vec![false]); // unquoted, partial
        assert_eq!(set.eval(br#""Bob""#), vec![true]);
        assert_eq!(set.eval(br#"Bob""#), vec![false]);
        assert_eq!(set.eval(br#""Bob"#), vec![false]);
    }

    #[test]
    fn empty_pattern_set() {
        let set = PatternSet::new(&[]);
        assert_eq!(set.predicate_count(), 0);
        assert_eq!(set.eval(b"anything"), Vec::<bool>::new());
    }

    #[test]
    fn empty_find_needle_always_matches() {
        let clauses = vec![ClausePattern {
            patterns: vec![Pattern::Find {
                needle: String::new(),
            }],
        }];
        let set = PatternSet::new(&clauses);
        assert_eq!(set.eval(b""), vec![true]);
        assert_eq!(set.eval(b"x"), vec![true]);
    }

    #[test]
    fn empty_key_falls_back_to_scalar_semantics() {
        let clause = ClausePattern {
            patterns: vec![Pattern::KeyThenValue {
                key: String::new(),
                value: "42".into(),
            }],
        };
        let set = PatternSet::new(std::iter::once(&clause));
        let reference = CompiledPattern::new(&clause.patterns[0]);
        for rec in [&b"{\"a\":42}"[..], b"{\"a\":41},42", b"", b"42"] {
            assert_eq!(
                set.eval(rec),
                vec![reference.is_match(rec)],
                "record {rec:?}"
            );
        }
    }

    #[test]
    fn early_exit_still_fills_every_predicate() {
        // All predicates match in the first few bytes — the early
        // return must leave a fully-sized, correct buffer.
        let clauses = vec![pattern(r#"name LIKE "%a%""#), pattern(r#"name LIKE "%b%""#)];
        let set = PatternSet::new(&clauses);
        let mut buf = vec![false; 99];
        set.eval_into(b"ab tail that never needs scanning", &mut buf);
        assert_eq!(buf, vec![true, true]);
    }
}
