//! One journal-line encoder, two sinks.
//!
//! [`TraceEvent`](crate::TraceEvent)'s generated `encode_into` walks an
//! event's fields once and hands every piece of its canonical line to a
//! [`Sink`]. The `String` sink renders the line (the JSONL export, Chrome
//! `args` and the golden tests); the [`Fnv`] sink folds the very same bytes
//! into the determinism digest without ever materialising them, so the
//! digest and the journal cannot disagree.
//!
//! # Skipping constant bytes
//!
//! FNV-1a folds a byte `b` into the state `h` as `(h ^ b)·P` (mod 2⁶⁴).
//! XOR with a byte changes only the low byte, so with `l = h mod 256`,
//! `h ^ b = h + δ(l, b)` where `δ(l, b) = (l ^ b) − l`, and one step is
//! `h·P + δ(l, b)·P`. The next low byte, `((l ^ b)·P) mod 256`, depends on
//! `l` and `b` alone. By induction over a fixed byte string `s` of length
//! `n` (DESIGN.md §6 spells it out), for every state `h`:
//!
//! ```text
//! fnv1a(h, s) = h·Pⁿ + K_s[h mod 256]        (mod 2⁶⁴)
//! ```
//!
//! Setting the high bits of `h` to zero gives the table:
//! `K_s[l] = fnv1a(l, s) − l·Pⁿ`. A [`Skip`] carries `Pⁿ` and its 256-entry
//! `K_s`, so the [`Fnv`] sink folds the whole string in one multiply, one
//! load and one add.
//!
//! Two kinds of string get tables: each event's constant prefix
//! (`{"event":"<name>","<first key>":`), and each interned label's quoted
//! JSON string. Each such string has a [`Hot`] cell (one per event variant,
//! one per [`Lane`]) that folds it byte by byte until it has been folded
//! [`HOT_FOLDS`] times, then asks the one process-wide cache, keyed by the
//! string's bytes, for its table ([`cached_skip`]). The cache holds at most
//! [`SKIP_CAP`] tables, so only strings a run actually repeats pay the
//! table's 2 KiB, and its memory is bounded. Later keys, digits and other
//! strings are folded byte by byte: a short key's table lookup misses the
//! cache about as often as it saves steps.

use crate::event::Lane;
use crate::json::{escape_byte, escape_into};
use crate::time::SimTime;
use crate::tracer::{fnv1a, FNV_PRIME};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

/// The FNV-1a skip table of one fixed byte string.
pub(crate) struct Skip {
    /// `Pⁿ` for the string's length `n`.
    scale: u64,
    /// `fnv1a(l, s) − l·Pⁿ` for every low byte `l` of the state.
    offset: [u64; 256],
}

impl Skip {
    /// Builds the table of `bytes`.
    pub(crate) fn new(bytes: &[u8]) -> Self {
        let scale = bytes.iter().fold(1u64, |p, _| p.wrapping_mul(FNV_PRIME));
        let mut offset = [0u64; 256];
        for (low, k) in (0u64..).zip(&mut offset) {
            *k = fnv1a(low, bytes).wrapping_sub(low.wrapping_mul(scale));
        }
        Skip { scale, offset }
    }

    /// `fnv1a(hash, s)` in O(1).
    #[inline]
    pub(crate) fn fold(&self, hash: u64) -> u64 {
        hash.wrapping_mul(self.scale)
            .wrapping_add(self.offset[(hash & 0xff) as usize])
    }
}

/// Where an encoder's bytes go. Every byte of a canonical line arrives
/// through exactly one of these calls.
pub(crate) trait Sink {
    /// Appends a constant `text`, whose [`Hot`] cell is `hot`.
    fn literal(&mut self, text: &'static str, hot: &'static Hot);
    /// Appends ASCII bytes as they are (digits, punctuation, keys).
    fn ascii(&mut self, bytes: &[u8]);
    /// Appends `s` as a quoted JSON string, escaped.
    fn escaped(&mut self, s: &str);
    /// Appends an interned label as a quoted JSON string, escaped.
    fn interned(&mut self, label: &Lane);
}

/// The text sink: the canonical line itself.
impl Sink for String {
    fn literal(&mut self, text: &'static str, _hot: &'static Hot) {
        self.push_str(text);
    }

    fn ascii(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.is_ascii());
        self.extend(bytes.iter().map(|&b| char::from(b)));
    }

    fn escaped(&mut self, s: &str) {
        self.push('"');
        escape_into(self, s);
        self.push('"');
    }

    fn interned(&mut self, label: &Lane) {
        self.escaped(label);
    }
}

/// The digest sink: a rolling FNV-1a state the line's bytes fold into.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(pub(crate) u64);

impl Sink for Fnv {
    // One out-of-line copy: inlined, the byte-by-byte fallback would be
    // unrolled over each constant in every arm of the encoder.
    #[inline(never)]
    fn literal(&mut self, text: &'static str, hot: &'static Hot) {
        self.0 = match hot.skip(|bytes| bytes.push_str(text)) {
            Some(skip) => skip.fold(self.0),
            None => fnv1a(self.0, text.as_bytes()),
        };
    }

    #[inline]
    fn ascii(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    fn escaped(&mut self, s: &str) {
        let mut hash = fnv1a(self.0, b"\"");
        for &b in s.as_bytes() {
            hash = match escape_byte(b) {
                None => (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME),
                Some(escape) => fnv1a(hash, escape),
            };
        }
        self.0 = fnv1a(hash, b"\"");
    }

    #[inline]
    fn interned(&mut self, label: &Lane) {
        match label.hot().skip(|bytes| bytes.escaped(label)) {
            Some(skip) => self.0 = skip.fold(self.0),
            None => self.escaped(label),
        }
    }
}

/// Folds after which a string asks the cache for its table, so strings
/// that appear a handful of times never take a slot.
const HOT_FOLDS: u32 = 64;

/// Tables the cache holds; later strings fold byte by byte. Each table is
/// 2 KiB, so the cap bounds the cache at 128 KiB.
const SKIP_CAP: usize = 64;

/// How often one fixed string has been folded, and its table once hot.
pub(crate) struct Hot {
    /// Folds so far, counted up to [`HOT_FOLDS`].
    folds: AtomicU32,
    /// The table from [`cached_skip`]: `None` when the cache was full.
    skip: OnceLock<Option<&'static Skip>>,
}

impl Hot {
    /// A cell that has folded nothing yet.
    pub(crate) const fn new() -> Self {
        Hot {
            folds: AtomicU32::new(0),
            skip: OnceLock::new(),
        }
    }

    /// The skip table of the string `write` renders, once this cell has
    /// been asked [`HOT_FOLDS`] times and the cache had or made room for
    /// it; `None` before, and for good when the cache is full.
    #[inline]
    fn skip(&self, write: impl Fn(&mut String)) -> Option<&'static Skip> {
        match self.skip.get() {
            Some(&skip) => skip,
            None => self.warm(&write),
        }
    }

    /// Counts one more fold of a string that has no table yet, and looks
    /// the table up on the [`HOT_FOLDS`]th.
    #[cold]
    fn warm(&self, write: &dyn Fn(&mut String)) -> Option<&'static Skip> {
        // A relaxed load and store, not an atomic add: a lost count only
        // delays the lookup.
        let folds = self.folds.load(Ordering::Relaxed) + 1;
        self.folds.store(folds, Ordering::Relaxed);
        if folds < HOT_FOLDS {
            return None;
        }
        *self.skip.get_or_init(|| {
            let mut bytes = String::new();
            write(&mut bytes);
            cached_skip(bytes)
        })
    }
}

/// The skip table of `bytes`, from the one process-wide cache keyed by
/// them: made on the first request while fewer than [`SKIP_CAP`] strings
/// have one, `None` after. Every [`Hot`] cell of the same string shares it.
fn cached_skip(bytes: String) -> Option<&'static Skip> {
    /// The tables, filled in order; a slot's pages stay untouched until
    /// its table is written.
    static TABLES: [OnceLock<Skip>; SKIP_CAP] = [const { OnceLock::new() }; SKIP_CAP];
    /// Each cached string's slot in `TABLES`.
    static SLOTS: Mutex<BTreeMap<String, usize>> = Mutex::new(BTreeMap::new());
    let mut slots = SLOTS
        .lock()
        .expect("a panicking lookup poisoned the skip-table cache");
    if let Some(&slot) = slots.get(&bytes) {
        return TABLES[slot].get();
    }
    if slots.len() == SKIP_CAP {
        return None;
    }
    let slot = slots.len();
    let skip = TABLES[slot].get_or_init(|| Skip::new(bytes.as_bytes()));
    slots.insert(bytes, slot);
    Some(skip)
}

/// A field type of the event table: how its value is written into the
/// canonical journal line (and into a Chrome entry's `args`).
pub(crate) trait Field {
    /// Writes the value's JSON encoding to `out`.
    fn encode<S: Sink>(&self, out: &mut S);
}

/// `"00"` through `"99"`, so digits are written two at a time.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// The decimal digits of `v`, written back to front into `buf`, two at a
/// time (a journal line holds several integers, and `fmt` costs more than
/// the digits).
fn digits(buf: &mut [u8; 20], mut v: u64) -> &[u8] {
    let mut start = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        start -= 2;
        buf[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        buf[start] = b'0' + v as u8;
    }
    &buf[start..]
}

impl Field for u64 {
    #[inline]
    fn encode<S: Sink>(&self, out: &mut S) {
        out.ascii(digits(&mut [0; 20], *self));
    }
}

impl Field for u32 {
    #[inline]
    fn encode<S: Sink>(&self, out: &mut S) {
        u64::from(*self).encode(out);
    }
}

/// Times are integer nanoseconds.
impl Field for SimTime {
    #[inline]
    fn encode<S: Sink>(&self, out: &mut S) {
        self.as_nanos().encode(out);
    }
}

impl Field for str {
    #[inline]
    fn encode<S: Sink>(&self, out: &mut S) {
        out.escaped(self);
    }
}

impl Field for String {
    #[inline]
    fn encode<S: Sink>(&self, out: &mut S) {
        out.escaped(self);
    }
}

impl Field for Lane {
    #[inline]
    fn encode<S: Sink>(&self, out: &mut S) {
        out.interned(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::FNV_OFFSET;

    /// SplitMix64: a seeded stream for the property loops below.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// The skip identity `fnv1a(h, s) = h·Pⁿ + K_s[h mod 256]` over strings
    /// of every length 0..=64 and every byte value (alone, and first and
    /// last in a run), each from 256 states whose low bytes cover 0..=255
    /// under random high bits.
    #[test]
    fn skip_table_folds_like_the_byte_loop() {
        let mut rng = Stream(0x5eed_0042);
        let mut strings: Vec<Vec<u8>> = (0..=64)
            .map(|n| (0..n).map(|_| rng.next() as u8).collect())
            .collect();
        for b in 0..=255u8 {
            strings.push(vec![b]);
            strings.push(vec![b, b'"', 0x80, b]);
        }
        for bytes in strings {
            let skip = Skip::new(&bytes);
            for low in 0..256u64 {
                let hash = (rng.next() & !0xff) | low;
                assert_eq!(
                    skip.fold(hash),
                    fnv1a(hash, &bytes),
                    "bytes {bytes:?}, state {hash:#x}"
                );
            }
        }
    }

    /// A label folds byte by byte until it is hot, then by the shared
    /// table; every fold lands where hashing its rendered string does, and
    /// a second label with the same text gets the same table.
    #[test]
    fn hot_labels_fold_like_their_text() {
        for text in ["nvlink-egress:gpu0", "scope \"q\"\u{1}\\ ✓", ""] {
            let mut json = String::new();
            json.escaped(text);
            let [label, twin] = [Lane::from(text), Lane::from(text)];
            for lane in [&label, &twin] {
                for state in 0..2 * u64::from(HOT_FOLDS) {
                    let state = state.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let mut fnv = Fnv(state);
                    fnv.interned(lane);
                    assert_eq!(
                        fnv.0,
                        fnv1a(state, json.as_bytes()),
                        "{text:?} from {state:#x}"
                    );
                }
            }
            let tables = [&label, &twin].map(|lane| lane.hot().skip.get().copied().flatten());
            let [Some(a), Some(b)] = tables else {
                panic!("{text:?} never got a table");
            };
            assert!(std::ptr::eq(a, b), "{text:?} has two tables");
        }
    }

    #[test]
    fn digits_match_display_at_every_width() {
        let mut values = vec![0, 9, 10, 99, 100, 101, u64::MAX];
        for p in 1..20 {
            let ten = 10u64.pow(p);
            values.extend([ten - 1, ten, ten + 1]);
        }
        let mut rng = Stream(7);
        values.extend((0..10_000).map(|_| rng.next() >> (rng.next() % 64)));
        for v in values {
            assert_eq!(digits(&mut [0; 20], v), v.to_string().as_bytes());
        }
    }

    /// Every escaped byte and clean runs around it hash as the text sink
    /// renders them.
    #[test]
    fn fnv_escaped_matches_the_rendered_string() {
        for b in 0u8..0x80 {
            let c = char::from(b);
            for s in [c.to_string(), format!("lane{c}"), format!("{c}gpu0✓{c}")] {
                let mut text = String::new();
                text.escaped(&s);
                let mut fnv = Fnv(FNV_OFFSET);
                fnv.escaped(&s);
                assert_eq!(fnv.0, fnv1a(FNV_OFFSET, text.as_bytes()), "byte {b:#04x}");
            }
        }
    }
}
