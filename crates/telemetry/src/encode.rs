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
//! Each event's constant prefix (`{"event":"<name>","<first key>":`, a
//! quarter of a journal's bytes) has one table, in a `static` of its row's
//! arm of the generated encoder, built the first time the digest folds that
//! event. Everything else (keys, digits, and label strings, interned or not)
//! is folded byte by byte: labels are a seventh of the bytes, and their
//! tables measured no faster than the loop (DESIGN.md §6).

use crate::event::Lane;
use crate::json::{escape_byte, escape_into};
use crate::time::SimTime;
use crate::tracer::{fnv1a, FNV_PRIME};
use std::sync::OnceLock;

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
    /// Appends an event's constant prefix `text`, whose skip table `skip`
    /// is built on first use.
    fn prefix(&mut self, text: &'static str, skip: &'static OnceLock<Skip>);
    /// Appends ASCII bytes as they are (digits, punctuation, keys).
    fn ascii(&mut self, bytes: &[u8]);
    /// Appends `s` as a quoted JSON string, escaped.
    fn escaped(&mut self, s: &str);
}

/// The text sink: the canonical line itself.
impl Sink for String {
    fn prefix(&mut self, text: &'static str, _skip: &'static OnceLock<Skip>) {
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
}

/// The digest sink: a rolling FNV-1a state the line's bytes fold into.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(pub(crate) u64);

impl Sink for Fnv {
    #[inline]
    fn prefix(&mut self, text: &'static str, skip: &'static OnceLock<Skip>) {
        self.0 = skip.get_or_init(|| Skip::new(text.as_bytes())).fold(self.0);
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
        out.escaped(self);
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
