//! The [`Tracer`] trait and its two implementations.
//!
//! Instrumented code holds a [`SharedTracer`] (an `Arc<dyn Tracer>`) that
//! defaults to [`NullTracer`]. The [`trace!`](crate::trace) macro guards
//! event construction behind [`Tracer::enabled`], so with the null tracer no
//! event is ever built — no strings, no allocation, just one virtual call
//! returning `false`.
//!
//! [`JournalTracer`] buffers every event, folds its canonical JSON line into
//! a rolling 64-bit FNV-1a digest straight from the event's fields (no line
//! is rendered; see [`TraceEvent::fold_digest`]), and can serialise the
//! journal as JSONL or as a Chrome trace. The digest makes
//! "did these two runs do exactly the same thing?" a single `u64` comparison.

use crate::chrome::chrome_trace;
use crate::event::TraceEvent;
use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// A sink for structured trace events.
///
/// Implementations must be cheap when disabled: callers consult
/// [`Tracer::enabled`] (usually via the [`trace!`](crate::trace) macro)
/// before building an event.
pub trait Tracer: fmt::Debug + Send + Sync {
    /// Whether [`Tracer::emit`] does anything. Callers skip event
    /// construction entirely when this is `false`.
    fn enabled(&self) -> bool;

    /// Records one event.
    fn emit(&self, event: TraceEvent);

    /// Adds `delta` to a named monotonic counter. Nothing in the workspace
    /// counts this way (each count lives on its component or in the
    /// journal), so the default does nothing; the benchmark's timing
    /// wrapper still forwards it.
    fn incr(&self, _counter: &str, _delta: u64) {}

    /// Sets a named gauge to `value`. Nothing in the workspace keeps
    /// levels this way (the journal holds the edges that move a level, and
    /// [`crate::levels::gateway_levels`] replays them), so the default does
    /// nothing; the benchmark's timing wrapper still forwards it.
    fn gauge(&self, _gauge: &str, _value: f64) {}
}

/// The shared handle instrumented code stores.
pub type SharedTracer = Arc<dyn Tracer>;

/// Emits an event through a tracer only if the tracer is enabled.
///
/// The event expression is not evaluated when tracing is off, which is what
/// makes the [`NullTracer`](crate::tracer::NullTracer) default genuinely
/// zero-overhead on hot paths.
///
/// # Example
///
/// ```
/// use aqua_telemetry::{trace, null_tracer, TraceEvent};
/// use aqua_telemetry::time::SimTime;
/// let tracer = null_tracer();
/// trace!(tracer, TraceEvent::ReclaimRequested {
///     producer: "s0/gpu1".into(),
///     at: SimTime::ZERO,
/// });
/// ```
#[macro_export]
macro_rules! trace {
    ($tracer:expr, $event:expr) => {
        if $tracer.enabled() {
            $tracer.emit($event);
        }
    };
}

/// The do-nothing default tracer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn emit(&self, _event: TraceEvent) {}
}

/// A shared handle to the (stateless) null tracer.
pub fn null_tracer() -> SharedTracer {
    static NULL: OnceLock<SharedTracer> = OnceLock::new();
    Arc::clone(NULL.get_or_init(|| Arc::new(NullTracer)))
}

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a rolling 64-bit FNV-1a hash.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[derive(Debug)]
struct Journal {
    events: Vec<TraceEvent>,
    digest: u64,
    emitted: usize,
}

impl Journal {
    fn new() -> Self {
        Journal {
            events: Vec::new(),
            digest: FNV_OFFSET,
            emitted: 0,
        }
    }
}

/// A tracer that buffers every event and maintains a determinism digest.
///
/// # Example
///
/// ```
/// use aqua_telemetry::{JournalTracer, Tracer, TraceEvent};
/// use aqua_telemetry::time::SimTime;
/// let journal = JournalTracer::new();
/// journal.emit(TraceEvent::Donated {
///     gpu: "s0/gpu1".into(),
///     bytes: 1 << 30,
///     at: SimTime::from_secs(2),
/// });
/// assert_eq!(journal.len(), 1);
/// assert_ne!(journal.digest(), JournalTracer::new().digest());
/// ```
#[derive(Debug)]
pub struct JournalTracer {
    inner: Mutex<Journal>,
    keep_events: bool,
}

impl Default for JournalTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl JournalTracer {
    /// Creates an empty journal.
    pub fn new() -> Self {
        JournalTracer {
            inner: Mutex::new(Journal::new()),
            keep_events: true,
        }
    }

    /// Creates a journal that folds every event into the determinism digest
    /// but does not buffer the events themselves. Sweep workers use this to
    /// prove schedule-independence without holding millions of events per
    /// point; [`JournalTracer::events`] returns an empty vector.
    pub fn digest_only() -> Self {
        JournalTracer {
            inner: Mutex::new(Journal::new()),
            keep_events: false,
        }
    }

    /// Number of events emitted so far (buffered or digest-only).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().emitted
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rolling FNV-1a digest over every canonical event line emitted so
    /// far. Equal digests mean byte-identical journals.
    pub fn digest(&self) -> u64 {
        self.inner.lock().unwrap().digest
    }

    /// A snapshot of the buffered events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().unwrap().events.clone()
    }

    /// Serialises the journal as JSON Lines (one canonical object per event).
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock().unwrap();
        let mut out = String::new();
        for e in &inner.events {
            e.write_json_line(&mut out);
            out.push('\n');
        }
        out
    }

    /// Renders the journal as a Chrome trace-event JSON document.
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace(&self.inner.lock().unwrap().events)
    }

    /// Writes the JSONL journal to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())
    }

    /// Writes the Chrome trace to `path`.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_chrome_trace().as_bytes())
    }
}

impl Tracer for JournalTracer {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, event: TraceEvent) {
        let mut guard = self
            .inner
            .lock()
            .expect("a panicking emit poisoned the journal");
        let inner = &mut *guard;
        inner.digest = event.fold_digest(inner.digest);
        inner.emitted += 1;
        if self.keep_events {
            inner.events.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use std::cell::Cell;

    fn sample(at: u64) -> TraceEvent {
        TraceEvent::ReclaimRequested {
            producer: "s0/gpu1".into(),
            at: SimTime::from_nanos(at),
        }
    }

    #[test]
    fn digest_matches_recomputed_fnv_over_jsonl() {
        let j = JournalTracer::new();
        j.emit(sample(1));
        j.emit(sample(2));
        assert_eq!(j.digest(), fnv1a(FNV_OFFSET, j.to_jsonl().as_bytes()));
    }

    #[test]
    fn same_events_same_digest_different_events_differ() {
        let a = JournalTracer::new();
        let b = JournalTracer::new();
        a.emit(sample(1));
        b.emit(sample(1));
        assert_eq!(a.digest(), b.digest());
        b.emit(sample(2));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_only_matches_buffering_journal() {
        let full = JournalTracer::new();
        let lean = JournalTracer::digest_only();
        for at in 1..=5 {
            full.emit(sample(at));
            lean.emit(sample(at));
        }
        assert_eq!(full.digest(), lean.digest());
        assert_eq!(full.len(), lean.len());
        assert_eq!(full.events().len(), 5);
        assert!(lean.events().is_empty(), "digest-only buffers nothing");
        assert!(!lean.is_empty(), "but it still counts emissions");
    }

    #[test]
    fn event_order_changes_the_digest() {
        let a = JournalTracer::new();
        a.emit(sample(1));
        a.emit(sample(2));
        let b = JournalTracer::new();
        b.emit(sample(2));
        b.emit(sample(1));
        assert_ne!(a.digest(), b.digest());
    }

    /// A tracer that aborts the test if anything is ever emitted.
    #[derive(Debug)]
    struct PanicTracer;

    impl Tracer for PanicTracer {
        fn enabled(&self) -> bool {
            false
        }

        fn emit(&self, _event: TraceEvent) {
            panic!("disabled tracer received an event");
        }
    }

    #[test]
    fn trace_macro_skips_event_construction_when_disabled() {
        // The event expression must not be evaluated — no allocation, no
        // side effects — when the tracer reports disabled. The Cell proves
        // the closure body never ran; PanicTracer proves emit was never hit.
        let built = Cell::new(false);
        let tracer = PanicTracer;
        crate::trace!(tracer, {
            built.set(true);
            sample(1)
        });
        assert!(!built.get(), "event was constructed despite tracing off");

        let null = null_tracer();
        assert!(!null.enabled());
        crate::trace!(null, {
            built.set(true);
            sample(1)
        });
        assert!(!built.get());
    }
}
