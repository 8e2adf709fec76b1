//! `AQUA_TRACE` wiring: one process-wide tracer for `aqua-repro` runs.
//!
//! Every experiment builds its simulated server through [`ServerCtx`], which
//! asks this module for the process tracer. By default that is the
//! [`NullTracer`](aqua_telemetry::NullTracer) and instrumentation costs one
//! branch per event. Setting `AQUA_TRACE=<path>` switches the process to a
//! shared [`JournalTracer`]; calling [`finish`] at the end of a run then
//! writes
//!
//! * `<path>` — a Chrome trace (load it at `chrome://tracing` or
//!   <https://ui.perfetto.dev>),
//! * `<path>.jsonl` — the canonical JSONL journal,
//!
//! and prints the journal's determinism digest.
//!
//! ```console
//! $ AQUA_TRACE=/tmp/fig09.json cargo run --release -p aqua-bench --bin aqua-repro -- fig09
//! ```
//!
//! [`ServerCtx`]: crate::setup::ServerCtx

use aqua_telemetry::{null_tracer, JournalTracer, SharedTracer};
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

static JOURNAL: OnceLock<Option<Arc<JournalTracer>>> = OnceLock::new();

thread_local! {
    /// Per-thread journal override, installed by [`with_tracer`]. Sweep
    /// workers use this to give every experiment point its own journal
    /// without threading a tracer through every `run(...)` signature.
    static OVERRIDE: RefCell<Option<Arc<JournalTracer>>> = const { RefCell::new(None) };
}

/// Runs `f` with `journal` installed as this thread's tracer: every
/// [`tracer()`] call made by `f` (including deep inside `ServerCtx`
/// construction) returns `journal` instead of the process-wide `AQUA_TRACE`
/// journal. The previous override (if any) is restored afterwards, even on
/// panic, so nested scopes compose.
pub fn with_tracer<R>(journal: Arc<JournalTracer>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<JournalTracer>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            OVERRIDE.with(|o| *o.borrow_mut() = prev);
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.borrow_mut().replace(journal)));
    f()
}

/// The journal events currently land in, if any: this thread's
/// [`with_tracer`] override first, else the process `AQUA_TRACE` capture.
fn active_journal() -> Option<Arc<JournalTracer>> {
    if let Some(j) = OVERRIDE.with(|o| o.borrow().clone()) {
        return Some(j);
    }
    journal().cloned()
}

/// The journal backing `AQUA_TRACE`, if the variable is set.
pub fn journal() -> Option<&'static Arc<JournalTracer>> {
    JOURNAL
        .get_or_init(|| std::env::var_os("AQUA_TRACE").map(|_| Arc::new(JournalTracer::new())))
        .as_ref()
}

/// The tracer instrumented code should use: the thread's [`with_tracer`]
/// override when one is active, else the `AQUA_TRACE` journal when enabled,
/// else the zero-overhead null tracer.
pub fn tracer() -> SharedTracer {
    match active_journal() {
        Some(j) => j as SharedTracer,
        None => null_tracer(),
    }
}

/// Writes the collected trace to the `AQUA_TRACE` path (Chrome format, plus
/// the canonical journal at `<path>.jsonl`) and prints the determinism
/// digest. A no-op when `AQUA_TRACE` is unset.
pub fn finish() {
    let Some(journal) = journal() else { return };
    let Some(path) = std::env::var_os("AQUA_TRACE") else {
        return;
    };
    let path = std::path::PathBuf::from(path);
    let jsonl = path.with_extension(match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{ext}.jsonl"),
        None => "jsonl".to_owned(),
    });
    if let Err(e) = journal.write_chrome_trace(&path) {
        eprintln!("AQUA_TRACE: failed to write {}: {e}", path.display());
        return;
    }
    if let Err(e) = journal.write_jsonl(&jsonl) {
        eprintln!("AQUA_TRACE: failed to write {}: {e}", jsonl.display());
        return;
    }
    eprintln!(
        "AQUA_TRACE: {} events → {} (chrome) + {} (journal), digest {:016x}",
        journal.len(),
        path.display(),
        jsonl.display(),
        journal.digest()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_telemetry::time::SimTime;
    use aqua_telemetry::TraceEvent;

    #[test]
    fn tracer_defaults_to_null_without_env() {
        // Cargo test runs without AQUA_TRACE; the process tracer must be the
        // no-op tracer and finish() must be a no-op.
        if std::env::var_os("AQUA_TRACE").is_none() {
            assert!(!tracer().enabled());
            finish();
        }
    }

    #[test]
    fn with_tracer_overrides_then_restores() {
        let inner = Arc::new(JournalTracer::digest_only());
        let outer = Arc::new(JournalTracer::digest_only());
        let mark = || {
            tracer().emit(TraceEvent::ReclaimRequested {
                producer: "s0/gpu1".into(),
                at: SimTime::ZERO,
            })
        };
        with_tracer(outer.clone(), || {
            assert!(tracer().enabled(), "override is active");
            mark();
            with_tracer(inner.clone(), mark);
            // The outer override survives the nested scope.
            mark();
        });
        assert_eq!((outer.len(), inner.len()), (2, 1));
        if std::env::var_os("AQUA_TRACE").is_none() {
            assert!(!tracer().enabled(), "override removed after the scope");
        }
    }

    #[test]
    fn with_tracer_restores_on_panic() {
        let j = Arc::new(JournalTracer::digest_only());
        let caught = std::panic::catch_unwind(|| with_tracer(j.clone(), || panic!("boom")));
        assert!(caught.is_err());
        if std::env::var_os("AQUA_TRACE").is_none() {
            assert!(!tracer().enabled());
        }
    }
}
