//! # aqua-telemetry — structured tracing for the AQUA stack
//!
//! Every figure in the paper is a claim about *when* things happen: when a
//! transfer hits a link, when a lease is granted or reclaimed, when a CFS
//! slice runs. This crate gives the whole workspace one vocabulary for those
//! moments ([`TraceEvent`]), one injection point ([`Tracer`], carried as a
//! [`SharedTracer`] and defaulting to the zero-overhead [`NullTracer`]), and
//! two consumers:
//!
//! * [`JournalTracer`] — buffers events, serialises them as JSONL, and folds
//!   every canonical line into a rolling 64-bit FNV-1a **determinism
//!   digest**, so "same seed ⇒ same behaviour" is a single `u64` comparison.
//! * [`chrome::chrome_trace`] — renders a journal as Chrome/Perfetto
//!   trace-event JSON (`pid` = server, `tid` = link lane or engine, duration
//!   events for transfers/slices, counter tracks for each gateway's queue and
//!   batch, replayed from its edges by [`levels::gateway_levels`]) for
//!   loading into `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! The crate sits at the bottom of the workspace dependency graph and also
//! owns the [`time`] module ([`time::SimTime`] / [`time::SimDuration`]),
//! which `aqua-sim` re-exports; events are stamped with simulated time, not
//! wall-clock time.
//!
//! # Example
//!
//! ```
//! use aqua_telemetry::time::SimTime;
//! use aqua_telemetry::{trace, JournalTracer, SharedTracer, TraceEvent, Tracer};
//! use std::sync::Arc;
//!
//! let journal = Arc::new(JournalTracer::new());
//! let tracer: SharedTracer = journal.clone();
//! trace!(tracer, TraceEvent::LeaseGranted {
//!     producer: "s0/gpu1".into(),
//!     lease: 1,
//!     bytes: 1 << 30,
//!     at: SimTime::from_secs(3),
//! });
//! assert_eq!(journal.len(), 1);
//! let chrome = journal.to_chrome_trace();
//! assert!(chrome.contains("traceEvents"));
//! ```

#![warn(missing_docs)]

pub mod chrome;
mod encode;
pub mod event;
pub mod json;
pub mod levels;
pub mod time;
pub mod tracer;

pub use event::{Lane, TraceEvent};
pub use tracer::{fnv1a, null_tracer, JournalTracer, NullTracer, SharedTracer, Tracer};
