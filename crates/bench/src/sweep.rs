//! # aqua-sweep — deterministic parallel experiment fan-out
//!
//! The paper's evaluation is ~17 independent experiments, each itself a
//! sweep over independent points (request rates, tensor sizes, batch
//! splits, seeds). Points never share simulator state — every one builds
//! its own topology, engines and event queue — so they are embarrassingly
//! parallel. [`Sweep`] fans them out across `--jobs N` worker threads with
//! a work-stealing index counter (`std::thread::scope` + one `AtomicUsize`;
//! no rayon) and collects results **in input order**, so the output of a
//! parallel run is byte-identical to a sequential one.
//!
//! Determinism is not assumed, it is *measured*: each point runs under its
//! own digest-only [`JournalTracer`] (installed thread-locally via
//! [`trace::with_tracer`]), and the per-point
//! FNV-1a digests are folded **in point order** into a combined digest.
//! Worker scheduling can change which thread runs a point and in what wall
//! order, but never the combined digest — if it does, the simulation leaked
//! nondeterminism (wall-clock, global state, unseeded RNG) and
//! [`SweepResult::combined_digest`] catches it as a single `u64` mismatch.
//!
//! # Example
//!
//! ```
//! use aqua_bench::sweep::Sweep;
//!
//! let points = vec![1u64, 2, 3, 4];
//! let seq = Sweep::new().run(&points, |p| p * 10);
//! let par = Sweep::new().jobs(4).run(&points, |p| p * 10);
//! assert_eq!(seq.combined_digest(), par.combined_digest());
//! assert_eq!(seq.results(), vec![10, 20, 30, 40]);
//! ```

use crate::trace;
use aqua_telemetry::tracer::FNV_OFFSET;
use aqua_telemetry::{fnv1a, JournalTracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One completed sweep point: the experiment's return value plus the
/// telemetry evidence that it ran deterministically.
#[derive(Debug, Clone)]
pub struct SweepPoint<R> {
    /// Whatever the point's closure returned (typically a rendered table).
    pub result: R,
    /// FNV-1a determinism digest of every trace event the point emitted.
    pub digest: u64,
    /// Number of trace events folded into [`SweepPoint::digest`].
    pub events: usize,
    /// Wall time this point took on its worker thread.
    pub wall: Duration,
}

/// All points of a sweep, in input order, plus run-level accounting.
#[derive(Debug, Clone)]
pub struct SweepResult<R> {
    /// Completed points, index-aligned with the input slice.
    pub points: Vec<SweepPoint<R>>,
    /// Wall time of the whole fan-out (slowest worker, not sum of points).
    pub wall: Duration,
    /// Worker threads actually used.
    pub jobs: usize,
}

impl<R> SweepResult<R> {
    /// Folds the per-point digests, **in input order**, into one digest.
    ///
    /// Because the fold order is the input order — not the order workers
    /// happened to finish in — the combined digest is schedule-independent:
    /// `--jobs 1` and `--jobs 8` must produce the same value, and a mismatch
    /// means a point's behaviour depended on something outside its inputs.
    pub fn combined_digest(&self) -> u64 {
        self.points
            .iter()
            .fold(FNV_OFFSET, |h, p| fnv1a(h, &p.digest.to_le_bytes()))
    }

    /// Total trace events across all points.
    pub fn total_events(&self) -> usize {
        self.points.iter().map(|p| p.events).sum()
    }

    /// Consumes the sweep, returning just the per-point results in input
    /// order.
    pub fn results(self) -> Vec<R> {
        self.points.into_iter().map(|p| p.result).collect()
    }
}

/// A deterministic parallel runner for independent experiment points.
///
/// Construction is a builder: [`Sweep::new`] is sequential, [`Sweep::jobs`]
/// sets the worker count, and [`Sweep::passthrough`] disables the per-point
/// journals so events flow to the ambient (`AQUA_TRACE`) tracer instead —
/// passthrough forces sequential execution, because a single shared journal
/// would interleave events in worker-scheduling order.
#[derive(Debug, Clone)]
pub struct Sweep {
    jobs: usize,
    passthrough: bool,
}

impl Default for Sweep {
    fn default() -> Self {
        Self::new()
    }
}

impl Sweep {
    /// A sequential sweep (one worker, per-point digests still collected).
    pub fn new() -> Self {
        Sweep {
            jobs: 1,
            passthrough: false,
        }
    }

    /// Sets the number of worker threads. `0` is treated as `1`; the
    /// effective count never exceeds the number of points.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Routes events to the ambient tracer instead of per-point journals,
    /// and forces sequential execution so the shared journal stays in
    /// deterministic event order. Used when `AQUA_TRACE` asks for one
    /// process-wide Chrome trace; per-point digests read as 0 events.
    pub fn passthrough(mut self) -> Self {
        self.passthrough = true;
        self.jobs = 1;
        self
    }

    /// Like [`Sweep::run`], but workers claim points in descending `weight`
    /// order (longest-processing-time-first). Results — and the combined
    /// digest fold — stay in **input order**, so output and digests are
    /// identical to a plain [`Sweep::run`]; only the packing changes. Use
    /// when one point dwarfs the rest (the 128-GPU placer solve): starting
    /// it first stops it from becoming the tail of the schedule.
    ///
    /// Weights are relative cost hints; ties execute in input order, so the
    /// claim order is deterministic. Passthrough mode ignores the hint — a
    /// shared ambient journal wants the natural input order.
    pub fn run_weighted<P, R, F, W>(&self, points: &[P], weight: W, f: F) -> SweepResult<R>
    where
        P: Sync,
        R: Send,
        F: Fn(&P) -> R + Sync,
        W: Fn(&P) -> u64,
    {
        let mut order: Vec<usize> = (0..points.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(weight(&points[i])), i));
        if self.passthrough || order.iter().enumerate().all(|(k, &i)| k == i) {
            return self.run(points, f);
        }
        let exec: Vec<&P> = order.iter().map(|&i| &points[i]).collect();
        let mut result = self.run(&exec, |p| f(*p));
        let mut slots: Vec<Option<SweepPoint<R>>> =
            std::iter::repeat_with(|| None).take(points.len()).collect();
        for (k, done) in result.points.drain(..).enumerate() {
            slots[order[k]] = Some(done);
        }
        result.points = slots
            .into_iter()
            .map(|s| s.expect("permutation is a bijection"))
            .collect();
        result
    }

    /// Runs `f` once per point, fanning across the configured workers, and
    /// returns the points **in input order** regardless of which worker
    /// finished first.
    ///
    /// `f` must derive everything from its point argument (and process-wide
    /// constants): any dependence on wall-clock, worker identity or shared
    /// mutable state shows up as a [`SweepResult::combined_digest`] mismatch
    /// between job counts.
    pub fn run<P, R, F>(&self, points: &[P], f: F) -> SweepResult<R>
    where
        P: Sync,
        R: Send,
        F: Fn(&P) -> R + Sync,
    {
        let t0 = Instant::now();
        let jobs = if self.passthrough {
            1
        } else {
            self.jobs.min(points.len()).max(1)
        };
        if jobs <= 1 {
            let points = points
                .iter()
                .map(|p| run_point(&f, p, self.passthrough))
                .collect();
            return SweepResult {
                points,
                wall: t0.elapsed(),
                jobs: 1,
            };
        }

        // Work stealing: one shared cursor; each worker claims the next
        // unclaimed index until the list is drained. Results land in
        // index-addressed slots, so completion order never matters.
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<SweepPoint<R>>>> =
            (0..points.len()).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(point) = points.get(i) else { break };
                    let done = run_point(&f, point, false);
                    *slots[i].lock().expect("slot lock") = Some(done);
                });
            }
        });
        let points = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("every claimed point completes before scope exit")
            })
            .collect();
        SweepResult {
            points,
            wall: t0.elapsed(),
            jobs,
        }
    }
}

/// Runs one point under its own digest-only journal (or the ambient tracer
/// in passthrough mode) and times it.
fn run_point<P, R>(f: &impl Fn(&P) -> R, point: &P, passthrough: bool) -> SweepPoint<R> {
    let t0 = Instant::now();
    if passthrough {
        let result = f(point);
        return SweepPoint {
            result,
            digest: FNV_OFFSET,
            events: 0,
            wall: t0.elapsed(),
        };
    }
    let journal = Arc::new(JournalTracer::digest_only());
    let result = trace::with_tracer(journal.clone(), || f(point));
    SweepPoint {
        result,
        digest: journal.digest(),
        events: journal.len(),
        wall: t0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_stay_in_input_order() {
        let points: Vec<u64> = (0..64).collect();
        let out = Sweep::new().jobs(8).run(&points, |p| p * 2);
        assert_eq!(out.points.len(), 64);
        let results = out.results();
        assert_eq!(results, points.iter().map(|p| p * 2).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_clamp_to_point_count() {
        let points = [1u8, 2];
        let out = Sweep::new().jobs(16).run(&points, |p| *p);
        assert_eq!(out.jobs, 2);
        assert_eq!(out.results(), vec![1, 2]);
        let empty: [u8; 0] = [];
        let out = Sweep::new().jobs(4).run(&empty, |p| *p);
        assert_eq!(out.jobs, 1);
        assert!(out.points.is_empty());
    }

    #[test]
    fn combined_digest_is_schedule_independent() {
        // Each point emits through the thread's tracer; the per-point
        // digests (and thus the combined digest) must not depend on how
        // points were spread across workers.
        let points: Vec<u64> = (0..16).collect();
        let emit = |p: &u64| {
            let tracer = crate::trace::tracer();
            for k in 0..=*p {
                tracer.emit(aqua_telemetry::TraceEvent::ReclaimRequested {
                    producer: format!("s0/gpu{k}"),
                    at: aqua_telemetry::time::SimTime::from_nanos(*p),
                });
            }
            *p
        };
        let seq = Sweep::new().run(&points, emit);
        let par4 = Sweep::new().jobs(4).run(&points, emit);
        let par8 = Sweep::new().jobs(8).run(&points, emit);
        assert_eq!(seq.combined_digest(), par4.combined_digest());
        assert_eq!(seq.combined_digest(), par8.combined_digest());
        assert_eq!(seq.total_events(), par8.total_events());
        assert_eq!(seq.total_events(), (1..=16).sum::<usize>());
        // And per-point, not just in aggregate.
        for (a, b) in seq.points.iter().zip(par8.points.iter()) {
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.events, b.events);
        }
    }

    #[test]
    fn different_behaviour_changes_the_combined_digest() {
        let points: Vec<u64> = (0..4).collect();
        let emit = |salt: u64| {
            move |p: &u64| {
                crate::trace::tracer().emit(aqua_telemetry::TraceEvent::ReclaimRequested {
                    producer: "s0/gpu0".into(),
                    at: aqua_telemetry::time::SimTime::from_nanos(*p + salt),
                });
            }
        };
        let a = Sweep::new().run(&points, emit(0));
        let b = Sweep::new().run(&points, emit(1));
        assert_ne!(a.combined_digest(), b.combined_digest());
    }

    #[test]
    fn weighted_run_matches_plain_run() {
        // The LPT permutation must be invisible in the result: same input
        // order, same per-point digests, same combined digest.
        let points: Vec<u64> = (0..16).collect();
        let emit = |p: &u64| {
            crate::trace::tracer().emit(aqua_telemetry::TraceEvent::ReclaimRequested {
                producer: format!("s0/gpu{p}"),
                at: aqua_telemetry::time::SimTime::from_nanos(*p),
            });
            *p * 3
        };
        let plain = Sweep::new().jobs(4).run(&points, emit);
        // Weight ascending by value → claim order is the full reverse of
        // input order, the worst case for accidental order dependence.
        let weighted = Sweep::new().jobs(4).run_weighted(&points, |p| *p, emit);
        assert_eq!(
            plain.points.iter().map(|p| p.result).collect::<Vec<_>>(),
            weighted.points.iter().map(|p| p.result).collect::<Vec<_>>()
        );
        assert_eq!(plain.combined_digest(), weighted.combined_digest());
        assert_eq!(plain.total_events(), weighted.total_events());
    }

    #[test]
    fn passthrough_forces_sequential_and_skips_point_journals() {
        let points = [1u8, 2, 3];
        let out = Sweep::new().jobs(8).passthrough().run(&points, |p| *p);
        assert_eq!(out.jobs, 1);
        assert_eq!(out.total_events(), 0);
        assert_eq!(out.results(), vec![1, 2, 3]);
    }
}
