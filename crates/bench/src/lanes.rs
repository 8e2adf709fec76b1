//! The PDES lane executor: one scenario, many shards, `--lanes N` lanes.
//!
//! [`crate::sweep::Sweep`] parallelises *across* independent experiment
//! points; this module parallelises *within* one large scenario. The
//! scenario is cut into [`LaneShard`]s — per-server simulations that
//! exchange cross-shard events through the conservative [`Mailbox`]
//! protocol described in
//! [`aqua_sim::pdes`]. Shard `i` always runs on lane `i % lanes`, every
//! shard journals into its own digest-only tracer, and per-shard digests
//! fold **in shard index order** — so the combined digest, like `Sweep`'s,
//! is a pure function of simulated behaviour, not of lane count or thread
//! schedule. `--lanes 1`, `--lanes 4` and `--lanes 8` must (and do, see
//! `tests/lanes.rs`) produce identical bytes and digests.
//!
//! The scenario is a star: shard 0 is the **hub** (the coordinator) and
//! every other shard is a **leaf** (a server) that talks only to the hub.
//! A leaf can therefore hear only the hub's replies to its own messages,
//! and the executor gives each shard its own bound, the Chandy–Misra–Bryant
//! channel-clock rule for this topology, instead of one global horizon:
//!
//! 1. Leaf `s`: `B_s = min(earliest undelivered s→0 message, h_s + L) + L`,
//!    where `h_s` is its send horizon — the hub replies at least `L` after
//!    a delivery, and `s`'s next message reaches the hub at `h_s + L` at
//!    the earliest. Hub: `B_0 = min over leaves of h_s + L`.
//! 2. Each window delivers to each shard the mailbox messages with
//!    `deliver_at < B_i` in `(deliver_at, src, seq)` order and advances it
//!    to its own `B_i` (exclusive; `None` runs it to completion). Every
//!    message produced inside the window is checked against its
//!    destination's bound (`deliver_at ≥ B_dst`).
//! 3. When every bound is `None`, no shard can send again: each runs to
//!    completion in one final window, and a send there panics.
//!
//! With staggered heartbeats this takes about two windows per heartbeat
//! period, however many leaves there are. [`LaneShard`] states the
//! contract the rule rests on; the executor asserts it at run time.
//!
//! Lane 0 is the calling thread: it builds, advances and finishes its own
//! shards, and only lanes `1..N` get a scoped worker thread with a
//! command/reply channel pair. Each window's command goes to the workers
//! before lane 0 advances, so every lane works at once, and the caller
//! then waits at the barrier for the workers' replies. At `--lanes 1`
//! there is no thread and no channel: the caller runs every shard, and a
//! window costs only the shards' own work.
//!
//! [`LaneOutcome::busy`] and [`LaneOutcome::wait`] split the run's wall
//! time into per-lane work and barrier wait. They are wall-clock
//! observations, never part of a digest or a table.

use aqua_sim::pdes::{Mailbox, Msg};
use aqua_sim::time::{SimDuration, SimTime};
use aqua_telemetry::tracer::FNV_OFFSET;
use aqua_telemetry::{fnv1a, JournalTracer};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{Scope, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// One shard of a scenario: an independent sub-simulation plus its
/// cross-shard messaging contract.
///
/// Shards need not be `Send`: each is built *on* its lane's thread (via the
/// `Send` builder closure) and never leaves it, so shards may hold
/// `Rc`-based simulator state. Only the builder, the message payload and
/// the output cross threads.
pub trait LaneShard {
    /// Cross-shard message payload.
    type Payload: Send;
    /// What the shard yields once the run completes.
    type Out: Send;

    /// A conservative lower bound on the earliest simulated time at which
    /// this shard could still emit a cross-shard message; `None` if it will
    /// never send again.
    ///
    /// The executor relies on the star contract (see the module docs) and
    /// asserts it:
    ///
    /// * Shard 0, the hub, returns `None`: it only replies, and only to a
    ///   delivered message's source, at least `L` after the delivery.
    /// * Every other shard, a leaf, sends only to shard 0, and only at or
    ///   after this horizon (so `deliver_at ≥ horizon + L`). A leaf never
    ///   sends in reply. Once a leaf has advanced to its bound, its horizon
    ///   must not fall below that bound.
    fn next_send_horizon(&self) -> Option<SimTime>;

    /// Delivers `inbox` (sorted by `(deliver_at, src, seq)`) and advances
    /// the shard's local simulation up to `until` (exclusive), or to
    /// completion when `until` is `None`. Each message in `inbox` is due at
    /// or after the shard's previous `until`, not necessarily at it, so a
    /// shard simulates up to a message's `deliver_at` before it acts on
    /// it. Returns the cross-shard messages produced inside the window;
    /// each must respect the lookahead (`deliver_at ≥ send time + L`).
    fn advance(
        &mut self,
        until: Option<SimTime>,
        inbox: Vec<Msg<Self::Payload>>,
    ) -> Vec<Msg<Self::Payload>>;

    /// Consumes the shard, returning its result and how many simulator
    /// events it processed.
    fn finish(self) -> ShardFinish<Self::Out>;
}

/// What [`LaneShard::finish`] yields.
#[derive(Debug)]
pub struct ShardFinish<O> {
    /// The shard's result (metrics, rendered rows, …).
    pub output: O,
    /// Simulator events the shard's driver processed.
    pub sim_events: u64,
}

/// One completed shard, with its determinism evidence.
#[derive(Debug)]
pub struct ShardReport<O> {
    /// The shard's result.
    pub output: O,
    /// FNV-1a digest of every trace event the shard journalled.
    pub digest: u64,
    /// Journalled event count behind [`ShardReport::digest`].
    pub events: usize,
    /// Simulator events the shard's driver processed.
    pub sim_events: u64,
}

/// A completed lane run: per-shard reports in shard index order plus the
/// schedule-independent roll-up.
#[derive(Debug)]
pub struct LaneOutcome<O> {
    /// Shard reports, index-aligned with the input builders.
    pub shards: Vec<ShardReport<O>>,
    /// Per-shard digests folded in shard index order.
    pub digest: u64,
    /// Total journalled events across shards.
    pub events: usize,
    /// Total simulator events processed across shards.
    pub sim_events: u64,
    /// Barrier windows the run took, the final unbounded one included.
    pub windows: u64,
    /// Cross-shard messages exchanged.
    pub messages: u64,
    /// Lanes actually used: the calling thread plus `lanes - 1` workers.
    pub lanes: usize,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Per lane, the wall time its shards spent inside
    /// [`LaneShard::advance`]. A wall-clock observation: it varies run to
    /// run and lane count to lane count, so it belongs in no table or
    /// digest.
    pub busy: Vec<Duration>,
    /// How long the calling thread (lane 0) waited for worker replies at
    /// the window barriers, after its own shards were done. Zero at one
    /// lane; wall-clock only, like [`LaneOutcome::busy`].
    pub wait: Duration,
}

/// One shard's part of a window: its bound (exclusive; `None` = run to
/// completion) and the messages due before it.
type ShardWindow<P> = (Option<SimTime>, Vec<Msg<P>>);

enum Cmd<P> {
    /// Advance every owned shard to its own bound; `shards[j]` belongs to
    /// the lane's `j`-th owned shard.
    Window {
        shards: Vec<ShardWindow<P>>,
    },
    Finish,
}

struct Reply<P> {
    /// Messages produced this window, across the lane's shards.
    sends: Vec<Msg<P>>,
    /// Updated send horizon per owned shard.
    horizons: Vec<Option<SimTime>>,
}

/// A deferred shard constructor, run on its lane's thread so non-`Send`
/// shard state never crosses threads.
pub type ShardBuilder<S> = Box<dyn FnOnce() -> S + Send>;

/// A finished lane: each shard's report with its global index, and the
/// lane's busy time.
type Finished<O> = (Vec<(usize, ShardReport<O>)>, Duration);

/// The shards one lane owns, in slot order (slot `j` of lane `l` is shard
/// `j * lanes + l`), each with its own journal. A lane lives on one
/// thread from build to finish: the caller's for lane 0, a worker's for
/// the rest.
struct Lane<S> {
    shards: Vec<(usize, S, Arc<JournalTracer>)>,
    busy: Duration,
}

impl<S: LaneShard> Lane<S> {
    /// Builds each shard under its own journal, so construction events
    /// are attributed to the shard that caused them.
    fn build(builders: Vec<(usize, ShardBuilder<S>)>) -> Self {
        let shards = builders
            .into_iter()
            .map(|(idx, build)| {
                let journal = Arc::new(JournalTracer::digest_only());
                let shard = crate::trace::with_tracer(journal.clone(), build);
                (idx, shard, journal)
            })
            .collect();
        Lane {
            shards,
            busy: Duration::ZERO,
        }
    }

    fn horizons(&self) -> Vec<Option<SimTime>> {
        self.shards
            .iter()
            .map(|(_, s, _)| s.next_send_horizon())
            .collect()
    }

    fn advance(&mut self, windows: Vec<ShardWindow<S::Payload>>) -> Reply<S::Payload> {
        let t = Instant::now();
        let mut sends = Vec::new();
        for ((_, shard, journal), (until, inbox)) in self.shards.iter_mut().zip(windows) {
            sends.extend(crate::trace::with_tracer(journal.clone(), || {
                shard.advance(until, inbox)
            }));
        }
        self.busy += t.elapsed();
        Reply {
            sends,
            horizons: self.horizons(),
        }
    }

    fn finish(self) -> Finished<S::Out> {
        let reports = self
            .shards
            .into_iter()
            .map(|(idx, shard, journal)| {
                let fin = crate::trace::with_tracer(journal.clone(), || shard.finish());
                let report = ShardReport {
                    output: fin.output,
                    digest: journal.digest(),
                    events: journal.len(),
                    sim_events: fin.sim_events,
                };
                (idx, report)
            })
            .collect();
        (reports, self.busy)
    }
}

/// A lane on its own thread, driven over a command/reply channel pair.
/// The thread returns its lane's reports (and busy time) on
/// [`Cmd::Finish`].
struct Worker<'scope, S: LaneShard> {
    cmds: mpsc::Sender<Cmd<S::Payload>>,
    replies: mpsc::Receiver<Reply<S::Payload>>,
    thread: ScopedJoinHandle<'scope, Finished<S::Out>>,
}

impl<'scope, S: LaneShard + 'scope> Worker<'scope, S> {
    fn spawn<'env>(
        scope: &'scope Scope<'scope, 'env>,
        builders: Vec<(usize, ShardBuilder<S>)>,
    ) -> Self {
        let (cmds, cmd_rx) = mpsc::channel::<Cmd<S::Payload>>();
        let (reply_tx, replies) = mpsc::channel::<Reply<S::Payload>>();
        let thread = scope.spawn(move || {
            let mut lane = Lane::build(builders);
            let mut reply = Reply {
                sends: Vec::new(),
                horizons: lane.horizons(),
            };
            // A closed channel means the caller is unwinding from a panic.
            while reply_tx.send(reply).is_ok() {
                match cmd_rx.recv() {
                    Ok(Cmd::Window { shards }) => reply = lane.advance(shards),
                    Ok(Cmd::Finish) => return lane.finish(),
                    Err(_) => break,
                }
            }
            (Vec::new(), lane.busy)
        });
        Worker {
            cmds,
            replies,
            thread,
        }
    }

    fn send(&self, cmd: Cmd<S::Payload>) {
        // A worker that hung up has panicked; `recv` re-raises it.
        let _ = self.cmds.send(cmd);
    }
}

/// Receives worker `w`'s reply, or re-raises the panic that ended it.
fn recv<S: LaneShard>(workers: &mut Vec<Worker<'_, S>>, w: usize) -> Reply<S::Payload> {
    match workers[w].replies.recv() {
        Ok(reply) => reply,
        Err(_) => match workers.swap_remove(w).thread.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(_) => unreachable!("a lane hangs up mid-run only by panicking"),
        },
    }
}

/// Each shard's bound for the next window under the star rule (module
/// docs, step 1): `horizons` are the shards' send horizons and `earliest`
/// each shard's earliest undelivered send. `None` means unbounded.
///
/// # Panics
///
/// Panics if the hub, shard 0, reports a send horizon.
fn star_bounds(
    horizons: &[Option<SimTime>],
    earliest: &[Option<SimTime>],
    lookahead: SimDuration,
) -> Vec<Option<SimTime>> {
    let Some((hub, leaves)) = horizons.split_first() else {
        return Vec::new();
    };
    assert!(
        hub.is_none(),
        "the hub, shard 0, reported send horizon {hub:?}: it may only reply"
    );
    let hub_bound = leaves.iter().flatten().min().map(|&h| h + lookahead);
    let leaf_bounds = leaves.iter().zip(&earliest[1..]).map(|(h, sent)| {
        h.map(|h| h + lookahead)
            .into_iter()
            .chain(*sent)
            .min()
            .map(|t| t + lookahead)
    });
    std::iter::once(hub_bound).chain(leaf_bounds).collect()
}

/// Runs `builders.len()` shards across `lanes` lanes under the
/// conservative window protocol with the given `lookahead`.
///
/// Shard `i` is built and run on lane `i % lanes`, inside its own
/// digest-only journal (installed via [`crate::trace::with_tracer`], so
/// everything the shard simulates — including `ServerCtx` construction —
/// lands in its journal). Lane 0 is the calling thread; lanes `1..lanes`
/// are scoped worker threads, so `lanes = 1` spawns nothing. The returned
/// outcome is identical for every lane count; nondeterminism shows up as a
/// digest mismatch, exactly like a `Sweep` jobs mismatch. A panic on any
/// lane propagates to the caller.
pub fn run_lanes<S: LaneShard>(
    builders: Vec<ShardBuilder<S>>,
    lanes: usize,
    lookahead: SimDuration,
) -> LaneOutcome<S::Out> {
    let t0 = Instant::now();
    let shard_count = builders.len();
    let lanes = lanes.clamp(1, shard_count.max(1));
    let mut windows = 0u64;
    let mut messages = 0u64;
    let mut wait = Duration::ZERO;

    // Partition builders by lane, remembering each shard's global index.
    let mut per_lane: Vec<Vec<(usize, ShardBuilder<S>)>> = (0..lanes).map(|_| Vec::new()).collect();
    for (i, b) in builders.into_iter().enumerate() {
        per_lane[i % lanes].push((i, b));
    }

    let mut reports: Vec<Option<ShardReport<S::Out>>> = (0..shard_count).map(|_| None).collect();
    let mut busy = vec![Duration::ZERO; lanes];

    std::thread::scope(|scope| {
        // Workers build their shards while the caller builds lane 0's.
        let mut workers: Vec<Worker<S>> = per_lane
            .drain(1..)
            .map(|builders| Worker::spawn(scope, builders))
            .collect();
        let mut own = Lane::build(per_lane.pop().expect("lane 0"));

        // Replies of one barrier, lane 0's first, then each worker's.
        let mut replies: Vec<Reply<S::Payload>> = Vec::with_capacity(lanes);
        let mut horizons: Vec<Option<SimTime>> = vec![None; shard_count];
        replies.push(Reply {
            sends: Vec::new(),
            horizons: own.horizons(),
        });
        for w in 0..workers.len() {
            replies.push(recv(&mut workers, w));
        }
        for (lane, init) in replies.drain(..).enumerate() {
            for (slot, h) in init.horizons.into_iter().enumerate() {
                horizons[slot * lanes + lane] = h;
            }
        }

        let mut mailbox: Mailbox<S::Payload> = Mailbox::new(shard_count);
        // The bound each shard has been advanced to; `None` once it ran to
        // completion.
        let mut reached: Vec<Option<SimTime>> = vec![Some(SimTime::ZERO); shard_count];
        loop {
            let bounds = star_bounds(&horizons, &mailbox.earliest_from(), lookahead);
            let last = bounds.iter().all(Option::is_none);
            let far = |b: &Option<SimTime>| b.unwrap_or(SimTime::MAX);
            assert!(
                last || bounds.iter().zip(&reached).any(|(b, r)| far(b) > far(r)),
                "no shard's bound moved past {reached:?}: the star contract is broken"
            );
            windows += 1;
            // Route each shard's bound and inbox to its lane, in the
            // lane's slot order.
            let mut lane_windows: Vec<Vec<ShardWindow<S::Payload>>> = (0..lanes)
                .map(|_| Vec::with_capacity(shard_count.div_ceil(lanes)))
                .collect();
            for (dst, inbox) in mailbox.deliverable(&bounds).into_iter().enumerate() {
                lane_windows[dst % lanes].push((bounds[dst], inbox));
            }
            // Workers first, so they advance while lane 0 does.
            for (worker, shards) in workers.iter().zip(lane_windows.drain(1..)) {
                worker.send(Cmd::Window { shards });
            }
            replies.push(own.advance(lane_windows.pop().expect("lane 0")));
            if !workers.is_empty() {
                let waited = Instant::now();
                for w in 0..workers.len() {
                    replies.push(recv(&mut workers, w));
                }
                wait += waited.elapsed();
            }
            // Check every send against the horizons the window started
            // from, then take the new horizons.
            for msg in replies.iter_mut().flat_map(|r| r.sends.drain(..)) {
                let (src, dst, at) = (msg.src, msg.dst, msg.deliver_at);
                assert!(
                    (src == 0) != (dst == 0),
                    "shard {src} sent to shard {dst}: every message has the hub, shard 0, at exactly one end"
                );
                assert!(!last, "shard {src} sent during the final unbounded window");
                if src != 0 {
                    let own = horizons[src].map(|h| h + lookahead);
                    assert!(
                        own.is_some_and(|b| at >= b),
                        "leaf {src} sent for {at:?}, inside its own bound {own:?}"
                    );
                }
                assert!(
                    bounds[dst].is_some_and(|b| at >= b),
                    "lookahead violation: shard {src} delivered at {at:?} to shard {dst}, \
                     which has simulated up to {:?}",
                    bounds[dst]
                );
                messages += 1;
                mailbox.post(msg);
            }
            for (lane, reply) in replies.drain(..).enumerate() {
                for (slot, h) in reply.horizons.into_iter().enumerate() {
                    let global = slot * lanes + lane;
                    if let (Some(h), Some(b)) = (h, bounds[global]) {
                        assert!(
                            h >= b,
                            "shard {global} horizon {h:?} regressed into its simulated window ending {b:?}"
                        );
                    }
                    horizons[global] = h;
                }
            }
            reached = bounds;
            if last {
                debug_assert!(mailbox.is_empty(), "the final window delivers everything");
                break;
            }
        }

        for worker in &workers {
            worker.send(Cmd::Finish);
        }
        let mut finished = vec![own.finish()];
        for worker in workers {
            finished.push(
                worker
                    .thread
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        for (lane, (lane_reports, lane_busy)) in finished.into_iter().enumerate() {
            busy[lane] = lane_busy;
            for (idx, report) in lane_reports {
                reports[idx] = Some(report);
            }
        }
    });

    let shards: Vec<ShardReport<S::Out>> = reports
        .into_iter()
        .map(|r| r.expect("every shard finishes before the scope exits"))
        .collect();
    let digest = shards
        .iter()
        .fold(FNV_OFFSET, |h, s| fnv1a(h, &s.digest.to_le_bytes()));
    LaneOutcome {
        events: shards.iter().map(|s| s.events).sum(),
        sim_events: shards.iter().map(|s| s.sim_events).sum(),
        digest,
        shards,
        windows,
        messages,
        lanes,
        wall: t0.elapsed(),
        busy,
        wait,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_telemetry::TraceEvent;
    use std::thread::ThreadId;

    /// Records the thread that builds, advances and finishes it, and
    /// panics in `advance` when told to.
    struct ThreadShard {
        seen: Vec<ThreadId>,
        panics: bool,
    }

    impl LaneShard for ThreadShard {
        type Payload = ();
        type Out = Vec<ThreadId>;

        fn next_send_horizon(&self) -> Option<SimTime> {
            None
        }

        fn advance(&mut self, _until: Option<SimTime>, _inbox: Vec<Msg<()>>) -> Vec<Msg<()>> {
            assert!(!self.panics, "shard panicked in advance");
            self.seen.push(std::thread::current().id());
            Vec::new()
        }

        fn finish(mut self) -> ShardFinish<Vec<ThreadId>> {
            self.seen.push(std::thread::current().id());
            ShardFinish {
                output: self.seen,
                sim_events: 0,
            }
        }
    }

    fn outputs<O>(out: LaneOutcome<O>) -> Vec<O> {
        out.shards.into_iter().map(|s| s.output).collect()
    }

    fn thread_shards(count: usize, panicking: Option<usize>) -> Vec<ShardBuilder<ThreadShard>> {
        (0..count)
            .map(|i| -> ShardBuilder<ThreadShard> {
                Box::new(move || ThreadShard {
                    seen: vec![std::thread::current().id()],
                    panics: panicking == Some(i),
                })
            })
            .collect()
    }

    #[test]
    fn one_lane_runs_every_shard_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = run_lanes(thread_shards(3, None), 1, SimDuration::from_nanos(1));
        assert_eq!((out.lanes, out.busy.len()), (1, 1));
        assert_eq!(out.wait, Duration::ZERO, "no worker to wait for");
        assert_eq!(out.windows, 1, "shards that never send take one window");
        for seen in outputs(out) {
            // Built, advanced in the one unbounded window, and finished.
            assert_eq!(seen, vec![caller; 3]);
        }
    }

    #[test]
    fn lane_zero_is_the_caller_and_the_rest_are_workers() {
        let caller = std::thread::current().id();
        let out = run_lanes(thread_shards(4, None), 2, SimDuration::from_nanos(1));
        assert_eq!(out.busy.len(), 2);
        let outs = outputs(out);
        for (i, seen) in outs.iter().enumerate() {
            assert!(
                seen.iter().all(|t| *t == seen[0]),
                "shard {i} moved threads"
            );
            assert_eq!(
                seen[0] == caller,
                i % 2 == 0,
                "shard {i} ran on the wrong lane"
            );
        }
        assert_eq!(outs[1][0], outs[3][0], "lane 1 is one worker thread");
    }

    #[test]
    #[should_panic(expected = "shard panicked in advance")]
    fn a_panic_on_lane_zero_reaches_the_caller() {
        run_lanes(thread_shards(2, Some(0)), 2, SimDuration::from_nanos(1));
    }

    #[test]
    #[should_panic(expected = "shard panicked in advance")]
    fn a_panic_on_a_worker_lane_reaches_the_caller() {
        run_lanes(thread_shards(2, Some(1)), 2, SimDuration::from_nanos(1));
    }

    /// A ping-pong star exercising the windowed protocol: shard 1, a leaf,
    /// sends `rounds` pings on a fixed schedule, shard 0, the hub, echoes
    /// each as a pong, and both journal every delivery.
    struct PingShard {
        id: usize,
        schedule: Vec<SimTime>,
        next: usize,
        seq: u64,
        lookahead: SimDuration,
        received: Vec<(SimTime, u64)>,
    }

    impl LaneShard for PingShard {
        type Payload = u64;
        type Out = Vec<(SimTime, u64)>;

        fn next_send_horizon(&self) -> Option<SimTime> {
            // The hub only reacts to deliveries; the executor bounds its
            // replies by the pinger's undelivered pings and horizon.
            self.schedule.get(self.next).copied()
        }

        fn advance(&mut self, until: Option<SimTime>, inbox: Vec<Msg<u64>>) -> Vec<Msg<u64>> {
            let mut out = Vec::new();
            let tracer = crate::trace::tracer();
            for msg in inbox {
                tracer.emit(TraceEvent::ReclaimRequested {
                    producer: format!("shard{}/from{}", self.id, msg.src),
                    at: msg.deliver_at,
                });
                self.received.push((msg.deliver_at, msg.payload));
                if self.id == 0 {
                    out.push(Msg {
                        deliver_at: msg.deliver_at + self.lookahead,
                        src: 0,
                        dst: msg.src,
                        seq: self.seq,
                        payload: msg.payload + 100,
                    });
                    self.seq += 1;
                }
            }
            while self
                .schedule
                .get(self.next)
                .is_some_and(|&t| until.is_none_or(|u| t < u))
            {
                let at = self.schedule[self.next];
                out.push(Msg {
                    deliver_at: at + self.lookahead,
                    src: self.id,
                    dst: 0,
                    seq: self.seq,
                    payload: self.next as u64,
                });
                self.seq += 1;
                self.next += 1;
            }
            out
        }

        fn finish(self) -> ShardFinish<Vec<(SimTime, u64)>> {
            ShardFinish {
                sim_events: self.received.len() as u64,
                output: self.received,
            }
        }
    }

    fn ping_builders(
        rounds: usize,
        lookahead: SimDuration,
    ) -> Vec<Box<dyn FnOnce() -> PingShard + Send>> {
        let schedule: Vec<SimTime> = (0..rounds)
            .map(|i| SimTime::from_millis(10 * (i as u64 + 1)))
            .collect();
        let mk =
            move |id: usize, schedule: Vec<SimTime>| -> Box<dyn FnOnce() -> PingShard + Send> {
                Box::new(move || PingShard {
                    id,
                    schedule,
                    next: 0,
                    seq: 0,
                    lookahead,
                    received: Vec::new(),
                })
            };
        vec![mk(0, Vec::new()), mk(1, schedule)]
    }

    #[test]
    fn windowed_ping_pong_is_lane_count_independent() {
        let lookahead = SimDuration::from_micros(7);
        let run = |lanes| run_lanes(ping_builders(5, lookahead), lanes, lookahead);
        let one = run(1);
        let two = run(2);
        let eight = run(8);
        assert_eq!(eight.lanes, 2, "lane count clamps to the shard count");
        for other in [&two, &eight] {
            assert_eq!(one.digest, other.digest);
            assert_eq!(one.events, other.events);
            assert_eq!(one.messages, other.messages);
            assert_eq!(one.windows, other.windows);
        }
        assert_eq!(one.messages, 10, "5 pings + 5 pongs");
        // Two windows per ping (send, then echo), plus the final one.
        assert_eq!(one.windows, 2 * 5 + 1);
        let outs = outputs(one);
        // The hub saw every ping; the pinger saw every echoed pong.
        assert_eq!(outs[0].len(), 5);
        assert_eq!(outs[1].len(), 5);
        assert_eq!(outs[1][0].1, 100);
        // Every pong arrived exactly two lookaheads after its ping fired.
        assert_eq!(
            outs[1][2].0,
            SimTime::from_millis(30) + lookahead + lookahead
        );
    }

    /// A shard with a fixed send horizon that emits `sends` in its first
    /// window, for breaking the star contract on purpose.
    struct RuleShard {
        horizon: Option<SimTime>,
        sends: Vec<Msg<()>>,
    }

    impl LaneShard for RuleShard {
        type Payload = ();
        type Out = ();

        fn next_send_horizon(&self) -> Option<SimTime> {
            self.horizon
        }

        fn advance(&mut self, _until: Option<SimTime>, _inbox: Vec<Msg<()>>) -> Vec<Msg<()>> {
            std::mem::take(&mut self.sends)
        }

        fn finish(self) -> ShardFinish<()> {
            ShardFinish {
                output: (),
                sim_events: 0,
            }
        }
    }

    fn ms(millis: u64) -> SimTime {
        SimTime::from_millis(millis)
    }

    /// One `RuleShard`: its send horizon and its `(deliver_at, dst)` sends.
    type Rule = (Option<SimTime>, Vec<(SimTime, usize)>);

    /// Runs one `RuleShard` per rule, with a 1 µs lookahead.
    fn run_rules(shards: Vec<Rule>) {
        let builders = shards
            .into_iter()
            .enumerate()
            .map(|(src, (horizon, sends))| -> ShardBuilder<RuleShard> {
                let sends = sends
                    .into_iter()
                    .enumerate()
                    .map(|(seq, (deliver_at, dst))| Msg {
                        deliver_at,
                        src,
                        dst,
                        seq: seq as u64,
                        payload: (),
                    })
                    .collect();
                Box::new(move || RuleShard { horizon, sends })
            })
            .collect();
        run_lanes(builders, 1, SimDuration::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "at exactly one end")]
    fn a_leaf_to_leaf_message_breaks_the_star() {
        run_rules(vec![
            (None, vec![]),
            (Some(ms(10)), vec![(ms(20), 2)]),
            (None, vec![]),
        ]);
    }

    #[test]
    #[should_panic(expected = "the hub, shard 0, reported send horizon")]
    fn a_hub_with_a_send_horizon_breaks_the_star() {
        run_rules(vec![(Some(ms(1)), vec![]), (None, vec![])]);
    }

    #[test]
    #[should_panic(expected = "inside its own bound")]
    fn a_leaf_sending_inside_its_own_bound_breaks_the_star() {
        // Leaf 2's early horizon keeps the hub's bound at 10 ms + L, so the
        // message clears the hub's bound but not leaf 1's own 100 ms + L.
        run_rules(vec![
            (None, vec![]),
            (Some(ms(100)), vec![(ms(50), 0)]),
            (Some(ms(10)), vec![]),
        ]);
    }
}
