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
//! The executor advances all shards in barrier-synchronised windows:
//!
//! 1. `S_min` = min over shard send horizons and undelivered messages.
//! 2. If `S_min` is unbounded, no shard can send again → each runs to
//!    completion in one final window.
//! 3. Otherwise every shard advances to `H = S_min + lookahead`
//!    (exclusive), messages produced inside the window are checked against
//!    the lookahead contract (`deliver_at ≥ H`), and deliveries for the
//!    next window are merged in `(deliver_at, src, seq)` order.
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
    /// never send again. Must never move backwards past a window the shard
    /// has already simulated.
    fn next_send_horizon(&self) -> Option<SimTime>;

    /// Delivers `inbox` (sorted by `(deliver_at, src, seq)`) and advances
    /// the shard's local simulation up to `until` (exclusive), or to
    /// completion when `until` is `None`. Returns the cross-shard messages
    /// produced inside the window; each must respect the lookahead
    /// (`deliver_at ≥ send time + L`).
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

enum Cmd<P> {
    /// Advance every owned shard to `until` (exclusive; `None` = run to
    /// completion). `inboxes[j]` belongs to the lane's `j`-th owned shard.
    Window {
        until: Option<SimTime>,
        inboxes: Vec<Vec<Msg<P>>>,
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

    fn advance(
        &mut self,
        until: Option<SimTime>,
        inboxes: Vec<Vec<Msg<S::Payload>>>,
    ) -> Reply<S::Payload> {
        let t = Instant::now();
        let mut sends = Vec::new();
        for ((_, shard, journal), inbox) in self.shards.iter_mut().zip(inboxes) {
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
                    Ok(Cmd::Window { until, inboxes }) => reply = lane.advance(until, inboxes),
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
        loop {
            let s_min = horizons
                .iter()
                .flatten()
                .copied()
                .chain(mailbox.next_time())
                .min();
            let until = s_min.map(|s| s + lookahead);
            windows += 1;
            let inboxes = match until {
                Some(h) => mailbox.deliverable(h),
                None => {
                    debug_assert!(mailbox.is_empty(), "pending messages imply a bounded S_min");
                    mailbox.drain_all()
                }
            };
            // Route per-destination inboxes to the owning lane, in the
            // lane's slot order.
            let mut lane_inboxes: Vec<Vec<Vec<Msg<S::Payload>>>> = (0..lanes)
                .map(|_| Vec::with_capacity(shard_count.div_ceil(lanes)))
                .collect();
            for (dst, inbox) in inboxes.into_iter().enumerate() {
                lane_inboxes[dst % lanes].push(inbox);
            }
            // Workers first, so they advance while lane 0 does.
            for (worker, inboxes) in workers.iter().zip(lane_inboxes.drain(1..)) {
                worker.send(Cmd::Window { until, inboxes });
            }
            replies.push(own.advance(until, lane_inboxes.pop().expect("lane 0")));
            if !workers.is_empty() {
                let waited = Instant::now();
                for w in 0..workers.len() {
                    replies.push(recv(&mut workers, w));
                }
                wait += waited.elapsed();
            }
            for (lane, reply) in replies.drain(..).enumerate() {
                for msg in reply.sends {
                    match until {
                        Some(h) => assert!(
                            msg.deliver_at >= h,
                            "lookahead violation: shard {} delivered at {:?} inside window ending {h:?}",
                            msg.src,
                            msg.deliver_at,
                        ),
                        None => panic!(
                            "shard {} sent during the final unbounded window",
                            msg.src
                        ),
                    }
                    messages += 1;
                    mailbox.post(msg);
                }
                for (slot, h) in reply.horizons.into_iter().enumerate() {
                    let global = slot * lanes + lane;
                    if let (Some(h), Some(u)) = (h, until) {
                        assert!(
                            h >= u,
                            "shard {global} horizon {h:?} regressed into simulated window ending {u:?}"
                        );
                    }
                    horizons[global] = h;
                }
            }
            if until.is_none() {
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

    /// A ping-pong shard pair exercising the windowed protocol: shard 0
    /// sends `rounds` pings on a fixed schedule, shard 1 echoes each pong,
    /// both journal every delivery.
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
            // Shard 1 only reacts to deliveries; the executor covers its
            // replies through the undelivered-message term of S_min.
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
                if self.id == 1 {
                    out.push(Msg {
                        deliver_at: msg.deliver_at + self.lookahead,
                        src: self.id,
                        dst: 0,
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
                if self.id == 0 {
                    out.push(Msg {
                        deliver_at: at + self.lookahead,
                        src: 0,
                        dst: 1,
                        seq: self.seq,
                        payload: self.next as u64,
                    });
                    self.seq += 1;
                }
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
        vec![mk(0, schedule.clone()), mk(1, Vec::new())]
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
        let outs = outputs(one);
        // Shard 1 saw every ping; shard 0 saw every echoed pong.
        assert_eq!(outs[1].len(), 5);
        assert_eq!(outs[0].len(), 5);
        assert_eq!(outs[0][0].1, 100);
        // Every pong arrived exactly two lookaheads after its ping fired.
        assert_eq!(
            outs[0][2].0,
            SimTime::from_millis(30) + lookahead + lookahead
        );
    }
}
