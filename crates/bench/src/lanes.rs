//! The PDES lane executor: one scenario, many shards, `--lanes N` threads.
//!
//! [`crate::sweep::Sweep`] parallelises *across* independent experiment
//! points; this module parallelises *within* one large scenario. The
//! scenario is cut into [`LaneShard`]s — per-server (or per-cell, or
//! per-pair) simulations that exchange cross-shard events through the
//! conservative [`Mailbox`] protocol described in
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
//! 2. If `S_min` is unbounded, shards are decoupled → each runs to
//!    completion (the common case for embarrassingly parallel scenarios
//!    like the e2e pairs and serve-chaos cells).
//! 3. Otherwise every shard advances to `H = S_min + lookahead`
//!    (exclusive), messages produced inside the window are checked against
//!    the lookahead contract (`deliver_at ≥ H`), and deliveries for the
//!    next window are merged in `(deliver_at, src, seq)` order.

use aqua_sim::pdes::{Mailbox, Msg};
use aqua_sim::time::{SimDuration, SimTime};
use aqua_telemetry::tracer::FNV_OFFSET;
use aqua_telemetry::{fnv1a, JournalTracer};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One shard of a scenario: an independent sub-simulation plus its
/// cross-shard messaging contract.
///
/// Shards need not be `Send`: each is built *on* its lane thread (via the
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
    /// Barrier windows the run took (1 for fully decoupled shards).
    pub windows: u64,
    /// Cross-shard messages exchanged.
    pub messages: u64,
    /// Lane threads actually used.
    pub lanes: usize,
    /// Wall time of the whole run.
    pub wall: Duration,
}

impl<O> LaneOutcome<O> {
    /// Consumes the outcome, returning shard outputs in shard order.
    pub fn outputs(self) -> Vec<O> {
        self.shards.into_iter().map(|s| s.output).collect()
    }
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

/// A deferred shard constructor, run on its lane thread so non-`Send`
/// shard state never crosses threads.
pub type ShardBuilder<S> = Box<dyn FnOnce() -> S + Send>;

/// Runs `builders.len()` shards across `lanes` threads under the
/// conservative window protocol with the given `lookahead`.
///
/// Shard `i` is built and run on lane `i % lanes`, inside its own
/// digest-only journal (installed via [`crate::trace::with_tracer`], so
/// everything the shard simulates — including `ServerCtx` construction —
/// lands in its journal). The returned outcome is identical for every lane
/// count; nondeterminism shows up as a digest mismatch, exactly like a
/// `Sweep` jobs mismatch.
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

    // Partition builders by lane, remembering each shard's global index.
    let mut per_lane: Vec<Vec<(usize, ShardBuilder<S>)>> = (0..lanes).map(|_| Vec::new()).collect();
    for (i, b) in builders.into_iter().enumerate() {
        per_lane[i % lanes].push((i, b));
    }

    let mut reports: Vec<Option<ShardReport<S::Out>>> = (0..shard_count).map(|_| None).collect();

    std::thread::scope(|scope| {
        let mut cmd_txs = Vec::with_capacity(lanes);
        let mut reply_rxs = Vec::with_capacity(lanes);
        let (done_tx, done_rx) = mpsc::channel::<(usize, ShardReport<S::Out>)>();

        for lane_builders in per_lane.into_iter() {
            let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd<S::Payload>>();
            let (reply_tx, reply_rx) = mpsc::channel::<Reply<S::Payload>>();
            let done_tx = done_tx.clone();
            cmd_txs.push(cmd_tx);
            reply_rxs.push(reply_rx);
            scope.spawn(move || {
                // Build each shard under its own journal so construction
                // events are attributed to the shard that caused them.
                let mut shards: Vec<(usize, S, Arc<JournalTracer>)> = lane_builders
                    .into_iter()
                    .map(|(idx, build)| {
                        let journal = Arc::new(JournalTracer::digest_only());
                        let shard = crate::trace::with_tracer(journal.clone(), build);
                        (idx, shard, journal)
                    })
                    .collect();
                let horizons = shards
                    .iter()
                    .map(|(_, s, _)| s.next_send_horizon())
                    .collect();
                reply_tx
                    .send(Reply {
                        sends: Vec::new(),
                        horizons,
                    })
                    .expect("executor alive");
                while let Ok(cmd) = cmd_rx.recv() {
                    match cmd {
                        Cmd::Window { until, inboxes } => {
                            let mut sends = Vec::new();
                            for ((_, shard, journal), inbox) in shards.iter_mut().zip(inboxes) {
                                let journal = journal.clone();
                                sends.extend(crate::trace::with_tracer(journal, || {
                                    shard.advance(until, inbox)
                                }));
                            }
                            let horizons = shards
                                .iter()
                                .map(|(_, s, _)| s.next_send_horizon())
                                .collect();
                            reply_tx
                                .send(Reply { sends, horizons })
                                .expect("executor alive");
                        }
                        Cmd::Finish => {
                            for (idx, shard, journal) in shards.drain(..) {
                                let fin =
                                    crate::trace::with_tracer(journal.clone(), || shard.finish());
                                let report = ShardReport {
                                    output: fin.output,
                                    digest: journal.digest(),
                                    events: journal.len(),
                                    sim_events: fin.sim_events,
                                };
                                done_tx.send((idx, report)).expect("executor alive");
                            }
                            break;
                        }
                    }
                }
            });
        }
        drop(done_tx);

        // Global shard → (lane, slot-within-lane) routing and horizons.
        let lane_of = |i: usize| (i % lanes, i / lanes);
        let mut horizons: Vec<Option<SimTime>> = vec![None; shard_count];
        for (lane, rx) in reply_rxs.iter().enumerate() {
            let init = rx.recv().expect("lane alive");
            assert!(init.sends.is_empty(), "shards must not send at build time");
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
            let mut inboxes = match until {
                Some(h) => mailbox.deliverable(h),
                None => {
                    debug_assert!(mailbox.is_empty(), "pending messages imply a bounded S_min");
                    mailbox.drain_all()
                }
            };
            // Route per-destination inboxes to the owning lane, keyed by
            // the lane's local slot order.
            let mut lane_inboxes: Vec<Vec<Vec<Msg<S::Payload>>>> = (0..lanes)
                .map(|lane| {
                    (0..shard_count)
                        .filter(|i| i % lanes == lane)
                        .map(|_| Vec::new())
                        .collect()
                })
                .collect();
            for (dst, inbox) in inboxes.drain(..).enumerate() {
                let (lane, slot) = lane_of(dst);
                lane_inboxes[lane][slot] = inbox;
            }
            for (lane, tx) in cmd_txs.iter().enumerate() {
                tx.send(Cmd::Window {
                    until,
                    inboxes: std::mem::take(&mut lane_inboxes[lane]),
                })
                .expect("lane alive");
            }
            for (lane, rx) in reply_rxs.iter().enumerate() {
                let reply = rx.recv().expect("lane alive");
                for msg in reply.sends {
                    match until {
                        Some(h) => assert!(
                            msg.deliver_at >= h,
                            "lookahead violation: shard {} delivered at {:?} inside window ending {h:?}",
                            msg.src,
                            msg.deliver_at,
                        ),
                        None => panic!(
                            "shard {} sent during the final decoupled window",
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

        for tx in &cmd_txs {
            tx.send(Cmd::Finish).expect("lane alive");
        }
        while let Ok((idx, report)) = done_rx.recv() {
            reports[idx] = Some(report);
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
    }
}

/// A shard with no cross-shard traffic: one closure, run to completion on
/// its lane. [`run_decoupled`] wraps a list of these so embarrassingly
/// parallel scenarios (the e2e pairs, the serve-chaos cells) ride the same
/// executor — and the same digest rule — as fully coupled ones.
struct TaskShard<O> {
    task: Option<Box<dyn FnOnce() -> ShardFinish<O> + Send>>,
    done: Option<ShardFinish<O>>,
}

impl<O: Send> LaneShard for TaskShard<O> {
    type Payload = ();
    type Out = O;

    fn next_send_horizon(&self) -> Option<SimTime> {
        None
    }

    fn advance(&mut self, until: Option<SimTime>, inbox: Vec<Msg<()>>) -> Vec<Msg<()>> {
        debug_assert!(inbox.is_empty(), "decoupled shards receive nothing");
        if until.is_none() {
            let task = self.task.take().expect("advanced to completion once");
            self.done = Some(task());
        }
        Vec::new()
    }

    fn finish(self) -> ShardFinish<O> {
        self.done.expect("executor always issues the final window")
    }
}

/// Runs independent tasks as decoupled shards: task `i` on lane
/// `i % lanes`, each under its own journal, digests folded in task order.
pub fn run_decoupled<O: Send + 'static>(
    tasks: Vec<Box<dyn FnOnce() -> ShardFinish<O> + Send>>,
    lanes: usize,
) -> LaneOutcome<O> {
    let builders: Vec<ShardBuilder<TaskShard<O>>> = tasks
        .into_iter()
        .map(|task| {
            let b: Box<dyn FnOnce() -> TaskShard<O> + Send> = Box::new(move || TaskShard {
                task: Some(task),
                done: None,
            });
            b
        })
        .collect();
    // Lookahead is irrelevant without cross-shard traffic; any nonzero
    // value satisfies the window rule.
    run_lanes(builders, lanes, SimDuration::from_nanos(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_telemetry::TraceEvent;

    fn emit_task(i: u64) -> Box<dyn FnOnce() -> ShardFinish<u64> + Send> {
        Box::new(move || {
            let tracer = crate::trace::tracer();
            for k in 0..=i {
                tracer.emit(TraceEvent::ReclaimRequested {
                    producer: format!("s{i}/gpu{k}"),
                    at: SimTime::from_nanos(i),
                });
            }
            ShardFinish {
                output: i * 10,
                sim_events: i + 1,
            }
        })
    }

    #[test]
    fn decoupled_tasks_keep_input_order_and_digests_across_lane_counts() {
        let run = |lanes| run_decoupled((0..9).map(emit_task).collect(), lanes);
        let one = run(1);
        let four = run(4);
        let eight = run(8);
        assert_eq!(one.digest, four.digest);
        assert_eq!(one.digest, eight.digest);
        assert_eq!(one.events, eight.events);
        assert_eq!(one.events, (1..=9).sum::<usize>());
        assert_eq!(one.sim_events, eight.sim_events);
        assert_eq!(one.windows, 1, "decoupled shards take a single window");
        assert_eq!(one.messages, 0);
        assert_eq!(four.lanes, 4);
        assert_eq!(one.outputs(), (0..9).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn lane_count_clamps_to_shard_count() {
        let out = run_decoupled((0..2).map(emit_task).collect(), 16);
        assert_eq!(out.lanes, 2);
        assert_eq!(out.outputs(), vec![0, 10]);
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
        assert_eq!(one.digest, two.digest);
        assert_eq!(one.messages, 10, "5 pings + 5 pongs");
        assert_eq!(one.messages, two.messages);
        assert_eq!(one.windows, two.windows);
        let outs = one.outputs();
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
