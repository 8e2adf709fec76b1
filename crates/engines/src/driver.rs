//! The deterministic simulation driver.
//!
//! Engines are synchronous state machines: `step(now)` executes one
//! inference iteration (admission, I/O, compute, token effects) and returns
//! its completion time. The driver interleaves request arrivals, engine
//! steps and idle control ticks in one global time order, so multiple
//! engines on one server (consumers and producers) advance together — which
//! is what lets port contention and elastic memory events interact the way
//! they do on real hardware.
//!
//! Arrivals wait in an [`EventQueue`]. Each engine's in-flight step waits in
//! a slot of its own, keyed `(completion, seq)` with `seq` drawn from the
//! queue's counter when the step starts, and the next event is the smallest
//! key among the queue's head and the occupied slots. A decode iteration
//! therefore costs no queue push or pop, yet ties break exactly as if every
//! step completion were a queued event.
//!
//! Idle ticks fire on a fixed grid (every 100 ms by default) whether or not
//! any engine needs them. A round in which every engine is mid-step, or is
//! idle with no work and declares its tick a no-op
//! ([`Engine::idle_tick_is_noop`]), changes nothing but the clock, so the
//! driver fast-forwards a whole run of such rounds at once: up to the next
//! event or the horizon. Skipped rounds still count in
//! [`Driver::processed_events`] and advance the tick grid exactly as
//! firing them one by one would, so long idle horizons cost O(1) instead of
//! one loop iteration per 100 ms of simulated time.
//!
//! # Decode runs
//!
//! A decoding engine's step completes, the loop processes that completion,
//! and the same engine starts its next step at once — usually with nothing
//! else in between. So when `step(s)` returns `t`, the driver hands the
//! rest of the run to the engine, without a trip through the loop:
//! [`Engine::step_run`] keeps starting the next step at each completion
//! while all of these hold:
//!
//! * `s < t ≤ end`, the current `run`'s horizon;
//! * `t` is before the next queued arrival (one at exactly `t` was queued
//!   before the step started, so its seq is smaller and it goes first);
//! * `t` is before every other engine's in-flight completion (same seq
//!   argument for ties);
//! * every other engine is mid-step, or idle with no work and a no-op tick
//!   — otherwise `t` must not pass the next tick instant, where those
//!   engines act;
//! * `t` is before this engine's next crash window opens;
//! * the engine still `has_work()` at `t`.
//!
//! Proof sketch. Under these conditions the loop's next event after the
//! step started at `s` is this step's completion: every other event has a
//! later time or a larger key. The only other candidates are tick rounds
//! before `t`; in each one this engine is mid-step and every other engine
//! is mid-step or a no-op idle, so the round is one the fast-forward above
//! would skip. Processing the completion calls exactly what the chain
//! calls: the engine is up (no crash window opened), it has work, so
//! `step(t)` starts and no tick fires. Nothing the chain skips can change a
//! bound — arrivals are only queued by `schedule_arrival` and crash
//! re-queues, other engines do not act, and an engine's `has_work` and
//! `idle_tick_is_noop` answers change only through calls on that engine —
//! so the bounds are computed once per run and passed to `step_run` as its
//! `limit`. `step_run` reports how many steps it took; the driver adds one
//! processed event and draws one seq for each, as the loop would have for
//! their completions, and no other call draws a seq during the run. The
//! tick rounds inside the run are still due when the loop resumes, and the
//! fast-forward counts them then. So seqs ([`Driver::next_seq`]),
//! [`Driver::processed_events`], [`Driver::next_event_time`] and every
//! engine call, in order and with its time, are what stepping through the
//! loop gives (the golden `tests/driver_order.rs` pins them). A run starts
//! only where no other engine still acts at the same instant: not inside a
//! tick round, whose later engines tick at `now` after this one.
//!
//! The default `step_run` is that loop over [`Engine::step`]. An engine may
//! override it to take the same steps more cheaply, as long as every other
//! layer sees the same calls and the engine ends in the same state: the
//! gateway runs a batch that cannot change through many iterations in one
//! call (its steady runs). A wrapper that forwards `step` but not
//! `step_run` still gets the default, one `step` call per iteration.

use crate::request::InferenceRequest;
use aqua_metrics::requests::RequestRecord;
use aqua_sim::audit::SharedAuditor;
use aqua_sim::event::EventQueue;
use aqua_sim::time::{SimDuration, SimTime};

/// A serving engine that the driver can step.
pub trait Engine {
    /// Enqueues a request at `now`.
    fn submit(&mut self, req: InferenceRequest, now: SimTime);

    /// Returns `true` if a call to [`Engine::step`] would make progress.
    /// The answer may change only through calls on this engine, never
    /// through another engine's steps: the driver reads it once for a
    /// whole decode run of another engine.
    fn has_work(&self) -> bool;

    /// Executes one iteration starting at `now`; returns its completion
    /// time, which must be strictly after `now` whenever [`Engine::has_work`]
    /// is `true`.
    fn step(&mut self, now: SimTime) -> SimTime;

    /// Continues a decode run (see the module doc). A step started at
    /// `start` completes at `done`; while `start < done ≤ limit` and the
    /// engine still has work, the next step starts at `done`. Returns the
    /// last step's start and completion and the number of steps taken
    /// here, whose completions the driver counts as processed events.
    ///
    /// An override must make the same calls on every other layer, and
    /// leave the engine in the same state, as this default does by calling
    /// [`Engine::step`]. A wrapper that does not forward it therefore
    /// steps its engine one call at a time.
    fn step_run(
        &mut self,
        mut start: SimTime,
        mut done: SimTime,
        limit: SimTime,
    ) -> (SimTime, SimTime, u64) {
        let mut steps = 0;
        while start < done && done <= limit && self.has_work() {
            steps += 1;
            start = done;
            done = self.step(start);
        }
        (start, done, steps)
    }

    /// Periodic control hook invoked while the engine is idle (used by
    /// AQUA informers to donate/reclaim memory even when no requests flow).
    /// Rounds that [`Engine::idle_tick_is_noop`] lets the driver
    /// fast-forward never reach this hook.
    fn tick(&mut self, _now: SimTime) {}

    /// Returns `true` if [`Engine::tick`] never changes anything while the
    /// engine is idle with no work, so the driver may skip idle tick rounds
    /// instead of firing them. The default is `false`: a wrapper that
    /// forwards `tick` but not this query keeps being ticked. Like
    /// [`Engine::has_work`], the answer may change only through calls on
    /// this engine.
    fn idle_tick_is_noop(&self) -> bool {
        false
    }

    /// Removes and returns records of requests completed so far.
    fn drain_completions(&mut self) -> Vec<RequestRecord>;
}

/// A queued arrival: the target engine's index and the request. Arrivals
/// are the only queued events; step completions live in
/// [`Driver`]'s per-engine slots.
#[derive(Debug, Clone)]
struct Ev(usize, InferenceRequest);

/// Drives a set of engines through a shared timeline.
///
/// # Example
///
/// ```
/// use aqua_engines::driver::{Driver, Engine};
/// use aqua_engines::request::InferenceRequest;
/// use aqua_sim::time::SimTime;
///
/// use aqua_engines::cfs::{CfsConfig, CfsEngine};
/// use aqua_engines::offload::DramOffloader;
/// use aqua_models::zoo;
/// use aqua_sim::gpu::{GpuId, GpuSpec};
/// use aqua_sim::topology::ServerTopology;
/// use aqua_sim::transfer::TransferEngine;
/// use std::{cell::RefCell, rc::Rc};
///
/// let geom = *zoo::mistral_7b().llm_geometry().unwrap();
/// let server = ServerTopology::nvlink_pair(GpuSpec::a100_80g());
/// let transfers = Rc::new(RefCell::new(TransferEngine::new()));
/// let offloader = DramOffloader::pinned(&server, GpuId(0), transfers);
/// let mut llm = CfsEngine::new(
///     geom,
///     GpuSpec::a100_80g(),
///     CfsConfig::default(),
///     Box::new(offloader),
/// );
/// let mut driver = Driver::new();
/// driver.schedule_arrival(0, SimTime::from_secs(1), InferenceRequest::text(1, 128, 64));
/// let mut engines: Vec<&mut dyn Engine> = vec![&mut llm];
/// driver.run(&mut engines, SimTime::from_secs(600));
/// ```
#[derive(Debug)]
pub struct Driver {
    events: EventQueue<Ev>,
    tick_interval: SimDuration,
    /// The next instant on the idle-tick grid; `None` once the grid has
    /// run past [`SimTime::MAX`].
    next_tick: Option<SimTime>,
    /// Each engine's in-flight step as `(completion, seq)`, `None` while the
    /// engine is idle. `seq` comes from [`EventQueue::take_seq`], so the key
    /// orders against queued arrivals as a queued completion would. Drivers
    /// host one or two engines, so the slots are scanned linearly.
    steps: Vec<Option<(SimTime, u64)>>,
    /// `(engine, start, end)` spans during which an engine is crashed: it
    /// takes no arrivals, steps and ticks. Arrivals landing inside a span
    /// are re-queued at its end, so requests are delayed, never lost.
    crash_windows: Vec<(usize, SimTime, SimTime)>,
    /// aqua-audit: checks that the global timeline never runs backwards.
    auditor: Option<SharedAuditor>,
    /// Timestamp of the last processed event/tick (for the monotonicity
    /// audit).
    last_time: SimTime,
    /// Total events processed (arrivals, step completions and idle-tick
    /// rounds, fast-forwarded ones included), the denominator behind the
    /// `scale_cluster` events/s report.
    processed: u64,
}

impl Driver {
    /// Creates a driver with the default 100 ms idle-tick interval.
    pub fn new() -> Self {
        Driver {
            events: EventQueue::new(),
            tick_interval: SimDuration::from_millis(100),
            next_tick: Some(SimTime::ZERO),
            steps: Vec::new(),
            crash_windows: Vec::new(),
            auditor: None,
            last_time: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Number of pending events the queue can hold without re-growing its
    /// entry storage (regression-asserted by the `hot_path` gates).
    pub fn event_capacity(&self) -> usize {
        self.events.capacity()
    }

    /// Total events processed so far: arrivals and step completions (each
    /// counted once, although completions never enter the queue) plus
    /// idle-tick rounds. A fast-forwarded round counts as if it had fired,
    /// so the total does not depend on which engines declare a no-op tick.
    pub fn processed_events(&self) -> u64 {
        self.processed
    }

    /// The seq the driver draws next, for a queued arrival or a started
    /// step. Like [`Driver::processed_events`], it counts every step of a
    /// decode run, however the engine took them.
    pub fn next_seq(&self) -> u64 {
        self.events.next_seq()
    }

    /// The firing time of the earliest pending event, if any — a queued
    /// arrival or an in-flight step's completion. This is the shard clock
    /// the PDES lane executor reads between windows.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let step = self.earliest_step().map(|(_, (t, _))| t);
        [self.events.peek_time(), step].into_iter().flatten().min()
    }

    /// The in-flight step with the smallest `(completion, seq)` key, with
    /// its engine index.
    fn earliest_step(&self) -> Option<(usize, (SimTime, u64))> {
        let mut best: Option<(usize, (SimTime, u64))> = None;
        for (i, slot) in self.steps.iter().enumerate() {
            if let Some(key) = *slot {
                if best.is_none_or(|(_, b)| key < b) {
                    best = Some((i, key));
                }
            }
        }
        best
    }

    /// Attaches an invariant auditor: every popped event and idle tick is
    /// checked against the last processed timestamp, so a mis-ordered event
    /// queue raises a `time_regression` violation instead of silently
    /// reordering the simulation.
    pub fn set_auditor(&mut self, auditor: SharedAuditor) {
        self.auditor = Some(auditor);
    }

    /// Marks engine `engine` as crashed over `[start, end)`: no steps, no
    /// control ticks (so no informer heartbeats), and arrivals are held
    /// until the engine comes back.
    pub fn crash_window(&mut self, engine: usize, start: SimTime, end: SimTime) {
        assert!(start < end, "crash window must have positive length");
        self.crash_windows.push((engine, start, end));
    }

    /// If `engine` is crashed at `now`, the time it comes back.
    fn crashed_until(&self, engine: usize, now: SimTime) -> Option<SimTime> {
        self.crash_windows
            .iter()
            .filter(|(e, start, end)| *e == engine && *start <= now && now < *end)
            .map(|(_, _, end)| *end)
            .max()
    }

    /// Overrides the idle-tick interval.
    #[cfg(test)]
    fn with_tick_interval(mut self, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "tick interval must be positive");
        self.tick_interval = interval;
        self
    }

    /// Schedules `req` to arrive at engine `engine` at time `at`.
    pub fn schedule_arrival(&mut self, engine: usize, at: SimTime, req: InferenceRequest) {
        self.events.push(at, Ev(engine, req));
    }

    /// Schedules a whole trace of `(time, request)` pairs for one engine,
    /// reserving queue room for all of it first, so the queue holding the
    /// trace never re-grows mid-run.
    pub fn schedule_trace<I>(&mut self, engine: usize, trace: I)
    where
        I: IntoIterator<Item = (SimTime, InferenceRequest)>,
    {
        let trace = trace.into_iter();
        self.events.reserve(trace.size_hint().0);
        for (at, req) in trace {
            self.schedule_arrival(engine, at, req);
        }
    }

    /// Runs until `end` or until no events remain.
    ///
    /// Events after `end` stay queued, so `run` may be called repeatedly
    /// with increasing horizons (the figure harnesses sample state between
    /// chunks). An engine mid-step at `end` finishes that step on the next
    /// call.
    pub fn run(&mut self, engines: &mut [&mut dyn Engine], end: SimTime) {
        if self.steps.len() < engines.len() {
            self.steps.resize(engines.len(), None);
        }
        loop {
            // The next event is the smaller of the queue's head and the
            // earliest in-flight step; keys never tie (one seq counter).
            let queued = self.events.peek_key();
            let step = self.earliest_step();
            let done = step.filter(|&(_, key)| queued.is_none_or(|q| key < q));
            let next_event = done.map_or(queued, |(_, key)| Some(key)).map(|(t, _)| t);
            // Once the tick grid runs past `SimTime::MAX`, only events are left.
            let Some(next) = next_event.into_iter().chain(self.next_tick).min() else {
                break;
            };
            if next > end {
                break;
            }
            self.processed += 1;
            if let Some(now) = next_event.filter(|&t| self.next_tick.is_none_or(|tick| t <= tick)) {
                if let Some(aud) = &self.auditor {
                    aud.check_monotonic("driver.events", self.last_time, now);
                }
                self.last_time = self.last_time.max(now);
                if let Some((i, _)) = done {
                    self.steps[i] = None;
                    self.maybe_start(engines, i, now, Some(end));
                    if self.steps[i].is_none() && self.crashed_until(i, now).is_none() {
                        engines[i].tick(now);
                        self.maybe_start(engines, i, now, Some(end));
                    }
                } else {
                    let (_, Ev(i, req)) = self.events.pop().expect("peeked");
                    if let Some(until) = self.crashed_until(i, now) {
                        // The engine is down: hold the request until it
                        // comes back rather than dropping it.
                        self.events.push(until, Ev(i, req));
                    } else {
                        engines[i].submit(req, now);
                        self.maybe_start(engines, i, now, Some(end));
                    }
                }
            } else {
                // A round no engine acts in changes only the clock, and
                // nothing changes before the next event, so the rounds up to
                // it (and not after `end`) are skipped at once, each counted
                // as if it had fired.
                let idle = self.idle_round_is_noop(engines, None);
                let now = if idle {
                    self.last_tick_before(next, next_event, end)
                } else {
                    next
                };
                self.processed += (now - next).as_nanos() / self.tick_interval.as_nanos();
                if let Some(aud) = &self.auditor {
                    aud.check_monotonic("driver.ticks", self.last_time, now);
                }
                self.last_time = self.last_time.max(now);
                if !idle {
                    for i in 0..engines.len() {
                        if self.steps[i].is_none() && self.crashed_until(i, now).is_none() {
                            engines[i].tick(now);
                            // The engines after `i` still tick at `now`.
                            self.maybe_start(engines, i, now, None);
                        }
                    }
                }
                self.next_tick = now
                    .as_nanos()
                    .checked_add(self.tick_interval.as_nanos())
                    .map(SimTime::from_nanos);
            }
        }
    }

    /// Whether a tick round now would do nothing in every engine but
    /// `except`: each is mid-step, or idle with no work and a no-op tick.
    /// Nothing changes that until the next event, so the same holds for
    /// every round before it.
    fn idle_round_is_noop(&self, engines: &[&mut dyn Engine], except: Option<usize>) -> bool {
        engines
            .iter()
            .zip(&self.steps)
            .enumerate()
            .all(|(j, (e, step))| {
                Some(j) == except || step.is_some() || (e.idle_tick_is_noop() && !e.has_work())
            })
    }

    /// The last instant of the tick grid `first + k·interval` that is
    /// before `next_event` and not after `end`, given `first` is both.
    fn last_tick_before(
        &self,
        first: SimTime,
        next_event: Option<SimTime>,
        end: SimTime,
    ) -> SimTime {
        // `next_event > first`, so it is at least 1 ns.
        let limit = next_event.map_or(end, |t| end.min(SimTime::from_nanos(t.as_nanos() - 1)));
        let interval = self.tick_interval.as_nanos();
        let rounds = (limit - first).as_nanos() / interval;
        SimTime::from_nanos(first.as_nanos() + rounds * interval)
    }

    /// Starts a step of engine `i` at `now` if it is up, idle and has
    /// work, then chains its steps into a decode run (see the module doc)
    /// while the loop would provably process nothing else first. `end` is
    /// the horizon of the current `run`; `None` forbids a run, because
    /// another engine still acts at `now`.
    fn maybe_start(
        &mut self,
        engines: &mut [&mut dyn Engine],
        i: usize,
        now: SimTime,
        end: Option<SimTime>,
    ) {
        if self.crashed_until(i, now).is_some() {
            return;
        }
        if self.steps[i].is_some() || !engines[i].has_work() {
            return;
        }
        let mut start = now;
        let mut done = engines[i].step(now);
        if let Some(end) = end.filter(|&end| start < done && done <= end) {
            let limit = self.run_limit(engines, i, now, end);
            let steps;
            (start, done, steps) = engines[i].step_run(start, done, limit);
            // The completions inside the run are processed here instead of
            // by the loop: each counts and draws the seq its restart would.
            self.processed += steps;
            for _ in 0..steps {
                self.events.take_seq();
            }
        }
        if done <= start {
            // Defensive: engines must advance time; clamp to 1 ns to
            // guarantee global progress even if one misbehaves.
            done = start + SimDuration::from_nanos(1);
        }
        // The seq is drawn where a queued completion would have been
        // pushed, so it ties against arrivals exactly as one would.
        self.steps[i] = Some((done, self.events.take_seq()));
    }

    /// The latest completion of engine `i`, which starts a step at `now`,
    /// that the loop would process next, right after `now`: not after
    /// `end`, before the next queued arrival and every other in-flight
    /// completion (theirs carry smaller seqs, so a tie goes to them),
    /// before `i`'s next crash window opens, and not after the next tick
    /// round unless every other engine is mid-step or idle with no work
    /// and a no-op tick (the rounds in between then change nothing and are
    /// fast-forwarded when the loop resumes). Nothing before that instant
    /// can change any of these bounds, so one computation serves the run.
    fn run_limit(
        &self,
        engines: &[&mut dyn Engine],
        i: usize,
        now: SimTime,
        end: SimTime,
    ) -> SimTime {
        let just_before = |t: SimTime| SimTime::from_nanos(t.as_nanos().saturating_sub(1));
        let mut limit = end;
        let arrival = self.events.peek_time();
        let others = self.steps.iter().flatten().map(|&(t, _)| t);
        let crash = self
            .crash_windows
            .iter()
            .filter(|&&(e, start, _)| e == i && start > now)
            .map(|&(_, start, _)| start);
        for t in arrival.into_iter().chain(others).chain(crash) {
            limit = limit.min(just_before(t));
        }
        let quiet = self.idle_round_is_noop(engines, Some(i));
        if let (false, Some(tick)) = (quiet, self.next_tick) {
            limit = limit.min(tick);
        }
        limit
    }
}

impl Default for Driver {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial engine that takes a fixed time per request. Its tick only
    /// counts, so it may declare the tick a no-op (`noop_tick`) or not; the
    /// driver must behave the same either way.
    struct FixedEngine {
        pending: Vec<(InferenceRequest, SimTime)>,
        per_req: SimDuration,
        done: Vec<RequestRecord>,
        ticks: usize,
        noop_tick: bool,
    }

    impl FixedEngine {
        fn new(ms: u64) -> Self {
            FixedEngine {
                pending: Vec::new(),
                per_req: SimDuration::from_millis(ms),
                done: Vec::new(),
                ticks: 0,
                noop_tick: false,
            }
        }
    }

    impl Engine for FixedEngine {
        fn submit(&mut self, req: InferenceRequest, now: SimTime) {
            self.pending.push((req, now));
        }
        fn has_work(&self) -> bool {
            !self.pending.is_empty()
        }
        fn step(&mut self, now: SimTime) -> SimTime {
            let (req, arrival) = self.pending.remove(0);
            let end = now + self.per_req;
            self.done.push(RequestRecord {
                id: req.id.0,
                arrival,
                first_token: end,
                completion: end,
                output_tokens: req.output_tokens,
            });
            end
        }
        fn tick(&mut self, _now: SimTime) {
            self.ticks += 1;
        }
        fn idle_tick_is_noop(&self) -> bool {
            self.noop_tick
        }
        fn drain_completions(&mut self) -> Vec<RequestRecord> {
            std::mem::take(&mut self.done)
        }
    }

    #[test]
    fn sequential_requests_queue_on_one_engine() {
        let mut driver = Driver::new();
        for i in 0..3 {
            driver.schedule_arrival(0, SimTime::ZERO, InferenceRequest::text(i, 1, 1));
        }
        let mut e = FixedEngine::new(100);
        let mut engines: Vec<&mut dyn Engine> = vec![&mut e];
        driver.run(&mut engines, SimTime::from_secs(10));
        let recs = e.drain_completions();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].completion, SimTime::from_millis(100));
        assert_eq!(recs[1].completion, SimTime::from_millis(200));
        assert_eq!(recs[2].completion, SimTime::from_millis(300));
    }

    #[test]
    fn decode_runs_draw_the_seqs_the_loop_would() {
        // The steps at 100 and 200 ms chain in one decode run; each still
        // counts one event and draws the seq its completion would have.
        let mut driver = Driver::new().with_tick_interval(SimDuration::from_secs(1000));
        for i in 0..3 {
            driver.schedule_arrival(0, SimTime::ZERO, InferenceRequest::text(i, 1, 1));
        }
        let mut e = FixedEngine::new(100);
        driver.run(&mut [&mut e], SimTime::from_secs(1));
        assert_eq!(e.drain_completions().len(), 3);
        // 3 arrivals + 3 completions + the tick round at t = 0.
        assert_eq!(driver.processed_events(), 7);
        // 3 arrival pushes + 3 step starts.
        assert_eq!(driver.events.take_seq(), 6);
    }

    #[test]
    fn engines_run_in_parallel() {
        let mut driver = Driver::new();
        driver.schedule_arrival(0, SimTime::ZERO, InferenceRequest::text(0, 1, 1));
        driver.schedule_arrival(1, SimTime::ZERO, InferenceRequest::text(1, 1, 1));
        let mut a = FixedEngine::new(100);
        let mut b = FixedEngine::new(100);
        {
            let mut engines: Vec<&mut dyn Engine> = vec![&mut a, &mut b];
            driver.run(&mut engines, SimTime::from_secs(1));
        }
        assert_eq!(
            a.drain_completions()[0].completion,
            SimTime::from_millis(100)
        );
        assert_eq!(
            b.drain_completions()[0].completion,
            SimTime::from_millis(100)
        );
    }

    #[test]
    fn end_time_cuts_off_new_arrivals() {
        let mut driver = Driver::new();
        driver.schedule_arrival(0, SimTime::from_secs(5), InferenceRequest::text(0, 1, 1));
        let mut e = FixedEngine::new(10);
        let mut engines: Vec<&mut dyn Engine> = vec![&mut e];
        driver.run(&mut engines, SimTime::from_secs(1));
        assert!(e.drain_completions().is_empty());
        assert!(!e.has_work());
    }

    #[test]
    fn idle_engines_get_ticks() {
        let mut driver = Driver::new();
        let mut e = FixedEngine::new(10);
        {
            let mut engines: Vec<&mut dyn Engine> = vec![&mut e];
            driver.run(&mut engines, SimTime::from_secs(1));
        }
        // 1 s of 100 ms ticks ≈ 10 tick events (plus step-done ticks).
        assert!(e.ticks >= 9, "got {} ticks", e.ticks);
    }

    #[test]
    fn crashed_engine_holds_arrivals_instead_of_losing_them() {
        let mut driver = Driver::new();
        driver.crash_window(0, SimTime::from_secs(1), SimTime::from_secs(3));
        // One arrival before, one during, one after the crash.
        driver.schedule_arrival(
            0,
            SimTime::from_millis(500),
            InferenceRequest::text(0, 1, 1),
        );
        driver.schedule_arrival(0, SimTime::from_secs(2), InferenceRequest::text(1, 1, 1));
        driver.schedule_arrival(0, SimTime::from_secs(4), InferenceRequest::text(2, 1, 1));
        let mut e = FixedEngine::new(10);
        let mut engines: Vec<&mut dyn Engine> = vec![&mut e];
        driver.run(&mut engines, SimTime::from_secs(10));
        let recs = e.drain_completions();
        assert_eq!(recs.len(), 3, "no request is lost to the crash");
        // The mid-crash arrival was held until the engine came back.
        let held = recs.iter().find(|r| r.id == 1).expect("completed");
        assert!(held.completion >= SimTime::from_secs(3));
    }

    #[test]
    fn crashed_engine_gets_no_ticks() {
        let mut driver = Driver::new();
        driver.crash_window(0, SimTime::ZERO, SimTime::from_secs(2));
        let mut crashed = FixedEngine::new(10);
        let mut healthy = FixedEngine::new(10);
        {
            let mut engines: Vec<&mut dyn Engine> = vec![&mut crashed, &mut healthy];
            driver.run(&mut engines, SimTime::from_secs(1));
        }
        assert_eq!(crashed.ticks, 0, "no control ticks while down");
        assert!(healthy.ticks >= 9, "sibling keeps ticking");
    }

    #[test]
    fn pre_sized_queue_never_regrows_and_counts_events() {
        let trace: Vec<(SimTime, InferenceRequest)> = (0..256)
            .map(|i| (SimTime::from_millis(i * 5), InferenceRequest::text(i, 1, 1)))
            .collect();
        let requests = trace.len();
        let mut driver = Driver::new();
        driver.schedule_trace(0, trace);
        assert_eq!(driver.next_event_time(), Some(SimTime::ZERO));
        let before = driver.event_capacity();
        assert!(before >= requests);
        let mut e = FixedEngine::new(1);
        let mut engines: Vec<&mut dyn Engine> = vec![&mut e];
        driver.run(&mut engines, SimTime::from_secs(10));
        assert_eq!(
            driver.event_capacity(),
            before,
            "a queue sized by schedule_trace must not re-grow mid-run"
        );
        // 256 arrivals + 256 step completions (held outside the queue, but
        // still counted) + 101 idle-tick rounds at 0, 100 ms, ..., 10 s.
        assert_eq!(driver.processed_events(), 256 + 256 + 101);
        assert_eq!(e.drain_completions().len(), 256);
        assert_eq!(driver.next_event_time(), None);
    }

    /// What a [`LogEngine`] saw: `(engine, action, request or 0, ms)`.
    type Log = std::rc::Rc<std::cell::RefCell<Vec<(usize, &'static str, u64, u64)>>>;

    /// A [`FixedEngine`] that appends every submit, step and tick to a log
    /// shared across engines, so tests can pin the driver's global order.
    struct LogEngine {
        index: usize,
        inner: FixedEngine,
        log: Log,
    }

    impl LogEngine {
        fn new(index: usize, ms: u64, log: &Log) -> Self {
            LogEngine {
                index,
                inner: FixedEngine::new(ms),
                log: log.clone(),
            }
        }

        fn note(&self, action: &'static str, id: u64, now: SimTime) {
            let ms = now.as_nanos() / 1_000_000;
            self.log.borrow_mut().push((self.index, action, id, ms));
        }
    }

    impl Engine for LogEngine {
        fn submit(&mut self, req: InferenceRequest, now: SimTime) {
            self.note("submit", req.id.0, now);
            self.inner.submit(req, now);
        }
        fn has_work(&self) -> bool {
            self.inner.has_work()
        }
        fn step(&mut self, now: SimTime) -> SimTime {
            self.note("step", self.inner.pending[0].0.id.0, now);
            self.inner.step(now)
        }
        fn tick(&mut self, now: SimTime) {
            self.note("tick", 0, now);
        }
        fn idle_tick_is_noop(&self) -> bool {
            self.inner.idle_tick_is_noop()
        }
        fn drain_completions(&mut self) -> Vec<RequestRecord> {
            self.inner.drain_completions()
        }
    }

    /// Runs `engines` LogEngines of 100 ms steps to 1 s with idle ticks
    /// pushed past the horizon (one round at t = 0 only).
    fn logged_run(driver: &mut Driver, engines: usize) -> Vec<(usize, &'static str, u64, u64)> {
        let log = Log::default();
        let mut es: Vec<LogEngine> = (0..engines).map(|i| LogEngine::new(i, 100, &log)).collect();
        let mut refs: Vec<&mut dyn Engine> = es.iter_mut().map(|e| e as &mut dyn Engine).collect();
        driver.run(&mut refs, SimTime::from_secs(1));
        log.take()
    }

    fn slow_ticks() -> Driver {
        Driver::new().with_tick_interval(SimDuration::from_secs(1000))
    }

    #[test]
    fn arrival_queued_before_a_step_beats_its_completion() {
        // Request 1 was queued before request 0's step started, so at the
        // shared 100 ms instant it is submitted first and the engine goes
        // straight into its next step, with no idle tick in between.
        let mut driver = slow_ticks();
        driver.schedule_arrival(0, SimTime::ZERO, InferenceRequest::text(0, 1, 1));
        driver.schedule_arrival(
            0,
            SimTime::from_millis(100),
            InferenceRequest::text(1, 1, 1),
        );
        assert_eq!(
            logged_run(&mut driver, 1),
            vec![
                (0, "submit", 0, 0),
                (0, "step", 0, 0),
                (0, "submit", 1, 100),
                (0, "step", 1, 100),
                (0, "tick", 0, 200),
            ]
        );
    }

    #[test]
    fn arrival_requeued_after_a_step_started_follows_its_completion() {
        // Request 1 lands in a crash window and is re-queued for the
        // window's end while request 0's step is in flight, so its key is
        // younger: the step completes (and the idle engine ticks) first.
        let mut driver = slow_ticks();
        driver.crash_window(0, SimTime::from_millis(50), SimTime::from_millis(100));
        driver.schedule_arrival(0, SimTime::ZERO, InferenceRequest::text(0, 1, 1));
        driver.schedule_arrival(0, SimTime::from_millis(50), InferenceRequest::text(1, 1, 1));
        assert_eq!(
            logged_run(&mut driver, 1),
            vec![
                (0, "submit", 0, 0),
                (0, "step", 0, 0),
                (0, "tick", 0, 100),
                (0, "submit", 1, 100),
                (0, "step", 1, 100),
                (0, "tick", 0, 200),
            ]
        );
    }

    #[test]
    fn simultaneous_completions_restart_in_start_order() {
        // Engine 1's step starts before engine 0's; both finish at 100 ms
        // and restart in that same order, not in engine-index order.
        let mut driver = slow_ticks();
        for (engine, id) in [(1, 10), (0, 0), (1, 11), (0, 1)] {
            driver.schedule_arrival(engine, SimTime::ZERO, InferenceRequest::text(id, 1, 1));
        }
        let steps: Vec<_> = logged_run(&mut driver, 2)
            .into_iter()
            .filter(|&(_, action, _, _)| action == "step")
            .collect();
        assert_eq!(
            steps,
            vec![
                (1, "step", 10, 0),
                (0, "step", 0, 0),
                (1, "step", 11, 100),
                (0, "step", 1, 100),
            ]
        );
    }

    #[test]
    fn next_event_time_sees_in_flight_steps() {
        let mut driver = Driver::new();
        driver.schedule_arrival(0, SimTime::ZERO, InferenceRequest::text(0, 1, 1));
        driver.schedule_arrival(0, SimTime::from_secs(5), InferenceRequest::text(1, 1, 1));
        let mut e = FixedEngine::new(300);
        let mut engines: Vec<&mut dyn Engine> = vec![&mut e];
        // Stop mid-step: the step's completion is the next event, ahead of
        // the queued arrival.
        driver.run(&mut engines, SimTime::from_millis(200));
        assert_eq!(driver.next_event_time(), Some(SimTime::from_millis(300)));
        driver.run(&mut engines, SimTime::from_secs(1));
        assert_eq!(driver.next_event_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn trace_scheduling() {
        let mut driver = Driver::new();
        let trace = (0..5).map(|i| {
            (
                SimTime::from_millis(i * 10),
                InferenceRequest::text(i, 1, 1),
            )
        });
        driver.schedule_trace(0, trace);
        let mut e = FixedEngine::new(1);
        let mut engines: Vec<&mut dyn Engine> = vec![&mut e];
        driver.run(&mut engines, SimTime::from_secs(1));
        assert_eq!(e.drain_completions().len(), 5);
    }

    /// What one run of [`fast_forward_scenario`] shows from outside: the
    /// engines' log in global order, each engine's completions, and
    /// `processed_events` and `next_event_time` after every `run` call.
    type Observed = (
        Vec<(usize, &'static str, u64, u64)>,
        Vec<Vec<RequestRecord>>,
        Vec<(u64, Option<SimTime>)>,
    );

    /// Two engines of 100 ms steps over 10 s, run once per horizon in
    /// `ends`. Engine 0 holds a request through a crash window whose
    /// off-grid end leaves a tick round to restart it; engine 1 gets one
    /// arrival re-queued out of its own crash window, one exactly on a tick
    /// instant (so its step also ends on one, where a skip must stop), and
    /// one after a long idle gap. `noop_tick[i]` is what engine `i`
    /// declares.
    fn fast_forward_scenario(noop_tick: [bool; 2], ends: &[SimTime]) -> Observed {
        let mut driver = Driver::new();
        let auditor = aqua_sim::audit::Auditor::collecting();
        driver.set_auditor(auditor.clone());
        for id in 0..3 {
            driver.schedule_arrival(0, SimTime::ZERO, InferenceRequest::text(id, 1, 1));
        }
        driver.crash_window(0, SimTime::from_millis(150), SimTime::from_millis(1_250));
        driver.schedule_arrival(1, SimTime::from_secs(3), InferenceRequest::text(10, 1, 1));
        driver.crash_window(1, SimTime::from_secs(2), SimTime::from_millis(2_550));
        driver.schedule_arrival(
            1,
            SimTime::from_millis(2_100),
            InferenceRequest::text(11, 1, 1),
        );
        driver.schedule_arrival(
            1,
            SimTime::from_millis(7_770),
            InferenceRequest::text(12, 1, 1),
        );
        let log = Log::default();
        let mut es: Vec<LogEngine> = (0..2).map(|i| LogEngine::new(i, 100, &log)).collect();
        for (e, noop) in es.iter_mut().zip(noop_tick) {
            e.inner.noop_tick = noop;
        }
        let mut clocks = Vec::new();
        {
            let mut refs: Vec<&mut dyn Engine> =
                es.iter_mut().map(|e| e as &mut dyn Engine).collect();
            for &end in ends {
                driver.run(&mut refs, end);
                clocks.push((driver.processed_events(), driver.next_event_time()));
            }
        }
        assert!(auditor.is_clean(), "the timeline never ran backwards");
        let done = es.iter_mut().map(|e| e.drain_completions()).collect();
        (log.take(), done, clocks)
    }

    /// `fast_forward_scenario` must look the same whichever engines
    /// declare a no-op tick as when every round fires, apart from the
    /// ticks of the no-op engines.
    fn assert_fast_forward_is_invisible(ends: &[SimTime]) {
        let ticks = |o: &Observed| o.0.iter().filter(|&&(_, a, _, _)| a == "tick").count();
        let fired = fast_forward_scenario([false, false], ends);
        assert_eq!(fired.1.iter().map(Vec::len).sum::<usize>(), 6);
        for noop in [[true, true], [true, false], [false, true]] {
            let mut skipped = fast_forward_scenario(noop, ends);
            // Fast-forwarded rounds never reach the engines.
            assert!(ticks(&skipped) < ticks(&fired), "{noop:?}");
            let mut expected = fired.clone();
            for o in [&mut skipped, &mut expected] {
                o.0.retain(|&(i, action, _, _)| action != "tick" || !noop[i]);
            }
            assert_eq!(skipped, expected, "no-op ticks {noop:?}");
        }
    }

    #[test]
    fn fast_forward_matches_ticking_every_round() {
        assert_fast_forward_is_invisible(&[SimTime::from_secs(10)]);
    }

    #[test]
    fn fast_forward_matches_ticking_every_round_in_windows() {
        // PDES lanes run each exclusive window `[.., u)` as `run(u - 1 ns)`;
        // the cuts land before, on and between tick instants and events.
        let before = |ms: u64| SimTime::from_nanos(ms * 1_000_000 - 1);
        assert_fast_forward_is_invisible(&[
            before(350),
            before(1_250),
            before(1_300),
            before(2_550),
            before(3_000),
            before(5_000),
            SimTime::from_secs(5),
            before(7_770),
            before(10_000),
            SimTime::from_secs(10),
        ]);
    }

    #[test]
    fn idle_run_to_the_end_of_time_returns() {
        let mut driver = Driver::new();
        driver.schedule_arrival(0, SimTime::from_secs(5), InferenceRequest::text(0, 1, 1));
        let mut e = FixedEngine::new(100);
        e.noop_tick = true;
        driver.run(&mut [&mut e], SimTime::MAX);
        // The arrival, its step, and every 100 ms grid instant up to
        // `SimTime::MAX`; the grid then runs out instead of wrapping.
        let rounds = u64::MAX / 100_000_000 + 1;
        assert_eq!(driver.processed_events(), 2 + rounds);
        assert_eq!(driver.next_event_time(), None);
        assert_eq!(e.drain_completions().len(), 1);
        driver.run(&mut [&mut e], SimTime::MAX);
        assert_eq!(driver.processed_events(), 2 + rounds);
    }
}
