//! Golden driver order: every `submit`, `step` and `tick` the driver makes,
//! with its simulated time, plus `processed_events()` and
//! `next_event_time()` after each `run()`, pinned byte for byte against
//! `driver_order.golden`.
//!
//! The probe engines decode like a continuous-batching engine (a request
//! needs one step per output token, and every step advances the whole
//! batch), so consecutive steps of one engine chain back to back. The
//! scenarios put something at every place where that chain must stop: an
//! arrival exactly at a completion, a second engine with a live tick, a
//! crash window opening mid-decode, `run()` horizons that cut a decode, and
//! a step that returns `now` (which the driver clamps to 1 ns).
//!
//! On a mismatch the test writes what it saw to
//! `$CARGO_TARGET_TMPDIR/driver_order.actual` and names the first line
//! that differs.

use aqua_engines::driver::{Driver, Engine};
use aqua_engines::request::InferenceRequest;
use aqua_metrics::requests::RequestRecord;
use aqua_sim::audit::Auditor;
use aqua_sim::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

/// The shared call log, one rendered line per engine call.
type Log = Rc<RefCell<String>>;

/// A decoding probe: every step emits one token for each request in the
/// batch and takes `step` (or returns `now` on the `clamp_step`-th step).
struct Probe {
    index: usize,
    step: SimDuration,
    /// `(request, tokens left, arrival)` in admission order.
    batch: Vec<(u64, u64, SimTime)>,
    live_tick: bool,
    clamp_step: Option<u64>,
    steps: u64,
    done: Vec<RequestRecord>,
    log: Log,
}

impl Probe {
    fn new(index: usize, step_ms: u64, log: &Log) -> Self {
        Probe {
            index,
            step: SimDuration::from_millis(step_ms),
            batch: Vec::new(),
            live_tick: false,
            clamp_step: None,
            steps: 0,
            done: Vec::new(),
            log: log.clone(),
        }
    }

    fn note(&self, action: &str, detail: u64, now: SimTime) {
        let mut log = self.log.borrow_mut();
        writeln!(log, "e{} {action} {detail} @{}", self.index, now.as_nanos()).unwrap();
    }
}

impl Engine for Probe {
    fn submit(&mut self, req: InferenceRequest, now: SimTime) {
        self.note("submit", req.id.0, now);
        self.batch.push((req.id.0, req.output_tokens, now));
    }

    fn has_work(&self) -> bool {
        !self.batch.is_empty()
    }

    fn step(&mut self, now: SimTime) -> SimTime {
        self.steps += 1;
        self.note("step", self.batch.len() as u64, now);
        let end = if self.clamp_step == Some(self.steps) {
            now
        } else {
            now + self.step
        };
        for entry in &mut self.batch {
            entry.1 -= 1;
        }
        for &(id, _, arrival) in self.batch.iter().filter(|e| e.1 == 0) {
            self.done.push(RequestRecord {
                id,
                arrival,
                first_token: end,
                completion: end,
                output_tokens: 1,
            });
        }
        self.batch.retain(|e| e.1 > 0);
        end
    }

    fn tick(&mut self, now: SimTime) {
        self.note("tick", 0, now);
    }

    fn idle_tick_is_noop(&self) -> bool {
        !self.live_tick
    }

    fn drain_completions(&mut self) -> Vec<RequestRecord> {
        std::mem::take(&mut self.done)
    }
}

/// One scenario: its engines, arrivals `(engine, ms, id, tokens)`, crash
/// windows `(engine, start ms, end ms)` and `run()` horizons in ns.
struct Scenario {
    name: &'static str,
    steps_ms: &'static [u64],
    live_tick: &'static [usize],
    clamp: Option<(usize, u64)>,
    arrivals: &'static [(usize, u64, u64, u64)],
    crashes: &'static [(usize, u64, u64)],
    ends_ns: &'static [u64],
}

const MS: u64 = 1_000_000;

fn render(s: &Scenario) -> String {
    let log = Log::default();
    writeln!(log.borrow_mut(), "# {}", s.name).unwrap();
    let mut driver = Driver::new();
    let auditor = Auditor::collecting();
    driver.set_auditor(auditor.clone());
    for &(engine, ms, id, tokens) in s.arrivals {
        driver.schedule_arrival(
            engine,
            SimTime::from_millis(ms),
            InferenceRequest::text(id, 1, tokens),
        );
    }
    for &(engine, start, end) in s.crashes {
        driver.crash_window(
            engine,
            SimTime::from_millis(start),
            SimTime::from_millis(end),
        );
    }
    let mut probes: Vec<Probe> = s
        .steps_ms
        .iter()
        .enumerate()
        .map(|(i, &ms)| Probe::new(i, ms, &log))
        .collect();
    for &i in s.live_tick {
        probes[i].live_tick = true;
    }
    if let Some((i, n)) = s.clamp {
        probes[i].clamp_step = Some(n);
    }
    {
        let mut engines: Vec<&mut dyn Engine> =
            probes.iter_mut().map(|p| p as &mut dyn Engine).collect();
        for &end in s.ends_ns {
            driver.run(&mut engines, SimTime::from_nanos(end));
            let next = driver.next_event_time().map(SimTime::as_nanos);
            writeln!(
                log.borrow_mut(),
                "run {end}: processed {} next {next:?}",
                driver.processed_events()
            )
            .unwrap();
        }
    }
    assert!(auditor.is_clean(), "{}: the timeline ran backwards", s.name);
    let mut out = log.take();
    for p in &mut probes {
        for r in p.drain_completions() {
            writeln!(
                out,
                "e{} done {} @{}",
                p.index,
                r.id,
                r.completion.as_nanos()
            )
            .unwrap();
        }
    }
    out
}

const SCENARIOS: &[Scenario] = &[
    // Request 1 arrives exactly at a completion of request 0's decode and
    // was queued first, so it is submitted before the next step; request 2
    // lands mid-step. One engine with a no-op idle tick.
    Scenario {
        name: "arrival exactly at a completion",
        steps_ms: &[10],
        live_tick: &[],
        clamp: None,
        arrivals: &[(0, 0, 0, 6), (0, 30, 1, 4), (0, 45, 2, 3), (0, 400, 3, 2)],
        crashes: &[],
        ends_ns: &[1_000 * MS],
    },
    // Engine 1 has a live (informer-style) tick, so every 100 ms grid round
    // fires while engine 0 decodes; later engine 1 decodes too, and the
    // two engines' completions interleave and tie (30 ms vs 20 ms steps).
    Scenario {
        name: "a second engine with a live tick",
        steps_ms: &[30, 20],
        live_tick: &[1],
        clamp: None,
        arrivals: &[
            (0, 10, 0, 25),
            (1, 350, 10, 8),
            (1, 360, 11, 3),
            (0, 700, 1, 2),
        ],
        crashes: &[],
        ends_ns: &[1_500 * MS],
    },
    // The same with a neighbour whose idle tick is a no-op: grid rounds
    // inside engine 0's decode are fast-forwarded.
    Scenario {
        name: "a second engine with a no-op tick",
        steps_ms: &[30, 20],
        live_tick: &[],
        clamp: None,
        arrivals: &[
            (0, 10, 0, 25),
            (1, 350, 10, 8),
            (1, 360, 11, 3),
            (0, 700, 1, 2),
        ],
        crashes: &[],
        ends_ns: &[1_500 * MS],
    },
    // A crash window opens mid-decode (the completion at 60 ms lands in
    // it), another opens exactly at a completion (170 ms); an arrival
    // inside the first is held until it closes. After the second window
    // the engine restarts in a tick round in which its idle neighbour (a
    // no-op tick, but the round fires) still ticks after it.
    Scenario {
        name: "a crash window opening mid-run",
        steps_ms: &[20, 10],
        live_tick: &[],
        clamp: None,
        arrivals: &[(0, 0, 0, 10), (0, 70, 1, 3)],
        crashes: &[(0, 55, 90), (0, 170, 185)],
        ends_ns: &[1_000 * MS],
    },
    // `run()` re-entered with horizons before, on and after completions
    // and grid points, cutting the decode of both engines.
    Scenario {
        name: "run() re-entered with horizons that cut a run",
        steps_ms: &[30, 20],
        live_tick: &[],
        clamp: None,
        arrivals: &[(0, 10, 0, 25), (1, 350, 10, 8), (1, 360, 11, 3)],
        crashes: &[],
        ends_ns: &[
            55 * MS,
            70 * MS,
            70 * MS - 1,
            100 * MS - 1,
            100 * MS,
            101 * MS,
            310 * MS,
            370 * MS - 1,
            400 * MS,
            770 * MS,
            2_000 * MS,
        ],
    },
    // Engine 0's third step returns `now`; the driver clamps it to 1 ns
    // and the decode goes on from there.
    Scenario {
        name: "a step that returns now",
        steps_ms: &[10, 25],
        live_tick: &[],
        clamp: Some((0, 3)),
        arrivals: &[(0, 0, 0, 6), (1, 5, 10, 3)],
        crashes: &[],
        ends_ns: &[500 * MS],
    },
];

#[test]
fn driver_call_order_matches_the_golden_log() {
    let actual: String = SCENARIOS.iter().map(render).collect();
    let golden = include_str!("driver_order.golden");
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("driver_order.actual");
        std::fs::write(&path, &actual).expect("write the actual log");
        let (line, (want, got)) = golden
            .lines()
            .chain(std::iter::repeat("<end>"))
            .zip(actual.lines().chain(std::iter::repeat("<end>")))
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .expect("logs differ, so some line differs");
        panic!(
            "driver order changed at golden line {}: want `{want}`, got `{got}` (full log in {})",
            line + 1,
            path.display()
        );
    }
}
