//! Chrome/Perfetto trace-event export.
//!
//! [`chrome_trace`] renders a journal into the JSON object format understood
//! by `chrome://tracing`, Perfetto and speedscope: one process (`pid`) per
//! simulated server plus a process for engines and control plane, one thread
//! (`tid`) per link lane or engine scope, `"X"` duration events for
//! transfers/slices/window fetches, `"i"` instants for discrete actions and
//! `"C"` counter tracks for each gateway's `queue_depth` and `running`.
//! Timestamps are microseconds of simulated time; events are sorted so `ts`
//! is monotone within every `tid`. Each event's name, category, lane and
//! args come from its row of the event table in [`crate::event`]; the
//! counter tracks are replayed from the gateway edges
//! ([`gateway_levels`]).

use crate::encode::Field;
use crate::event::TraceEvent;
use crate::json::escape_into;
use crate::levels::gateway_levels;
use crate::time::SimTime;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write;

/// The `pid` used for engines, informers and the coordinator (servers get
/// `server + 1`).
const CONTROL_PID: u32 = 0;

/// One rendered trace event, before sorting. Built by the code the event
/// table generates ([`TraceEvent`]'s `chrome_entry`).
pub(crate) struct Entry<'a> {
    name: Cow<'a, str>,
    cat: &'static str,
    ph: char,
    pid: u32,
    tid: u32,
    start: SimTime,
    end: SimTime,
    /// Fields that name the event or its lane, and so are not args.
    skip: [&'static str; 2],
    /// The `args` object's members, already JSON.
    args: String,
}

impl<'a> Entry<'a> {
    /// An instant on the control-plane process until the row's fields say
    /// otherwise.
    pub(crate) fn new(name: &'a str, cat: &'static str, skip: [&'static str; 2]) -> Self {
        Entry {
            name: Cow::Borrowed(name),
            cat,
            ph: 'i',
            pid: CONTROL_PID,
            tid: 0,
            start: SimTime::ZERO,
            end: SimTime::ZERO,
            skip,
            args: String::new(),
        }
    }

    /// Places the entry on a server's process.
    pub(crate) fn server(&mut self, server: u32) {
        self.pid = server + 1;
    }

    /// The entry's time (`at`), or the start of its span.
    pub(crate) fn start(&mut self, t: SimTime) {
        self.start = t;
    }

    /// Makes the entry a duration event ending at `t`.
    pub(crate) fn end(&mut self, t: SimTime) {
        self.ph = 'X';
        self.end = t;
    }

    /// A sample of `value` at `at` on the control process's counter track
    /// `name`.
    fn counter(name: String, at: SimTime, value: u64) -> Self {
        let mut entry = Entry::new("", "level", ["", ""]);
        entry.name = Cow::Owned(name);
        entry.ph = 'C';
        entry.start(at);
        entry.arg("value", &value);
        entry
    }

    /// Puts the entry on the lane named `label` within its process.
    pub(crate) fn lane(&mut self, lanes: &mut Lanes, label: &str) {
        self.tid = lanes.tid(self.pid, label);
    }

    /// Adds one field to `args`, encoded as in the journal line.
    pub(crate) fn arg<F: Field + ?Sized>(&mut self, key: &'static str, value: &F) {
        if self.skip.contains(&key) {
            return;
        }
        if !self.args.is_empty() {
            self.args.push(',');
        }
        self.args.push('"');
        self.args.push_str(key);
        self.args.push_str("\":");
        value.encode(&mut self.args);
    }

    fn ts(&self) -> u64 {
        self.start.as_nanos() / 1_000
    }
}

/// Deterministic `(pid, label) -> tid` assignment in first-appearance order.
#[derive(Default)]
pub(crate) struct Lanes {
    /// `pid -> label -> tid`, so a lookup borrows the label and only a new
    /// lane allocates.
    ids: BTreeMap<u32, BTreeMap<String, u32>>,
    order: Vec<(u32, String, u32)>,
    next: u32,
}

impl Lanes {
    fn tid(&mut self, pid: u32, label: &str) -> u32 {
        let ids = self.ids.entry(pid).or_default();
        if let Some(&tid) = ids.get(label) {
            return tid;
        }
        self.next += 1;
        ids.insert(label.to_owned(), self.next);
        self.order.push((pid, label.to_owned(), self.next));
        self.next
    }
}

/// Renders a journal as a complete Chrome trace-event JSON document.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut lanes = Lanes::default();
    let mut entries: Vec<Entry> = events.iter().map(|e| e.chrome_entry(&mut lanes)).collect();
    // Each gateway's level tracks, one sample wherever a level moves.
    let levels = gateway_levels(events);
    let mut last: HashMap<&str, [Option<u64>; 2]> = HashMap::new();
    for level in &levels {
        let previous = last.entry(level.gateway.as_str()).or_default();
        let tracks = [
            ("queue_depth", level.queue_depth),
            ("running", level.running),
        ];
        for ((track, value), shown) in tracks.into_iter().zip(previous) {
            if shown.replace(value) != Some(value) {
                let name = format!("{}.{track}", level.gateway);
                entries.push(Entry::counter(name, level.at, value));
            }
        }
    }
    let servers: BTreeSet<u32> = entries
        .iter()
        .filter(|e| e.pid != CONTROL_PID)
        .map(|e| e.pid - 1)
        .collect();

    // Monotone ts per tid: stable sort by (ts, pid, tid) keeps emission order
    // for ties while ordering every thread's timeline.
    entries.sort_by_key(|e| (e.ts(), e.pid, e.tid));

    let mut out = String::with_capacity(entries.len() * 96 + 256);
    // Process/thread naming metadata first, opening with the control
    // process's name; every later entry starts with its comma.
    out.push_str(concat!(
        r#"{"displayTimeUnit":"ms","traceEvents":["#,
        r#"{"name":"process_name","ph":"M","pid":0,"args":{"name":"aqua"}}"#
    ));
    for server in &servers {
        let label = format!("server{server}");
        metadata_entry(&mut out, "process_name", server + 1, None, &label);
    }
    for (pid, label, tid) in &lanes.order {
        metadata_entry(&mut out, "thread_name", *pid, Some(*tid), label);
    }

    for e in &entries {
        out.push_str(",{\"name\":\"");
        escape_into(&mut out, &e.name);
        out.push_str("\",\"cat\":\"");
        out.push_str(e.cat);
        out.push_str("\",\"ph\":\"");
        out.push(e.ph);
        out.push('"');
        if e.ph == 'i' {
            out.push_str(",\"s\":\"t\"");
        }
        let _ = write!(
            out,
            ",\"ts\":{},\"pid\":{},\"tid\":{}",
            e.ts(),
            e.pid,
            e.tid
        );
        if e.ph == 'X' {
            let dur = e.end.duration_since(e.start).as_nanos() / 1_000;
            let _ = write!(out, ",\"dur\":{dur}");
        }
        out.push_str(",\"args\":{");
        out.push_str(&e.args);
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Appends one `"M"` metadata entry naming a process or, with `tid`, a lane.
fn metadata_entry(out: &mut String, name: &str, pid: u32, tid: Option<u32>, label: &str) {
    let _ = write!(out, ",{{\"name\":\"{name}\",\"ph\":\"M\",\"pid\":{pid}");
    if let Some(tid) = tid {
        let _ = write!(out, ",\"tid\":{tid}");
    }
    out.push_str(",\"args\":{\"name\":\"");
    escape_into(out, label);
    out.push_str("\"}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, JsonValue};
    use std::collections::HashMap;

    fn sample_journal() -> Vec<TraceEvent> {
        vec![
            TraceEvent::TransferCompleted {
                server: 0,
                lane: "nvlink-egress:gpu0".into(),
                bytes: 100,
                chunks: 1,
                queued: SimTime::from_millis(1),
                start: SimTime::from_millis(2),
                end: SimTime::from_millis(4),
            },
            TraceEvent::SliceFinished {
                engine: "cfs".into(),
                slice: 1,
                active: 3,
                tokens: 12,
                start: SimTime::from_millis(1),
                end: SimTime::from_millis(5),
            },
            TraceEvent::LeaseGranted {
                producer: "s0/gpu1".into(),
                lease: 1,
                bytes: 1 << 30,
                at: SimTime::from_millis(3),
            },
            TraceEvent::GatewayEnqueued {
                gateway: "gw".into(),
                tenant: 0,
                request: 1,
                at: SimTime::from_millis(3),
            },
            TraceEvent::TransferCompleted {
                server: 0,
                lane: "nvlink-egress:gpu0".into(),
                bytes: 50,
                chunks: 1,
                queued: SimTime::from_millis(4),
                start: SimTime::from_millis(4),
                end: SimTime::from_millis(5),
            },
        ]
    }

    #[test]
    fn output_is_well_formed_json_with_expected_phases() {
        let doc = chrome_trace(&sample_journal());
        let v = json::parse(&doc).expect("chrome trace parses");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert!(phases.contains(&"M"), "metadata events present");
        assert!(phases.contains(&"X"), "duration events present");
        assert!(phases.contains(&"i"), "instant events present");
        assert!(phases.contains(&"C"), "counter events present");
    }

    #[test]
    fn ts_is_monotone_within_every_tid() {
        let doc = chrome_trace(&sample_journal());
        let v = json::parse(&doc).unwrap();
        let mut last: HashMap<(u64, u64), u64> = HashMap::new();
        for e in v.get("traceEvents").unwrap().as_arr().unwrap() {
            if e.get("ph").unwrap().as_str() == Some("M") {
                continue;
            }
            let key = (
                e.get("pid").unwrap().as_u64().unwrap(),
                e.get("tid").unwrap().as_u64().unwrap(),
            );
            let ts = e.get("ts").unwrap().as_u64().unwrap();
            if let Some(&prev) = last.get(&key) {
                assert!(prev <= ts, "ts regressed on {key:?}: {prev} > {ts}");
            }
            last.insert(key, ts);
        }
        assert!(!last.is_empty());
    }

    #[test]
    fn lanes_are_named_and_durations_are_microseconds() {
        let doc = chrome_trace(&sample_journal());
        let v = json::parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let lane_named = events.iter().any(|e| {
            e.get("ph").unwrap().as_str() == Some("M")
                && e.get("args").unwrap().get("name").unwrap().as_str()
                    == Some("nvlink-egress:gpu0")
        });
        assert!(lane_named, "lane thread_name metadata missing");
        let xfer: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("transfer"))
            .collect();
        assert_eq!(xfer.len(), 2);
        // 2ms wire time -> 2000us duration; the issue time is an arg, in
        // journal nanoseconds.
        assert_eq!(xfer[0].get("dur").unwrap().as_u64(), Some(2000));
        let queued = xfer[0].get("args").unwrap().get("queued").unwrap();
        assert_eq!(queued.as_u64(), Some(1_000_000));
    }

    #[test]
    fn empty_journal_renders_a_valid_document() {
        let doc = chrome_trace(&[]);
        let v = json::parse(&doc).unwrap();
        assert!(matches!(v.get("traceEvents"), Some(JsonValue::Arr(_))));
    }
}
