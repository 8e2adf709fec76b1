//! `aqua-repro scale_cluster` — cluster-scale serving through PDES lanes.
//!
//! The other experiments stay within one simulated server; this one drives
//! a 256–1024-GPU scale-up domain (32–128 servers × 8 GPUs behind
//! NVSwitch) through the sharded lane executor. Each server is a
//! [`LaneShard`]: a gateway engine with an AQUA offloader and a driver
//! holding its tenant trace, which queues one arrival at a time. Each
//! server drains its completions at the end of every window and keeps only
//! their count, so its memory does not grow with the requests it has
//! served. Shard 0 is a cluster coordinator.
//! Servers send staggered heartbeats (`beat`, driver-event count) to the
//! coordinator over the cross-domain fabric; the coordinator journals each
//! heartbeat as a [`TraceEvent::LeaseGranted`] and acknowledges it, and
//! servers journal the ack delivery as a [`TraceEvent::LeaseAllocated`].
//!
//! The heartbeat traffic is what makes this a *coupled* PDES scenario: the
//! conservative window protocol of [`crate::lanes`] must merge cross-shard
//! messages in `(deliver_at, src, seq)` order for the per-shard journals —
//! and the folded digest — to be identical at `--lanes 1/2/4/8`. The
//! lookahead is the minimum cross-domain link latency, taken from the
//! NVSwitch α–β model's launch overhead.
//!
//! Deterministic results (the rendered table, digests, window and message
//! counts, simulator event totals) are strictly separated from perf
//! observations (wall time, events/s, peak RSS), so the table compares
//! byte-for-byte across lane counts while the perf line reports honestly.
//!
//! [`TraceEvent::LeaseGranted`]: aqua_telemetry::TraceEvent
//! [`TraceEvent::LeaseAllocated`]: aqua_telemetry::TraceEvent

use crate::lanes::{run_lanes, LaneShard, ShardBuilder, ShardFinish};
use crate::setup::{ServerCtx, CELL_MAX_OUTSTANDING, CELL_POOL_BYTES};
use aqua_engines::driver::{Driver, Engine};
use aqua_engines::vllm::PreemptionPolicy;
use aqua_gateway::engine::{GatewayConfig, GatewayEngine};
use aqua_gateway::scheduler::PolicyKind;
use aqua_metrics::table::Table;
use aqua_sim::audit::{Auditor, SharedAuditor};
use aqua_sim::fault::FaultPlan;
use aqua_sim::gpu::GpuId;
use aqua_sim::link::bytes::gib;
use aqua_sim::link::BandwidthModel;
use aqua_sim::pdes::{lookahead_from_links, Msg};
use aqua_sim::time::{SimDuration, SimTime};
use aqua_telemetry::{Lane, TraceEvent};
use aqua_workloads::tenants::tenant_stream;
use std::sync::Arc;
use std::time::Duration;

/// GPUs per simulated server (the paper's 8-GPU NVSwitch testbed).
const GPUS_PER_SERVER: usize = 8;

/// Sim-time heartbeat period, seconds.
pub const HEARTBEAT_PERIOD_SECS: u64 = 60;

/// Relative weight of one request in the events-proportional sweep cost
/// hints ([`ScaleSpec::expected_events`]). It is a weight, not a count of
/// driver events.
const EVENTS_PER_REQUEST: u64 = 8;

/// One scale-cluster configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScaleSpec {
    /// Simulated servers (each `GPUS_PER_SERVER` GPUs).
    pub servers: usize,
    /// Tenant-trace requests per server.
    pub requests_per_server: usize,
    /// Per-server chat-tenant arrival rate, req/s.
    pub rate: f64,
    /// Workload seed (per-server traces derive from `seed + server`).
    pub seed: u64,
    /// Lane threads for the PDES executor.
    pub lanes: usize,
    /// Inject a mid-run GPU crash on server 0 and audit it.
    pub audited: bool,
}

impl ScaleSpec {
    /// Total GPUs in the domain.
    pub fn gpus(&self) -> usize {
        self.servers * GPUS_PER_SERVER
    }

    /// Total requests across all servers.
    fn total_requests(&self) -> usize {
        self.servers * self.requests_per_server
    }

    /// Arrival span of one server's trace, whole seconds (rounded up).
    pub fn span_secs(&self) -> u64 {
        (self.requests_per_server as f64 / self.rate).ceil() as u64
    }

    /// The crash window of the audited point, placed inside the arrival
    /// span so in-flight work is actually lost.
    pub fn crash_window(&self) -> (u64, u64) {
        let start = (self.span_secs() / 4).max(1);
        (start, start + 5)
    }

    /// The coordinator-shard crash window of the audited point: right after
    /// the GPU crash heals, while the restarted gateway still has backlog.
    /// The server's coordinator loses its lease book and bumps its epoch;
    /// the offloader's epoch-change sweep must migrate every stranded byte
    /// without tripping the audit or losing a stream.
    fn coord_crash_window(&self) -> (u64, u64) {
        let start = self.crash_window().1;
        (start, start + 5)
    }

    /// Whether arrivals outpace a server's rough service capacity
    /// (~1 req/s for the zoo model on this testbed), i.e. backlog grows
    /// for the length of the trace instead of draining between arrivals.
    fn oversaturated(&self) -> bool {
        self.rate > 1.0
    }

    /// Relative cost of the point across the cluster, for the sweep's cost
    /// hints: only ratios between points matter. An oversaturated point
    /// re-queues and re-examines work it cannot admit yet, so
    /// backlog-building traces weigh extra per request relative to an
    /// undersaturated trace that drains as it arrives.
    pub(crate) fn expected_events(&self) -> u64 {
        let per_request = if self.oversaturated() {
            EVENTS_PER_REQUEST + EVENTS_PER_REQUEST / 2
        } else {
            EVENTS_PER_REQUEST
        };
        self.total_requests() as u64 * per_request
    }
}

/// Cross-shard message payload: server → coordinator heartbeats and
/// coordinator → server acknowledgements.
#[derive(Debug, Clone, Copy)]
pub enum ScaleMsg {
    /// Periodic server heartbeat.
    Heartbeat {
        /// Reporting server index.
        server: u64,
        /// Heartbeat ordinal on that server.
        beat: u64,
        /// Driver events the server had processed at send time.
        completed: u64,
    },
    /// Coordinator acknowledgement of heartbeat `beat`.
    Ack {
        /// The acknowledged heartbeat ordinal.
        beat: u64,
    },
}

/// Per-shard result.
#[derive(Debug, Clone)]
pub enum ScaleOut {
    /// The coordinator's tally.
    Coordinator {
        /// Heartbeats received (and acknowledged).
        heartbeats: u64,
    },
    /// One server's serving outcome.
    Server {
        /// Server index.
        server: usize,
        /// Completed token streams.
        streams: usize,
        /// Requests refused at admission.
        shed: usize,
        /// Crash-retry attempts.
        retries: u64,
        /// Heartbeats sent.
        beats: u64,
        /// Coordinator acks received.
        acks: u64,
        /// Audit violations observed (audited server only).
        violations: usize,
    },
}

/// The cluster coordinator (shard 0), the star's hub. It never initiates
/// traffic — its send horizon is `None` — and acks each heartbeat to its
/// sender only, so the executor bounds each server by that server's own
/// undelivered heartbeats and next beat (see [`crate::lanes`]).
struct CoordShard {
    /// How long after a heartbeat's delivery its ack arrives: the
    /// lookahead in every run.
    ack_delay: SimDuration,
    seq: u64,
    beats: u64,
}

impl CoordShard {
    fn advance(&mut self, inbox: Vec<Msg<ScaleMsg>>) -> Vec<Msg<ScaleMsg>> {
        let tracer = crate::trace::tracer();
        let mut out = Vec::with_capacity(inbox.len());
        for msg in inbox {
            let ScaleMsg::Heartbeat {
                server,
                beat,
                completed,
            } = msg.payload
            else {
                panic!("coordinator received a non-heartbeat message");
            };
            tracer.emit(TraceEvent::LeaseGranted {
                producer: format!("scale/s{server}"),
                lease: beat,
                bytes: completed,
                at: msg.deliver_at,
            });
            self.beats += 1;
            out.push(Msg {
                deliver_at: msg.deliver_at + self.ack_delay,
                src: 0,
                dst: msg.src,
                seq: self.seq,
                payload: ScaleMsg::Ack { beat },
            });
            self.seq += 1;
        }
        out
    }
}

/// One server: a gateway engine + AQUA offloader over the 8-GPU NVSwitch
/// topology, driven through its tenant trace, emitting heartbeats on a
/// staggered schedule.
struct ServerShard {
    id: usize,
    server: usize,
    driver: Driver,
    engine: GatewayEngine,
    /// Completed streams drained so far (the table prints only their
    /// count).
    streams: usize,
    horizon: SimTime,
    heartbeats: Vec<SimTime>,
    next_hb: usize,
    seq: u64,
    acks: u64,
    lookahead: SimDuration,
    auditor: Option<SharedAuditor>,
    /// The `scale/s<n>` consumer and `coordinator-ack` site each ack
    /// journals, interned once.
    ack_labels: [Lane; 2],
}

impl ServerShard {
    /// Builds the server under the ambient (per-shard) tracer. Must run on
    /// the shard's lane thread so everything — `ServerCtx` construction
    /// included — journals into the shard's own digest journal.
    fn build(spec: &ScaleSpec, server: usize, lookahead: SimDuration) -> Self {
        let ctx = ServerCtx::eight_gpu_traced(crate::trace::tracer());
        // Every peer GPU in the NVSwitch domain donates a static lease, so
        // the offloader spreads KV across the whole server.
        for g in 1..GPUS_PER_SERVER {
            ctx.static_lease(GpuId(g), gib(10));
        }
        let (plan, auditor) = if spec.audited && server == 0 {
            let (start_s, end_s) = spec.crash_window();
            let (c_start_s, c_end_s) = spec.coord_crash_window();
            let c_start = SimTime::from_secs(c_start_s);
            let rebuild = SimDuration::from_secs(c_end_s - c_start_s);
            // The audited server takes both hits: its gateway GPU crashes
            // mid-trace, and as it restarts its coordinator shard dies too,
            // wiping the lease book and bumping the epoch under the
            // offloader's static leases.
            let plan = Arc::new(
                FaultPlan::new()
                    .gpu_crash(
                        GpuId(0),
                        SimTime::from_secs(start_s),
                        SimTime::from_secs(end_s),
                    )
                    .coordinator_crash(c_start, rebuild),
            );
            ctx.coordinator.set_fault_plan(Arc::clone(&plan));
            (Some(plan), Some(Auditor::collecting()))
        } else {
            (None, None)
        };
        let (engine, driver) = ctx.serving_cell(
            tenant_stream(
                spec.rate,
                spec.requests_per_server,
                spec.seed + server as u64,
            ),
            PolicyKind::SjfBucket,
            GatewayConfig {
                kv_pool_bytes: CELL_POOL_BYTES,
                preemption: PreemptionPolicy::Swap,
                max_outstanding_per_tenant: CELL_MAX_OUTSTANDING,
                ..GatewayConfig::default()
            },
            format!("scale:s{server}"),
            plan.as_deref(),
            auditor.clone(),
        );

        // Staggered heartbeat schedule: server `i` beats at
        // `i·period/servers + k·period`, so windows exercise the
        // `(deliver_at, src, seq)` merge instead of collapsing onto one
        // barrier.
        let period = SimDuration::from_secs(HEARTBEAT_PERIOD_SECS);
        let offset =
            SimDuration::from_nanos(period.as_nanos() / spec.servers as u64 * server as u64);
        let beats = (spec.span_secs() / HEARTBEAT_PERIOD_SECS).max(1);
        let heartbeats = (0..beats)
            .map(|k| SimTime::ZERO + offset + period.mul_u64(k + 1))
            .collect();
        ServerShard {
            id: server + 1,
            server,
            driver,
            engine,
            streams: 0,
            horizon: SimTime::from_secs(spec.span_secs() + 40_000),
            heartbeats,
            next_hb: 0,
            seq: 0,
            acks: 0,
            lookahead,
            auditor,
            ack_labels: [
                Lane::from(format!("scale/s{server}")),
                Lane::from("coordinator-ack"),
            ],
        }
    }

    fn run_to(&mut self, end: SimTime) {
        let ServerShard { driver, engine, .. } = self;
        driver.run(&mut [engine as &mut dyn Engine], end);
    }

    /// Sends every heartbeat due before `end` (all that are left when `end`
    /// is `None`), running the driver up to each beat before sampling it.
    fn beat_until(&mut self, end: Option<SimTime>, out: &mut Vec<Msg<ScaleMsg>>) {
        while let Some(&hb) = self.heartbeats.get(self.next_hb) {
            if end.is_some_and(|e| hb >= e) {
                break;
            }
            self.run_to(hb);
            out.push(Msg {
                deliver_at: hb + self.lookahead,
                src: self.id,
                dst: 0,
                seq: self.seq,
                payload: ScaleMsg::Heartbeat {
                    server: self.server as u64,
                    beat: self.next_hb as u64,
                    completed: self.driver.processed_events(),
                },
            });
            self.seq += 1;
            self.next_hb += 1;
        }
    }

    fn advance(&mut self, until: Option<SimTime>, inbox: Vec<Msg<ScaleMsg>>) -> Vec<Msg<ScaleMsg>> {
        let tracer = crate::trace::tracer();
        let mut out = Vec::new();
        for msg in inbox {
            let ScaleMsg::Ack { beat } = msg.payload else {
                panic!("server received a non-ack message");
            };
            // An ack may be due after the window's start: the beats and the
            // simulation before it come first.
            self.beat_until(Some(msg.deliver_at), &mut out);
            self.run_to(SimTime::from_nanos(
                msg.deliver_at.as_nanos().saturating_sub(1),
            ));
            let [consumer, site] = self.ack_labels.clone();
            tracer.emit(TraceEvent::LeaseAllocated {
                consumer,
                site,
                bytes: beat,
                at: msg.deliver_at,
            });
            self.acks += 1;
        }
        self.beat_until(until, &mut out);
        match until {
            // Window ends are exclusive; the driver's are inclusive.
            Some(u) => self.run_to(SimTime::from_nanos(u.as_nanos().saturating_sub(1))),
            None => self.run_to(self.horizon),
        }
        // Completions leave every window, so the gateway can forget the
        // clock entries only they still read.
        self.streams += self.engine.drain_completions().len();
        out
    }
}

/// Either shard role, so one `run_lanes` call drives the whole cluster.
enum ScaleShard {
    Coord(CoordShard),
    Server(Box<ServerShard>),
}

impl LaneShard for ScaleShard {
    type Payload = ScaleMsg;
    type Out = ScaleOut;

    fn next_send_horizon(&self) -> Option<SimTime> {
        match self {
            ScaleShard::Coord(_) => None,
            ScaleShard::Server(s) => s.heartbeats.get(s.next_hb).copied(),
        }
    }

    fn advance(&mut self, until: Option<SimTime>, inbox: Vec<Msg<ScaleMsg>>) -> Vec<Msg<ScaleMsg>> {
        match self {
            ScaleShard::Coord(c) => c.advance(inbox),
            ScaleShard::Server(s) => s.advance(until, inbox),
        }
    }

    fn finish(self) -> ShardFinish<ScaleOut> {
        match self {
            ScaleShard::Coord(c) => ShardFinish {
                output: ScaleOut::Coordinator {
                    heartbeats: c.beats,
                },
                sim_events: 0,
            },
            ScaleShard::Server(s) => {
                let mut s = *s;
                let streams = s.streams + s.engine.drain_completions().len();
                let violations = s.auditor.as_ref().map_or(0, |a| a.violations().len());
                ShardFinish {
                    sim_events: s.driver.processed_events(),
                    output: ScaleOut::Server {
                        server: s.server,
                        streams,
                        shed: s.engine.outcomes().shed(),
                        retries: s.engine.outcomes().total_retries(),
                        beats: s.next_hb as u64,
                        acks: s.acks,
                        violations,
                    },
                }
            }
        }
    }
}

/// A completed scale run: the deterministic table (identical at every lane
/// count) plus the perf observations (which are not, and are reported
/// separately).
#[derive(Debug, Clone)]
pub struct ScaleRun {
    /// The configuration that ran.
    pub spec: ScaleSpec,
    /// Deterministic rendering: per-server rows, totals, digest evidence.
    pub table: String,
    /// Folded per-shard digest, lane-count independent.
    pub digest: u64,
    /// Barrier windows the executor took.
    pub windows: u64,
    /// Cross-shard messages exchanged.
    pub messages: u64,
    /// Driver events processed across all servers, idle-tick rounds the
    /// drivers fast-forwarded included.
    pub sim_events: u64,
    /// Trace events journalled across all shards.
    pub journal_events: usize,
    /// Audit violations across all shards (must be 0).
    pub audit_violations: usize,
    /// Wall time of the lane run.
    pub wall: Duration,
    /// Per lane, the wall time spent inside shard `advance` calls
    /// ([`crate::lanes::LaneOutcome::busy`]).
    pub lane_busy: Vec<Duration>,
    /// The calling thread's wait for worker replies at the window
    /// barriers ([`crate::lanes::LaneOutcome::wait`]).
    pub lane_wait: Duration,
}

impl ScaleRun {
    /// Simulator events per wall-clock second. The count includes idle-tick
    /// rounds the drivers skip without firing, which cost almost nothing,
    /// so this rate rises whenever a change skips more rounds, even with an
    /// unchanged per-event loop: compare wall time for loop speed.
    pub fn events_per_sec(&self) -> f64 {
        self.sim_events as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// The non-deterministic perf summary (wall, per-lane busy time, the
    /// barrier wait, events/s). Keep this out of anything compared across
    /// lane counts. Its events/s is [`ScaleRun::events_per_sec`],
    /// fast-forwarded tick rounds included. It leaves out peak RSS, which
    /// is the process's, not the run's: see [`peak_rss_mib`].
    pub fn perf_line(&self) -> String {
        let busy: Vec<String> = self
            .lane_busy
            .iter()
            .map(|b| format!("{:.2}", b.as_secs_f64()))
            .collect();
        format!(
            "scale-cluster perf: lanes={} wall={:.2}s busy=[{}]s wait={:.2}s events/s={:.0}",
            self.spec.lanes,
            self.wall.as_secs_f64(),
            busy.join(","),
            self.lane_wait.as_secs_f64(),
            self.events_per_sec(),
        )
    }
}

/// Peak resident set size of the current process in MiB, from
/// `/proc/self/status` (`VmHWM`): the peak since the process started,
/// whatever ran in it. Nothing here resets it (the benchmark reads it
/// after its own set-up). `None` off Linux.
pub fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024)
}

/// Runs one scale-cluster configuration through the lane executor.
pub fn run_scale(spec: &ScaleSpec) -> ScaleRun {
    let spec = *spec;
    // Lookahead: the minimum latency of the links crossing shard domains —
    // here the NVSwitch fabric's per-transfer launch overhead.
    let lookahead = lookahead_from_links([BandwidthModel::nvswitch_a100().launch_overhead]);

    let mut builders: Vec<ShardBuilder<ScaleShard>> = Vec::with_capacity(spec.servers + 1);
    builders.push(Box::new(move || {
        ScaleShard::Coord(CoordShard {
            ack_delay: lookahead,
            seq: 0,
            beats: 0,
        })
    }));
    for server in 0..spec.servers {
        builders.push(Box::new(move || {
            ScaleShard::Server(Box::new(ServerShard::build(&spec, server, lookahead)))
        }));
    }
    let outcome = run_lanes(builders, spec.lanes, lookahead);

    let mut table = Table::new(
        format!(
            "Scale-cluster — {} servers x {} GPUs ({} GPUs), {} requests",
            spec.servers,
            GPUS_PER_SERVER,
            spec.gpus(),
            spec.total_requests(),
        ),
        &["server", "streams", "shed", "retries", "beats", "acks"],
    );
    let (mut streams, mut shed, mut retries) = (0usize, 0usize, 0u64);
    let (mut beats, mut acks, mut violations) = (0u64, 0u64, 0usize);
    let mut coordinator_beats = 0u64;
    for report in &outcome.shards {
        match &report.output {
            ScaleOut::Coordinator { heartbeats } => coordinator_beats = *heartbeats,
            ScaleOut::Server {
                server,
                streams: st,
                shed: sh,
                retries: rt,
                beats: bt,
                acks: ak,
                violations: vi,
            } => {
                table.row(&[
                    server.to_string(),
                    st.to_string(),
                    sh.to_string(),
                    rt.to_string(),
                    bt.to_string(),
                    ak.to_string(),
                ]);
                streams += st;
                shed += sh;
                retries += rt;
                beats += bt;
                acks += ak;
                violations += vi;
            }
        }
    }
    let mut rendered = format!(
        "{table}\nscale-cluster totals: streams={streams} shed={shed} retries={retries} \
         heartbeats={beats} coordinator_seen={coordinator_beats} acks={acks}\n",
    );
    rendered.push_str(&format!(
        "scale-cluster determinism: digest={:016x} windows={} messages={} sim_events={} \
         journal_events={} audit_violations={violations}\n",
        outcome.digest, outcome.windows, outcome.messages, outcome.sim_events, outcome.events,
    ));

    // Fold the shard digest into the ambient journal, so a sweep point
    // wrapping this run carries the cluster's determinism evidence in its
    // own digest.
    crate::trace::tracer().emit(TraceEvent::LeaseGranted {
        producer: "scale/summary".into(),
        lease: outcome.digest,
        bytes: outcome.sim_events,
        at: SimTime::ZERO,
    });

    ScaleRun {
        spec,
        table: rendered,
        digest: outcome.digest,
        windows: outcome.windows,
        messages: outcome.messages,
        sim_events: outcome.sim_events,
        journal_events: outcome.events,
        audit_violations: violations,
        wall: outcome.wall,
        lane_busy: outcome.busy,
        lane_wait: outcome.wait,
    }
}

/// The `aqua-repro` decomposition: a plain mid-size domain, a smaller
/// audited one with a mid-run GPU crash, and an oversaturated point whose
/// arrival span is long enough for backlog to actually build. The overload
/// point was infeasible under the sort-based scheduler (every admission
/// re-sorted the whole backlog, so a growing queue turned the trace
/// quadratic); the incremental scheduler index does backlog-independent
/// work per admission, which is what makes it a routine sweep point now.
/// Cost hints are proportional to each point's expected driver-event count
/// (`ScaleSpec::expected_events`, which charges oversaturated points
/// extra for their re-queue traffic), so the weighted sweep claims big
/// simulations first and the runner's wall-vs-hint deviation warning has a
/// meaningful baseline.
pub fn repro_points(a: &crate::runner::ReproArgs) -> Vec<crate::runner::ReproPoint> {
    use crate::runner::ReproPoint;
    let per_server = (a.count / 8).max(8);
    let specs = [
        (
            "servers=8",
            ScaleSpec {
                servers: 8,
                requests_per_server: per_server,
                rate: 2.0,
                seed: a.seed,
                lanes: a.lanes,
                audited: false,
            },
        ),
        (
            "servers=4,audited",
            ScaleSpec {
                servers: 4,
                requests_per_server: per_server,
                rate: 2.0,
                seed: a.seed,
                lanes: a.lanes,
                audited: true,
            },
        ),
        (
            "servers=8,overload",
            ScaleSpec {
                servers: 8,
                requests_per_server: a.count.max(64),
                rate: 2.0,
                seed: a.seed,
                lanes: a.lanes,
                audited: false,
            },
        ),
    ];
    specs
        .into_iter()
        .map(|(label, spec)| {
            ReproPoint::new("scale_cluster", label, move || {
                let run = run_scale(&spec);
                assert_eq!(
                    run.audit_violations, 0,
                    "scale-cluster point must audit clean"
                );
                run.table
            })
            // Divisor calibrated so seconds-per-hint-unit lands near the
            // suite median (the overload point is the first scale point
            // long enough for the runner's stale-hint check to see).
            .with_cost_hint(spec.expected_events() / 400)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_telemetry::JournalTracer;

    fn tiny(servers: usize, lanes: usize, audited: bool) -> ScaleSpec {
        ScaleSpec {
            servers,
            requests_per_server: 6,
            rate: 2.0,
            seed: 11,
            lanes,
            audited,
        }
    }

    #[test]
    fn scale_run_is_lane_count_independent() {
        let one = run_scale(&tiny(5, 1, false));
        let four = run_scale(&tiny(5, 4, false));
        assert_eq!(one.table, four.table);
        assert_eq!(one.digest, four.digest);
        assert_eq!(one.windows, four.windows);
        assert_eq!(one.messages, four.messages);
        assert_eq!(one.sim_events, four.sim_events);
        assert!(one.sim_events > 0);
        // Every heartbeat was acked and every ack delivered.
        assert!(one.messages >= 2 * 5, "beats + acks");
        assert_eq!(one.audit_violations, 0);
    }

    #[test]
    fn audited_crash_point_stays_clean_and_deterministic() {
        let a = run_scale(&tiny(3, 1, true));
        let b = run_scale(&tiny(3, 3, true));
        assert_eq!(a.table, b.table);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.audit_violations, 0);
    }

    #[test]
    fn acks_are_journalled_at_their_own_time_under_any_cuts() {
        // A hub that acks 90 s after each delivery, past the server's next
        // beat: under the star windows every ack then falls inside a server
        // window, after that beat, not at the window's start.
        let spec = ScaleSpec {
            requests_per_server: 20,
            rate: 0.1,
            ..tiny(1, 1, false)
        };
        let lookahead = lookahead_from_links([BandwidthModel::nvswitch_a100().launch_overhead]);
        let ack_delay = SimDuration::from_secs(90);
        let coord: ShardBuilder<ScaleShard> = Box::new(move || {
            ScaleShard::Coord(CoordShard {
                ack_delay,
                seq: 0,
                beats: 0,
            })
        });
        let server = move || ServerShard::build(&spec, 0, lookahead);
        let star = run_lanes(
            vec![
                coord,
                Box::new(move || ScaleShard::Server(Box::new(server()))),
            ],
            1,
            lookahead,
        );
        assert_eq!(star.messages, 2 * 3, "three beats, each acked");

        // The same server through irregular cuts that ignore both beats and
        // acks, built and journalled the way its lane does it, with the
        // test acking in the hub's place. Every cut is shorter than the ack
        // delay, so no ack is due inside the window that sent its beat, and
        // the window [174.5 s, 229.5 s) holds beat 2 (180 s) before the ack
        // of beat 1 (210 s).
        let journal = Arc::new(JournalTracer::digest_only());
        let mut shard = crate::trace::with_tracer(journal.clone(), server);
        let cuts_ms = [7_300u64, 400, 45_000, 55_000, 3_100, 11_000, 1];
        let mut acks: Vec<Msg<ScaleMsg>> = Vec::new();
        let mut sampled = Vec::new();
        let mut until = SimTime::ZERO;
        for step in cuts_ms.iter().cycle() {
            if shard.next_hb == shard.heartbeats.len() && acks.is_empty() {
                break;
            }
            until += SimDuration::from_millis(*step);
            let due = acks.iter().take_while(|m| m.deliver_at < until).count();
            let inbox = acks.drain(..due).collect();
            let beats =
                crate::trace::with_tracer(journal.clone(), || shard.advance(Some(until), inbox));
            for hb in beats {
                let ScaleMsg::Heartbeat {
                    beat, completed, ..
                } = hb.payload
                else {
                    unreachable!("servers send heartbeats")
                };
                sampled.push(completed);
                acks.push(Msg {
                    deliver_at: hb.deliver_at + ack_delay,
                    src: 0,
                    dst: 1,
                    seq: beat,
                    payload: ScaleMsg::Ack { beat },
                });
            }
        }
        let fin = crate::trace::with_tracer(journal.clone(), || {
            assert!(shard.advance(None, Vec::new()).is_empty());
            ScaleShard::Server(Box::new(shard)).finish()
        });
        let ScaleOut::Server { acks, .. } = fin.output else {
            unreachable!("a server shard finishes as a server")
        };
        assert_eq!(acks, 3);
        assert_eq!(fin.sim_events, star.shards[1].sim_events);
        assert_eq!(
            journal.digest(),
            star.shards[1].digest,
            "an ack's journal entry must not depend on where windows cut"
        );
        // Each beat sampled the driver at its own time, not at a later ack.
        let mut reference =
            crate::trace::with_tracer(Arc::new(JournalTracer::digest_only()), server);
        let expected: Vec<u64> = reference
            .heartbeats
            .clone()
            .into_iter()
            .map(|hb| {
                reference.run_to(hb);
                reference.driver.processed_events()
            })
            .collect();
        assert_eq!(sampled, expected);
    }

    #[test]
    fn spec_accounting_adds_up() {
        let s = tiny(4, 1, false);
        assert_eq!(s.gpus(), 32);
        assert_eq!(s.total_requests(), 24);
        assert_eq!(s.span_secs(), 3);
        let (c0, c1) = s.crash_window();
        assert!(c0 >= 1 && c1 > c0);
        // rate 2.0 outpaces service capacity: the hint charges the
        // overload premium for re-queued work.
        assert!(s.oversaturated());
        assert_eq!(
            s.expected_events(),
            24 * (EVENTS_PER_REQUEST + EVENTS_PER_REQUEST / 2)
        );
        let calm = ScaleSpec { rate: 0.5, ..s };
        assert!(!calm.oversaturated());
        assert_eq!(calm.expected_events(), 24 * EVENTS_PER_REQUEST);
    }
}
