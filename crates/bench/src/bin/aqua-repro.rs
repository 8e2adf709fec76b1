//! `aqua-repro` — run any of the paper's experiments by name.
//!
//! ```text
//! cargo run -p aqua-bench --release --bin aqua-repro -- list
//! cargo run -p aqua-bench --release --bin aqua-repro -- fig07 --window 600
//! cargo run -p aqua-bench --release --bin aqua-repro -- all --jobs 8
//! cargo run -p aqua-bench --release --bin aqua-repro -- fig15_17
//! ```
//!
//! Experiments decompose into independent sweep points (one per request
//! rate, tensor size, cluster split, ablation study, …) that `--jobs N`
//! fans across worker threads. Output is stitched back in input order, so
//! `all --jobs 8` prints byte-for-byte what `all --jobs 1` prints, and the
//! combined determinism digest (reported on stderr) proves the simulations
//! behaved identically too.
//!
//! This binary is the one way to run an experiment; timing lives in the
//! `benchmark/` crate.

use aqua_bench::fuzz::{self, FuzzConfig, FuzzInput, FuzzPoint, GatewayFuzzPoint};
use aqua_bench::runner::{run_suite, ReproArgs, SuiteOutcome, EXPERIMENTS};
use aqua_bench::trace;
use std::process::ExitCode;

struct Flags {
    args: ReproArgs,
    jobs: usize,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_flags(rest: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        args: ReproArgs::default(),
        jobs: 1,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--window" => {
                flags.args.window = value.parse().map_err(|e| format!("--window: {e}"))?
            }
            "--seed" => flags.args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--count" => flags.args.count = value.parse().map_err(|e| format!("--count: {e}"))?,
            "--lanes" => {
                flags.args.lanes = value
                    .parse::<usize>()
                    .map_err(|e| format!("--lanes: {e}"))?
                    .max(1)
            }
            "--jobs" => flags.jobs = value.parse().map_err(|e| format!("--jobs: {e}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(flags)
}

/// Runs `names` and prints the stitched output; wall/digest accounting goes
/// to stderr so stdout stays byte-identical across job counts.
fn run_and_print(names: &[&str], flags: &Flags, headers: bool) -> Result<(), String> {
    // A process-wide AQUA_TRACE capture needs one journal in deterministic
    // event order, so it forces the sequential passthrough path.
    let passthrough = trace::journal().is_some();
    if passthrough && flags.jobs > 1 {
        eprintln!("aqua-repro: AQUA_TRACE is set; forcing --jobs 1 (passthrough trace)");
    }
    let outcome = run_suite(names, &flags.args, flags.jobs, headers, passthrough)?;
    print!("{}", outcome.output);
    eprintln!(
        "aqua-repro: {} points over {} jobs in {:.2}s, {} events, digest {:016x}",
        outcome.experiments.iter().map(|e| e.points).sum::<usize>(),
        outcome.jobs,
        outcome.wall.as_secs_f64(),
        outcome.total_events,
        outcome.combined_digest
    );
    trace::finish();
    Ok(())
}

/// Flags of the `fuzz` subcommand. `--smoke`/`--plant`/`--gateway`/
/// `--offload` are boolean; a point-shape flag (`--gpus/--work/--faults/
/// --horizon`, or `--policy/--load/--count` in gateway mode) switches from
/// a seeded campaign to re-running that one explicit point (the reproducer
/// path the shrinker prints).
struct FuzzFlags {
    seed: u64,
    points: Option<usize>,
    jobs: usize,
    smoke: bool,
    plant: bool,
    plant_fence: bool,
    gateway: bool,
    offload: bool,
    gpus: Option<usize>,
    work: Option<usize>,
    faults: Option<usize>,
    horizon: Option<u64>,
    policy: Option<usize>,
    load: Option<usize>,
    count: Option<usize>,
}

fn parse_fuzz_flags(rest: &[String]) -> Result<FuzzFlags, String> {
    let mut f = FuzzFlags {
        seed: 42,
        points: None,
        jobs: default_jobs(),
        smoke: false,
        plant: false,
        plant_fence: false,
        gateway: false,
        offload: false,
        gpus: None,
        work: None,
        faults: None,
        horizon: None,
        policy: None,
        load: None,
        count: None,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => f.smoke = true,
            "--plant" => f.plant = true,
            "--plant-fence" => f.plant_fence = true,
            "--gateway" => f.gateway = true,
            "--offload" => f.offload = true,
            valued => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag {valued} needs a value"))?;
                let parse = |what: &str| -> Result<u64, String> {
                    value.parse().map_err(|e| format!("{what}: {e}"))
                };
                match valued {
                    "--seed" => f.seed = parse("--seed")?,
                    "--points" => f.points = Some(parse("--points")? as usize),
                    "--jobs" => f.jobs = (parse("--jobs")? as usize).max(1),
                    "--gpus" => f.gpus = Some(parse("--gpus")? as usize),
                    "--work" => f.work = Some(parse("--work")? as usize),
                    "--faults" => f.faults = Some(parse("--faults")? as usize),
                    "--horizon" => f.horizon = Some(parse("--horizon")?),
                    "--policy" => f.policy = Some(parse("--policy")? as usize),
                    "--load" => f.load = Some(parse("--load")? as usize),
                    "--count" => f.count = Some(parse("--count")? as usize),
                    other => return Err(format!("unknown fuzz flag {other}")),
                }
            }
        }
    }
    Ok(f)
}

/// The `fuzz` subcommand. Plain `fuzz` draws core points ([`FuzzPoint`]);
/// `fuzz --gateway` draws serving-path points ([`GatewayFuzzPoint`]). A
/// point-shape flag re-runs that one explicit point instead of a campaign.
fn fuzz_cmd(flags: &FuzzFlags) -> Result<(), String> {
    if flags.gateway {
        let explicit = flags.policy.is_some()
            || flags.load.is_some()
            || flags.count.is_some()
            || flags.faults.is_some()
            || flags.horizon.is_some();
        let point = explicit.then(|| GatewayFuzzPoint {
            seed: flags.seed,
            policy: flags.policy.unwrap_or(0),
            load: flags.load.unwrap_or(1).max(1),
            count: flags.count.unwrap_or(16),
            faults: flags.faults.unwrap_or(0),
            horizon_secs: flags.horizon.unwrap_or(fuzz::GATEWAY_MIN_HORIZON_SECS),
            offload: flags.offload,
            plant: flags.plant,
        });
        fuzz_flow(flags, "gateway", point, 16, 48, |p| p.plant = flags.plant)
    } else {
        let explicit = flags.gpus.is_some()
            || flags.work.is_some()
            || flags.faults.is_some()
            || flags.horizon.is_some();
        let point = explicit.then(|| FuzzPoint {
            seed: flags.seed,
            gpus: flags.gpus.unwrap_or(2),
            work: flags.work.unwrap_or(1),
            faults: flags.faults.unwrap_or(0),
            horizon_secs: flags.horizon.unwrap_or(fuzz::MIN_HORIZON_SECS),
            plant: flags.plant,
            plant_fence: flags.plant_fence,
        });
        fuzz_flow(flags, "audited", point, 32, 64, |p| {
            p.plant = flags.plant;
            p.plant_fence = flags.plant_fence;
        })
    }
}

/// One fuzz flow for every [`FuzzInput`]: re-run the explicit `point`, or
/// run a campaign (`smoke_points`/`full_points` unless `--points`), take its
/// first failing point, shrink it and print the reproducer. Exits non-zero
/// — with a re-runnable reproducer line — on any failure.
fn fuzz_flow<P: FuzzInput>(
    flags: &FuzzFlags,
    kind: &str,
    point: Option<P>,
    smoke_points: usize,
    full_points: usize,
    plant: impl Fn(&mut P),
) -> Result<(), String> {
    if let Some(point) = point {
        let out = fuzz::run_quiet(&point);
        if !out.dirty() {
            println!(
                "fuzz: {kind} point `{}` is clean ({} tokens)",
                point.repro_spec(),
                out.tokens
            );
            return Ok(());
        }
        for v in &out.violations {
            println!("fuzz: {v}");
        }
        return Err(format!(
            "{kind} point failed ({}) — reproduce with: aqua-repro fuzz {}",
            out.failure(),
            point.repro_spec()
        ));
    }

    let cfg = FuzzConfig {
        base_seed: flags.seed,
        points: flags.points.unwrap_or(if flags.smoke {
            smoke_points
        } else {
            full_points
        }),
        jobs: flags.jobs,
    };
    let report = fuzz::run_fuzz(&cfg, plant);
    let dirty = report.dirty();
    eprintln!(
        "fuzz: {} {kind} points over {} jobs, digest {:016x}, {} violation(s), {} truncated stream(s) in {} dirty point(s)",
        report.outcomes.len(),
        report.jobs,
        report.combined_digest,
        report.violation_count(),
        report.truncated_count(),
        dirty.len()
    );
    let Some(&first_idx) = dirty.first() else {
        println!(
            "fuzz: {} {kind} points, zero violations, zero truncated streams (digest {:016x})",
            report.outcomes.len(),
            report.combined_digest
        );
        return Ok(());
    };
    let first = &report.outcomes[first_idx];
    println!(
        "fuzz: {kind} point #{first_idx} (`{}`) failed — {}:",
        first.point.repro_spec(),
        first.failure()
    );
    for v in &first.violations {
        println!("fuzz: {v}");
    }
    let shrunk = fuzz::shrink(first.point)
        .expect("a failing point is a pure function of its fields and must fail again");
    match &shrunk.violation {
        Some(v) => println!(
            "fuzz: shrunk over {} candidate runs to: {v}",
            shrunk.candidates_run
        ),
        None => println!(
            "fuzz: shrunk over {} candidate runs (stream-integrity failure)",
            shrunk.candidates_run
        ),
    }
    Err(format!(
        "{kind} fuzz failed — reproduce with: aqua-repro fuzz {}",
        shrunk.minimal.repro_spec()
    ))
}

/// Flags of the `scale` subcommand.
struct ScaleFlags {
    servers: usize,
    rps: usize,
    rate: f64,
    lanes: usize,
    seed: u64,
    smoke: bool,
    audited: bool,
}

fn parse_scale_flags(rest: &[String]) -> Result<ScaleFlags, String> {
    // Default rate keeps each server below its service capacity so the
    // run doubles as the undersaturated throughput yardstick; pass
    // `--rate 2` (with `--audited` for the crash plan) to push every
    // server past saturation. The overload run used to be infeasible —
    // the sort-based scheduler re-sorted the whole backlog every
    // admission, turning an oversaturated trace quadratic — but the
    // incremental scheduler index does backlog-independent work per
    // admission, so a 1M-request overload run now lands within ~2x of
    // the undersaturated run's events/s.
    let mut f = ScaleFlags {
        servers: 64,
        rps: 15_625,
        rate: 0.5,
        lanes: default_jobs(),
        seed: 42,
        smoke: false,
        audited: false,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--smoke" => f.smoke = true,
            "--audited" => f.audited = true,
            valued => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag {valued} needs a value"))?;
                match valued {
                    "--servers" => {
                        f.servers = value.parse().map_err(|e| format!("--servers: {e}"))?
                    }
                    "--rps" => f.rps = value.parse().map_err(|e| format!("--rps: {e}"))?,
                    "--rate" => f.rate = parse_rate(value)?,
                    "--lanes" => f.lanes = value.parse().map_err(|e| format!("--lanes: {e}"))?,
                    "--seed" => f.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
                    other => return Err(format!("unknown scale flag {other}")),
                }
            }
        }
    }
    f.servers = f.servers.max(1);
    f.rps = f.rps.max(1);
    f.lanes = f.lanes.max(1);
    Ok(f)
}

/// A per-server arrival rate: a finite positive number of requests per
/// second (the trace generator cannot space arrivals at any other rate).
fn parse_rate(value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(rate) if rate.is_finite() && rate > 0.0 => Ok(rate),
        Ok(rate) => Err(format!("--rate: {rate} is not a finite positive rate")),
        Err(e) => Err(format!("--rate: {e}")),
    }
}

/// Runs a scale spec at `--lanes 1`, `2` and `4` and fails unless the
/// rendered tables, the folded shard digests and the window/message counts
/// are identical and the audit saw zero violations (compared
/// run-against-run, never against a pinned literal). Lanes 2 is the
/// caller plus one worker thread. Returns the lanes=1 run for reporting.
fn scale_lane_runs(
    label: &str,
    spec: aqua_bench::scale_cluster::ScaleSpec,
) -> Result<aqua_bench::scale_cluster::ScaleRun, String> {
    use aqua_bench::scale_cluster::{run_scale, ScaleSpec};
    let one = run_scale(&spec);
    eprintln!("{}", one.perf_line());
    for lanes in [2, 4] {
        let many = run_scale(&ScaleSpec { lanes, ..spec });
        if one.table != many.table {
            return Err(format!(
                "{label}: lanes=1 and lanes={lanes} rendered different tables ({} vs {} bytes)",
                one.table.len(),
                many.table.len()
            ));
        }
        if one.digest != many.digest {
            return Err(format!(
                "{label}: digest mismatch: lanes=1 {:016x} vs lanes={lanes} {:016x}",
                one.digest, many.digest
            ));
        }
        if (one.windows, one.messages) != (many.windows, many.messages) {
            return Err(format!(
                "{label}: window/message mismatch: {}/{} vs {}/{} at lanes={lanes}",
                one.windows, one.messages, many.windows, many.messages
            ));
        }
        if one.audit_violations + many.audit_violations != 0 {
            return Err(format!(
                "{label}: {} audit violation(s) at lanes 1 and {lanes}",
                one.audit_violations + many.audit_violations
            ));
        }
        eprintln!("{}", many.perf_line());
    }
    Ok(one)
}

/// The `scale` subcommand. `--smoke` runs two 64-server audited points —
/// one at the flag rate and one oversaturated at 2 req/s with a span long
/// enough to build real backlog — each at `--lanes 1`, `2` and `4`, and
/// fails unless every pair is byte- and digest-identical with zero audit
/// violations. Without `--smoke` it runs one configuration (default: 64
/// servers × 8 GPUs, 15625 requests each — a 512-GPU domain serving 1M
/// requests) and reports the deterministic table plus events/s, wall and
/// the process's peak RSS.
fn scale_cmd(f: &ScaleFlags) -> Result<(), String> {
    use aqua_bench::scale_cluster::{peak_rss_mib, run_scale, ScaleSpec};
    let process_peak = || peak_rss_mib().map_or_else(|| "-".to_owned(), |m| m.to_string());
    if f.smoke {
        let spec = ScaleSpec {
            servers: 64,
            requests_per_server: 8,
            rate: f.rate,
            seed: f.seed,
            lanes: 1,
            audited: true,
        };
        let one = scale_lane_runs("scale smoke", spec)?;
        print!("{}", one.table);
        println!(
            "scale smoke: {} servers byte-identical and digest-identical at lanes 1/2/4 \
             (digest {:016x}, {} windows, {} messages, audited clean)",
            spec.servers, one.digest, one.windows, one.messages
        );
        // Overload variant: arrivals at 2 req/s outpace service capacity
        // for a 16s span, so the scheduler index is exercised against a
        // growing backlog rather than a draining one.
        let overload = ScaleSpec {
            requests_per_server: 32,
            rate: 2.0,
            ..spec
        };
        let hot = scale_lane_runs("scale smoke (overload)", overload)?;
        println!(
            "scale smoke (overload): {} servers at 2 req/s byte-identical and digest-identical \
             at lanes 1/2/4 (digest {:016x}, {} windows, {} messages, audited clean)",
            overload.servers, hot.digest, hot.windows, hot.messages
        );
        eprintln!(
            "scale smoke: process_peak_rss_mib={} (VmHWM, over all six runs)",
            process_peak()
        );
        return Ok(());
    }
    let spec = ScaleSpec {
        servers: f.servers,
        requests_per_server: f.rps,
        rate: f.rate,
        seed: f.seed,
        lanes: f.lanes,
        audited: f.audited,
    };
    let run = run_scale(&spec);
    print!("{}", run.table);
    if run.audit_violations != 0 {
        return Err(format!(
            "scale: {} audit violation(s)",
            run.audit_violations
        ));
    }
    println!(
        "{} process_peak_rss_mib={}",
        run.perf_line(),
        process_peak()
    );
    Ok(())
}

/// Runs `names` through the suite at one job and again at each of
/// `job_counts`, failing unless every run renders the same output and
/// folds the same combined telemetry digest. The digests are compared
/// run-against-run, never against a pinned literal, so the gate is robust
/// to workload-generator changes. Returns the sequential run.
fn jobs_identity(
    flags: &Flags,
    names: &[&str],
    job_counts: &[usize],
    label: &str,
) -> Result<SuiteOutcome, String> {
    if trace::journal().is_some() {
        return Err(format!("{label}: compares parallel runs; unset AQUA_TRACE"));
    }
    let seq = run_suite(names, &flags.args, 1, false, false)?;
    for &jobs in job_counts {
        let par = run_suite(names, &flags.args, jobs, false, false)?;
        if seq.output != par.output {
            return Err(format!(
                "{label}: --jobs {jobs} output differs from sequential ({} vs {} bytes)",
                par.output.len(),
                seq.output.len()
            ));
        }
        if seq.combined_digest != par.combined_digest {
            return Err(format!(
                "{label}: --jobs {jobs} digest mismatch: {:016x} vs sequential {:016x}",
                par.combined_digest, seq.combined_digest
            ));
        }
    }
    Ok(seq)
}

/// The `serve --smoke` / `serve --chaos-smoke` subcommands: the gateway
/// scheduler study (or the overload/crash-recovery study) must be byte-
/// and digest-identical sequentially and in parallel.
fn serve_smoke(flags: &Flags, names: &[&str], label: &str) -> Result<(), String> {
    // At least 4 worker threads even on a small host: the point is to
    // exercise a schedule different from the sequential pass.
    let jobs = if flags.jobs > 1 {
        flags.jobs
    } else {
        default_jobs().max(4)
    };
    let seq = jobs_identity(flags, names, &[jobs], label)?;
    print!("{}", seq.output);
    println!(
        "{label}: {} points byte-identical and digest-identical at 1 vs {jobs} jobs (digest {:016x}, {} events)",
        seq.experiments.iter().map(|e| e.points).sum::<usize>(),
        seq.combined_digest,
        seq.total_events
    );
    Ok(())
}

/// The `coord_chaos --smoke` subcommand: the control-plane recovery study
/// through the sweep at `--jobs 1/4/8`, failing unless every pairing is
/// byte- and digest-identical; then each faulted cell (crash and
/// partition) audited and unaudited, failing unless the audit is clean and
/// both runs render the same table and fold the same journal digest.
/// Digests are compared run-against-run, never against a pinned literal.
fn coord_chaos_smoke(flags: &Flags) -> Result<(), String> {
    use aqua_bench::coord_chaos::{render_cell, run_cell_traced, CoordCell, CoordChaosConfig};
    use aqua_sim::audit::Auditor;
    use aqua_telemetry::JournalTracer;
    use std::sync::Arc;
    let seq = jobs_identity(flags, &["coord_chaos"], &[4, 8], "coord chaos smoke")?;
    let cfg = CoordChaosConfig::standard(flags.args.count, flags.args.seed);
    for cell in [CoordCell::Crash, CoordCell::Partition] {
        let run = |auditor| {
            let journal = Arc::new(JournalTracer::digest_only());
            let run = trace::with_tracer(journal.clone(), || {
                run_cell_traced(&cfg, cell, trace::tracer(), auditor)
            });
            (render_cell(&run), journal.digest())
        };
        let auditor = Auditor::collecting();
        let (audited_out, audited) = run(Some(auditor.clone()));
        let (plain_out, plain) = run(None);
        if !auditor.is_clean() {
            return Err(format!(
                "coord chaos smoke: audited `{}` cell tripped: {:?}",
                cell.label(),
                auditor.violations()
            ));
        }
        if audited_out != plain_out || audited != plain {
            return Err(format!(
                "coord chaos smoke: audited `{}` cell diverges from unaudited (digest {audited:016x} vs {plain:016x})",
                cell.label()
            ));
        }
    }
    print!("{}", seq.output);
    println!(
        "coord chaos smoke: byte-identical and digest-identical at jobs 1/4/8, \
         audited crash and partition cells clean and identical to unaudited (suite digest {:016x})",
        seq.combined_digest
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!(
            "usage: aqua-repro <experiment|fig15_17|tab_a2|list|all|fuzz|scale> [--window S] [--seed N] [--count N] [--lanes N] [--jobs N]\n       aqua-repro counters\n       aqua-repro serve --smoke|--chaos-smoke [--seed N] [--count N] [--jobs N]\n       aqua-repro coord_chaos --smoke [--seed N] [--count N]\n       aqua-repro scale [--smoke] [--audited] [--servers N] [--rps N] [--rate F] [--lanes N] [--seed N]\n       aqua-repro fuzz [--smoke] [--plant] [--plant-fence] [--seed N] [--points N] [--jobs N] [--gpus 2|8] [--work N] [--faults N] [--horizon S]\n       aqua-repro fuzz --gateway [--smoke] [--plant] [--offload] [--seed N] [--points N] [--jobs N] [--policy I] [--load N] [--count N] [--faults N] [--horizon S]"
        );
        return ExitCode::FAILURE;
    };
    match run_cmd(cmd, &argv[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs subcommand `cmd` with its flags `rest`.
fn run_cmd(cmd: &str, rest: &[String]) -> Result<(), String> {
    let without = |dropped: &[&str]| -> Vec<String> {
        rest.iter()
            .filter(|a| !dropped.contains(&a.as_str()))
            .cloned()
            .collect()
    };
    let serve_smoke_kind = rest.iter().find_map(|a| match a.as_str() {
        "--smoke" => Some(("serve", "serve smoke")),
        "--chaos-smoke" => Some(("serve_chaos", "serve chaos smoke")),
        _ => None,
    });
    match (cmd, serve_smoke_kind) {
        ("serve", Some((experiment, label))) => {
            let flags = parse_flags(&without(&["--smoke", "--chaos-smoke"]))?;
            serve_smoke(&flags, &[experiment], label)
        }
        ("coord_chaos", _) if rest.iter().any(|a| a == "--smoke") => {
            coord_chaos_smoke(&parse_flags(&without(&["--smoke"]))?)
        }
        ("counters", _) if rest.is_empty() => {
            print!("{}", aqua_bench::counters::render()?);
            Ok(())
        }
        ("scale", _) => scale_cmd(&parse_scale_flags(rest)?),
        ("fuzz", _) => fuzz_cmd(&parse_fuzz_flags(rest)?),
        ("list", _) => {
            println!("available experiments:");
            for (name, what) in EXPERIMENTS {
                println!("  {name:<10} {what}");
            }
            Ok(())
        }
        ("all", _) => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            run_and_print(&names, &parse_flags(rest)?, true)
        }
        (name, _) => run_and_print(&[name], &parse_flags(rest)?, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale_rate(rate: &str) -> Result<f64, String> {
        parse_scale_flags(&["--rate".to_owned(), rate.to_owned()]).map(|f| f.rate)
    }

    #[test]
    fn scale_rate_must_be_finite_and_positive() {
        for bad in ["0", "-1", "NaN", "inf"] {
            let err = scale_rate(bad).expect_err(bad);
            assert!(err.starts_with("--rate: "), "{bad}: {err}");
        }
        assert_eq!(scale_rate("0.5"), Ok(0.5));
        assert_eq!(scale_rate("2"), Ok(2.0));
    }
}
