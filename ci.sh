#!/usr/bin/env bash
# CI for the aqua workspace.
set -euo pipefail
cd "$(dirname "$0")"

# The benchmark workspace builds every crate by path, runs its tests, then
# a smoke pass of all four workloads with every correctness check (digests,
# counters, lane and sweep identity).
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke
# The same smoke pass in a debug build, so the hot path's debug assertions
# (the gateway batch is exactly the KV pool's live sequences, and the pool's
# full-sequence counter matches a recount) run on every workload.
cargo run --offline --manifest-path benchmark/Cargo.toml -- run --smoke --trace 0

# The workspace has no registry dependencies; every cargo step below runs
# with --offline so one that comes back fails here.
cargo build --workspace --release --offline
cargo test --workspace -q --offline
# The public walkthroughs in examples/: the two steps above compile them but
# run none, so each runs once here and a panic (non-zero exit) fails CI.
for example in examples/*.rs; do
  cargo run --release -q --offline --example "$(basename "$example" .rs)" > /dev/null
done
# Chaos acceptance: producer crash mid-lease → degrade to DRAM → recover,
# and the faulted run stays digest-deterministic.
cargo test -q --offline --test chaos_recovery
# Hot-path acceptance: the untraced transfer-schedule path must stay
# allocation-free, the placer catalog DP allocation-bounded per state, the
# untraced decode step of the batching core (the gateway engine in its vLLM
# configuration) limited to amortized block-table and iteration-clock
# doubling, and the same bound for that engine driven through Driver::run,
# whose decode runs take the gateway's steady loop
# (assert_steady_decode_run_is_allocation_lean), and again with an AQUA
# offloader whose quiet iteration boundaries those runs skip
# (assert_quiet_aqua_decode_run_is_allocation_lean), a driver must queue a
# trace from Driver::schedule_trace one arrival at a time
# (assert_driver_queues_arrivals_on_demand), an 8-server scale run's peak
# heap may grow by at most 32 B per extra request
# (assert_scale_memory_per_request_is_bounded), an idle
# scale-style server (gateway + AQUA offloader, no informer) must get zero
# tick calls over a 40,000 s tail while its processed-event count still
# includes every fast-forwarded tick round (assert_idle_server_is_never_ticked),
# a pop from 64k events pushed into the queue's past must cost at most 8x a
# pop from 1k (assert_out_of_order_fill_pops_stay_logarithmic, best of five
# batches), one gateway admission step must do backlog-independent work
# (allocations and scheduler-key comparisons flat from a 1k to a 10k
# backlog, all five policies), one CFS slice's heap peak must rise by at
# most 1 KiB from a 1k to a 10k backlog, so no slice sorts or copies the
# backlog (assert_cfs_slice_heap_is_backlog_independent), 10k digest-only
# journal emits of a gauge, a transfer completion and a gateway completion
# must allocate nothing (assert_digest_only_emit_is_allocation_free), and a quiet AQUA iteration
# boundary, which returns at once on the offloader's boundary_is_quiet,
# with 64 tracked leases must cost at most 2x one with 1 lease once the
# lease book has settled (assert_quiet_boundary_is_flat, best of five
# batches), and a drained serving log must keep at most 4 B per
# gateway iteration, 8 B per 2^32 ns high word of its clock and 64 B per
# stream, so per-token timestamp storage or an 8 B clock entry fails
# (assert_drained_streams_share_the_clock) — all asserted by the hot_path
# test binary.
cargo test -q --offline -p aqua-bench --test hot_path
# Golden stdout of the two long runs outside `all`, whose seed-42 stdout
# the tier-1 test tests/golden.rs pins: fig15_17 (the 8-GPU CFS mirror of
# Figure 9, among others) and tab_a2 (the one-hour LoRA run) must print
# exactly their committed files. Re-bless a run that is meant to move with
# `aqua-repro <run> > golden/<run>.txt`.
for run in fig15_17 tab_a2; do
  cargo run --release -q --offline -p aqua-bench --bin aqua-repro -- "$run" | cmp - "golden/$run.txt"
done
# Golden work counts of the four benchmark workloads (seed 42, one lane, one
# job, the benchmark's sizes): PDES windows and messages, driver and journal
# events, streams, retries, preemptions, swapped bytes, the gateway's steady
# and quiet-boundary counts, and the suite's points and journal events. A
# change that moves one names it and its cause; re-bless with
# `aqua-repro counters > golden/counters.txt`.
cargo run --release -q --offline -p aqua-bench --bin aqua-repro -- counters | cmp - golden/counters.txt
# Steady-run shape: the full serve_swap workload (the benchmark's, seed 42)
# must run its pinned counts of iterations, steady iterations, skipped
# offloader boundaries and preemptions (serve_swap_shares), so a driver or
# gateway change that moves the workload's shape fails here, not only in
# the benchmark's digest.
cargo test --release -q --offline --test quiet_boundaries -- --ignored
# Trace-export acceptance: one short traced experiment, run twice under
# AQUA_TRACE, must write a non-empty Chrome trace and JSONL journal, and
# each file must be byte-identical across the two runs (run against run,
# never against a pinned literal).
trace_dir=$(mktemp -d)
for run in a b; do
  AQUA_TRACE="$trace_dir/$run.json" cargo run --release --offline -p aqua-bench --bin aqua-repro -- chaos > /dev/null
done
for file in json json.jsonl; do
  for run in a b; do
    [ -s "$trace_dir/$run.$file" ] || {
      echo "FAIL: AQUA_TRACE left $run.$file missing or empty" >&2
      exit 1
    }
  done
  cmp "$trace_dir/a.$file" "$trace_dir/b.$file"
done
rm -rf "$trace_dir"
echo "AQUA_TRACE export is non-empty and identical run to run"
# Gateway acceptance: the scheduler-zoo serving study must render
# byte-identical output and fold identical telemetry digests sequentially
# vs in parallel. The digests are compared run-against-run inside the
# process — never against a pinned literal — so the gate survives workload
# generator changes.
cargo run --release --offline -p aqua-bench --bin aqua-repro -- serve --smoke --count 64
# Same gate for the overload/crash-recovery study (goodput cells at 1-4x
# load plus both crash-restore cells).
cargo run --release --offline -p aqua-bench --bin aqua-repro -- serve --chaos-smoke
# Control-plane acceptance: the coordinator crash/partition recovery study
# must be byte- and digest-identical at 1/4/8 jobs through the sweep, and
# each faulted cell (crash, partition) run audited must be clean and render
# the same table and fold the same journal digest as its unaudited run.
cargo run --release --offline -p aqua-bench --bin aqua-repro -- coord_chaos --smoke
# PDES acceptance: a 64-server (512-GPU) scale-cluster run with the crash
# fault plan and the full audit layer enabled must be byte- and
# digest-identical at 1, 2 and 4 lanes (the caller alone, the caller plus
# one worker thread, plus three) with zero audit violations — once at
# the calm default rate and once oversaturated at 2 req/s with a
# backlog-building span.
cargo run --release --offline -p aqua-bench --bin aqua-repro -- scale --smoke
# Audit acceptance, part 1: 32 seeded FaultPlan x workload x topology points
# under full invariant auditing must report zero violations.
cargo run --release --offline -p aqua-bench --bin aqua-repro -- fuzz --smoke
# A planted audit violation must be *caught* (the command exits non-zero),
# print a shrunk re-runnable reproducer (a line naming `reproduce`) and name
# its violation (`violation`). `what` names the plant in the messages.
expect_planted() {
  local what=$1 reproduce=$2 violation=$3 out
  shift 3
  if out=$(cargo run --release --offline -p aqua-bench --bin aqua-repro -- "$@" 2>&1); then
    echo "FAIL: planted $what was not caught by the audit" >&2
    exit 1
  fi
  echo "$out" | grep -q "reproduce with: $reproduce" || {
    echo "FAIL: planted $what did not print a shrunk reproducer" >&2
    echo "$out" >&2
    exit 1
  }
  echo "$out" | grep -q "$violation" || {
    echo "FAIL: planted $what was not diagnosed as $violation" >&2
    echo "$out" >&2
    exit 1
  }
  echo "planted $what caught and shrunk to a reproducer"
}
# Audit acceptance, part 2: a planted coordinator double-free must be caught
# as a double_free.
expect_planted double-free "aqua-repro fuzz" double_free fuzz --points 4 --plant
# Audit acceptance, part 2b: a planted epoch-fencing bypass (a stale resync
# merged through the unfenced path after a coordinator crash) must be caught
# as a cross-epoch double grant.
expect_planted "fencing bypass" "aqua-repro fuzz" double_grant_across_epochs \
  fuzz --points 4 --plant-fence
# Audit acceptance, part 3: 16 seeded gateway points (FaultPlan x scheduler
# policy x load on the serving path) must report zero audit violations AND
# zero truncated streams.
cargo run --release --offline -p aqua-bench --bin aqua-repro -- fuzz --gateway --smoke
# Audit acceptance, part 4: a planted skipped-restore must be caught as a
# token_without_restore, with a gateway reproducer.
expect_planted "skipped restore" "aqua-repro fuzz --gateway" token_without_restore \
  fuzz --gateway --points 2 --plant
# Public-surface guard: every `pub fn`, `pub const NAME` and `pub static
# NAME` under crates/*/src must be named in some other .rs file of the
# workspace or the frozen benchmark (a lib.rs re-export counts), or in a
# `$crate::` path of its own file's exported macros, which callers expand.
# Anything else is private, `pub(crate)` or `#[cfg(test)]`, where rustc's
# dead_code lint guards it.
surface_dirs=(crates src tests examples benchmark/src)
surface_offenders=$(
  grep -rHoP --include='*.rs' '^\s*pub ((const )?(unsafe )?fn|const|static) \K\w+' crates/*/src | sort -u |
    while IFS=: read -r file name; do
      others=$(grep -rlw --include='*.rs' -- "$name" "${surface_dirs[@]}" | grep -vxF "$file" || true)
      [ -n "$others" ] && continue
      grep -qP "\\\$crate::[\w:]*\b$name\b" "$file" && continue
      echo "  $file: pub $name"
    done
)
if [ -n "$surface_offenders" ]; then
  echo "FAIL: pub fns, consts and statics named only in their own file (make them private, pub(crate) or #[cfg(test)]):" >&2
  echo "$surface_offenders" >&2
  exit 1
fi
echo "every pub fn, const and static is named outside its own file"
# Dependency guard: an aqua-* crate under a manifest's [dependencies] must be
# named (as aqua_*) on a non-comment line of that crate's src/, and every
# [dev-dependencies] entry somewhere in the crate (tests, examples or a
# doctest), so an edge nothing uses fails here instead of lingering in the
# build graph.
dep_offenders=$(
  for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    crate_dirs=("$dir")
    [ "$dir" = . ] && crate_dirs=(src tests examples)
    for section in dependencies dev-dependencies; do
      awk -v s="[$section]" '/^\[/ { on = ($0 == s) } on && /^[a-z]/ { sub(/[ .=].*/, ""); print }' "$manifest" |
        while read -r dep; do
          name=${dep//-/_}
          if [ "$section" = dependencies ]; then
            [[ $dep == aqua-* ]] || continue
            uses=$(grep -rhw --include='*.rs' -- "$name" "$dir/src" | grep -vP '^\s*//' || true)
          else
            uses=$(grep -rlw --include='*.rs' -- "$name" "${crate_dirs[@]}" || true)
          fi
          [ -n "$uses" ] || echo "  $manifest [$section]: $dep"
        done
    done
  done
)
if [ -n "$dep_offenders" ]; then
  echo "FAIL: dependencies the crate never names:" >&2
  echo "$dep_offenders" >&2
  exit 1
fi
echo "every aqua-* dependency is named in its crate's code"
# Policy guard: the gateway engine holds one scheduler index for every
# policy, so no non-test, non-comment line of engine.rs may name a
# `PolicyKind::` variant; a policy's behaviour belongs in its index key.
policy_offenders=$(
  awk '/^mod tests \{/ { exit } !/^[[:space:]]*\/\// && /PolicyKind::/ { print "  " FILENAME ":" FNR ": " $0 }' \
    crates/gateway/src/engine.rs
)
if [ -n "$policy_offenders" ]; then
  echo "FAIL: the gateway engine names a scheduler policy outside its tests:" >&2
  echo "$policy_offenders" >&2
  exit 1
fi
echo "the gateway engine names no scheduler policy outside its tests"
# Counter guard: each count lives on its component (a field behind an
# accessor) or in the journal (one event per occurrence), never in a
# string-keyed side table, so no non-test, non-comment line under
# crates/*/src may call `.incr(`. (Tracer::incr keeps an empty default body
# only because the frozen benchmark's timing wrapper implements it.)
counter_offenders=$(
  find crates/*/src -name '*.rs' -print0 | sort -z |
    xargs -0 awk '/^mod tests \{/ { nextfile } !/^[[:space:]]*\/\// && /\.incr\(/ { print "  " FILENAME ":" FNR ": " $0 }'
)
if [ -n "$counter_offenders" ]; then
  echo "FAIL: counter calls outside tests (keep the count on its component or journal an event):" >&2
  echo "$counter_offenders" >&2
  exit 1
fi
echo "no crate calls Tracer::incr outside its tests"
cargo fmt --all --check
cargo clippy --workspace --all-targets --offline -- -D warnings -D clippy::iter_over_hash_type
# API docs with warnings denied: an intra-doc link to a deleted or private
# item (or any other rustdoc warning) fails CI.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
