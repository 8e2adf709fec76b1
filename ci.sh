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
# configuration) limited to amortized iteration-clock doubling (at most
# log2 of its 512 steps, so per-sequence growth fails it), and the same bound for that engine driven through Driver::run,
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
# backlog, all five policies), a gateway's live heap may grow by at most
# 256 B per queued request from a 1k to a 10k backlog, so a second copy of
# each queued request fails it (assert_queued_request_heap_is_bounded), one
# CFS slice's heap peak must rise by at most 1 KiB from a 1k to a 10k
# backlog, so no slice sorts or copies the backlog
# (assert_cfs_slice_heap_is_backlog_independent), 10k digest-only
# journal emits each of a request_scheduled and a request_preempted (with
# the labels a gateway interns once), a transfer completion, a gateway
# completion and a lease_allocated (with the labels an AQUA offloader
# interns once) must allocate nothing
# (assert_digest_only_emit_is_allocation_free), and a quiet AQUA iteration
# boundary, which returns at once on the offloader's boundary_is_quiet,
# with 64 tracked leases must cost at most 2x one with 1 lease once the
# lease book has settled (assert_quiet_boundary_is_flat, best of five
# batches), and a drained serving log must keep at most 4 B per
# gateway iteration, 8 B per 2^32 ns high word of its clock and 64 B per
# stream, so per-token timestamp storage or an 8 B clock entry fails
# (assert_drained_streams_share_the_clock) — all asserted by the hot_path
# test binary.
cargo test -q --offline -p aqua-bench --test hot_path
# Golden output of the runs the docs quote beyond `all` at seed 42 (which
# the tier-1 test tests/golden.rs pins): the two long runs outside `all`,
# fig15_17 (the 8-GPU CFS mirror of Figure 9, among others) and tab_a2 (the
# one-hour LoRA run), `all` at seeds 7 and 1234, and the non-default sizes
# fig01 --count 300 and fig07 --window 600. Each must print exactly
# golden/<name>.txt, and its stderr summary line (points, jobs, journal
# events and digest) with its wall time removed must match
# golden/<name>.stderr. Re-bless a run that is meant to move with
# `aqua-repro <args> 2>&1 > golden/<name>.txt | grep '^aqua-repro: ' |
#   sed -E 's/ in [0-9.]+s,/,/' > golden/<name>.stderr`, the same filter as
# below, and name each moved line in CHANGES.md.
# The run's stdout goes to the first cmp and its stderr, through fd 3, to
# the filter; pipefail fails the step if either cmp does.
golden() {
  local name=$1
  shift
  { cargo run --release -q --offline -p aqua-bench --bin aqua-repro -- "$@" 2>&3 |
      cmp - "golden/$name.txt" >&2; } 3>&1 |
    grep '^aqua-repro: ' | sed -E 's/ in [0-9.]+s,/,/' | cmp - "golden/$name.stderr"
}
golden fig15_17 fig15_17
golden tab_a2 tab_a2
golden all_seed7 all --seed 7
golden all_seed1234 all --seed 1234
golden fig01_count300 fig01 --count 300
golden fig07_window600 fig07 --window 600
# Golden work counts of the four benchmark workloads (seed 42, one lane, one
# job, the benchmark's sizes): PDES windows and messages, driver and journal
# events, streams, retries, preemptions, swapped bytes, the gateway's steady
# and quiet-boundary counts and scheduler-key comparisons, and the suite's
# points and journal events. A
# change that moves one names it and its cause; re-bless with
# `aqua-repro counters > golden/counters.txt`.
cargo run --release -q --offline -p aqua-bench --bin aqua-repro -- counters | cmp - golden/counters.txt
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
# The smoke acceptance runs below print a deterministic stdout, which each
# must match byte for byte against golden/<name>.txt. pipefail fails the
# step if the run itself fails. Re-bless a run that is meant to move with
# `aqua-repro <args> > golden/<name>.txt`, the arguments as below, and
# name each moved line in CHANGES.md.
smoke() {
  local name=$1
  shift
  cargo run --release -q --offline -p aqua-bench --bin aqua-repro -- "$@" | cmp - "golden/$name.txt"
}
# Gateway acceptance: the scheduler-zoo serving study must render
# byte-identical output and fold identical telemetry digests sequentially
# vs in parallel, compared run against run inside the process. --jobs 4 is
# explicit so that the stdout, which names the job count, does not depend
# on the host's cores.
smoke serve_smoke serve --smoke --count 64 --jobs 4
# Same gate for the overload/crash-recovery study (goodput cells at 1-4x
# load plus both crash-restore cells).
smoke serve_chaos_smoke serve --chaos-smoke --jobs 4
# Control-plane acceptance: the coordinator crash/partition recovery study
# must be byte- and digest-identical at 1/4/8 jobs through the sweep, and
# each faulted cell (crash, partition) run audited must be clean and render
# the same table and fold the same journal digest as its unaudited run.
smoke coord_chaos_smoke coord_chaos --smoke
# PDES acceptance: a 64-server (512-GPU) scale-cluster run with the crash
# fault plan and the full audit layer enabled must be byte- and
# digest-identical at 1, 2 and 4 lanes (the caller alone, the caller plus
# one worker thread, plus three) with zero audit violations — once at
# the calm default rate and once oversaturated at 2 req/s with a
# backlog-building span.
smoke scale_smoke scale --smoke
# Audit acceptance, part 1: 32 seeded FaultPlan x workload x topology points
# under full invariant auditing must report zero violations.
smoke fuzz_smoke fuzz --smoke
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
smoke fuzz_gateway_smoke fuzz --gateway --smoke
# Audit acceptance, part 4: a planted skipped-restore must be caught as a
# token_without_restore, with a gateway reproducer.
expect_planted "skipped restore" "aqua-repro fuzz --gateway" token_without_restore \
  fuzz --gateway --points 2 --plant
# Public-surface guard: every `pub fn`, `pub const NAME` and `pub static
# NAME` under crates/*/src must be used in some other .rs file of the
# workspace or the frozen benchmark (a lib.rs re-export counts), or in a
# `$crate::` path of its own file's exported macros, which callers expand.
# Anything else is private, `pub(crate)` or `#[cfg(test)]`, where rustc's
# dead_code lint guards it. A use is a whole-word mention in code, in a
# doc comment's fenced example (doctests compile it) or in an intra-doc
# link (rustdoc resolves it). Comment prose, string and char literals and
# the name of a `fn` definition are no use: code_only strips them from a
# file before the search.
code_only() {
  perl -0777 -pe '
    my $in_example = 0;
    s{//([/!]?)([^\n]*)|/\*.*?\*/|\br(#*)".*?"\3|"(?:[^"\\]|\\.)*"|\x27(?:[^\x27\\]|\\.)\x27}{
      if (!defined $1) { q("") }
      elsif ($1 eq "") { "" }
      elsif ($2 =~ /^\s*```/) { $in_example = !$in_example; "" }
      elsif ($in_example) { $2 }
      else { join " ", grep defined, $2 =~ /\[`([\w:]+)(?:\(\))?`\](?!\()|\]\(([\w:]+)(?:\(\))?\)/g }
    }gse;
    s/\bfn\s+\w+/fn/g;
  ' "$1"
}
surface_dirs=(crates src tests examples benchmark/src)
uses_dir=$(mktemp -d)
while read -r file; do
  mkdir -p "$uses_dir/$(dirname "$file")"
  code_only "$file" > "$uses_dir/$file"
done < <(find "${surface_dirs[@]}" -name '*.rs')
surface_offenders=$(
  grep -rHoP --include='*.rs' '^\s*pub ((const )?(unsafe )?fn|const|static) \K\w+' crates/*/src | sort -u |
    while IFS=: read -r file name; do
      others=$(grep -rlw -- "$name" "$uses_dir" | grep -vxF "$uses_dir/$file" || true)
      [ -n "$others" ] && continue
      grep -qP "\\\$crate::[\w:]*\b$name\b" "$file" && continue
      echo "  $file: pub $name"
    done
)
rm -rf "$uses_dir"
if [ -n "$surface_offenders" ]; then
  echo "FAIL: pub fns, consts and statics used only in their own file (make them private, pub(crate) or #[cfg(test)]):" >&2
  echo "$surface_offenders" >&2
  exit 1
fi
echo "every pub fn, const and static is used outside its own file"
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
