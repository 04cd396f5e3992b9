#!/usr/bin/env bash
# Repository gate: formatting, lints, build and the full test suite.
# Run before pushing; CI (.github/workflows/ci.yml) runs this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings; every member has a [lints] table; the negative control is refused)"
# Hash collections, wall clocks, threads/channels and `unsafe` are
# clippy's and rustc's to refuse (clippy.toml, [workspace.lints]); which
# crate is under which ban is its Cargo.toml's [lints] table, so a member
# without one has opted out by omission.
for manifest in Cargo.toml crates/*/Cargo.toml; do
  if ! grep -q '^\[lints[].]' "$manifest"; then
    echo "$manifest has no [lints] table (DESIGN.md §5 says which one it needs)" >&2
    exit 1
  fi
done
cargo clippy --workspace --all-targets -- -D warnings
# Negative control: one violation per ban plus an #[expect] that matches
# nothing; clippy must refuse the package (pipefail carries its exit
# status) with exactly those five.
if control=$(cargo clippy --offline --quiet --message-format json \
  --manifest-path crates/lint/tests/negative-control/Cargo.toml \
  --target-dir target/negative-control -- -D warnings 2>/dev/null |
  grep -o '"code":{"code":"[^"]*"' | cut -d'"' -f6 | sort | tr '\n' ' '); then
  echo "negative control: clippy accepted a package with five violations" >&2
  exit 1
fi
expected="clippy::disallowed_methods clippy::disallowed_methods clippy::disallowed_types unfulfilled_lint_expectations unsafe_code "
if [ "$control" != "$expected" ]; then
  echo "negative control: clippy reported [ $control], expected [ $expected]" >&2
  exit 1
fi

echo "==> seaweed-lint (determinism audit, <5s budget)"
# Build outside the timed window so the budget measures the audit, not
# the compiler; the audit must stay cheap enough to run on every edit.
cargo build -q -p seaweed-lint
echo "    rules: $(./target/debug/seaweed-lint --list-rules | wc -l)"
lint_start=$(date +%s%N)
./target/debug/seaweed-lint
lint_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
echo "    lint wall-clock: ${lint_ms}ms"
if [ "$lint_ms" -ge 5000 ]; then
  echo "seaweed-lint exceeded its 5s budget (${lint_ms}ms)" >&2
  exit 1
fi

echo "==> one timer discipline (no protocol layer cancels a timer or holds a handle)"
# Every protocol timer is armed fire-and-forget and its handler decides at
# the fire instant whether it is still current: in crates/core a task's
# round, the recorded retry tag, a query's report; in crates/overlay the
# watched node's session carried in a detection tag, and whether a joiner
# has joined. A cancel or a held `TimerHandle` in either would bring back a
# second way to disarm a timer (DESIGN.md §3.5); the engine alone cancels,
# sweeping a node's timers when it goes down.
if grep -rnE 'cancel_timer|TimerHandle' crates/core/src crates/overlay/src; then
  echo "a protocol layer cancels a timer or holds a timer handle" >&2
  exit 1
fi

echo "==> one slot-recycle path (a query slot changes tenant only between events)"
# A storm-mode slot is recycled by release_slot -> try_admit ->
# install. Only reclaim_slots may release, and only the three entry
# points that can retire a query call it, last: then no handler sees a
# slot name a second query (DESIGN.md §3.6). Prints the enclosing fn of
# every call of $1 in crates/core/src, unit-test modules and comments
# excluded.
callers() {
  awk -v f="$1(" '
    FNR == 1 { live = 1 }
    /#\[cfg\(test\)\]/ { live = 0 }
    !live || /^[[:space:]]*\/\// { next }
    match($0, /fn [a-z_][a-z_0-9]*[(<]/) { enc = substr($0, RSTART + 3, RLENGTH - 4) }
    index($0, f) && enc "(" != f { print enc }
  ' $(find crates/core/src -name '*.rs' | sort) | sort | tr '\n' ' '
}
release=$(callers release_slot)
reclaim=$(callers reclaim_slots)
echo "    release_slot called from: $release"
echo "    reclaim_slots called from: $reclaim"
if [ "$release" != "reclaim_slots " ] || [ "$reclaim" != "cancel_query dispatch retire_query " ]; then
  echo "release_slot must be called from reclaim_slots alone, and reclaim_slots from dispatch, retire_query and cancel_query alone" >&2
  exit 1
fi

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
# default-members is the whole workspace, so this builds the one
# experiment executable the guard and the smokes below run.
cargo build --release

echo "==> cargo test"
cargo test -q

echo "==> cargo bench --no-run (Criterion benches must keep compiling)"
cargo bench --workspace --no-run

bench=./target/release/seaweed-bench
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

echo "==> figure guard (every checked-in CSV regenerates cmp-equal; every CSV produced is checked in)"
# scale02.csv and scale03.csv are host recordings run by name (ROADMAP
# 2b), not part of `all`; everything else under results/ is a figure.
guard_start=$(date +%s)
"$bench" all --out-dir "$scratch/all" >"$scratch/all.log" 2>&1 || { cat "$scratch/all.log"; exit 1; }
guard_failed=0
for f in $(git ls-files results); do
  case "$f" in results/scale02.csv | results/scale03.csv) continue ;; esac
  if ! cmp "$f" "$scratch/all/${f#results/}"; then
    echo "figure guard: $f is not what the code produces" >&2
    guard_failed=1
  fi
done
for f in "$scratch"/all/*.csv; do
  if ! git ls-files --error-unmatch "results/${f##*/}" >/dev/null 2>&1; then
    echo "figure guard: ${f##*/} is produced by \`all\` but not checked in under results/" >&2
    guard_failed=1
  fi
done
echo "    figure guard wall-clock: $(($(date +%s) - guard_start))s"
[ "$guard_failed" -eq 0 ]

# byte_stable <name> [args…]: runs the experiment twice, into
# $scratch/<name>/a and …/b (the second time silently), and requires every
# output except the JSON twins, which carry wall-clock, to be
# byte-identical between the two.
byte_stable() {
  local dir="$scratch/$1"
  "$bench" "$@" --out-dir "$dir/a"
  "$bench" "$@" --out-dir "$dir/b" >/dev/null
  diff -r -x '*.json' "$dir/a" "$dir/b"
}

echo "==> chaos smoke (fixed seed: oracles clean, CSV byte-stable)"
byte_stable chaos01_faults --seed 7 --seeds 4

echo "==> trace smoke (fixed seed: CSV and JSONL trace byte-stable)"
byte_stable obs01_query_timeline --seed 7 --seeds 2

echo "==> scale02 smoke (fixed seed, small N, Farsite point disabled: CSV byte-stable)"
# (--json: the default twin is the checked-in BENCH_scale02.json.)
byte_stable scale02_farsite --base 100 --max-n 200 --farsite-n 0 --seed 7 \
  --json "$scratch/scale02.json"

echo "==> scale03 smoke (fixed seed, small N: parallel executor CSV == serial CSV)"
# The partitioned executor's whole contract: a parallel-only run emits
# the byte-identical deterministic CSV of a serial-only run (each run
# also asserts per-shard oracle cleanliness and completeness 1.0).
for mode in serial parallel; do
  "$bench" scale03_million --n 600 --parts 3 --workers 3 --seed 7 --mode "$mode" \
    --out-dir "$scratch/scale03/$mode" --json "$scratch/scale03.json"
done
diff -r -x '*.json' "$scratch/scale03/serial" "$scratch/scale03/parallel"

echo "==> storm01 smoke (fixed seed, small N: oracle-gated, K=1 byte-identity, CSV byte-stable)"
# Asserts internally: every query reaches completeness 1.0, the chaos
# oracle stays clean, and the K=1 storm run is byte-identical to the
# storm-off baseline (exits non-zero otherwise).
byte_stable storm01_query_storm --n 300 --max-k 100 --seed 7

echo "==> abl07 smoke (fixed seed: hedging oracles clean, CSV byte-stable)"
# Exits non-zero on any ChaosOracle violation with hedging on.
byte_stable abl07_hedging --seed 7 --seeds 3

echo "==> perf/ benchmark (its unit tests; smoke: five workloads correct, fingerprint untraced == traced)"
# perf/ is its own workspace measuring the library crates from outside;
# a change to a public signature it compiles against fails here.
cargo test -q --manifest-path perf/Cargo.toml --offline
perf/run.sh --smoke

# ledger_of [workload]: the workload's traced smoke ledger (farsite_steady
# unless named).
ledger_of() {
  echo "perf/out/${1:-farsite_steady}.smoke.ledger.json"
}

# ledger_value <metric> [workload]: its value in that ledger.
ledger_value() {
  sed -n "s/.*\"${1//./\\.}\": {\"value\": \([-+0-9.eE]*\),.*/\1/p" "$(ledger_of "${2:-}")"
}

# alloc_gate <layer> <limit> [workload] [floor]: <layer>.allocs_per_event
# is at most <limit>, over at least <floor> (1,000 unless given)
# <layer>.events — under that the ratio says nothing.
alloc_gate() {
  local allocs events floor="${4:-1000}"
  allocs=$(ledger_value "$1.allocs_per_event" "${3:-}")
  events=$(ledger_value "$1.events" "${3:-}")
  echo "    ${3:+$3: }$1.allocs_per_event = ${allocs:-missing} over ${events:-missing} events"
  if ! awk -v a="$allocs" -v n="$events" -v max="$2" -v floor="$floor" 'BEGIN { exit !(a != "" && a + 0 <= max && n + 0 >= floor) }'; then
    echo "$1.allocs_per_event exceeds $2 (or is missing from $(ledger_of "${3:-}"), or counts under $floor events)" >&2
    exit 1
  fi
}

# ratio_gate <count> <per> <limit> <what exceeding it means> [workload]:
# the ratio of the two ledger counts is at most <limit>.
ratio_gate() {
  local ratio
  ratio=$(awk -v e="$(ledger_value "$1" "${5:-}")" -v n="$(ledger_value "$2" "${5:-}")" \
    'BEGIN { if (e != "" && n + 0 > 0) printf "%.3f", e / n }')
  echo "    ${5:+$5: }$1 / $2 = ${ratio:-missing}"
  if ! awk -v r="$ratio" -v max="$3" 'BEGIN { exit !(r != "" && r + 0 <= max) }'; then
    echo "$4 (or a count is missing from $(ledger_of "${5:-}"))" >&2
    exit 1
  fi
}

echo "==> allocation gates (traced smokes: leafset maintenance allocation-free, a dissemination event under 1.5 allocations, a join hand-over builds no replica set, a precomputed answer is found without a key, a live scan allocates nothing, an aggregation event allocates less than once per submission)"
# perf/ counts allocations from outside, so no counting allocator (and no
# `unsafe`) has to enter a deterministic crate to hold these lines.
# Leafset: 4.00 allocations per LeafsetPull/LeafsetPush before PR 13,
# ~0.002 after; only exchanges between un-synced pairs are events now.
alloc_gate overlay.leafset 0.1
# Dissemination: 5.79 per event while a boxed predictor was two
# allocations and every task kept a second copy of its merge, 3.79 from
# PR 18, 2.90 since the per-report candidate list, the per-task timer
# pair and the split stack stopped being `Vec`s (PR 20), 1.90 since
# `oracle_root` — which perf's classifier calls on every routed message,
# inside the span — stopped building two `Vec`s (PR 21), 1.36 since a
# predictor is held by value and stores only the buckets it has touched,
# and `IdRange::split` yields its parts without a `Vec` (PR 33; 1.91 at
# its parent).
alloc_gate core.disseminate 1.5
# A join event carries the application's replica hand-over: 36.6 per event
# here while every held owner's replica set was built as a sorted `Vec`
# to ask `.contains(&joiner)`, 0.80 since the ring index answers that as
# an interval test (PR 21).
alloc_gate overlay.join 1.0 gnutella_churn
# `Precomputed` answers every estimate and execution of the trace-driven
# workloads: exactly 6.0 per call while each lookup rendered the bound
# query into a `String` key, none since the registry is searched by
# `BoundQuery` equality (PR 24). This smoke makes 514 of them.
alloc_gate store.estimate 0.1 farsite_steady 500
# Live scans (`execute` and a storm's `execute_many`): 1.99 per call over
# 1,170 calls while `execute_batch` built an aggregate `Vec` and a
# fold-source `Vec` around its shared row walk. Every entry point is now
# one call of a scan kernel that allocates nothing, so a batch's returned
# `Vec` is all that is left.
alloc_gate store.execute 1.0 query_storm
# Aggregation (submissions, acks, vertex replication): 0.248 per event
# over 14,916 events on this smoke at PR 33 and at its parent. With at
# most 7.0 events per submission (the ratio gate below), one more
# allocation per submission would add at least 0.14 and fail this.
alloc_gate core.results 0.3 query_storm

echo "==> event gates (traced smokes: a converged ring is not simulated, nor a push to a replica that holds the vertex, nor one to a holder of the metadata)"
# Leafset exchanges plus overlay timers, as a share of the events that
# are not metadata deliveries (which PR 24 took out of sim.events almost
# whole, so they are out of this denominator at every commit): 0.94 on
# this smoke when every refresh of every pair was an event (PR 16's
# parent: 185,218 + 92,623 of 347,091 − 51,867); synced pairs are a
# standing rate now, and what is left is the churn-driven remainder
# (0.53: 9,712 + 7,240 of 36,505 − 4,464).
leafset_events=$(ledger_value overlay.leafset.events)
timer_events=$(ledger_value overlay.timer.events)
sim_events=$(ledger_value sim.events)
metadata_events=$(ledger_value core.metadata.events)
share=$(awk -v l="$leafset_events" -v t="$timer_events" -v s="$sim_events" -v m="$metadata_events" \
  'BEGIN { if (l != "" && t != "" && m != "" && s - m > 0) printf "%.3f", (l + t) / (s - m) }')
echo "    (overlay.leafset.events + overlay.timer.events) / (sim.events - core.metadata.events) = ${share:-missing}"
if ! awk -v r="$share" 'BEGIN { exit !(r != "" && r + 0 <= 0.65) }'; then
  echo "overlay maintenance is more than 0.65 of the events that are not metadata deliveries (or a count is missing from $(ledger_of))" >&2
  exit 1
fi
# A metadata push was a delivery (51,808 events over 51,816 pushes on this
# smoke) while every periodic push to every replica-set member was an
# event; members already on the owner's holder list are charged theirs
# now, and what is left is the join own-push, the hand-over, the failure
# re-push and repair, and pushes to members not yet listed (0.086).
ratio_gate core.metadata.events core.meta_pushes 0.15 \
  "more than 0.15 metadata deliveries per push"
# A submission cost 9.75 aggregation events on the query_storm smoke while
# every replica push was delivered (23,406 over 2,400); standing holders
# are charged theirs now, and what is left is the submit, its ack, the
# recruiting of new backups and the pushes to the origin (6.2).
ratio_gate core.results.events core.result_submissions 7.0 \
  "more than 7.0 aggregation events per submission" query_storm

echo "OK"
