#!/usr/bin/env bash
# Builds the benchmark and runs all five workloads, untraced then traced,
# each in its own process. Prints every metric as `name value unit`.
#
#   perf/run.sh                 the full set (about 5 minutes)
#   perf/run.sh --smoke         tiny-N versions of all five, under 20 s
#   perf/run.sh --repeat-check  the set twice; fails if a host-time metric
#                               moves by more than its bound in
#                               BENCHMARK.json (full size only), or a
#                               simulated metric or the fingerprint at all
#   perf/run.sh --seed N        another seed (default 42)
#
# Exits non-zero if any run reports a failed query or invariant, or if the
# untraced and traced run of a workload disagree on the fingerprint.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

seed=42
smoke=()
seconds=10
repeat_check=0
while [ $# -gt 0 ]; do
    case "$1" in
        --smoke) smoke=(--smoke); seconds=0 ;;
        --repeat-check) repeat_check=1 ;;
        --seed) seed="$2"; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift
done

cargo build --release --offline --manifest-path perf/Cargo.toml --target-dir target
bin=target/release/perf
workloads=(engine_only farsite_steady gnutella_churn query_storm federation_par)
# Host-time metrics may differ between runs by their bound; every other
# end-to-end metric is simulated and must repeat exactly.
host_metrics=" setup_s run_s engine_only_s peak_rss_mb "
status=0

# run <workload> <trace> <file>: one process; metrics to stdout and <file>.
run() {
    echo "== $1 (trace $2)"
    "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" "${smoke[@]}" |
        tee "$3" | grep -v '^{'
    if ! tail -n 1 "$3" | grep -q '"correct": true, '; then
        echo "run.sh: $1 (trace $2) reported a failure" >&2
        status=1
    fi
}

# fingerprint <workload> <mode>: from the artifact the run just wrote.
fingerprint() {
    local suffix=""
    [ ${#smoke[@]} -gt 0 ] && suffix=".smoke"
    sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p' "perf/out/$1$suffix.$2.json"
}

mkdir -p perf/out
tmp="$(mktemp -d perf/out/run.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT

# run_set <tag>: every workload untraced, then traced; the two runs of a
# workload are separate processes and must agree on the fingerprint.
run_set() {
    for w in "${workloads[@]}"; do
        run "$w" 0 "$tmp/$w.$1"
        fingerprint "$w" e2e >"$tmp/$w.$1.fp"
    done
    for w in "${workloads[@]}"; do
        run "$w" 1 "$tmp/$w.$1.traced"
        if [ "$(cat "$tmp/$w.$1.fp")" != "$(fingerprint "$w" ledger)" ]; then
            echo "run.sh: $w fingerprint differs between the untraced and traced run" >&2
            status=1
        fi
    done
}

run_set first
if [ "$repeat_check" -eq 1 ]; then
    run_set second
    for w in "${workloads[@]}"; do
        if ! cmp -s "$tmp/$w.first.fp" "$tmp/$w.second.fp"; then
            echo "run.sh: $w fingerprint differs between the two sets" >&2
            status=1
        fi
        # Bounds come from the one-metric-per-line BENCHMARK.json.
        awk -v host="$host_metrics" -v w="$w" -v smoke="${#smoke[@]}" -v bench="$root/BENCHMARK.json" '
            BEGIN {
                while ((getline line < bench) > 0)
                    if (match(line, /"name": "[^"]+"/) && line ~ /"bound"/) {
                        name = substr(line, RSTART + 9, RLENGTH - 10)
                        sub(/.*"bound": /, "", line); sub(/[^0-9.].*/, "", line)
                        bound[name] = line
                    }
            }
            /^\{/ || /^host\./ { next }
            NR == FNR { first[$1] = $2; next }
            {
                a = first[$1]; b = $2
                if (index(host, " " $1 " ")) {
                    if (smoke) next  # millisecond phases: host times mean nothing
                    lim = bound[$1] + 0
                    d = (a > b ? a - b : b - a) / (a < b ? a : b)
                    # 20 ms either way is scheduler noise, whatever the share.
                    if (d > lim && (a > b ? a - b : b - a) > 0.02) { printf "run.sh: %s %s moved %.3f > %s: %s vs %s\n", w, $1, d, lim, a, b; bad = 1 }
                } else if (a != b) {
                    printf "run.sh: %s %s is simulated and differs: %s vs %s\n", w, $1, a, b; bad = 1
                }
            }
            END { exit bad }
        ' "$tmp/$w.first" "$tmp/$w.second" >&2 || status=1
    done
fi

[ "$status" -eq 0 ] && echo "run.sh: all workloads correct" || echo "run.sh: FAILED" >&2
exit "$status"
