#!/usr/bin/env bash
# Builds tc_bench (Release) from this checkout into .bench_build/ and runs
# the benchmark.
#
# One pass of one workload, the form BENCHMARK.json's command takes; the
# last line of stdout is the result JSON:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The suite: every workload in its own process, untraced then traced. It
# prints "<workload> <metric> <value> <unit> <sim|host>" lines and writes
# .bench_build/BENCH_suite_seed<n>_run<k>.json (git sha, nproc, build type,
# seed, and every pass's result):
#   bash benchmark/run.sh [--seed <n>] [--seconds <s>] [--repeat <k>]
# --seconds defaults to 0 here: one run per pass, about 90 s for the suite.
# The measurement BENCHMARK.json asks for is --seconds 10. With --repeat 2
# the suite runs twice; every simulated line must match byte for byte
# (exit 1 otherwise), and each host metric's two values are printed with
# their spread against the metric's bound.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
bin="$build/tc_bench"
workloads="kv_zipf incast_tree steal_skew ring_laned"

build_bench() {
  # Configure until a configure succeeded (it writes the build file last).
  if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
    if command -v ninja > /dev/null; then
      cmake -S "$root/benchmark" -B "$build" -G Ninja \
        -DCMAKE_BUILD_TYPE=Release >&2
    else
      cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
    fi
  fi
  cmake --build "$build" --target tc_bench -j "$(nproc)" >&2
}

usage() {
  echo "usage: $0 --workload <name> --seed <n> --seconds <s> --trace <0|1>" >&2
  echo "       $0 [--seed <n>] [--seconds <s>] [--repeat <k>]" >&2
  exit 2
}

for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    build_bench
    exec "$bin" "$@"
  fi
done

seed=1
seconds=0
repeat=1
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="${2:?}"; shift 2 ;;
    --seconds) seconds="${2:?}"; shift 2 ;;
    --repeat) repeat="${2:?}"; shift 2 ;;
    *) usage ;;
  esac
done
build_bench

sha="$(git -C "$root" rev-parse HEAD 2> /dev/null || echo unknown)"
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$build/CMakeCache.txt")"
status=0

# run_suite <k>: one untraced and one traced pass per workload.
run_suite() {
  local k="$1" lines="$build/suite_run$1.txt" entries="" w t out result
  : > "$lines"
  for w in $workloads; do
    for t in 0 1; do
      out="$build/suite_run$k.$w.$t"
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" \
        --trace "$t" > "$out" || status=1
      result="$(tail -n 1 "$out")"
      case "$result" in
        "{"*) head -n -1 "$out" | tee -a "$lines" ;;
        *) result=null; status=1 ;;
      esac
      entries="$entries${entries:+,
    }{\"workload\": \"$w\", \"trace\": $t, \"result\": $result}"
    done
  done
  cat > "$build/BENCH_suite_seed${seed}_run$k.json" << EOF
{
  "git_sha": "$sha",
  "nproc": $(nproc),
  "build_type": "$build_type",
  "seed": $seed,
  "seconds": $seconds,
  "passes": [
    $entries
  ]
}
EOF
}

for k in $(seq 1 "$repeat"); do
  run_suite "$k"
done

# "<metric> <bound>" for each end-to-end metric of BENCHMARK.json.
bounds="$build/bounds.txt"
awk -F'"' '/"bound"/ { b = $0; sub(/.*"bound": */, "", b); sub(/[},].*/, "", b)
                       print $4, b }' "$root/BENCHMARK.json" > "$bounds"
for k in $(seq 2 "$repeat"); do
  first="$build/suite_run1.txt"
  later="$build/suite_run$k.txt"
  echo "== run 1 vs run $k: simulated metrics"
  if diff <(awk '$5 == "sim"' "$first") <(awk '$5 == "sim"' "$later"); then
    echo "identical"
  else
    status=1
  fi
  echo "== run 1 vs run $k: host metrics (spread = |a - b| / |mean|)"
  awk '
    FILENAME == ARGV[1] { bound[$1] = $2; next }
    $5 != "host" { next }
    FILENAME == ARGV[2] { seen[$1 " " $2] = $3; next }
    {
      a = seen[$1 " " $2]; b = $3
      if (a == 0 && b == 0) next  # not observable on this workload
      mean = (a + b) / 2
      spread = (a > b ? a - b : b - a) / (mean < 0 ? -mean : mean)
      verdict = "no bound"
      if ($2 in bound) {
        verdict = sprintf("bound %.2f %s", bound[$2],
                          spread <= bound[$2] ? "ok" : "OVER")
      }
      printf "%-12s %-22s %14.6g %14.6g  spread %.4f  %s\n",
             $1, $2, a, b, spread, verdict
    }' "$bounds" "$first" "$later"
done
exit "$status"
