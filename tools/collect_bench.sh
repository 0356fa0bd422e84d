#!/usr/bin/env bash
# Collects the machine-readable bench snapshots committed at the repo root.
#
# Runs the JSON-emitting benches with --json (human tables suppressed; the
# binary's entire stdout is its one metrics line, see obs/bench_json.hpp)
# and writes BENCH_<name>.json next to this repo's README. Each bench also
# enforces its own regression gate (cache speedup floor, healthy-path
# robustness overhead, streaming-sim flat memory).
# Every bench runs and every snapshot is written even when a gate trips —
# a full snapshot is what you need to diagnose the failure — but the
# script still exits nonzero listing the failed gates.
#
# With --append, every collected line is ALSO appended to BENCH_history.jsonl
# wrapped with a UTC timestamp and the tree it measured:
#   {"ts":"2026-08-07T12:00:00Z","commit":"abc1234","bench":...,"metrics":...}
# so trends survive the per-bench snapshot files being overwritten. The
# stamp is `git describe --always --dirty`: a line collected from a tree
# with uncommitted changes reads "abc1234-dirty" (abc1234 being the commit
# those changes sit on), never passing as that commit itself.
#
# The history baselines are Release builds, so the build dir must be one:
# the script reads CMAKE_BUILD_TYPE from its CMakeCache.txt and refuses any
# other type (the default configure is RelWithDebInfo, which alone fails
# the deep-solve timings), printing the configure command instead.
#
# Usage: tools/collect_bench.sh [--append] [build-dir]   (default: ./build)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
append=0
build="$root/build"
for arg in "$@"; do
  case "$arg" in
    --append) append=1 ;;
    *) build="$arg" ;;
  esac
done

build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
  "$build/CMakeCache.txt" 2>/dev/null || true)"
if [[ "$build_type" != Release ]]; then
  echo "$build is not a Release build (CMAKE_BUILD_TYPE '${build_type:-unset}');" \
    "the committed snapshots are Release. Configure one with:" >&2
  echo "  cmake -B $build -S $root -DCMAKE_BUILD_TYPE=Release &&" \
    "cmake --build $build -j" >&2
  exit 1
fi

history="$root/BENCH_history.jsonl"
ts="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
commit="$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)"

failed=()
for name in scalability cache robust obs serve sim; do
  bin="$build/bench/bench_$name"
  if [[ ! -x "$bin" ]]; then
    echo "missing $bin — build the benches first (cmake --build $build)" >&2
    exit 1
  fi
  echo "collecting BENCH_$name.json"
  if ! "$bin" --json > "$root/BENCH_$name.json"; then
    failed+=("$name")
  fi
  if [[ "$append" == 1 ]]; then
    line="$(cat "$root/BENCH_$name.json")"
    # Splice the timestamp/commit prefix into the bench's own JSON object.
    printf '{"ts":"%s","commit":"%s",%s\n' "$ts" "$commit" "${line#\{}" \
      >> "$history"
  fi
done

echo "done:"
ls -l "$root"/BENCH_*.json
if [[ "$append" == 1 ]]; then
  echo "appended $(date -u) snapshot to $history"
fi
if [[ ${#failed[@]} -gt 0 ]]; then
  echo "gate failures: ${failed[*]}" >&2
  exit 1
fi

# Trajectory gate: the fresh snapshots must not regress >15% against the
# trailing history baseline (tools/check_bench.py). Runs after the
# snapshots are written so a failing gate still leaves them on disk for
# diagnosis.
python3 "$root/tools/check_bench.py" --root "$root"
