#!/usr/bin/env python3
"""Performance-trajectory gate over the committed bench snapshots.

Compares the current ``BENCH_<name>.json`` snapshots at the repo root
against a trailing baseline derived from ``BENCH_history.jsonl`` (the
per-commit archive tools/collect_bench.sh --append maintains) and fails
when a gated metric regressed by more than the tolerance.

Baseline: the median of each gated metric over the last ``--window``
history entries for that bench, excluding the newest entry when it is
the very snapshot being judged (collect_bench.sh appends to history
before invoking this gate — a run must not be part of its own baseline).
A median over a short trailing window is deliberately forgiving of one
noisy run landing in history while still catching a real trend; with a
single history entry it degenerates to an exact previous-run comparison.

Gate: a metric regresses when it moves in its *bad* direction (down for
higher-is-better throughput/speedup metrics, up for lower-is-better
latency metrics) by more than ``max(rel_tol * |baseline|, abs_tol)``.
The relative tolerance defaults to 15%; near-zero metrics (overhead
percentages, sub-millisecond latencies) carry an absolute floor so that
0.04% -> 0.09% overhead does not read as a 125% regression.

Exit codes: 0 all gates pass (or no history yet — first run is vacuous),
1 regression or schema problem, 2 usage.

``--selftest`` runs the gate logic against fabricated data (a clean run,
a >15% regression, a within-tolerance wobble, an abs-floor save) and
exits 0 iff the gate catches exactly the regression — this is what the
``bench_gate_selftest`` ctest runs, so the gate itself is under test
without needing bench binaries.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

# Gated metrics per bench: (metric, direction, abs_tol).
# direction 'higher' = regression when the value drops; 'lower' = when it
# climbs. abs_tol is in the metric's own unit and protects near-zero
# metrics from the relative check.
#
# Tolerance philosophy: machine-invariant *ratios* (speedups, hit rates,
# overhead percentages) get tight floors — they should not move with host
# speed. Raw throughput and wall-clock latency floors are deliberately
# wider: CI runs on shared burstable hosts whose effective clock drifts
# between sessions, and the trailing median only absorbs that drift once
# several entries from the new machine state have landed in history.
GATES = {
    "scalability": [
        ("deep_n128_solve_ms", "lower", 40.0),
        ("web_shop_interval_ms", "lower", 1.0),
        ("web_shop_reliability_ms", "lower", 0.03),
        ("deep_n48_sweep64_ms", "lower", 2.0),
        # One warm-memo generate and one warm-plan checked steady solve of
        # the sweep block. Twenty Release runs on a shared 4-vCPU host read
        # 5.2-10.6 us and 17.8-29.6 us (the host's speed switches between
        # two modes about 1.45x apart), so each floor is that spread. A
        # return to building names per point reads 42-67 us; planning the
        # elimination at every point reads ~40 us.
        ("deep_n48_generate_us", "lower", 5.4),
        ("deep_n48_steady_us", "lower", 11.8),
        # The warm solve over a solve of the same chain that plans first,
        # timed back to back, so the host's speed cancels: twenty Release
        # runs read 0.440-0.458 while the absolute times swung 17-29 us, so
        # the floor is that spread rounded up and the 15% relative check
        # decides. The per-point setup, full-band loops and ilogb/ldexp
        # normalization of the one-pattern RCM memo before the plan read
        # 0.626-0.671 in the same bench.
        ("deep_n48_steady_plan_ratio", "lower", 0.02),
        ("deep_n480_curve_ms", "lower", 20.0),
        ("deep_n1440_solve_ms", "lower", 60.0),
    ],
    "cache": [
        ("speedup_warm_vs_full", "higher", 1.5),
        ("block_hit_rate", "higher", 0.05),
    ],
    "robust": [
        ("ns_per_poll", "lower", 25.0),
        ("overhead_pct", "lower", 1.0),
        ("p99_cancel_latency_ms", "lower", 1.0),
    ],
    "obs": [
        ("disabled_ns_per_touchpoint", "lower", 2.0),
        ("disabled_overhead_pct", "lower", 1.0),
    ],
    "serve": [
        ("req_per_sec", "higher", 700.0),
        ("warm_speedup", "higher", 0.4),
        ("p99_ms", "lower", 20.0),
    ],
    "sim": [
        ("streaming_rps", "higher", 90000.0),
        ("events_per_sec", "higher", 4.0e6),
        ("rss_growth_mb", "lower", 3.0),
    ],
}


def load_history(path):
    """history file -> {bench: [metrics dict, ...]} in file (=time) order."""
    by_bench = {}
    if not path.exists():
        return by_bench
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as e:
            raise SystemExit(f"{path}:{lineno}: bad history line: {e}")
        by_bench.setdefault(entry["bench"], []).append(entry["metrics"])
    return by_bench


def check_bench(bench, current, history, window, rel_tol):
    """Returns a list of failure strings for one bench (empty = pass)."""
    failures = []
    # collect_bench.sh --append writes the history line *before* running
    # this gate, so the newest entry is usually the very snapshot under
    # judgement. Including it would dilute the baseline toward the current
    # value — a 40% regression would be judged against a baseline that is
    # half regression. Exclude the trailing entry iff it is that snapshot.
    if history and history[-1] == current:
        history = history[:-1]
    trailing = history[-window:] if history else []
    for metric, direction, abs_tol in GATES[bench]:
        if metric not in current:
            failures.append(
                f"{bench}.{metric}: missing from current snapshot"
            )
            continue
        samples = [h[metric] for h in trailing if metric in h]
        if not samples:
            continue  # no baseline yet: vacuous pass, reported by caller
        baseline = statistics.median(samples)
        value = current[metric]
        allowed = max(rel_tol * abs(baseline), abs_tol)
        delta = baseline - value if direction == "higher" else value - baseline
        if delta > allowed:
            arrow = "dropped" if direction == "higher" else "climbed"
            failures.append(
                f"{bench}.{metric}: {arrow} {value:.6g} vs baseline "
                f"{baseline:.6g} (median of {len(samples)}), allowed "
                f"deviation {allowed:.6g}"
            )
    return failures


def run_check(root, history_path, window, rel_tol):
    history = load_history(history_path)
    failures = []
    checked = 0
    for bench in sorted(GATES):
        snap_path = root / f"BENCH_{bench}.json"
        if not snap_path.exists():
            # A bench that has never been collected is not a regression —
            # but one that HAS history and lost its snapshot is.
            if bench in history:
                failures.append(f"{bench}: {snap_path.name} missing but "
                                "history has entries for it")
            else:
                print(f"  {bench}: no snapshot yet, skipped")
            continue
        current = json.loads(snap_path.read_text())["metrics"]
        bench_history = history.get(bench, [])
        fails = check_bench(bench, current, bench_history, window, rel_tol)
        checked += 1
        if fails:
            failures.extend(fails)
            print(f"  {bench}: FAIL")
        elif not bench_history:
            print(f"  {bench}: ok (no history baseline yet)")
        else:
            print(f"  {bench}: ok (baseline over "
                  f"{min(window, len(bench_history))} run(s))")
    if failures:
        print("\nbench gate failures:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"bench gate: {checked} bench(es) within tolerance")
    return 0


def selftest(rel_tol):
    """Gate-logic unit test on fabricated data; exit 0 iff all hold."""
    history = [{"x": 100.0, "lat": 10.0, "ovh": 0.04} for _ in range(3)]

    def fails(current, hist=None):
        gates = [("x", "higher", 0.0), ("lat", "lower", 0.0),
                 ("ovh", "lower", 1.0)]
        saved = GATES.get("_self")
        GATES["_self"] = gates
        try:
            return check_bench("_self", current,
                               history if hist is None else hist, 5, rel_tol)
        finally:
            if saved is None:
                del GATES["_self"]
            else:
                GATES["_self"] = saved

    cases = [
        # (current snapshot, expect_failure, label)
        ({"x": 100.0, "lat": 10.0, "ovh": 0.04}, False, "identical run"),
        ({"x": 80.0, "lat": 10.0, "ovh": 0.04}, True,
         "20% throughput drop must trip the 15% gate"),
        ({"x": 90.0, "lat": 10.0, "ovh": 0.04}, False,
         "10% wobble must pass"),
        ({"x": 100.0, "lat": 12.0, "ovh": 0.04}, True,
         "20% latency climb must trip"),
        ({"x": 100.0, "lat": 10.0, "ovh": 0.9}, False,
         "near-zero metric saved by the absolute floor"),
        ({"x": 100.0, "lat": 10.0}, True,
         "missing gated metric must trip"),
        # The regressed run is itself the newest history entry (the
        # collect-then-check flow): it must be excluded from its own
        # baseline, not judged against a half-diluted one.
        ({"x": 80.0, "lat": 10.0, "ovh": 0.04}, True,
         "run already appended to history must not dilute its baseline",
         history + [{"x": 80.0, "lat": 10.0, "ovh": 0.04}]),
    ]
    ok = True
    for current, expect_fail, label, *extra in cases:
        got = bool(fails(current, extra[0] if extra else None))
        status = "ok" if got == expect_fail else "SELFTEST FAIL"
        if got != expect_fail:
            ok = False
        print(f"  [{status}] {label}")
    print("selftest:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repo root holding BENCH_*.json")
    parser.add_argument("--history", type=Path, default=None,
                        help="history file (default <root>/BENCH_history.jsonl)")
    parser.add_argument("--window", type=int, default=5,
                        help="trailing history entries per bench baseline")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="relative regression tolerance (0.15 = 15%%)")
    parser.add_argument("--selftest", action="store_true",
                        help="test the gate logic itself and exit")
    args = parser.parse_args()
    if args.selftest:
        return selftest(args.tolerance)
    history = args.history or args.root / "BENCH_history.jsonl"
    return run_check(args.root, history, args.window, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
