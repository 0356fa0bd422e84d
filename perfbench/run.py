"""Request-level benchmark of rascad: requests sent to the rascad_serve
daemon over its Unix socket, as a user of the daemon sends them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the daemon
(Release, into .bench_build/), starts it with RASCAD_THREADS=2, and drives
it with CLIENTS closed-loop clients, each a process of its own that sends
its next request when the previous reply has arrived. Requests sent in the
first WARMUP_S seconds are not recorded; then the window lasts S seconds.
Every reply is checked, and a few are checked again after the window
against an independent answer (see workloads.py).

--trace 0 reports the end-to-end metrics: request latency p50/p90,
throughput, and the daemon's set-up time (spawn to first answered ping,
median of SETUP_LAUNCHES launches). --trace 1 starts the daemon with
RASCAD_OBS=1 and reports per-layer self times per request from its span
trace (see layers.py). The daemon keeps every span it records while the
benchmark reads them, so a traced run sends at most TRACE_MAX_RPS requests
per second; only warm_solve is fast enough to be held back.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import multiprocessing
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was
sys.path.insert(0, str(Path(__file__).resolve().parent))

import serve_client  # noqa: E402
from layers import LayerAccount  # noqa: E402
from workloads import WORKLOADS, oracle_errors  # noqa: E402

BUILD_DIR = Path(".bench_build") / "rascad"
RUN_DIR = Path(".bench_run")
DAEMON = BUILD_DIR / "examples" / "rascad_serve"
CLIENTS = 2
DAEMON_THREADS = "2"
WARMUP_S = 1.0
SETUP_LAUNCHES = 21
SCRAPE_INTERVAL_S = 0.1
SAMPLES_KEPT = 3
TRACE_MAX_RPS = 50.0


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then brings the daemon up to date with the tree."""
    if not (Path("CMakeLists.txt").is_file() and
            Path("src/serve/service.cpp").is_file()):
        fail("run from the root of a rascad source checkout", 2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD_DIR), "--target",
              "rascad_serve_app", "-j", jobs]]
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", ".", "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                fail(f"build failed, see {log_path}")
    if not DAEMON.is_file():
        fail(f"build produced no {DAEMON}")


class Daemon:
    """One rascad_serve process listening on a socket in the run directory."""

    def __init__(self, run_dir, obs):
        self.socket = str(run_dir / "serve.sock")
        # The trace is read over the socket while the daemon runs; the
        # dump file it would write at exit points into a directory that
        # does not exist, so exiting skips writing the whole trace again.
        env = dict(os.environ, RASCAD_THREADS=DAEMON_THREADS,
                   RASCAD_OBS="1" if obs else "0",
                   RASCAD_OBS_FILE=str(run_dir / "none" / "obs.jsonl"))
        env.pop("RASCAD_OBS_SUMMARY", None)
        start = time.perf_counter()
        self.proc = subprocess.Popen([str(DAEMON), self.socket], env=env,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE)
        try:
            banner = self.proc.stderr.readline()
            if b"listening" not in banner:
                raise RuntimeError(f"daemon did not start: {banner!r}")
            with serve_client.Client(self.socket) as c:
                c.ping()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def stop(self):
        try:
            with serve_client.Client(self.socket, timeout_s=30.0) as c:
                c.shutdown()
            self.proc.communicate(timeout=30)
        finally:
            self.kill()
        return self.proc.returncode

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stderr.close()


def client_loop(workload, socket, seed, index, t_start, t_end, pace_s, conn):
    """One closed-loop client sending a request at most every `pace_s`
    seconds; sends its results through `conn`."""
    rng = random.Random(f"{seed}/client/{index}")
    latencies, failures, samples = [], [], []
    try:
        with serve_client.Client(socket) as client:
            t0 = 0.0
            while time.perf_counter() < t_end:
                req = workload.make(rng)
                if pace_s:
                    time.sleep(max(0.0, t0 + pace_s - time.perf_counter()))
                t0 = time.perf_counter()
                try:
                    reply = workload.send(client, req)
                    error = None
                except serve_client.ServeError as e:
                    reply, error = None, str(e)
                t1 = time.perf_counter()
                if reply is not None:
                    error = workload.check(req, reply)
                if t0 < t_start:
                    continue
                latencies.append((t1 - t0, t1))
                if error:
                    failures.append(error)
                elif len(samples) < SAMPLES_KEPT:
                    samples.append((req, reply))
    except Exception as e:  # a broken connection ends this client
        failures.append(f"client {index}: {e!r}")
    conn.send((latencies, failures, samples))
    conn.close()


def drive(workload, daemon, seed, seconds, account):
    """Runs the closed loop for the window; scrapes the trace meanwhile
    when `account` is given."""
    ctx = multiprocessing.get_context("fork")
    t_start = time.perf_counter() + WARMUP_S
    t_end = t_start + seconds
    pace_s = CLIENTS / TRACE_MAX_RPS if account else 0.0
    procs = []
    for i in range(CLIENTS):
        parent, child = ctx.Pipe(duplex=False)
        p = ctx.Process(target=client_loop, args=(
            workload, daemon.socket, seed, i, t_start, t_end, pace_s, child))
        p.start()
        child.close()
        procs.append((p, parent))
    scraper = serve_client.Client(daemon.socket) if account else None
    try:
        if scraper:
            time.sleep(max(0.0, t_start - time.perf_counter()))
            while time.perf_counter() < t_end:
                account.feed(scraper.metrics_delta())
                time.sleep(SCRAPE_INTERVAL_S)
        results = []
        for p, conn in procs:
            if not conn.poll(t_end - time.perf_counter() + 60):
                raise RuntimeError("a client did not finish")
            results.append(conn.recv())
        if scraper:
            account.feed(scraper.metrics_delta())
    finally:
        if scraper:
            scraper.close()
        for p, conn in procs:
            p.join(timeout=5)
            if p.is_alive():
                p.kill()
                p.join()
            conn.close()
    latencies = [x for r in results for x in r[0]]
    failures = [x for r in results for x in r[1]]
    samples = [x for r in results for x in r[2]]
    return latencies, failures, samples, t_start


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    run_dir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload]()
    rng = random.Random(f"{args.seed}/{args.workload}")
    daemon = None
    try:
        setup = []
        launches = 1 if args.trace else SETUP_LAUNCHES
        for i in range(launches):
            daemon = Daemon(run_dir, obs=bool(args.trace))
            setup.append(daemon.setup_s)
            if i + 1 < launches:
                daemon.stop()
                daemon = None
        with serve_client.Client(daemon.socket) as c:
            workload.prime(c, rng)
        account = LayerAccount() if args.trace else None
        latencies, failures, samples, t_start = drive(
            workload, daemon, args.seed, args.seconds, account)
        with serve_client.Client(daemon.socket) as c:
            errors = workload.verify(c, samples) + oracle_errors(c, rng)
            stats = c.stats()
        if stats["failed"] != "0" or stats["rejected"] != "0":
            errors.append(f"daemon counted failed={stats['failed']} "
                          f"rejected={stats['rejected']}")
        code = daemon.stop()
        daemon = None
        if code != 0:
            errors.append(f"daemon exited with {code}")
    finally:
        if daemon:
            daemon.kill()
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(latencies)
    if attempted == 0:
        fail("no request completed in the window")
    ms = [lat * 1000.0 for lat, _ in latencies]
    elapsed = max(done for _, done in latencies) - t_start
    for message in (failures + errors)[:10]:
        print(f"perfbench: {message}", file=sys.stderr)
    if args.trace:
        metrics = account.metrics(statistics.fmean(ms))
        metrics["traced_p50_ms"] = (statistics.median(ms), "ms")
    else:
        metrics = {
            "p50_ms": (statistics.median(ms), "ms"),
            "p90_ms": (statistics.quantiles(ms, n=10)[-1], "ms"),
            "throughput_rps": (attempted / elapsed, "1/s"),
            "setup_s": (statistics.median(setup), "s"),
        }
    print(f"perfbench: {args.workload} seed={args.seed} requests={attempted} "
          f"failed={len(failures)} checks_failed={len(errors)}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
