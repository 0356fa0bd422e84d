"""The request mixes the benchmark sends to rascad_serve.

A workload makes requests from a `random.Random`, sends them, checks each
reply on its own (`check`), and after the timed window checks a few of
them again against an independent answer (`verify`). `check` runs in the
client processes between requests, outside the timed section, and
returns an error string or None.
"""

import math

import models

SWEEP_POINTS = 64
SIM_REPLICATIONS = 100_000
# The simulated horizon is the models' mission time, so the simulated mean
# estimates the interval availability a solve reports.
SIM_HORIZON_H = float(models.MISSION_H)
WARM_SET = 8
WARM_SHOPS = 8


def _web_shop_errors(f):
    try:
        a = float(f["availability"])
        ia = float(f["interval_availability"])
        r = float(f["reliability"])
    except (KeyError, ValueError) as e:
        return f"malformed solve reply: {e}"
    if not (0.0 < a <= 1.0 and 0.0 < ia <= 1.0 and 0.0 <= r <= 1.0):
        return f"measure out of range: A={a} IA={ia} R={r}"
    if (f.get("blocks"), f.get("states")) != (str(models.WEB_SHOP_BLOCKS),
                                              str(models.WEB_SHOP_STATES)):
        return f"unexpected chain size: {f.get('blocks')} blocks, " \
               f"{f.get('states')} states"
    return None


def oracle_errors(client, rng):
    """Solves two series-of-Type-0 models through the daemon and compares
    them with their closed forms (models.series_type0)."""
    errors = []
    for _ in range(2):
        text, a, r = models.series_type0(rng)
        f = client.solve(text).fields()
        got_a, got_r = float(f["availability"]), float(f["reliability"])
        if abs(got_a - a) > 1e-12 * a or abs(got_r - r) > 1e-9 * r:
            errors.append(f"closed-form mismatch: A {got_a} vs {a}, "
                          f"R {got_r} vs {r}")
    return errors


class ColdSolve:
    """Each request a web shop nobody asked about before: every block misses
    the solve cache, so generation, steady solves and curve sampling all
    run."""

    name = "cold_solve"

    def prime(self, client, rng):
        pass

    def make(self, rng):
        return models.web_shop(rng)

    def send(self, client, req):
        return client.solve(req)

    def check(self, req, reply):
        return _web_shop_errors(reply.fields())

    def verify(self, client, samples):
        # Asked again, the model is answered from the cache: the reply must
        # be the cold reply, bit for bit.
        return [f"re-solve differs from the cold reply: {got!r}"
                for req, reply in samples
                for got in [client.solve(req).text] if got != reply.text]


class WarmSolve(ColdSolve):
    """A working set of eight-shop models (48 blocks) solved once before the
    window; every timed request repeats one of them, so each block and
    curve is a cache hit. Eight shops per request put the daemon's parse,
    lookup and composition work ahead of the socket round trip."""

    name = "warm_solve"

    def prime(self, client, rng):
        self.replies = {}
        for _ in range(WARM_SET):
            text = models.web_shop(rng, shops=WARM_SHOPS)
            self.replies[text] = client.solve(text).text
        self.models = list(self.replies)

    def make(self, rng):
        return rng.choice(self.models)

    def check(self, req, reply):
        if reply.text != self.replies[req]:
            return "warm reply differs from the cold reply of the same model"
        return None

    def verify(self, client, samples):
        return []


def _sweep_rows(reply):
    lines = "".join(reply.chunks).splitlines()
    if not lines or not lines[0].startswith("value,availability,"):
        raise ValueError("sweep CSV has no header")
    rows = [line.split(",") for line in lines[1:]]
    return [(float(r[0]), float(r[1]), r[-2]) for r in rows]


class DeepSweep:
    """A 64-point MTBF sweep over a deep Type 4 block (N=48, K=1; 336
    states). Every point builds a chain no earlier request built, so the
    steady-state solver and the sweep's incremental rebuild do the work."""

    name = "deep_sweep"

    def prime(self, client, rng):
        pass

    def make(self, rng):
        lo = rng.uniform(40_000.0, 80_000.0)
        hi = lo * rng.uniform(1.5, 2.5)
        # The sweep overrides the swept MTBF; the model carries the first
        # sweep value so that `verify` can solve it as it stands.
        return models.deep(rng, mtbf_h=lo), lo, hi

    def send(self, client, req):
        text, lo, hi = req
        return client.sweep(text, models.DEEP_DIAGRAM, models.DEEP_BLOCK,
                            "mtbf_h", lo, hi, SWEEP_POINTS)

    def check(self, req, reply):
        _, lo, hi = req
        f = reply.fields()
        if (f.get("points"), f.get("completed"), f.get("status")) != \
                (str(SWEEP_POINTS), str(SWEEP_POINTS), "ok"):
            return f"sweep incomplete: {reply.text!r}"
        try:
            rows = _sweep_rows(reply)
        except (ValueError, IndexError) as e:
            return f"malformed sweep CSV: {e}"
        if len(rows) != SWEEP_POINTS:
            return f"sweep returned {len(rows)} rows"
        step = (hi - lo) / (SWEEP_POINTS - 1)
        for i, (value, a, status) in enumerate(rows):
            if status != "ok" or abs(value - (lo + i * step)) > 1e-6 * hi:
                return f"sweep row {i} wrong: value {value} status {status}"
            if not 0.0 < a < 1.0:
                return f"sweep row {i} availability {a} out of range"
        # A longer MTBF can only raise availability.
        for i in range(1, SWEEP_POINTS):
            if rows[i][1] < rows[i - 1][1] - 1e-12:
                return f"availability falls between sweep rows {i - 1},{i}"
        return None

    def verify(self, client, samples):
        # The first sweep point must agree with a plain solve of the model,
        # which carries that MTBF (the CSV keeps 12 significant digits).
        errors = []
        for (text, _, _), reply in samples[:1]:
            want = float(client.solve(text).fields()["availability"])
            got = _sweep_rows(reply)[0][1]
            if abs(got - want) > 1e-11:
                errors.append(f"sweep point {got} vs solve {want}")
        return errors


class Simulate:
    """A 100k-replication Monte Carlo run of a web shop over one year, each
    request with its own model and seed: the streaming event engine does
    the work and the caches are not used."""

    name = "simulate"

    def prime(self, client, rng):
        pass

    def make(self, rng):
        return models.web_shop(rng), rng.randrange(1, 2**63)

    def send(self, client, req):
        text, seed = req
        return client.simulate(text, SIM_HORIZON_H, SIM_REPLICATIONS, seed)

    def check(self, req, reply):
        f = reply.fields()
        try:
            mean = float(f["availability_mean"])
            lo, hi = float(f["availability_ci_lo"]), float(f["availability_ci_hi"])
        except (KeyError, ValueError) as e:
            return f"malformed simulate reply: {e}"
        if f.get("status") != "ok" or \
                f.get("completed") != str(SIM_REPLICATIONS):
            return f"simulation incomplete: {reply.text!r}"
        if not (0.0 < lo <= mean <= hi <= 1.0):
            return f"simulated availability out of range: {lo} {mean} {hi}"
        return None

    def verify(self, client, samples):
        errors = []
        for (text, seed), reply in samples[:2]:
            # Same seed, same statistics.
            again = client.simulate(text, SIM_HORIZON_H, SIM_REPLICATIONS,
                                    seed).text
            if again != reply.text:
                errors.append("simulation with the same seed differs")
            # The simulated mean estimates the analytic interval
            # availability over the same horizon.
            f = reply.fields()
            mean = float(f["availability_mean"])
            half = (float(f["availability_ci_hi"]) -
                    float(f["availability_ci_lo"])) / 2.0
            ia = float(client.solve(text).fields()["interval_availability"])
            if not math.isclose(mean, ia, rel_tol=0.0, abs_tol=4 * half + 1e-12):
                errors.append(f"simulated mean {mean} is {abs(mean - ia)} "
                              f"from interval availability {ia}")
        return errors


WORKLOADS = {w.name: w for w in (ColdSolve, WarmSolve, DeepSweep, Simulate)}
