"""Per-layer accounting over the daemon's obs trace.

The benchmark reads the trace through the daemon's own `metrics` verb in
delta mode: each scrape returns a `metrics_delta` line with cumulative
counter values and one JSON line per span recorded since the previous
scrape on that connection. Spans land when they end, so a span's children
always arrive no later than the span itself; a span's self time is its
duration minus the union of its children's intervals, and each span is
charged to a layer once its parent's name is known.
"""

import json
import re

# Layer metric -> span names charged to it.
LAYER_SPANS = {
    "serve_ms": ("serve.request",),
    "parse_ms": ("spec.parse",),
    "build_ms": ("system.build", "system.rebuild", "system.rebuild_batch"),
    "block_solve_ms": ("block.solve",),
    "generate_ms": ("mg.generate",),
    "steady_solve_ms": ("ladder.episode", "ladder.attempt",
                        "ladder.batch_episode"),
    "cache_lookup_ms": ("cache.lookup",),
    "curve_sample_ms": ("curve.sample",),
    "rbd_compose_ms": ("system.interval_availability", "system.reliability"),
    "sweep_ms": ("sweep.run", "sweep.point", "sweep.batch"),
    "simulate_ms": ("sim.replicate", "sim.replication"),
    "exec_ms": ("exec.parallel_for",),
}
_SPAN = re.compile(
    r'\{"type":"span","id":(?P<id>\d+),"parent":(?P<parent>\d+),'
    r'"name":"(?P<name>[^"]*)".*"start_us":(?P<start>[^,]+)'
    r'(?:,"live":true)?,"dur_us":(?P<dur>[^}]+)\}$')
_LAYER_OF = {span: layer for layer, spans in LAYER_SPANS.items()
             for span in spans}


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


class LayerAccount:
    def __init__(self):
        self.self_us = dict.fromkeys(LAYER_SPANS, 0.0)
        self.requests = 0
        self.request_us = 0.0
        self.dropped = 0
        self.counters = {}
        self.baseline = None
        # parent id -> [(start, end, self_us, name)] awaiting the parent.
        self._pending = {}

    def _charge(self, name, self_us, parent_name):
        layer = _LAYER_OF.get(name)
        # The event engine records no spans under its parallel loop, so that
        # loop's self time is simulation work, not scheduling.
        if name == "exec.parallel_for" and parent_name == "sim.replicate":
            layer = "simulate_ms"
        if layer:
            self.self_us[layer] += self_us

    def feed(self, text):
        """Takes one delta scrape (the `metrics` verb's reply text). The
        first scrape only sets the baseline: what it returns happened
        before the window."""
        first = self.baseline is None
        spans = []
        for line in text.splitlines():
            if line.startswith('{"type":"span"'):
                m = _SPAN.match(line)
                if m and m["dur"] != "null" and not first:
                    start = float(m["start"])
                    spans.append((start + float(m["dur"]), -int(m["id"]),
                                  int(m["parent"]), m["name"], start))
            elif line.startswith('{"type":"metrics_delta"'):
                self.counters.update(json.loads(line).get("counters", {}))
            elif '"kind":"obs.dropped"' in line:
                # A running total of the spans the buffers turned away.
                self.dropped = json.loads(line)["fields"]["count"]
        if first:
            self.baseline = dict(self.counters)
        # A scrape lists spans by start time; taken by end time, every
        # span comes after its children.
        spans.sort()
        for span in spans:
            self._span(*span)

    def _span(self, end, neg_id, parent, name, start):
        children = self._pending.pop(-neg_id, [])
        self_us = (end - start) - _covered(
            start, end, [(s, e) for s, e, _, _ in children])
        for _, _, child_self, child_name in children:
            self._charge(child_name, child_self, name)
        if name == "serve.request":
            self.requests += 1
            self.request_us += end - start
        if parent:
            self._pending.setdefault(parent, []).append(
                (start, end, self_us, name))
        else:
            self._charge(name, self_us, None)

    def counter(self, name):
        return self.counters.get(name, 0) - self.baseline.get(name, 0)

    def metrics(self, client_mean_ms):
        """Per-layer metrics: self time per request in ms, and counts."""
        for children in self._pending.values():
            for _, _, child_self, child_name in children:
                self._charge(child_name, child_self, None)
        self._pending.clear()
        n = max(self.requests, 1)
        out = {k: (v / 1000.0 / n, "ms") for k, v in self.self_us.items()}
        out["transport_ms"] = (client_mean_ms - self.request_us / 1000.0 / n,
                               "ms")
        hits = (self.counter("serve.cache.block.hits") +
                self.counter("serve.cache.curve.hits"))
        misses = (self.counter("serve.cache.block.misses") +
                  self.counter("serve.cache.curve.misses"))
        out["cache_hits"] = (hits, "count")
        out["cache_misses"] = (misses, "count")
        out["cache_hit_ratio"] = (hits / (hits + misses) if hits + misses
                                  else 0.0, "ratio")
        out["ladder_attempts_per_request"] = (
            self.counter("ladder.attempts") / n, "count")
        out["ladder_escalations"] = (self.counter("ladder.escalations"),
                                     "count")
        out["traced_requests"] = (self.requests, "count")
        out["trace_dropped"] = (self.dropped, "count")
        return out
