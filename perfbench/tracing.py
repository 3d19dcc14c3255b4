"""Out-of-program tracing for the povmcast benchmark.

The tracer replaces public functions at the module attribute each call
site looks up (``povmcast.protocol.kron_all``, ``povmcast.cli.load_config``
and so on) with a wrapper that records one span per call: name, start,
end, parent span and thread. Spans stay in memory; ``dump`` writes them
once the run is over. Counters read from the wrapped calls' arguments
and return values give the per-layer work counts and waste ratios.

A layer's self time is its span's duration minus the part of that
interval its child spans cover. Trial work that the trial pool runs on
worker threads nests under the pool span that handed it out.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import statistics
import threading
import time

# (module, attribute, span name). Several attributes may share a span
# name: they are the same layer reached from different call sites.
TARGETS = (
    ("povmcast.config", "config_from_dict", "config.load"),
    ("povmcast.config", "prepare_scenario", "protocol.prepare"),
    ("povmcast.config", "scenario_rate_environment", "rates.region"),
    ("povmcast.cli", "load_config", "config.load"),
    ("povmcast.cli", "prepare_scenario", "protocol.prepare"),
    ("povmcast.cli", "build_block_scenario", "protocol.geometry"),
    ("povmcast.cli", "simulate_trials", "protocol.pool"),
    ("povmcast.protocol", "prepare_scenario", "protocol.prepare"),
    ("povmcast.protocol", "build_block_scenario", "protocol.geometry"),
    ("povmcast.protocol", "build_xi_prime", "protocol.xi_prime"),
    ("povmcast.protocol", "build_omega_and_cutoff", "protocol.cutoff"),
    ("povmcast.protocol", "simulate_trials", "protocol.pool"),
    ("povmcast.protocol", "build_protocol_instance", "protocol.instance"),
    ("povmcast.protocol", "build_alice_measurement", "protocol.alice"),
    ("povmcast.protocol", "generate_codebook", "protocol.codebook"),
    ("povmcast.protocol", "build_gamma", "protocol.gamma"),
    ("povmcast.protocol", "validate_subpovm", "protocol.subpovm"),
    ("povmcast.protocol", "assemble_bob_povm", "protocol.assemble"),
    ("povmcast.protocol", "instance_report", "protocol.score"),
    ("povmcast.protocol", "faithfulness_distance", "protocol.tracenorm"),
    ("povmcast.protocol", "empirical_e0_check", "protocol.e0"),
    ("povmcast.protocol", "run_protocol_trial", "protocol.sample"),
    ("povmcast.protocol", "conditional_typical_set", "typicality.cond_set"),
    ("povmcast.protocol", "prune_conditional", "typicality.prune"),
    (
        "povmcast.protocol",
        "conditional_quantum_typical_projector",
        "typicality.qproj",
    ),
    ("povmcast.protocol", "sample_sequences", "typicality.sample"),
    ("povmcast.protocol", "kron_all", "linalg.kron"),
    ("povmcast.protocol", "sqrt_psd", "linalg.eig"),
    ("povmcast.protocol", "pinv_sqrt_on_support", "linalg.eig"),
    ("povmcast.typicality", "kron_all", "linalg.kron"),
)

# Span that hands trials to worker threads; a worker's outermost spans
# nest under the innermost such span still open.
POOL_SPAN = "protocol.pool"
# Spans that make up the busy time of one trial.
TRIAL_WORK = ("protocol.instance", "protocol.score", "protocol.sample")
# Span the benchmark opens around its own call of cli.main.
CLI_SPAN = "cli"

DEGENERATE_REASONS = (
    "alice_fallback",
    "alice_garbage",
    "empty_conditional",
    "bob_fallback",
    "bob_garbage",
)


def _bin_flags(opset):
    flags = opset.fallback_applied.values()
    return len(flags), sum(not bool(v) for v in flags)


def _observe_geometry(add, result, args):
    add("geometry.blocks", len(result.bob_blocks))
    add("geometry.dropped", len(result.dropped_cond))
    add("geometry.dim", result.rho_n.shape[0])


def _observe_cutoff(add, result, args):
    add("cutoff.rank", int(round(float(result.projector.trace().real))))


def _observe_codebook(add, result, args):
    if result.case == 1:
        selected = sum(len(s) for s in result.selection.values())
        add("codebook.selected", selected)
        add("codebook.drawn", len(result.selection) * result.size_prime)
    else:
        drawn = sum(len(words) for words in result.entries.values())
        add("codebook.selected", drawn)
        add("codebook.drawn", drawn)
    add("codebook.cells", len(result.failure_flags))
    add("codebook.failed", sum(bool(v) for v in result.failure_flags.values()))


def _observe_gamma(add, result, args):
    add("gamma.ops", len(result.gamma))


def _observe_subpovm(add, result, args):
    bins, useful = _bin_flags(result)
    add("subpovm.bins", bins)
    add("subpovm.useful", useful)


def _observe_alice(add, result, args):
    bins, useful = _bin_flags(result.opset)
    add("alice.bins", bins)
    add("alice.useful", useful)


def _observe_cond_set(add, result, args):
    add("cond_set.members", len(result.members))


def _observe_tracenorm(add, result, args):
    reference, approx = args[0], args[1]
    add("tracenorm.count", len(set(reference) | set(approx)))


def _observe_sample(add, result, args):
    add("sample.trials", 1)
    if result.degenerate:
        add("sample.degenerate", 1)
        add(f"sample.reason.{result.reason}", 1)


OBSERVERS = {
    "protocol.geometry": _observe_geometry,
    "protocol.cutoff": _observe_cutoff,
    "protocol.codebook": _observe_codebook,
    "protocol.gamma": _observe_gamma,
    "protocol.subpovm": _observe_subpovm,
    "protocol.alice": _observe_alice,
    "typicality.cond_set": _observe_cond_set,
    "protocol.tracenorm": _observe_tracenorm,
    "protocol.sample": _observe_sample,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "workers")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.workers = 1


class Tracer:
    """Span recorder installed by patching module attributes."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.missing = []
        self._patches = []
        self._pools = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name) -> int:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                parent = self._pools[-1] if self._pools else None
            index = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter(), parent, threading.get_ident())
            )
            if name == POOL_SPAN:
                self._pools.append(index)
        stack.append(index)
        return index

    def _close(self, index):
        end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans[index].end = end
            if self.spans[index].name == POOL_SPAN:
                self._pools.remove(index)

    def add(self, key, value):
        with self._lock:
            self.counts[key] += value

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself around one of its calls."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _wrapper(self, target, name):
        observe = OBSERVERS.get(name)

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            if name == POOL_SPAN:
                self.spans[index].workers = max(1, kwargs.get("workers", 1))
            try:
                result = target(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                try:
                    observe(self.add, result, args)
                except (AttributeError, KeyError, TypeError) as exc:
                    # the returned object changed shape: drop the counts
                    # and say so, but keep the traced run going
                    note = f"{name} counts ({type(exc).__name__}: {exc})"
                    with self._lock:
                        if note not in self.missing:
                            self.missing.append(note)
            return result

        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target that exists; return the missing ones."""
        for module_name, attr, name in targets:
            try:
                module = importlib.import_module(module_name)
                target = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, target))
            setattr(module, attr, self._wrapper(target, name))
        return list(self.missing)

    def uninstall(self):
        for module, attr, target in reversed(self._patches):
            setattr(module, attr, target)
        self._patches.clear()

    def dump(self, path):
        base = self.spans[0].start if self.spans else 0.0
        rows = [
            {
                "name": s.name,
                "start": s.start - base,
                "end": s.end - base,
                "parent": s.parent,
                "thread": s.thread,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": rows}, fh)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = _union_length(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children[i]
        )
        out.append(s.end - s.start - covered)
    return out


def root_coverage(spans) -> float:
    """Seconds covered by at least one outermost span."""
    return _union_length((s.start, s.end) for s in spans if s.parent is None)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, traced_walls, untraced_wall, memory):
    """Per-layer metrics per traced iteration.

    traced_walls are the seconds of each traced iteration, untraced_wall
    those of one iteration of the same work with the tracer off; memory
    holds the computed byte counts and the tracemalloc peaks of the
    geometry and instance stages.
    """
    iterations = len(traced_walls)
    spans = tracer.spans
    counts = tracer.counts
    selfs = self_times(spans)
    self_s = collections.Counter()
    calls = collections.Counter()
    for s, t in zip(spans, selfs):
        self_s[s.name] += t
        calls[s.name] += 1

    busy = 0.0
    capacity = 0.0
    for s in spans:
        if s.name == POOL_SPAN:
            capacity += s.workers * (s.end - s.start)
        elif s.name in TRIAL_WORK and s.parent is not None:
            if spans[s.parent].name == POOL_SPAN:
                busy += s.end - s.start

    def per_iter(value):
        return value / iterations

    m = {}
    for name in dict.fromkeys(span for _, _, span in TARGETS):
        m[f"{name}.s"] = per_iter(self_s[name])
    for name in (
        "protocol.xi_prime",
        "typicality.cond_set",
        "typicality.qproj",
        "linalg.kron",
        "linalg.eig",
    ):
        m[f"{name}.calls"] = per_iter(calls[name])
    m["cli.self.s"] = per_iter(self_s[CLI_SPAN])
    m["cli.bytes_out"] = per_iter(counts["cli.bytes_out"])

    m["protocol.geometry.blocks"] = per_iter(counts["geometry.blocks"])
    m["protocol.geometry.dropped"] = per_iter(counts["geometry.dropped"])
    m["protocol.geometry.dim"] = _ratio(
        counts["geometry.dim"], calls["protocol.geometry"]
    )
    m["protocol.geometry.bytes"] = memory["geometry.bytes"]
    m["protocol.geometry.peak_mb"] = memory["geometry.peak_mb"]
    m["protocol.cutoff.rank"] = per_iter(counts["cutoff.rank"])
    m["typicality.cond_set.members"] = per_iter(counts["cond_set.members"])
    m["protocol.instance.bytes"] = memory["instance.bytes"]
    m["protocol.instance.peak_mb"] = memory["instance.peak_mb"]
    m["protocol.codebook.select_ratio"] = _ratio(
        counts["codebook.selected"], counts["codebook.drawn"]
    )
    m["protocol.codebook.failure_ratio"] = _ratio(
        counts["codebook.failed"], counts["codebook.cells"]
    )
    m["protocol.gamma.ops"] = per_iter(counts["gamma.ops"])
    m["protocol.subpovm.bins"] = per_iter(counts["subpovm.bins"])
    m["protocol.subpovm.useful_ratio"] = _ratio(
        counts["subpovm.useful"], counts["subpovm.bins"]
    )
    m["protocol.alice.useful_ratio"] = _ratio(
        counts["alice.useful"], counts["alice.bins"]
    )
    m["protocol.tracenorm.count"] = per_iter(counts["tracenorm.count"])
    m["protocol.sample.degenerate_ratio"] = _ratio(
        counts["sample.degenerate"], counts["sample.trials"]
    )
    for reason in DEGENERATE_REASONS:
        m[f"protocol.sample.reason.{reason}"] = per_iter(
            counts[f"sample.reason.{reason}"]
        )
    m["protocol.pool.efficiency"] = _ratio(busy, capacity)
    m["trace.coverage"] = _ratio(root_coverage(spans), sum(traced_walls))
    m["trace.overhead"] = _ratio(
        statistics.median(traced_walls), untraced_wall
    )
    m["trace.missing_targets"] = float(len(tracer.missing))
    return m
