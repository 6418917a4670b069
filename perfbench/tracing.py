"""In-memory spans and counters around calls into doesim's modules.

The tracer replaces module attributes that doesim looks up at call time
(for example ``doesim.orchestrator.build_envelopes``) with wrappers, runs
the study, and puts the originals back.  Nothing under ``src/`` knows about
it.  A span records (name, start, end, parent).  Functions called tens of
thousands of times per study get no span: scalar ones get a counter only,
and the per-record result writers a running time and call count, charged
to the enclosing span as child time.  A span object on each of those calls
would swamp the numbers being measured.  Even the counters cost enough that
only one traced study runs them (PLAN); the timed ones run TIMING_PLAN.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class Tracer:
    def __init__(self, plan=None):
        self.plan = PLAN if plan is None else plan
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        # name -> [seconds, calls] of the "time" entries of the plan
        self.timed: dict[str, list] = {}
        # span index -> seconds of timed calls made directly inside it
        self.nested: Counter = Counter()
        # name -> [calls] of the "count" entries of the plan
        self.calls: dict[str, list] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = Span(name, start, time.perf_counter(), parent)
            self._stack.pop()

    def _span_wrapper(self, name, fn, on_result):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = Span(name, start, clock(), parent)
                stack.pop()
            if on_result is not None:
                on_result(counts, args, out)
            return out
        return wrapper

    def _time_wrapper(self, name, fn):
        acc = self.timed.setdefault(name, [0.0, 0])
        stack, nested = self._stack, self.nested
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[0] += elapsed
                acc[1] += 1
                if stack:
                    nested[stack[-1]] += elapsed
        return wrapper

    def _count_wrapper(self, name, fn):
        cell = self.calls.setdefault(name, [0])  # cheaper to bump than a Counter key

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every call site in the plan; undo with restore()."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for kind, path, name, on_result in self.plan:
                owner, attr = _resolve(path)
                fn = getattr(owner, attr)
                if kind == "span":
                    self._patch(owner, attr, self._span_wrapper(name, fn, on_result))
                elif kind == "time":
                    self._patch(owner, attr, self._time_wrapper(name, fn))
                else:
                    self._patch(owner, attr, self._count_wrapper(name, fn))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def _resolve(path: str):
    """'doesim.scenarios:ResultWriter.close' -> (ResultWriter, 'close')."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


# -- counts taken from the values the wrapped calls return -------------------

def _on_admittance(counts, args, adm):
    counts["feeder.ybus_bytes"] = (3 * adm.n_bus) ** 2 * 16


def _on_screen_batch(counts, args, out):
    s_pu = args[1]
    n_batch, n_bus = s_pu.shape[0], s_pu.shape[1]
    sweeps = int(out[1])
    nodes = 3 * n_bus
    counts["powerflow.sweeps"] += sweeps
    counts["powerflow.batch_elems"] += n_batch
    # The nodal residual multiplies (B, 3N) voltages by the dense (3N, 3N)
    # Ybus once before the first sweep and once after each sweep: 8 real
    # flops per complex multiply-add; bytes are the matmul's operands and
    # result, computed from array sizes (cache behaviour ignored).
    counts["powerflow.mismatch_flop"] += (sweeps + 1) * n_batch * nodes ** 2 * 8
    counts["powerflow.mismatch_bytes"] += (sweeps + 1) * 16 * (nodes ** 2 + 2 * n_batch * nodes)


def _on_feasible_set(counts, args, out):
    mask = out[1]
    counts["envelopes.sampled"] += int(mask.size)
    counts["envelopes.feasible"] += int(mask.sum())


def _on_hull(counts, args, hull):
    counts["envelopes.hull_points_in"] += len(args[0])
    counts["envelopes.hull_vertices_out"] += len(hull)


def _on_envelopes(counts, args, envelopes):
    counts["envelopes.degenerate"] += sum(1 for e in envelopes.values() if e.degenerate)


def _on_admm(counts, args, result):
    counts["controller.admm_iters"] += result.iterations
    counts["controller.maxiter_stops"] += result.stop_reason == "maxiter"
    counts["controller.relaxations"] += sum(1 for iv in result.intervals
                                            if iv.source == "envelope")


def _on_replay_batch(counts, args, out):
    counts["powerflow.unconverged"] += int((~out[3]).sum())


_WRITER = "doesim.scenarios:ResultWriter."

# (kind, call site, span, timer or counter name, hook on the returned value).
# write_voltages and write_static run once per replay record or household
# and sub-step (about 69k calls on replay), so they are timed, not spanned.
PLAN = (
    ("span", "doesim.orchestrator:load_feeder", "feeder.load", None),
    ("span", "doesim.orchestrator:assemble_admittance", "feeder.assemble", _on_admittance),
    ("span", "doesim.orchestrator:synthesize_households", "scenarios.synth", None),
    ("span", "doesim.orchestrator:load_profiles", "scenarios.synth", None),
    ("span", "doesim.orchestrator:simulate_baseline", "scenarios.synth", None),
    ("span", "doesim.orchestrator:build_reference", "scenarios.synth", None),
    ("span", "doesim.orchestrator:build_envelopes", "envelopes.build", _on_envelopes),
    ("span", "doesim.envelopes:sample_scenarios", "envelopes.sample", None),
    ("span", "doesim.envelopes:feasible_set", "envelopes.screen", _on_feasible_set),
    ("span", "doesim.envelopes:solve_batch", "powerflow.screen", _on_screen_batch),
    ("span", "doesim.envelopes:convex_hull", "envelopes.hull", _on_hull),
    ("span", "doesim.orchestrator:read_envelopes", "scenarios.read_envelopes", None),
    ("span", "doesim.orchestrator:admm_track", "controller.admm", _on_admm),
    ("span", "doesim.orchestrator:solve_batch", "powerflow.replay", _on_replay_batch),
    *(("span", _WRITER + m, "scenarios.write", None)
      for m in ("__init__", "write_envelopes", "write_dispatch", "write_convergence",
                "write_violation", "write_summary", "write_manifest", "close")),
    ("time", _WRITER + "write_voltages", "scenarios.write", None),
    ("time", _WRITER + "write_static", "scenarios.write", None),
    ("count", "doesim.scenarios:TimeSeriesProfile.value_at", "scenarios.value_at_calls", None),
    ("count", "doesim.orchestrator:apply_static_limits", "scenarios.static_limits_calls", None),
    ("count", "doesim.orchestrator:step_temperature", "thermal.calls", None),
    ("count", "doesim.controller:step_temperature", "thermal.calls", None),
    ("count", "doesim.scenarios:step_temperature", "thermal.calls", None),
)

# The hot-call counters cost about 0.3 us a call, some 0.13 s on replay's
# 430k calls.  Their counts repeat exactly for a seed, so one traced study
# runs the full PLAN to count them and the timed ones leave them out.
TIMING_PLAN = tuple(entry for entry in PLAN if entry[0] != "count")


# -- turning spans into per-layer numbers ------------------------------------

def self_times(spans: list[Span], nested=None) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest properly, so a span's children are
    disjoint sub-intervals of it.  ``nested`` maps a span's index to the
    time of timed (unspanned) calls made directly inside it.
    """
    own = [s.end - s.start for s in spans]
    for idx, seconds in (nested or {}).items():
        own[idx] -= seconds
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def totals(tracer: Tracer) -> dict[str, tuple[float, float, int]]:
    """name -> (inclusive seconds, self seconds, calls) over spans and timed calls."""
    own = self_times(tracer.spans, tracer.nested)
    out: dict[str, list] = {}
    for s, self_s in zip(tracer.spans, own):
        acc = out.setdefault(s.name, [0.0, 0.0, 0])
        acc[0] += s.end - s.start
        acc[1] += self_s
        acc[2] += 1
    for name, (seconds, calls) in tracer.timed.items():
        acc = out.setdefault(name, [0.0, 0.0, 0])
        acc[0] += seconds
        acc[1] += seconds
        acc[2] += calls
    return {k: tuple(v) for k, v in out.items()}


ROOT = "orchestrator.run_study"


def layer_metrics(tracer: Tracer, counting: Tracer | None = None) -> dict[str, float]:
    """Per-layer metric values from one traced study (see README.md).

    The hot-call counters are read from ``counting`` when given: a study
    traced with the full PLAN, where ``tracer`` ran TIMING_PLAN.
    """
    t = totals(tracer)
    c = Counter(tracer.counts)
    c.update({name: cell[0] for name, cell in (counting or tracer).calls.items()})

    def incl(name):
        return t.get(name, (0.0, 0.0, 0))[0]

    def own(name):
        return t.get(name, (0.0, 0.0, 0))[1]

    sampled = c["envelopes.sampled"]
    return {
        "trace.study_s": incl(ROOT),
        "orchestrator.self_s": own(ROOT),
        "feeder.load_s": incl("feeder.load"),
        "feeder.assemble_s": incl("feeder.assemble"),
        "feeder.ybus_bytes": c["feeder.ybus_bytes"],
        "scenarios.synth_s": incl("scenarios.synth"),
        "scenarios.write_s": incl("scenarios.write"),
        "scenarios.write_calls": t.get("scenarios.write", (0.0, 0.0, 0))[2],
        "scenarios.read_envelopes_s": incl("scenarios.read_envelopes"),
        "scenarios.value_at_calls": c["scenarios.value_at_calls"],
        "scenarios.static_limits_calls": c["scenarios.static_limits_calls"],
        "envelopes.build_s": incl("envelopes.build"),
        "envelopes.sample_s": incl("envelopes.sample"),
        "envelopes.screen_self_s": own("envelopes.screen"),
        "envelopes.hull_s": incl("envelopes.hull"),
        "envelopes.hull_points_in": c["envelopes.hull_points_in"],
        "envelopes.hull_vertices_out": c["envelopes.hull_vertices_out"],
        "envelopes.feasible_share": c["envelopes.feasible"] / sampled if sampled else 0.0,
        "envelopes.degenerate": c["envelopes.degenerate"],
        "powerflow.screen_s": incl("powerflow.screen"),
        "powerflow.sweeps": c["powerflow.sweeps"],
        "powerflow.batch_elems": c["powerflow.batch_elems"],
        "powerflow.mismatch_flop": c["powerflow.mismatch_flop"],
        "powerflow.mismatch_bytes": c["powerflow.mismatch_bytes"],
        "powerflow.replay_s": incl("powerflow.replay"),
        "powerflow.unconverged": c["powerflow.unconverged"],
        "controller.admm_s": incl("controller.admm"),
        "controller.admm_iters": c["controller.admm_iters"],
        "controller.maxiter_stops": c["controller.maxiter_stops"],
        "controller.relaxations": c["controller.relaxations"],
        "thermal.calls": c["thermal.calls"],
        "trace.spans": len(tracer.spans),
    }


# Direct children of the root span: with orchestrator.self_s they add up to
# the traced study time.
TOP_LEVEL_TIMES = ("feeder.load_s", "feeder.assemble_s", "scenarios.synth_s",
                   "envelopes.build_s", "scenarios.read_envelopes_s", "scenarios.write_s",
                   "controller.admm_s", "powerflow.replay_s", "orchestrator.self_s")
