"""Spans around the program's public calls, recorded from outside it.

`install` replaces, for the length of one pass, the names through which
the program's modules call each other (for example the
`sample_initial_population` that `hillvallea.orchestrator` imported)
with wrappers that record a span: an id, the id of the enclosing span,
a name, a start, an end, and a value or evaluation count where the call
has one. `uninstall` puts the originals back and returns the spans.
Spans stay in memory until the pass ends.

The harness's worker pool forks its workers while a pass is open, so
the workers inherit the wrappers and the enclosing span. A worker
writes its spans to a spool directory after each task, and the parent
reads them back when the pool has ended. `perf_counter` reads one
monotonic clock in every process, so spans from all processes share a
time axis.

A span's name starts with its layer, the program module it belongs to.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

PROBLEMS = frozenset({"problems.evaluate", "problems.objective"})

_clock = time.perf_counter


class Recorder:
    """Spans of one process: tuples (id, parent, name, start, end,
    value, evals). Ids carry the process id, so spans merged from
    several processes stay distinct."""

    def __init__(self, owner: int, stack: list[int]):
        self.pid = os.getpid()
        self.owner = owner
        self.next_id = self.pid << 32
        self.stack = stack
        self.spans: list[tuple] = []

    def open(self) -> tuple[int, int]:
        self.next_id += 1
        sid = self.next_id
        parent = self.stack[-1]
        self.stack.append(sid)
        return sid, parent

    def close(self, sid, parent, name, t0, value=None, evals=None) -> None:
        t1 = _clock()
        self.stack.pop()
        self.spans.append((sid, parent, name, t0, t1, value, evals))


_recorder: Recorder | None = None
_saved: list[tuple[object, str, object]] = []


def _wrap(name, fn, value=None, ev_arg=None):
    """A wrapper recording one span per call. `value(args, out)` gives
    the span's value; `ev_arg` is the position of the Evaluator
    argument, whose counter gives the evaluations spent in the call."""

    def wrapper(*args, **kwargs):
        rec = _recorder
        sid, parent = rec.open()
        ev = args[ev_arg] if ev_arg is not None else None
        before = ev.evals_used if ev is not None else 0
        t0 = _clock()
        v = None
        try:
            out = fn(*args, **kwargs)
            if value is not None:
                v = value(args, out)
            return out
        finally:
            rec.close(sid, parent, name, t0, v,
                      ev.evals_used - before if ev is not None else None)

    return wrapper


class TracedObjective:
    """Problem.fn with one `problems.objective` span per call, valued
    by the rows evaluated. A class, not a closure, so that the harness
    can send problems to its workers."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, x):
        rec = _recorder
        sid, parent = rec.open()
        t0 = _clock()
        try:
            return self.fn(x)
        finally:
            rec.close(sid, parent, "problems.objective", t0, len(x))


def _patch(owner, attr: str, new) -> None:
    _saved.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, new)


def install(hv, spool: Path) -> Recorder:
    """Wrap the program's calls; `hv` is the imported hillvallea
    package and `spool` an empty directory for the workers' spans. The
    caller opens the pass's root span itself."""
    global _recorder
    if _saved:
        raise RuntimeError("tracing is already installed")
    harness, orch, sampling, hillvalley = (
        hv.harness, hv.orchestrator, hv.sampling, hv.hillvalley)
    evaluator = hv.problems.evaluator.Evaluator
    _recorder = Recorder(owner=os.getpid(), stack=[0])

    def traced_problem(*args, **kwargs):
        problem = make_problem(*args, **kwargs)
        return dataclasses.replace(problem, fn=TracedObjective(problem.fn))

    make_problem = harness.make_problem
    if not hasattr(harness, "_execute_run"):
        raise RuntimeError("hillvallea.harness has no _execute_run: the "
                           "traced pass cannot follow its worker pool")
    _patch(harness, "make_problem", traced_problem)
    _patch(harness, "_execute_run", _TracedTask(harness._execute_run, spool))
    _patch(harness, "run", _wrap(
        "orchestrator.run", harness.run,
        value=lambda a, out: (a[0].id, int(a[2]))))
    _patch(harness, "score_run", _wrap(
        "scoring.score_run", harness.score_run,
        value=lambda a, out: len(a[0])))
    _patch(orch, "sample_initial_population", _wrap(
        "sampling.initial_population", orch.sample_initial_population))
    _patch(sampling, "rejection_sample", _wrap(
        "sampling.rejection", sampling.rejection_sample,
        value=lambda a, out: a[0]))
    _patch(sampling, "sample_uniform", _wrap(
        "sampling.uniform", sampling.sample_uniform,
        value=lambda a, out: a[0]))
    _patch(sampling, "greedy_scattered_subset", _wrap(
        "sampling.subset", sampling.greedy_scattered_subset,
        value=lambda a, out: a[1]))
    _patch(orch, "hill_valley_clustering", _wrap(
        "hillvalley.clustering", orch.hill_valley_clustering,
        value=lambda a, out: (len(a[0]), len(out)), ev_arg=1))
    for module in (hillvalley, orch):
        _patch(module, "hill_valley_test", _wrap(
            "hillvalley.test", module.hill_valley_test))
    _patch(orch, "init_core_search", _wrap(
        "amalgam.init", orch.init_core_search))
    _patch(orch, "core_search_step", _wrap(
        "amalgam.step", orch.core_search_step,
        value=lambda a, out: out.generation - a[0].generation, ev_arg=1))
    _patch(orch, "update_elite_archive", _wrap(
        "orchestrator.archive", orch.update_elite_archive, ev_arg=2))
    for method in ("evaluate", "evaluate_batch"):
        _patch(evaluator, method, _wrap(
            "problems.evaluate", getattr(evaluator, method)))
    return _recorder


def uninstall() -> list[tuple]:
    """Restore the program's names; return this process's spans."""
    global _recorder
    while _saved:
        owner, attr, original = _saved.pop()
        setattr(owner, attr, original)
    rec, _recorder = _recorder, None
    return rec.spans if rec is not None else []


class _TracedTask:
    """The harness's per-run task inside a `harness.execute_run` span.
    In a forked worker the task's spans go to the spool directory when
    it ends."""

    def __init__(self, execute_run, spool: Path):
        self.execute_run = execute_run
        self.spool = spool

    def __reduce__(self):
        # The pool sends its task function by reference; a worker forked
        # during the pass finds this very object installed.
        return _installed_task, ()

    def __call__(self, task):
        global _recorder
        if _recorder.pid != os.getpid():
            # first task in a freshly forked worker: keep the inherited
            # stack, so its spans hang under the pass's root span
            _recorder = Recorder(owner=_recorder.owner,
                                 stack=list(_recorder.stack))
        rec = _recorder
        sid, parent = rec.open()
        t0 = _clock()
        try:
            return self.execute_run(task)
        finally:
            rec.close(sid, parent, "harness.execute_run", t0)
            if rec.pid != rec.owner:
                path = self.spool / f"{rec.pid}-{rec.next_id & 0xFFFFFFFF}.pkl"
                path.write_bytes(pickle.dumps(rec.spans))
                rec.spans = []


def _installed_task():
    return sys.modules["hillvallea.harness"]._execute_run


def read_spool(spool: Path) -> list[tuple]:
    """Spans the workers wrote, in file order."""
    spans = []
    for path in sorted(spool.glob("*.pkl")):
        spans += pickle.loads(path.read_bytes())
    return spans


def save_spans(spans: list[tuple], path: Path) -> None:
    """Columns id, parent, name code, start, end; span names in
    `names`; values and evaluation counts as floats, nan where a span
    has none or its value is a pair."""
    names = sorted({s[2] for s in spans})
    code = {n: i for i, n in enumerate(names)}

    def number(v):
        return float(v) if isinstance(v, (int, float)) else np.nan

    np.savez(path, names=np.array(names),
             id=np.array([s[0] for s in spans], dtype=np.int64),
             parent=np.array([s[1] for s in spans], dtype=np.int64),
             name=np.array([code[s[2]] for s in spans], dtype=np.int32),
             start=np.array([s[3] for s in spans]),
             end=np.array([s[4] for s in spans]),
             value=np.array([number(s[5]) for s in spans]),
             evals=np.array([number(s[6]) for s in spans]))


def _union(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


class SpanTree:
    def __init__(self, spans: list[tuple]):
        self.spans = spans
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for s in spans:
            self.children[s[1]].append(s)
            self.by_name[s[2]].append(s)

    def below(self, span, names):
        """The outermost descendants of `span` named in `names`."""
        found, todo = [], list(self.children[span[0]])
        while todo:
            s = todo.pop()
            if s[2] in names:
                found.append(s)
            else:
                todo.extend(self.children[s[0]])
        return found

    def total(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.by_name[name])

    def self_time(self, name: str, minus) -> float:
        """Summed over spans called `name`: duration minus the part of
        it covered by nested spans named in `minus`."""
        return sum(s[4] - s[3] - _union((c[3], c[4])
                                        for c in self.below(s, minus))
                   for s in self.by_name[name])

    def values(self, name: str, index: int = 5) -> list:
        return [s[index] for s in self.by_name[name]]

    def run_evals(self) -> dict[tuple[int, int], int]:
        """(problem id, seed) -> rows evaluated inside that run."""
        objective = {"problems.objective"}
        return {s[5]: sum(c[5] for c in self.below(s, objective))
                for s in self.by_name["orchestrator.run"]}


# Per-layer metrics: unit, and the direction an optimisation should
# move them. For counts of work done, "lower" means less work.
PER_LAYER = {
    "problems.objective_s": ("s", "lower"),
    "problems.objective_calls": ("count", "lower"),
    "problems.evals": ("count", "lower"),
    "problems.objective_us_per_eval": ("us", "lower"),
    "problems.single_point_calls": ("count", "lower"),
    "problems.evaluator_s": ("s", "lower"),
    "sampling.rejection_s": ("s", "lower"),
    "sampling.rejection_draws_per_point": ("ratio", "lower"),
    "sampling.subset_s": ("s", "lower"),
    "sampling.subset_picks": ("count", "lower"),
    "sampling.subset_us_per_pick": ("us", "lower"),
    "hillvalley.clustering_s": ("s", "lower"),
    "hillvalley.clustering_evals": ("count", "lower"),
    "hillvalley.selection_size": ("count", "lower"),
    "hillvalley.clusters": ("count", "lower"),
    "hillvalley.test_calls": ("count", "lower"),
    "hillvalley.us_per_selected": ("us", "lower"),
    "amalgam.step_s": ("s", "lower"),
    "amalgam.generations": ("count", "lower"),
    "amalgam.us_per_generation": ("us", "lower"),
    "amalgam.searches": ("count", "lower"),
    "amalgam.evals": ("count", "lower"),
    "orchestrator.archive_s": ("s", "lower"),
    "orchestrator.archive_evals": ("count", "lower"),
    "orchestrator.restarts": ("count", "lower"),
    "orchestrator.self_s": ("s", "lower"),
    "orchestrator.overhead_us_per_eval": ("us", "lower"),
    "scoring.s": ("s", "lower"),
    "scoring.elites": ("count", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.trace_bytes": ("bytes", "lower"),
    "harness.tracing_overhead_s": ("s", "lower"),
}


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer figures of one traced pass. A layer's time is self
    time: its spans minus the problems-layer spans (evaluator and
    objective) nested in them, unless stated otherwise."""
    t = SpanTree(spans)
    us = 1e6
    rows = t.values("problems.objective")
    objective_s = t.total("problems.objective")
    evals = sum(rows)
    rejection_s = t.total("sampling.rejection")
    subset_s = t.total("sampling.subset")
    picks = sum(t.values("sampling.subset"))
    clustering = t.values("hillvalley.clustering")
    clustering_s = t.self_time("hillvalley.clustering", PROBLEMS)
    selected = sum(v[0] for v in clustering)
    step_s = t.self_time("amalgam.step", PROBLEMS)
    generations = sum(t.values("amalgam.step"))
    run_s = t.total("orchestrator.run")
    run_children = set(t.by_name) - {"orchestrator.run"}
    return {
        "problems.objective_s": objective_s,
        "problems.objective_calls": len(rows),
        "problems.evals": evals,
        "problems.objective_us_per_eval": objective_s / evals * us,
        "problems.single_point_calls": sum(1 for r in rows if r == 1),
        "problems.evaluator_s": t.self_time("problems.evaluate",
                                            {"problems.objective"}),
        "sampling.rejection_s": rejection_s,
        "sampling.rejection_draws_per_point":
            sum(t.values("sampling.uniform"))
            / sum(t.values("sampling.rejection")),
        "sampling.subset_s": subset_s,
        "sampling.subset_picks": picks,
        "sampling.subset_us_per_pick": subset_s / picks * us,
        "hillvalley.clustering_s": clustering_s,
        "hillvalley.clustering_evals":
            sum(t.values("hillvalley.clustering", 6)),
        "hillvalley.selection_size": selected,
        "hillvalley.clusters": sum(v[1] for v in clustering),
        "hillvalley.test_calls": len(t.by_name["hillvalley.test"]),
        "hillvalley.us_per_selected": clustering_s / selected * us,
        "amalgam.step_s": step_s,
        "amalgam.generations": generations,
        "amalgam.us_per_generation": step_s / generations * us,
        "amalgam.searches": len(t.by_name["amalgam.init"]),
        "amalgam.evals": sum(t.values("amalgam.step", 6)),
        "orchestrator.archive_s": t.self_time("orchestrator.archive",
                                              PROBLEMS),
        "orchestrator.archive_evals":
            sum(t.values("orchestrator.archive", 6)),
        "orchestrator.restarts":
            len(t.by_name["sampling.initial_population"]),
        "orchestrator.self_s": t.self_time("orchestrator.run", run_children),
        "orchestrator.overhead_us_per_eval": (run_s - objective_s) / evals
        * us,
        "scoring.s": t.total("scoring.score_run"),
        "scoring.elites": sum(t.values("scoring.score_run")),
        "harness.self_s": t.self_time(
            "harness.run_experiment",
            {"orchestrator.run", "scoring.score_run"}),
    }


def traced_call(hv, spool: Path, root: str, fn, *args):
    """Call fn(*args) with tracing installed, inside a root span named
    `root`; return its result and the spans of every process."""
    try:
        rec = install(hv, spool)
        sid, parent = rec.open()
        t0 = _clock()
        try:
            out = fn(*args)
        finally:
            rec.close(sid, parent, root, t0)
    finally:
        spans = uninstall()
    return out, spans + read_spool(spool)
