"""Competition performance measures.

A solution counts as a distinct global optimum when its fitness is
within epsilon of an optimum's fitness and it lies within the problem's
niche radius of that optimum; each optimum can be claimed once, fittest
solutions first. Peak ratio, success rate, and the static and dynamic
F1 measures are built on that count. Scenario scores: S1 averages the
peak ratio over the five accuracy levels, S2 the static F1, S3 the
dynamic F1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .problems.evaluator import Solution
from .problems.suite import InvalidProblemError, Problem

ACCURACY_LEVELS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


class InvalidTraceError(ValueError):
    """Raised when a run's solutions are not in evaluation order or lie
    outside its budget."""


def count_distinct_global(solutions: Sequence[Solution], problem: Problem,
                          eps: float) -> int:
    """Greedy matching, fittest solution first: claim the nearest
    unclaimed optimum whose fitness differs by at most eps and whose
    position is within the niche radius."""
    fs, xs, order = _fittest_first(solutions)
    claimers, claims = _claims(fs, xs, order, problem, eps)
    return _greedy_count(claimers, claims, len(solutions))


def _fittest_first(solutions: Sequence[Solution]
                   ) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The solutions' fitness and position arrays, and their indices
    fittest first (stable on ties)."""
    fs = np.array([s.f for s in solutions])
    xs = np.array([s.x for s in solutions])
    return fs, xs, np.argsort(-fs, kind="stable").tolist()


def _claims(fs: np.ndarray, xs: np.ndarray, order: list[int],
            problem: Problem, eps: float
            ) -> tuple[list[int], list[list[int]]]:
    """For each solution, the optima it may claim while they are
    unclaimed: fitness within eps, position within the niche radius,
    nearest first and the lower index first on equal distances. Also
    the solutions with any claim, in the given order."""
    opt_pos = problem.optima_positions
    opt_fit = problem.optima_fitness
    radius_sq = problem.niche_radius ** 2
    claims = []
    for f, x in zip(fs, xs):
        close_fit = np.abs(opt_fit - f) <= eps
        if not close_fit.any():
            claims.append([])
            continue
        d2 = ((opt_pos - x) ** 2).sum(axis=1)
        hits = np.flatnonzero(close_fit & (d2 <= radius_sq))
        claims.append(hits[np.argsort(d2[hits], kind="stable")].tolist())
    return [i for i in order if claims[i]], claims


def _greedy_count(order: list[int], claims: list[list[int]],
                  upto: int) -> int:
    """Optima claimed by the solutions with index below upto, taken in
    the given fittest-first order, each claiming its nearest open one."""
    claimed = set()
    for i in order:
        if i < upto:
            for j in claims[i]:
                if j not in claimed:
                    claimed.add(j)
                    break
    return len(claimed)


def peak_ratio(g: int, n_global: int) -> float:
    if n_global < 1:
        raise InvalidProblemError("problem must have at least one global optimum")
    return g / n_global


def success_rate(g: int, n_solutions: int) -> float:
    if n_solutions == 0:
        return 0.0
    return g / n_solutions


def f1(pr: float, sr: float) -> float:
    if pr + sr == 0.0:
        return 0.0
    return 2.0 * pr * sr / (pr + sr)


def dyn_f1(solutions: Sequence[Solution], problem: Problem,
           eps: float) -> float:
    """Time-weighted F1 of a run's solutions, given in acceptance order
    with the evaluation index at which each was found as eval_index,
    over problem.budget. Each obtained solution set is credited for the
    span of evaluations during which it was the current set, the full
    set for the span from its completion to the budget's end. The span
    before the first solution earns nothing.

    Each prefix is counted as count_distinct_global counts it: a
    solution's claimable optima do not depend on the prefix, and a
    prefix's fittest-first order is the whole list's stable order
    restricted to it, so both are worked out once."""
    fs, xs, order = _fittest_first(solutions)
    claimers, claims = _claims(fs, xs, order, problem, eps)
    return _dyn_f1(solutions, claimers, claims, problem)


def _dyn_f1(solutions: Sequence[Solution], claimers: list[int],
            claims: list[list[int]], problem: Problem) -> float:
    t = len(solutions)
    if t == 0:
        return 0.0
    fevals = np.array([s.eval_index for s in solutions], dtype=int)
    budget = problem.budget
    if np.any(np.diff(fevals) <= 0):
        raise InvalidTraceError("eval_index must strictly ascend")
    if fevals[0] < 1 or fevals[-1] > budget:
        raise InvalidTraceError("solutions must lie within the run budget")
    n_global = problem.n_global_optima

    def prefix_f1(upto: int) -> float:
        g = _greedy_count(claimers, claims, upto)
        return f1(peak_ratio(g, n_global), success_rate(g, upto))

    total = (budget - fevals[-1]) / budget * prefix_f1(t)
    for i in range(2, t + 1):
        width = (fevals[i - 1] - fevals[i - 2]) / budget
        total += width * prefix_f1(i - 1)
    return float(total)


@dataclass(frozen=True)
class LevelScores:
    eps: float
    g: int
    pr: float
    sr: float
    f1: float
    dyn_f1: float


def score_run(solutions: Sequence[Solution],
              problem: Problem) -> list[LevelScores]:
    """Score one run's elites, as run returns them, at every accuracy
    level. Each level's claims serve both its count and its dynamic
    F1."""
    t = len(solutions)
    fs, xs, order = _fittest_first(solutions)
    out = []
    for eps in ACCURACY_LEVELS:
        claimers, claims = _claims(fs, xs, order, problem, eps)
        g = _greedy_count(claimers, claims, t)
        pr = peak_ratio(g, problem.n_global_optima)
        sr = success_rate(g, t)
        out.append(LevelScores(
            eps=eps, g=g, pr=pr, sr=sr, f1=f1(pr, sr),
            dyn_f1=_dyn_f1(solutions, claimers, claims, problem)))
    return out


@dataclass(frozen=True)
class ProblemScores:
    problem_id: int
    n_runs: int
    pr: tuple[float, ...]       # per level, averaged over runs
    sr: tuple[float, ...]
    f1: tuple[float, ...]
    dyn_f1: tuple[float, ...]

    @property
    def s1(self) -> float:
        return float(np.mean(self.pr))

    @property
    def s2(self) -> float:
        return float(np.mean(self.f1))

    @property
    def s3(self) -> float:
        return float(np.mean(self.dyn_f1))


@dataclass(frozen=True)
class ScoreReport:
    problems: tuple[ProblemScores, ...]

    @property
    def grand_s1(self) -> float:
        return float(np.mean([p.s1 for p in self.problems]))

    @property
    def grand_s2(self) -> float:
        return float(np.mean([p.s2 for p in self.problems]))

    @property
    def grand_s3(self) -> float:
        return float(np.mean([p.s3 for p in self.problems]))


def aggregate(per_problem: dict[int, list[list[LevelScores]]]) -> ScoreReport:
    """per_problem maps problem id to one list of LevelScores per run."""
    if not per_problem or any(not runs for runs in per_problem.values()):
        raise ValueError("aggregate requires at least one scored run per problem")
    rows = []
    for pid in sorted(per_problem):
        runs = per_problem[pid]
        by_level = lambda attr: tuple(
            float(np.mean([getattr(r[k], attr) for r in runs]))
            for k in range(len(ACCURACY_LEVELS)))
        rows.append(ProblemScores(
            problem_id=pid, n_runs=len(runs),
            pr=by_level("pr"), sr=by_level("sr"), f1=by_level("f1"),
            dyn_f1=by_level("dyn_f1")))
    return ScoreReport(problems=tuple(rows))
