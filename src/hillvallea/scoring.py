"""Competition performance measures.

A solution counts as a distinct global optimum when its fitness is
within epsilon of an optimum's fitness and it lies within the problem's
niche radius of that optimum; each optimum can be claimed once, fittest
solutions first. Peak ratio, success rate, and the static and dynamic
F1 measures are built on that count. score_run scores a run at every
accuracy level; count_distinct_global gives one level's count.

Each scenario score is the mean of one measure over the five accuracy
levels, as SCENARIOS maps it:

    S1  peak ratio   (pr)
    S2  static F1    (f1)
    S3  dynamic F1   (dyn_f1)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .problems.evaluator import Solution
from .problems.suite import InvalidProblemError, Problem

ACCURACY_LEVELS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
SCENARIOS = {"S1": "pr", "S2": "f1", "S3": "dyn_f1"}


class InvalidTraceError(ValueError):
    """Raised when a run's solutions are not in evaluation order or lie
    outside its budget."""


def count_distinct_global(solutions: Sequence[Solution], problem: Problem,
                          eps: float) -> int:
    """Greedy matching, fittest solution first: claim the nearest
    unclaimed optimum whose fitness differs by at most eps and whose
    position is within the niche radius."""
    level = _level_claims(_claims(solutions, problem), eps)
    return _greedy_count(level, len(solutions))


def _claims(solutions: Sequence[Solution], problem: Problem
            ) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The solutions fittest first (stable on ties), each as its index,
    the optima within the niche radius of it, nearest first and the
    lower index first on equal distances, and their fitness gaps
    |f - f_opt|."""
    opt_pos = problem.optima_positions
    opt_fit = problem.optima_fitness
    radius_sq = problem.niche_radius ** 2
    fs = np.array([s.f for s in solutions])
    claims = []
    for i in np.argsort(-fs, kind="stable").tolist():
        d2 = ((opt_pos - solutions[i].x) ** 2).sum(axis=1)
        near = np.flatnonzero(d2 <= radius_sq)
        near = near[np.argsort(d2[near], kind="stable")]
        claims.append((i, near, np.abs(opt_fit[near] - fs[i])))
    return claims


def _level_claims(claims: list[tuple[int, np.ndarray, np.ndarray]],
                  eps: float) -> list[tuple[int, list[int]]]:
    """The claims whose fitness gap is at most eps: each solution that
    has any, in the same order, with its optima in the same order."""
    level = [(i, near[gap <= eps].tolist()) for i, near, gap in claims]
    return [(i, optima) for i, optima in level if optima]


def _greedy_count(level: list[tuple[int, list[int]]], upto: int) -> int:
    """Optima claimed by the solutions with index below upto, taken
    fittest first, each claiming its nearest open one."""
    claimed = set()
    for i, optima in level:
        if i < upto:
            for j in optima:
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
    level. The solutions come in acceptance order, each with the
    evaluation index at which it was found as eval_index.

    The dynamic F1 is a time-weighted F1 over problem.budget. Each
    obtained solution set, a prefix of the solutions, is credited for
    the span of evaluations during which it was the current set, the
    full set for the span from its completion to the budget's end. The
    span before the first solution earns nothing. Each prefix is counted
    as count_distinct_global counts it: a solution's claims do not
    depend on the prefix, and a prefix's fittest-first order is the
    whole list's stable order restricted to it, so both are worked out
    once per run."""
    t = len(solutions)
    budget = problem.budget
    fevals = np.array([s.eval_index for s in solutions], dtype=int)
    if np.any(np.diff(fevals) <= 0):
        raise InvalidTraceError("eval_index must strictly ascend")
    if np.any((fevals < 1) | (fevals > budget)):
        raise InvalidTraceError("solutions must lie within the run budget")
    claims = _claims(solutions, problem)
    n_global = problem.n_global_optima
    out = []
    for eps in ACCURACY_LEVELS:
        level = _level_claims(claims, eps)
        g = _greedy_count(level, t)
        pr = peak_ratio(g, n_global)
        sr = success_rate(g, t)
        f1_all = f1(pr, sr)
        dyn = (budget - fevals[-1]) / budget * f1_all if t else 0.0
        for i in range(1, t):
            g_i = _greedy_count(level, i)
            dyn += ((fevals[i] - fevals[i - 1]) / budget
                    * f1(peak_ratio(g_i, n_global), success_rate(g_i, i)))
        out.append(LevelScores(eps=eps, g=g, pr=pr, sr=sr, f1=f1_all,
                               dyn_f1=float(dyn)))
    return out


@dataclass(frozen=True)
class ProblemScores:
    problem_id: int
    n_runs: int
    pr: tuple[float, ...]       # per level, averaged over runs
    sr: tuple[float, ...]
    f1: tuple[float, ...]
    dyn_f1: tuple[float, ...]

    def levels(self, scenario: str) -> tuple[float, ...]:
        """The per-level values that the scenario averages."""
        return getattr(self, SCENARIOS[scenario])

    def score(self, scenario: str) -> float:
        return float(np.mean(self.levels(scenario)))


@dataclass(frozen=True)
class ScoreReport:
    problems: tuple[ProblemScores, ...]

    def grand(self, scenario: str) -> float:
        """The scenario's score averaged over the problems."""
        return float(np.mean([p.score(scenario) for p in self.problems]))


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
