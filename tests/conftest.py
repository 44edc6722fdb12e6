"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from hillvallea.bounds import Bounds
from hillvallea.problems.evaluator import Solution
from hillvallea.problems.functions import equal_maxima
from hillvallea.problems.suite import Problem
from hillvallea.scoring import LevelScores

# Problem 2's objective (five equal peaks at 0.1, 0.3, ..., 0.9) and
# box, for tests that evaluate without a Problem
EQUAL_MAXIMA = equal_maxima, Bounds(np.zeros(1), np.ones(1))

BIG = 10**9  # a budget no test exhausts


def synthetic_problem(fn, lower, upper, budget=BIG, optima_positions=None,
                      optima_fitness=None, niche_radius=0.01,
                      problem_id=0, name="synthetic") -> Problem:
    """Build a Problem around an arbitrary batch objective for unit tests.

    `fn` maps an (n, d) array to n fitness values (maximization). When no
    optima are given, a single placeholder optimum at the domain center is
    stored so scoring-free tests can still construct the dataclass.
    """
    bounds = Bounds(np.asarray(lower, dtype=float),
                    np.asarray(upper, dtype=float))
    if optima_positions is None:
        optima_positions = ((bounds.lower + bounds.upper) / 2.0)[None, :]
        optima_fitness = fn(optima_positions)
    optima_positions = np.asarray(optima_positions, dtype=float)
    optima_fitness = np.asarray(optima_fitness, dtype=float)
    return Problem(problem_id, name, bounds.d, bounds,
                   len(optima_positions), budget, optima_positions,
                   optima_fitness, niche_radius, fn)


def quadratic_bowl(center) -> callable:
    """Concave single-peak objective f(x) = -|x - center|^2."""
    center = np.asarray(center, dtype=float)

    def fn(xs: np.ndarray) -> np.ndarray:
        return -((xs - center) ** 2).sum(axis=1)

    return fn


def bowl(d=1, lo=-5.0, hi=5.0):
    """The quadratic bowl centred at the origin of [lo, hi]^d, as the
    (objective, bounds) pair that an Evaluator takes."""
    return quadratic_bowl(np.zeros(d)), Bounds(np.full(d, lo), np.full(d, hi))


def bowl_problem(d=1, budget=BIG, lo=-5.0, hi=5.0) -> Problem:
    fn, bounds = bowl(d, lo, hi)
    return synthetic_problem(fn, bounds.lower, bounds.upper, budget=budget,
                             optima_positions=np.zeros((1, d)),
                             optima_fitness=np.zeros(1))


def make_solutions(fn, xs: np.ndarray,
                   start_index: int = 1) -> list[Solution]:
    """Hand-built solutions with genuine fitness under the batch
    objective `fn` and sequential indices, without consuming any
    evaluator budget."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    fs = fn(xs)
    return [Solution(x.copy(), float(f), start_index + i)
            for i, (x, f) in enumerate(zip(xs, fs))]


def sorted_selection(fn, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points and their fitness under `fn`, sorted fitness-descending
    (stable on ties), ready for clustering."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    fs = fn(xs)
    order = np.argsort(-fs, kind="stable")
    return xs[order], fs[order]


def min_pairwise_distance(points: np.ndarray) -> float:
    """Smallest distance between two of the points; inf for fewer
    than two."""
    if len(points) < 2:
        return np.inf
    diff = points[:, None, :] - points[None, :, :]
    d2 = (diff ** 2).sum(axis=2)
    iu = np.triu_indices(len(points), 1)
    return float(np.sqrt(d2[iu].min()))


def level(eps, pr=1.0, sr=1.0, f1v=1.0, dyn=1.0) -> LevelScores:
    """One accuracy level's scores of a run that found one optimum."""
    return LevelScores(eps=eps, g=1, pr=pr, sr=sr, f1=f1v, dyn_f1=dyn)


class RecordingObjective:
    """Wrap a batch objective so every evaluated point is logged in
    call order.

    Used to prove that two code paths issue identical evaluation streams
    and to count evaluations consumed behind an evaluator.
    """

    def __init__(self, fn):
        self.fn = fn
        self.rows: list[np.ndarray] = []

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        for row in np.atleast_2d(xs):
            self.rows.append(np.array(row, dtype=float))
        return self.fn(xs)

    @property
    def n_evals(self) -> int:
        return len(self.rows)

    def stream(self) -> np.ndarray:
        return np.vstack(self.rows) if self.rows else np.empty((0, 0))


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
