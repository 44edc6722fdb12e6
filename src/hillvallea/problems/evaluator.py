"""Budget-gated fitness evaluation.

Every fitness lookup in a run flows through one Evaluator, which owns
the evaluation counter used both for budget enforcement and for the
acceptance timestamps of the dynamic score. Counters are strictly
sequential; batch evaluation assigns consecutive indices in row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..bounds import Bounds


class BudgetExhaustedError(RuntimeError):
    """Raised when an evaluation would exceed the budget."""


class OutOfBoundsError(ValueError):
    """Raised when a point violates the box constraints."""


@dataclass(eq=False)
class Solution:
    x: np.ndarray
    f: float
    eval_index: int


class Evaluator:
    """Single-owner mutable evaluation gateway for one run: at most
    `budget` evaluations of `fn`, an (n, d) -> (n,) batch objective."""

    def __init__(self, fn: Callable, bounds: Bounds, budget: int):
        self.evals_used = 0
        self._budget = budget
        self._fn = fn
        # (1, d) rows: a single point arrives as a (1, d) batch, which
        # numpy compares with (1, d) bounds twice as fast as with (d,)
        self._lower = bounds.lower[None, :]
        self._upper = bounds.upper[None, :]
        self._d = bounds.d

    @property
    def remaining(self) -> int:
        return self._budget - self.evals_used

    def evaluate(self, x: np.ndarray) -> float:
        """Evaluate one point of shape (d,); a point of any other shape
        raises ValueError and consumes nothing."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self._d,):
            raise ValueError(f"point of shape {x.shape}, expected "
                             f"({self._d},)")
        return float(self._admit(x[None, :])[0])

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate all rows of xs, or none: raises the budget signal
        without consuming anything when fewer than len(xs) evaluations
        remain, so callers never see a partially timestamped batch.
        Likewise a batch whose shape is not (n, d), or whose objective
        output is not n finite values, raises ValueError and consumes
        nothing."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self._d:
            raise ValueError(f"batch of shape {xs.shape}, expected "
                             f"(n, {self._d})")
        if xs.shape[0] == 0:
            return np.empty(0)
        return self._admit(xs)

    def _admit(self, xs: np.ndarray) -> np.ndarray:
        """The objective at the rows of an (n, d) batch, n >= 1: all
        counted, or on any error none."""
        n = xs.shape[0]
        remaining = self._budget - self.evals_used
        if remaining < n:
            raise BudgetExhaustedError(
                f"{n} evaluations requested, {remaining} remaining")
        # np.count_nonzero is a C function; ndarray.any goes through a
        # Python wrapper that costs more than the comparison itself.
        if (np.count_nonzero(xs < self._lower)
                or np.count_nonzero(xs > self._upper)):
            outside = (xs < self._lower) | (xs > self._upper)
            row = xs[np.count_nonzero(outside, axis=1) > 0][0]
            raise OutOfBoundsError(f"point {row!r} outside the bounds")
        fs = _checked(self._fn(xs), n)
        self.evals_used += n
        return fs


def _checked(fs: np.ndarray, n: int) -> np.ndarray:
    """The objective's output for n points, which must be n finite
    values: NaN, inf or a wrong shape would otherwise flow silently
    into the sorts and comparisons downstream."""
    if getattr(fs, "shape", None) != (n,):
        raise ValueError(f"objective returned {type(fs).__name__} of shape "
                         f"{np.shape(fs)}, expected an array of shape ({n},)")
    # Hill-valley probes are single-point calls; math.isfinite on the
    # lone value costs a tenth of np.isfinite there.
    if not (math.isfinite(fs[0]) if n == 1
            else np.count_nonzero(np.isfinite(fs)) == n):
        raise ValueError("objective returned a non-finite value")
    return fs
