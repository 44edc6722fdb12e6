"""Axis-aligned box constraints shared by every module."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class Bounds:
    lower: np.ndarray
    upper: np.ndarray
    # Derived values cached for hot paths; the diagonal avoids BLAS.
    range: np.ndarray = field(init=False, repr=False)
    diagonal: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1 or lower.size < 1:
            raise ValueError("lower and upper must be 1-D vectors of equal length")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("every bound must be finite")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        with np.errstate(over="ignore"):
            span = upper - lower
        if not np.isfinite(span).all():
            raise ValueError("every bound range must be finite")
        for name, arr in (("lower", lower), ("upper", upper), ("range", span)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        diagonal = float(np.sqrt((span * span).sum()))
        object.__setattr__(self, "diagonal", diagonal)

    @property
    def d(self) -> int:
        return self.lower.size

    @property
    def volume(self) -> float:
        return float(np.prod(self.range))
