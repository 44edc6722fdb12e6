"""The 20-problem multimodal benchmark suite.

Problems 1-10 are closed-form functions with optima listed in code;
problems 11-20 are composition functions whose shift vectors and
rotation matrices are read from data files (their optima are the shift
points, each with fitness exactly 0). All problems are maximization.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..bounds import Bounds
from .functions import CLOSED_FORM
from .composition import (FAMILIES, composition_data_filename,
                          load_composition)

DEFAULT_DATA_DIR = Path(__file__).resolve().parent.parent / "data"


class InvalidProblemError(ValueError):
    """Raised for problem ids outside 1..20 or inconsistent problem data."""


class MissingDataError(FileNotFoundError):
    """Raised when a composition problem's data file is absent."""


@dataclass(frozen=True, eq=False)
class Problem:
    id: int
    name: str
    d: int
    bounds: Bounds
    n_global_optima: int
    budget: int
    optima_positions: np.ndarray
    optima_fitness: np.ndarray
    niche_radius: float
    fn: Callable[[np.ndarray], np.ndarray]


# One row per problem: name, dimension, global-optima count, budget,
# (lower, upper) per-coordinate bounds, scoring niche radius, and for
# composition problems the family name.
_TABLE: dict[int, tuple] = {
    1: ("Five-Uneven-Peak Trap", 1, 2, 50_000, ([0.0], [30.0]), 0.01, None),
    2: ("Equal Maxima", 1, 5, 50_000, ([0.0], [1.0]), 0.01, None),
    3: ("Uneven Decreasing Maxima", 1, 1, 50_000, ([0.0], [1.0]), 0.01, None),
    4: ("Himmelblau", 2, 4, 50_000, ([-6.0] * 2, [6.0] * 2), 0.01, None),
    5: ("Six-Hump Camel Back", 2, 2, 50_000,
        ([-1.9, -1.1], [1.9, 1.1]), 0.5, None),
    6: ("Shubert", 2, 18, 200_000, ([-10.0] * 2, [10.0] * 2), 0.5, None),
    7: ("Vincent", 2, 36, 200_000, ([0.25] * 2, [10.0] * 2), 0.2, None),
    8: ("Shubert", 3, 81, 400_000, ([-10.0] * 3, [10.0] * 3), 0.5, None),
    9: ("Vincent", 3, 216, 400_000, ([0.25] * 3, [10.0] * 3), 0.2, None),
    10: ("Modified Rastrigin", 2, 12, 200_000, ([0.0] * 2, [1.0] * 2),
         0.01, None),
    11: ("Composition Function 1", 2, 6, 200_000, None, 0.01, "CF1"),
    12: ("Composition Function 2", 2, 8, 200_000, None, 0.01, "CF2"),
    13: ("Composition Function 3", 2, 6, 200_000, None, 0.01, "CF3"),
    14: ("Composition Function 3", 3, 6, 400_000, None, 0.01, "CF3"),
    15: ("Composition Function 4", 3, 8, 400_000, None, 0.01, "CF4"),
    16: ("Composition Function 3", 5, 6, 400_000, None, 0.01, "CF3"),
    17: ("Composition Function 4", 5, 8, 400_000, None, 0.01, "CF4"),
    18: ("Composition Function 3", 10, 6, 400_000, None, 0.01, "CF3"),
    19: ("Composition Function 4", 10, 8, 400_000, None, 0.01, "CF4"),
    20: ("Composition Function 4", 20, 8, 400_000, None, 0.01, "CF4"),
}

PROBLEM_IDS = tuple(sorted(_TABLE))


def is_integer(value) -> bool:
    # any Integral, numpy's too; bool is one, but True is not problem 1
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def make_problem(problem_id: int,
                 data_dir: Path | str | None = None) -> Problem:
    if not is_integer(problem_id) or problem_id not in _TABLE:
        raise InvalidProblemError(
            f"problem id must be an integer in 1..20, got {problem_id!r}")
    problem_id = int(problem_id)
    name, d, n_global, budget, box, radius, family_name = _TABLE[problem_id]

    if family_name is None:
        bounds = Bounds(np.array(box[0]), np.array(box[1]))
        fn, positions = CLOSED_FORM[problem_id]
    else:
        bounds = Bounds(np.full(d, -5.0), np.full(d, 5.0))
        family = FAMILIES[family_name]
        directory = Path(data_dir) if data_dir is not None else DEFAULT_DATA_DIR
        path = directory / composition_data_filename(family_name, d)
        if not path.is_file():
            raise MissingDataError(f"composition data file not found: {path}")
        try:
            fn = load_composition(family, d, path)
        except ValueError as exc:
            raise InvalidProblemError(f"{path}: {exc}") from exc
        positions = fn.shifts.copy()
    # Stored fitness is the objective at the stored position, so
    # evaluating a stored optimum reproduces its stored fitness exactly.
    fitness = fn(positions)
    positions.setflags(write=False)
    fitness.setflags(write=False)

    if len(positions) != n_global:
        raise InvalidProblemError(
            f"problem {problem_id}: {len(positions)} optima listed, "
            f"expected {n_global}")
    return Problem(problem_id, name, d, bounds, n_global, budget,
                   positions, fitness, radius, fn)

