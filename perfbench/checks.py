"""Reference checks made apart from the program.

Every constant here is the published one (Li, Engelbrecht & Epitropakis,
"Benchmark functions for CEC'2013 special session and competition on
niching methods for multimodal function optimization", 2013), and every
objective is written out again from its definition. Nothing in this
module imports the program: the checks take its outputs (trace CSV
files, the score table, problem objects) as plain data.

Each check returns a list of messages, one per violation; an empty list
means the output passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ACCURACY_LEVELS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)

# Re-evaluated fitness may differ from the program's in the last bits
# (another order of floating-point operations); a relative 1e-12 is
# well above that rounding and far below the finest accuracy level.
FITNESS_RTOL = 1e-12
# Scores are means of a few ratios; the harness and this module add
# them in different orders.
SCORE_ATOL = 1e-12


@dataclass(frozen=True)
class Published:
    d: int
    fopt: float
    n_opt: int
    radius: float
    budget: int
    lower: float
    upper: float


PUBLISHED = {
    6: Published(2, 186.7309088310239, 18, 0.5, 200_000, -10.0, 10.0),
    7: Published(2, 1.0, 36, 0.2, 200_000, 0.25, 10.0),
    8: Published(3, 2709.093505572820, 81, 0.5, 400_000, -10.0, 10.0),
    9: Published(3, 1.0, 216, 0.2, 400_000, 0.25, 10.0),
    10: Published(2, -2.0, 12, 0.01, 200_000, 0.0, 1.0),
    16: Published(5, 0.0, 6, 0.01, 400_000, -5.0, 5.0),
}

# Composition problems: the instance data file whose first n_opt rows
# are the shift points.
COMPOSITION_DATA = {16: "cf3_d05.txt"}


def shubert(x) -> float:
    prod = 1.0
    for xi in x:
        prod *= sum(j * math.cos((j + 1) * xi + j) for j in range(1, 6))
    return -prod


def vincent(x) -> float:
    return sum(math.sin(10.0 * math.log(xi)) for xi in x) / len(x)


def modified_rastrigin(x) -> float:
    return -sum(10.0 + 9.0 * math.cos(2.0 * math.pi * k * xi)
                for k, xi in zip((3.0, 4.0), x))


OBJECTIVES = {6: shubert, 7: vincent, 8: shubert, 9: vincent,
              10: modified_rastrigin}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FITNESS_RTOL * max(1.0, abs(b))


def read_trace_csv(path: Path) -> list[tuple[int, float, list[float]]]:
    """Rows (feval, fitness, position) of a harness trace file."""
    lines = Path(path).read_text().splitlines()
    records = []
    for line in lines[1:]:
        cols = line.split(",")
        records.append((int(cols[0]), float(cols[1]),
                        [float(c) for c in cols[2:]]))
    return records


def read_score_table(path: Path) -> dict[tuple[str, str], list[float]]:
    """(problem, scenario) -> [mean, score at each accuracy level]."""
    lines = Path(path).read_text().splitlines()
    return {(cols[0], cols[1]): [float(c) for c in cols[2:]]
            for cols in (line.split(",") for line in lines[1:])}


def count_global(records, pid: int, eps: float) -> int:
    """The CEC2013 count: elites within eps of the published optimum
    value, fittest first, each kept only when it lies farther than the
    niche radius from every elite already kept."""
    ref = PUBLISHED[pid]
    kept: list[list[float]] = []
    for _, f, x in sorted(records, key=lambda r: -r[1]):
        if abs(f - ref.fopt) > eps:
            continue
        if all(math.dist(x, k) > ref.radius for k in kept):
            kept.append(x)
    return len(kept)


def check_suite(problem, data_dir: Path) -> list[str]:
    """The suite's problem against the published optimum value, count,
    niche radius, budget and box; for closed-form problems, the own
    formula at every optimum the suite lists; for compositions, the
    shift points read from the instance file."""
    pid = problem.id
    ref = PUBLISHED[pid]
    errors = []
    for field, want in (("d", ref.d), ("n_global_optima", ref.n_opt),
                        ("niche_radius", ref.radius),
                        ("budget", ref.budget)):
        got = getattr(problem, field)
        if got != want:
            errors.append(f"p{pid:02d}: {field} is {got}, published {want}")
    if (list(problem.bounds.lower) != [ref.lower] * ref.d
            or list(problem.bounds.upper) != [ref.upper] * ref.d):
        errors.append(f"p{pid:02d}: bounds differ from "
                      f"[{ref.lower}, {ref.upper}]^{ref.d}")
    positions = [list(map(float, p)) for p in problem.optima_positions]
    if len(positions) != ref.n_opt:
        errors.append(f"p{pid:02d}: {len(positions)} optima listed, "
                      f"published {ref.n_opt}")
    for f in problem.optima_fitness:
        if not _close(float(f), ref.fopt):
            errors.append(f"p{pid:02d}: optimum value {float(f)!r}, "
                          f"published {ref.fopt!r}")
            break
    if pid in OBJECTIVES:
        for p in positions:
            f = OBJECTIVES[pid](p)
            if not _close(f, ref.fopt):
                errors.append(f"p{pid:02d}: own formula gives {f!r} at "
                              f"listed optimum {p}")
                break
    else:
        errors += check_shift_points(problem, data_dir)
    return errors


def check_shift_points(problem, data_dir: Path) -> list[str]:
    """A composition's objective is exactly 0 at every shift point of
    its instance file, and those points are the optima it lists."""
    pid = problem.id
    ref = PUBLISHED[pid]
    rows = Path(data_dir, COMPOSITION_DATA[pid]).read_text().split("\n")
    shifts = [[float(v) for v in row.split()] for row in rows[:ref.n_opt]]
    errors = []
    values = problem.fn(np.array(shifts))
    for k, v in enumerate(values):
        if v != 0.0:
            errors.append(f"p{pid:02d}: objective is {float(v)!r} at shift "
                          f"point {k}, not 0")
    listed = sorted(list(map(float, p)) for p in problem.optima_positions)
    if listed != sorted(shifts):
        errors.append(f"p{pid:02d}: listed optima are not the instance's "
                      "shift points")
    return errors


def check_run(pid: int, records, g_by_level, evals: int | None = None,
              ) -> tuple[list[str], list[int]]:
    """One run's archive: evaluation indices, bounds, re-evaluated
    fitness, the CEC2013 count against the program's g at every level,
    and, when the run was traced, its evaluation count. Returns the
    violations and the counts."""
    ref = PUBLISHED[pid]
    tag = f"p{pid:02d}"
    errors = []
    fevals = [r[0] for r in records]
    if any(b <= a for a, b in zip(fevals, fevals[1:])):
        errors.append(f"{tag}: evaluation indices do not strictly ascend")
    if fevals and (fevals[0] < 1 or fevals[-1] > ref.budget):
        errors.append(f"{tag}: evaluation index outside [1, {ref.budget}]")
    if evals is not None and evals > ref.budget:
        errors.append(f"{tag}: {evals} evaluations traced, budget "
                      f"{ref.budget}")
    for feval, f, x in records:
        if len(x) != ref.d or any(not ref.lower <= c <= ref.upper
                                  for c in x):
            errors.append(f"{tag}: elite of evaluation {feval} lies outside "
                          "the box")
        if pid in OBJECTIVES:
            own = OBJECTIVES[pid](x)
            if not _close(own, f):
                errors.append(f"{tag}: elite of evaluation {feval} has "
                              f"fitness {f!r}, own formula gives {own!r}")
        elif f > ref.fopt:
            errors.append(f"{tag}: elite of evaluation {feval} scores "
                          f"{f!r}, above the optimum {ref.fopt!r}")
    counts = [count_global(records, pid, eps) for eps in ACCURACY_LEVELS]
    if list(counts) != list(g_by_level):
        errors.append(f"{tag}: CEC2013 count {counts} per level, program's "
                      f"g {list(g_by_level)}")
    return errors, counts


def _f1(pr: float, sr: float) -> float:
    return 0.0 if pr + sr == 0.0 else 2.0 * pr * sr / (pr + sr)


def check_table(table, runs: dict[int, list[tuple[list[int], int]]],
                ) -> list[str]:
    """The harness's S1 and S2 rows against the CEC2013 counts. `runs`
    maps a problem id to one (counts per level, elite count) per run."""
    errors = []
    means = {"S1": [], "S2": []}
    for pid, per_run in sorted(runs.items()):
        n_opt = PUBLISHED[pid].n_opt
        expect = {
            "S1": [sum(c[k] / n_opt for c, _ in per_run) / len(per_run)
                   for k in range(len(ACCURACY_LEVELS))],
            "S2": [sum(_f1(c[k] / n_opt, c[k] / n if n else 0.0)
                       for c, n in per_run) / len(per_run)
                   for k in range(len(ACCURACY_LEVELS))],
        }
        for scenario, levels in expect.items():
            row = table.get((str(pid), scenario))
            want = [sum(levels) / len(levels)] + levels
            if row is None or len(row) != len(want) or any(
                    abs(a - b) > SCORE_ATOL for a, b in zip(row, want)):
                errors.append(f"p{pid:02d}: table {scenario} {row}, "
                              f"CEC2013 counts give {want}")
            means[scenario].append(want[0])
    for scenario, values in means.items():
        row = table.get(("avg", scenario))
        want = sum(values) / len(values)
        if row is None or abs(row[0] - want) > SCORE_ATOL:
            errors.append(f"table avg {scenario} {row and row[0]}, "
                          f"CEC2013 counts give {want}")
    return errors
