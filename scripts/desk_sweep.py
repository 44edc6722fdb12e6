"""Desk-scale benchmark sweep: 10 runs of the non-composition problems
plus the first two composition problems, printing the S1/SR/S3 table
exactly as the README's "Desk-scale results" shows it.

Finishes in roughly ten minutes on one core. Pass problem ids to
restrict the sweep, e.g.  python scripts/desk_sweep.py 1 2 3

Usage: python scripts/desk_sweep.py [problem_id ...]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from hillvallea.harness import ExperimentConfig, run_experiment
from hillvallea.problems.suite import make_problem
from hillvallea.scoring import ProblemScores

DEFAULT_PROBLEMS = (1, 2, 3, 4, 5, 6, 7, 10, 11, 12)


def readme_row(scores: ProblemScores) -> str:
    """One row of the README table: mean peak ratio, mean success rate
    and mean dynamic F1 over runs and accuracy levels."""
    problem = make_problem(scores.problem_id)
    name = problem.name.lower().replace(" function", "")
    return (f"| {problem.id} {name} ({problem.d}D) | {scores.score('S1'):.4f} "
            f"| {np.mean(scores.sr):.1f} | {scores.score('S3'):.3f} |")


def main() -> int:
    problems = (tuple(int(a) for a in sys.argv[1:])
                if len(sys.argv) > 1 else DEFAULT_PROBLEMS)
    cfg = ExperimentConfig(problems=problems, runs=10, seed=0,
                           out_dir=Path("bench-results/desk"))
    report, failures = run_experiment(cfg)
    print("| problem | S1 | SR | S3 |")
    print("|---|---|---|---|")
    for p in report.problems:
        print(readme_row(p))
    for fail in failures:
        print(f"FAILED p{fail.problem_id} run {fail.run_index}: "
              f"{fail.message}", file=sys.stderr)
    return 3 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
