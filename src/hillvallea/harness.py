"""Seeded repeated-run experiment driver with a CSV score table.

Run r of problem p always receives seed base_seed + r, regardless of
execution order or worker count, so identical configurations produce
byte-identical tables. Per-run traces are persisted as CSV so scores
can be recomputed offline without re-optimizing.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .orchestrator import DEFAULT_XI, run
from .problems.evaluator import Solution
from .problems.suite import PROBLEM_IDS, Problem, is_integer, make_problem
from .scoring import (ACCURACY_LEVELS, SCENARIOS, LevelScores, ScoreReport,
                      aggregate, score_run)


class ConfigError(ValueError):
    """Raised for invalid experiment configurations."""


@dataclass(frozen=True)
class ExperimentConfig:
    problems: tuple[int, ...]
    runs: int = 50
    seed: int = 0
    data_dir: Path | None = None
    out_dir: Path = Path("bench-results")
    jobs: int = 1
    budget_overrides: Mapping[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class RunFailure:
    problem_id: int
    run_index: int
    message: str


def _validate(cfg: ExperimentConfig) -> None:
    if not cfg.problems:
        raise ConfigError("at least one problem id is required")
    bad = [p for p in cfg.problems
           if not is_integer(p) or p not in PROBLEM_IDS]
    if bad:
        raise ConfigError(f"invalid problem ids: {bad}")
    if not is_integer(cfg.runs) or cfg.runs < 1:
        raise ConfigError("runs must be an integer of at least 1")
    if not is_integer(cfg.seed) or cfg.seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    if not is_integer(cfg.jobs) or cfg.jobs < 1:
        raise ConfigError("jobs must be an integer of at least 1")
    for pid, budget in cfg.budget_overrides.items():
        if (not is_integer(pid) or pid not in cfg.problems
                or not is_integer(budget) or budget < 0):
            raise ConfigError(f"bad budget override {pid}={budget}")


def _load_problems(cfg: ExperimentConfig) -> dict[int, Problem]:
    problems = {}
    for pid in sorted(set(cfg.problems)):
        problem = make_problem(pid, data_dir=cfg.data_dir)
        if pid in cfg.budget_overrides:
            problem = dataclasses.replace(
                problem, budget=cfg.budget_overrides[pid])
        problems[pid] = problem
    return problems


def write_trace_csv(elites: list[Solution], d: int, path: Path) -> None:
    """One line per elite, in acceptance order: its acceptance index,
    fitness and position."""
    header = "feval,fitness," + ",".join(f"x{i}" for i in range(d))
    lines = [header]
    for e in elites:
        coords = ",".join(f"{c:.17g}" for c in e.x)
        lines.append(f"{e.eval_index},{e.f:.17g},{coords}")
    path.write_text("\n".join(lines) + "\n")


def _execute_run(task) -> tuple[int, int, list[LevelScores] | None, str | None]:
    problem, run_index, seed, trace_path = task
    try:
        # The traced benchmark pass reads the seed as the third argument.
        elites = run(problem, DEFAULT_XI, seed)
        write_trace_csv(elites, problem.d, trace_path)
        return problem.id, run_index, score_run(elites, problem), None
    except Exception as exc:  # a failed run must not sink the experiment
        return problem.id, run_index, None, f"{type(exc).__name__}: {exc}"


def run_experiment(cfg: ExperimentConfig,
                   ) -> tuple[ScoreReport, list[RunFailure]]:
    _validate(cfg)
    problems = _load_problems(cfg)

    out_dir = Path(cfg.out_dir)
    trace_dir = out_dir / "traces"
    try:
        trace_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write output to {out_dir}: {exc}") from exc

    tasks = []
    for pid in sorted(problems):
        for r in range(cfg.runs):
            tasks.append((problems[pid], r, int(cfg.seed) + r,
                          trace_dir / f"p{pid:02d}_run{r:03d}.csv"))

    if cfg.jobs == 1:
        results = [_execute_run(t) for t in tasks]
    else:
        with multiprocessing.Pool(cfg.jobs) as pool:
            results = list(pool.imap_unordered(_execute_run, tasks))
    results.sort(key=lambda r: (r[0], r[1]))

    scored: dict[int, list[list[LevelScores]]] = {}
    failures: list[RunFailure] = []
    for pid, run_index, scores, error in results:
        if error is None:
            scored.setdefault(pid, []).append(scores)
        else:
            failures.append(RunFailure(pid, run_index, error))
    report = (aggregate(scored) if scored
              else ScoreReport(problems=()))
    emit_tables(report, out_dir)
    return report, failures


def emit_tables(report: ScoreReport, out_dir: Path | str) -> Path:
    """Write scores.csv: one row per (problem, scenario) with the
    per-level scores and their mean, plus an 'avg' summary row per
    scenario."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cols = ["problem", "scenario", "accuracy_mean_score"]
    cols += [f"score_eps_{eps:.0e}" for eps in ACCURACY_LEVELS]
    lines = [",".join(cols)]
    for p in report.problems:
        for scenario in SCENARIOS:
            row = [str(p.problem_id), scenario, f"{p.score(scenario):.17g}"]
            row += [f"{v:.17g}" for v in p.levels(scenario)]
            lines.append(",".join(row))
    if report.problems:
        for scenario in SCENARIOS:
            by_level = [
                float(np.mean([p.levels(scenario)[k]
                               for p in report.problems]))
                for k in range(len(ACCURACY_LEVELS))]
            lines.append(",".join(
                ["avg", scenario, f"{report.grand(scenario):.17g}"]
                + [f"{v:.17g}" for v in by_level]))
    path = out_dir / "scores.csv"
    path.write_text("\n".join(lines) + "\n")
    return path
