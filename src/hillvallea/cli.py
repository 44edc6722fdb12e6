"""Command-line benchmark runner.

Exit codes: 0 success, 1 configuration error, 2 missing or malformed
data files, 3 at least one run failed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import ConfigError, ExperimentConfig, run_experiment
from .problems.suite import InvalidProblemError, MissingDataError
from .scoring import SCENARIOS, ScoreReport


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse's default exits with code 2
        raise ConfigError(message)


def parse_problem_ids(text: str) -> tuple[int, ...]:
    ids: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo, hi = map(int, part.split("-", 1))
            if lo > hi:
                raise ValueError(f"reversed problem range {part!r}")
            ids.extend(range(lo, hi + 1))
        else:
            ids.append(int(part))
    if not ids:
        raise ValueError("no problem ids given")
    return tuple(ids)


def parse_budget_override(text: str) -> tuple[int, int]:
    pid, _, budget = text.partition("=")
    if not budget:
        raise ValueError("budget override must look like P=B")
    return int(pid), int(budget)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hillvallea-bench",
        description="Run the multimodal benchmark suite and write a CSV "
                    "score table.")
    # A dataclass keeps each field's default as a class attribute.
    defaults = ExperimentConfig
    parser.add_argument("--problems", default="1-20",
                        help="problem ids, e.g. '1-20' or '2,6,11' "
                             "(default %(default)s)")
    parser.add_argument("--runs", type=int, default=defaults.runs,
                        help="repetitions per problem (default %(default)s)")
    parser.add_argument("--seed", type=int, default=defaults.seed,
                        help="base seed; run r uses seed+r "
                             "(default %(default)s)")
    parser.add_argument("--data-dir", type=Path, default=defaults.data_dir,
                        help="directory with composition data files "
                             "(default: packaged data)")
    parser.add_argument("--out", type=Path, default=defaults.out_dir,
                        help="output directory (default %(default)s)")
    parser.add_argument("--jobs", type=int, default=defaults.jobs,
                        help="parallel worker processes (default %(default)s)")
    parser.add_argument("--budget-override", action="append", default=[],
                        metavar="P=B", help="override problem P's budget to B "
                                            "(repeatable)")
    return parser


def summary_lines(report: ScoreReport) -> list[str]:
    """Each problem's scores, then their averages, as main prints them."""
    lines = [f"problem {p.problem_id:2d}: "
             + " ".join(f"{s}={p.score(s):.3f}" for s in SCENARIOS)
             + f" over {p.n_runs} runs" for p in report.problems]
    if report.problems:
        lines.append("avg: " + " ".join(f"{s}={report.grand(s):.3f}"
                                        for s in SCENARIOS))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = ExperimentConfig(
            problems=parse_problem_ids(args.problems),
            runs=args.runs,
            seed=args.seed,
            data_dir=args.data_dir,
            out_dir=args.out,
            jobs=args.jobs,
            budget_overrides=dict(parse_budget_override(s)
                                  for s in args.budget_override),
        )
        report, failures = run_experiment(cfg)
    except MissingDataError as exc:
        print(f"missing data: {exc}", file=sys.stderr)
        return 2
    except InvalidProblemError as exc:  # ids are checked before the data
        print(f"bad data: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    for line in summary_lines(report):
        print(line)
    for fail in failures:
        print(f"FAILED problem {fail.problem_id} run {fail.run_index}: "
              f"{fail.message}", file=sys.stderr)
    return 3 if failures else 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
