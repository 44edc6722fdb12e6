"""Experiment harness: configuration validation, trace files, the score
table, failure capture, and the command-line runner."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hillvallea.harness as harness
from hillvallea.cli import (build_parser, main, parse_budget_override,
                            parse_problem_ids)
from hillvallea.harness import (ConfigError, ExperimentConfig, RunFailure,
                                emit_tables, run_experiment, write_trace_csv)
from hillvallea.orchestrator import run
from hillvallea.problems.evaluator import Solution
from hillvallea.problems.suite import make_problem
from hillvallea.scoring import (ACCURACY_LEVELS, ScoreReport, aggregate,
                                score_run)

from conftest import level


# --- configuration ----------------------------------------------------------


def test_config_defaults():
    cfg = ExperimentConfig(problems=(1,))
    assert cfg.runs == 50 and cfg.seed == 0
    assert cfg.jobs == 1
    assert cfg.out_dir == Path("bench-results")


@pytest.mark.parametrize("kwargs", [
    dict(problems=()),
    dict(problems=(0,)),
    dict(problems=(1, 21)),
    dict(problems=(2,), runs=0),
    dict(problems=(2,), jobs=0),
    dict(problems=(2,), budget_overrides={2: -5}),
    dict(problems=(2,), budget_overrides={99: 100}),
    dict(problems=(2,), runs=1, seed=-1),
    dict(problems=(2.0,), runs=1),
    dict(problems=(True,), runs=1),
    dict(problems=(2,), runs=1.0),
    dict(problems=(2,), runs=True),
    dict(problems=(2,), runs=1, seed=0.0),
    dict(problems=(2,), runs=1, seed=False),
    dict(problems=(2,), runs=1, jobs=1.0),
    dict(problems=(2,), runs=1, jobs=True),
    dict(problems=(2,), runs=1, budget_overrides={2.0: 100}),
    dict(problems=(2,), runs=1, budget_overrides={True: 100}),
    dict(problems=(2,), runs=1, budget_overrides={2: 100.0}),
    dict(problems=(2,), runs=1, budget_overrides={2: True}),
    dict(problems=(2,), budget_overrides={3: 100}),
])
def test_invalid_configs_are_rejected(kwargs, tmp_path):
    cfg = ExperimentConfig(out_dir=tmp_path, **kwargs)
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_output_path_naming_a_file_is_a_configuration_error(
        tmp_path, capsys):
    out = tmp_path / "results"
    out.write_text("a file, not a directory\n")
    cfg = ExperimentConfig(problems=(2,), runs=1, out_dir=out)
    with pytest.raises(ConfigError) as excinfo:
        run_experiment(cfg)
    assert str(out) in str(excinfo.value)
    code = main(["--problems", "2", "--runs", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and str(out) in err


# --- end-to-end experiments -------------------------------------------------


def test_three_runs_of_equal_maxima(tmp_path):
    cfg = ExperimentConfig(problems=(2,), runs=3, seed=7, out_dir=tmp_path)
    report, failures = run_experiment(cfg)
    assert failures == []
    (p,) = report.problems
    assert p.problem_id == 2 and p.n_runs == 3
    assert p.score("S1") == 1.0
    assert p.score("S2") == p.score("S1") == 1.0
    for r in range(3):
        assert (tmp_path / "traces" / f"p02_run{r:03d}.csv").exists()
    assert (tmp_path / "scores.csv").exists()


def test_identical_configs_give_byte_identical_outputs(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cfg = ExperimentConfig(problems=(4,), runs=2, seed=3, out_dir=out,
                               budget_overrides={4: 4000})
        run_experiment(cfg)
        outs.append(out)
    a, b = outs
    assert (a / "scores.csv").read_bytes() == (b / "scores.csv").read_bytes()
    for r in range(2):
        name = f"traces/p04_run{r:03d}.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_parallel_jobs_match_serial(tmp_path):
    reports = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        cfg = ExperimentConfig(problems=(2,), runs=2, seed=0, out_dir=out,
                               jobs=jobs, budget_overrides={2: 2000})
        reports[jobs] = run_experiment(cfg)
        assert (out / "scores.csv").exists()
    a = (tmp_path / "jobs1" / "scores.csv").read_bytes()
    b = (tmp_path / "jobs2" / "scores.csv").read_bytes()
    assert a == b


def test_numpy_integer_config_matches_plain_integers(tmp_path):
    """Numpy integers of any width are accepted wherever plain ones are,
    and give the same table and traces; a uint8 seed of 255 must not
    wrap to 0 for the second run."""
    plain = dict(problems=(2, 4), runs=2, seed=255, jobs=1,
                 budget_overrides={2: 2000, 4: 4000})
    numpy = dict(problems=tuple(np.array([2, 4])), runs=np.int32(2),
                 seed=np.uint8(255), jobs=np.int64(1),
                 budget_overrides={np.int64(2): np.uint16(2000),
                                   np.int16(4): np.int32(4000)})
    for name, kwargs in (("plain", plain), ("numpy", numpy)):
        _, failures = run_experiment(
            ExperimentConfig(out_dir=tmp_path / name, **kwargs))
        assert failures == []
    names = ["scores.csv"] + [f"traces/p{p:02d}_run{r:03d}.csv"
                              for p in (2, 4) for r in range(2)]
    for name in names:
        assert ((tmp_path / "numpy" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes()), name


def test_failed_runs_are_reported_not_fatal(tmp_path, monkeypatch):
    problem = make_problem(2)

    def flaky_run(problem, xi, seed):
        if seed == 1:
            raise RuntimeError("boom")
        x = np.array([0.1])
        f = float(problem.fn(x[None, :])[0])
        return [Solution(x, f, 1)]

    monkeypatch.setattr(harness, "run", flaky_run)
    cfg = ExperimentConfig(problems=(2,), runs=2, seed=0, out_dir=tmp_path)
    report, failures = run_experiment(cfg)
    assert failures == [RunFailure(2, 1, "RuntimeError: boom")]
    assert report.problems[0].n_runs == 1  # failed run excluded from means
    assert (tmp_path / "scores.csv").exists()


def test_all_runs_failing_yields_empty_report(tmp_path, monkeypatch):
    def broken_run(problem, xi, seed):
        raise ValueError("nope")

    monkeypatch.setattr(harness, "run", broken_run)
    cfg = ExperimentConfig(problems=(1,), runs=2, out_dir=tmp_path)
    report, failures = run_experiment(cfg)
    assert report.problems == ()
    assert len(failures) == 2
    header = (tmp_path / "scores.csv").read_text().splitlines()
    assert len(header) == 1  # header only, no data and no avg rows


# --- trace files ------------------------------------------------------------


def test_trace_csv_round_trips_exactly(tmp_path):
    problem = dataclasses.replace(make_problem(4), budget=3000)
    elites = run(problem, seed=2)
    assert len(elites) >= 1
    path = tmp_path / "trace.csv"
    write_trace_csv(elites, problem.d, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "feval,fitness,x0,x1"
    assert len(lines) == 1 + len(elites)
    for line, e in zip(lines[1:], elites):
        cells = line.split(",")
        assert int(cells[0]) == e.eval_index
        assert float(cells[1]) == e.f      # %.17g is lossless
        assert [float(c) for c in cells[2:]] == [float(v) for v in e.x]


def test_trace_files_rescore_to_the_table(tmp_path):
    # S3 is scored against the overridden budget, which an offline
    # re-score must take from the same place.
    cfg = ExperimentConfig(problems=(4,), runs=2, seed=1, out_dir=tmp_path,
                           budget_overrides={4: 3000})
    report, failures = run_experiment(cfg)
    assert failures == []
    problem = dataclasses.replace(make_problem(4), budget=3000)
    runs = []
    for r in range(2):
        path = tmp_path / "traces" / f"p04_run{r:03d}.csv"
        cells = [line.split(",") for line in path.read_text().splitlines()[1:]]
        elites = [Solution(np.array([float(v) for v in c[2:]]), float(c[1]),
                           int(c[0])) for c in cells]
        runs.append(score_run(elites, problem))
    assert aggregate({4: runs}) == report


# --- score tables -----------------------------------------------------------


def constant_report(pids, pr, f1v, dyn):
    per_problem = {
        pid: [[level(eps, pr=pr, f1v=f1v, dyn=dyn)
               for eps in ACCURACY_LEVELS]]
        for pid in pids}
    return aggregate(per_problem)


def test_csv_table_layout_single_problem(tmp_path):
    report = constant_report([5], pr=0.25, f1v=0.5, dyn=0.125)
    path = emit_tables(report, tmp_path)
    assert path == tmp_path / "scores.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == ("problem,scenario,accuracy_mean_score,"
                        "score_eps_1e-01,score_eps_1e-02,score_eps_1e-03,"
                        "score_eps_1e-04,score_eps_1e-05")
    # One data row and one avg row per scenario.
    assert len(lines) == 1 + 3 + 3
    data = [line.split(",") for line in lines[1:]]
    assert [row[:2] for row in data] == [
        ["5", "S1"], ["5", "S2"], ["5", "S3"],
        ["avg", "S1"], ["avg", "S2"], ["avg", "S3"]]
    assert float(data[0][2]) == 0.25 and float(data[3][2]) == 0.25
    assert float(data[1][2]) == 0.5 and float(data[2][2]) == 0.125
    assert [float(c) for c in data[0][3:]] == [0.25] * 5


def test_csv_cells_round_trip_report_values(tmp_path):
    problem = dataclasses.replace(make_problem(2), budget=3000)
    report = aggregate({2: [score_run(run(problem, seed=5), problem)]})
    path = emit_tables(report, tmp_path)
    rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
    p = report.problems[0]
    for row, values in zip(rows[:3], (p.pr, p.f1, p.dyn_f1)):
        assert float(row[2]) == float(np.mean(values))
        assert tuple(float(c) for c in row[3:]) == values


def test_all_ones_report_averages_to_one(tmp_path):
    report = constant_report([1, 2, 3], pr=1.0, f1v=1.0, dyn=1.0)
    path = emit_tables(report, tmp_path)
    for row in path.read_text().splitlines()[-3:]:
        cells = row.split(",")
        assert cells[0] == "avg"
        assert all(float(c) == 1.0 for c in cells[2:])


def test_twenty_problem_summary_row(tmp_path):
    report = constant_report(range(1, 21), pr=0.892, f1v=0.934, dyn=0.883)
    path = emit_tables(report, tmp_path)
    avg = [r.split(",") for r in path.read_text().splitlines()[-3:]]
    assert float(avg[0][2]) == pytest.approx(0.892, abs=1e-12)
    assert float(avg[1][2]) == pytest.approx(0.934, abs=1e-12)
    assert float(avg[2][2]) == pytest.approx(0.883, abs=1e-12)


def test_empty_report_emits_header_only(tmp_path):
    report = ScoreReport(problems=())
    path = emit_tables(report, tmp_path)
    assert len(path.read_text().splitlines()) == 1


# --- command line -----------------------------------------------------------


def test_parse_problem_ids():
    assert parse_problem_ids("1-20") == tuple(range(1, 21))
    assert parse_problem_ids("2,6,11") == (2, 6, 11)
    assert parse_problem_ids("7") == (7,)
    assert parse_problem_ids("1-3,10") == (1, 2, 3, 10)
    for bad in ("", ",", "a", "5-", "9-7", "2,9-7"):
        with pytest.raises(ValueError):
            parse_problem_ids(bad)


def test_parse_budget_override():
    assert parse_budget_override("3=5000") == (3, 5000)
    with pytest.raises(ValueError):
        parse_budget_override("3")
    with pytest.raises(ValueError):
        parse_budget_override("x=1")


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.problems == "1-20" and args.runs == 50 and args.seed == 0
    assert args.data_dir is None and args.out == Path("bench-results")
    assert args.jobs == 1
    assert args.budget_override == []


def test_cli_success_exit_zero(tmp_path, capsys):
    code = main(["--problems", "2", "--runs", "1", "--seed", "0",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "problem  2: S1=1.000 S2=1.000" in out
    assert "avg: S1=1.000" in out
    assert (tmp_path / "scores.csv").exists()
    assert (tmp_path / "traces" / "p02_run000.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--problems", ""],
    ["--problems", "99"],
    ["--runs", "0"],
    ["--budget-override", "2"],
    ["--xi-scaling", "with-d"],
    ["--problems", "2,9-7"],
    ["--problems", "2", "--runs", "1", "--seed", "-1"],
])
def test_cli_configuration_errors_exit_one(argv, tmp_path, capsys):
    code = main(argv + ["--out", str(tmp_path)])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_cli_module_runs_as_a_process(tmp_path):
    """`python -m hillvallea.cli` goes through entry() and its exit
    code reaches the shell."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "hillvallea.cli", "--problems", "1",
             "--out", str(tmp_path), *argv],
            env=env, capture_output=True, text=True, timeout=300)

    ok = cli("--runs", "1", "--budget-override", "1=2000")
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "scores.csv").exists()
    assert (tmp_path / "traces" / "p01_run000.csv").stat().st_size > 0
    bad = cli("--runs", "0")
    assert bad.returncode == 1
    assert "configuration error" in bad.stderr


def test_cli_missing_data_exit_two(tmp_path, capsys):
    empty = tmp_path / "nodata"
    empty.mkdir()
    code = main(["--problems", "11", "--runs", "1",
                 "--data-dir", str(empty), "--out", str(tmp_path)])
    assert code == 2
    assert "missing data" in capsys.readouterr().err


def test_cli_run_failures_exit_three(tmp_path, capsys, monkeypatch):
    def broken_run(problem, xi, seed):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "run", broken_run)
    code = main(["--problems", "2", "--runs", "1", "--out", str(tmp_path)])
    assert code == 3
    assert "FAILED problem 2 run 0: RuntimeError: boom" in \
        capsys.readouterr().err
