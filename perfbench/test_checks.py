"""The reference checks pass on exact archives and fail when an elite's
fitness or position is perturbed; the pass pipeline applies them.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from hillvallea import make_problem  # noqa: E402
from hillvallea.problems import Solution  # noqa: E402
from hillvallea.scoring import count_distinct_global  # noqa: E402

PIDS = (6, 7, 8, 9, 10, 16)
DATA = HERE.parent / "src" / "hillvallea" / "data"


def exact_archive(pid):
    """Every optimum the suite lists, as a trace would record it."""
    p = make_problem(pid)
    return p, [(i + 1, float(f), [float(c) for c in x]) for i, (x, f)
               in enumerate(zip(p.optima_positions, p.optima_fitness))]


def program_g(problem, records):
    solutions = [Solution(np.array(x), f, fe) for fe, f, x in records]
    return [count_distinct_global(solutions, problem, eps)
            for eps in checks.ACCURACY_LEVELS]


def errors_after(pid, perturb, evals=None):
    """Check an exact archive after `perturb` edits it, against the
    program's g of the unperturbed archive."""
    problem, records = exact_archive(pid)
    g = program_g(problem, records)
    perturb(records)
    return checks.check_run(pid, records, g, evals)[0]


def with_fitness(records, k, f):
    fe, _, x = records[k]
    records[k] = (fe, f, x)


def with_position(records, k, x):
    fe, f, _ = records[k]
    records[k] = (fe, f, list(x))


@pytest.mark.parametrize("pid", PIDS)
def test_suite_matches_published_values(pid):
    assert checks.check_suite(make_problem(pid), DATA) == []


@pytest.mark.parametrize("pid", PIDS)
def test_exact_archive_passes_and_counts_every_optimum(pid):
    problem, records = exact_archive(pid)
    errors, counts = checks.check_run(pid, records,
                                      program_g(problem, records))
    assert errors == []
    assert counts == [checks.PUBLISHED[pid].n_opt] * 5


@pytest.mark.parametrize("pid", (6, 7, 8, 9, 10))
def test_perturbed_fitness_fails_reevaluation(pid):
    errors = errors_after(pid, lambda r: with_fitness(r, 2, r[2][1] + 1e-6))
    assert any("own formula gives" in e for e in errors)


@pytest.mark.parametrize("pid", (6, 7, 8, 9, 10))
def test_perturbed_position_fails_reevaluation(pid):
    def shift(r):
        x = list(r[2][2])
        x[0] += 1e-3
        with_position(r, 2, x)
    errors = errors_after(pid, shift)
    assert any("own formula gives" in e for e in errors)


@pytest.mark.parametrize("pid", PIDS)
def test_fitness_outside_accuracy_fails_the_count(pid):
    errors = errors_after(pid, lambda r: with_fitness(r, 0, r[0][1] - 0.5))
    assert any("CEC2013 count" in e for e in errors)


@pytest.mark.parametrize("pid", PIDS)
def test_position_on_another_elite_fails_the_count(pid):
    # optima of equal value: only the count can see the duplicate
    errors = errors_after(pid, lambda r: with_position(r, 1, r[0][2]))
    assert any("CEC2013 count" in e for e in errors)


@pytest.mark.parametrize("pid", PIDS)
def test_position_outside_the_box_fails(pid):
    upper = checks.PUBLISHED[pid].upper
    errors = errors_after(
        pid, lambda r: with_position(r, 0, [upper + 1.0] + r[0][2][1:]))
    assert any("outside the box" in e for e in errors)


def test_composition_elite_above_zero_fails():
    errors = errors_after(16, lambda r: with_fitness(r, 3, 1e-3))
    assert any("above the optimum" in e for e in errors)


def test_evaluation_order_and_budget_fail():
    def swap(r):
        r[0], r[1] = r[1], r[0]
    assert any("strictly ascend" in e for e in errors_after(7, swap))

    def late(r):
        fe, f, x = r[-1]
        r[-1] = (checks.PUBLISHED[7].budget + 1, f, x)
    assert any("outside [1," in e for e in errors_after(7, late))
    over = checks.PUBLISHED[7].budget + 1
    assert any("evaluations traced" in e
               for e in errors_after(7, lambda r: None, evals=over))


@pytest.mark.parametrize("change", [
    dict(niche_radius=0.3), dict(n_global_optima=35), dict(budget=100_000)])
def test_suite_with_a_wrong_constant_fails(change):
    problem = dataclasses.replace(make_problem(7), **change)
    assert checks.check_suite(problem, DATA) != []


def test_suite_with_a_wrong_optimum_fails():
    p = make_problem(9)
    moved = p.optima_positions.copy()
    moved[5, 1] += 1e-3
    assert checks.check_suite(dataclasses.replace(
        p, optima_positions=moved), DATA) != []
    fitness = p.optima_fitness + 1e-6
    assert checks.check_suite(dataclasses.replace(
        p, optima_fitness=fitness), DATA) != []


def test_composition_not_zero_at_a_shift_point_fails():
    p = make_problem(16)
    assert checks.check_suite(dataclasses.replace(
        p, fn=lambda x: p.fn(x) - 1e-12), DATA) != []


def small_pass(tmp_path, trace, jobs=1, problems=(7, 16), runs=1):
    """One pass of the real pipeline on short runs."""
    hv = run.import_program()
    wl = run.Workload(problems, runs=runs, jobs=jobs)
    cfg = hv.harness.ExperimentConfig(
        problems=problems, runs=runs, seed=3, jobs=jobs,
        out_dir=tmp_path / "results",
        budget_overrides={p: 20_000 for p in problems})
    spans = None
    if trace:
        spool = tmp_path / "spool"
        spool.mkdir(parents=True)
        (_, failures), spans = tracing.traced_call(
            hv, spool, "harness.run_experiment",
            hv.harness.run_experiment, cfg)
    else:
        _, failures = hv.harness.run_experiment(cfg)
    assert failures == []
    # the checks hold the published budget, which is above the cap
    problems = {p: hv.make_problem(p) for p in wl.problems}
    return hv, problems, cfg, spans


def test_pass_pipeline_catches_an_edited_trace_file(tmp_path):
    hv, problems, cfg, _ = small_pass(tmp_path, trace=False)
    errors, table = run.check_outputs(hv, problems, cfg, [], None)
    assert errors == []
    path = cfg.out_dir / "traces" / "p07_run000.csv"
    lines = path.read_text().splitlines()
    cols = lines[1].split(",")
    cols[1] = repr(float(cols[1]) - 0.5)
    path.write_text("\n".join([lines[0], ",".join(cols)] + lines[2:]) + "\n")
    errors, _ = run.check_outputs(hv, problems, cfg, [], None)
    assert any("own formula gives" in e for e in errors)
    assert any("table S1" in e for e in errors)


@pytest.mark.parametrize("jobs,runs", [(1, 1), (2, 2)])
def test_tracing_changes_no_result_and_sees_every_run(tmp_path, jobs, runs):
    hv, problems, cfg, _ = small_pass(tmp_path / "plain", False, jobs,
                                      (7,), runs)
    plain = checks.read_score_table(cfg.out_dir / "scores.csv")
    plain_traces = sorted((cfg.out_dir / "traces").glob("*.csv"))
    hv, problems, cfg, spans = small_pass(tmp_path / "traced", True, jobs,
                                          (7,), runs)
    errors, table = run.check_outputs(hv, problems, cfg, [], spans)
    assert errors == [] and table == plain
    traced_traces = sorted((cfg.out_dir / "traces").glob("*.csv"))
    assert [p.read_bytes() for p in traced_traces] == [
        p.read_bytes() for p in plain_traces]
    evals = tracing.SpanTree(spans).run_evals()
    assert sorted(evals) == [(7, 3 + r) for r in range(runs)]
    assert all(0 < n <= 20_000 for n in evals.values())
    metrics = tracing.layer_metrics(spans)
    assert set(metrics) | {"harness.trace_bytes",
                           "harness.tracing_overhead_s"} == set(
        tracing.PER_LAYER)
    assert metrics["problems.evals"] == sum(evals.values())
    assert all(v >= 0 for v in metrics.values())
