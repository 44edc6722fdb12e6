"""Outer restart loop: parameter recursion, elite archive maintenance,
and full single-problem runs."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from hillvallea.orchestrator import (DEFAULT_XI, EliteArchive, RestartParams,
                                     cluster_pop_size, initial_restart_params,
                                     prune_archive, restart_update, run,
                                     update_elite_archive)
from hillvallea.problems.evaluator import Evaluator, Solution
from hillvallea.problems.suite import make_problem
from hillvallea.scoring import count_distinct_global

from conftest import RecordingProblem, bowl_problem, make_solutions


# --- restart parameters -----------------------------------------------------


def test_default_restart_params():
    assert (DEFAULT_XI.n, DEFAULT_XI.n_inc, DEFAULT_XI.n_c,
            DEFAULT_XI.n_c_inc) == (64, 2.0, 0.8, 1.1)


@pytest.mark.parametrize("kwargs", [
    dict(n=1, n_inc=2.0, n_c=0.8, n_c_inc=1.1),
    dict(n=64, n_inc=1.0, n_c=0.8, n_c_inc=1.1),
    dict(n=64, n_inc=2.0, n_c=0.0, n_c_inc=1.1),
    dict(n=64, n_inc=2.0, n_c=0.8, n_c_inc=0.9),
])
def test_restart_param_validation(kwargs):
    with pytest.raises(ValueError):
        RestartParams(**kwargs)


def test_restart_update_doubles_population_and_grows_cluster_factor():
    p = restart_update(DEFAULT_XI)
    assert p.n == 128 and p.n_inc == 2.0 and p.n_c_inc == 1.1
    assert p.n_c == pytest.approx(0.88, abs=1e-15)


def test_restart_sequence():
    p = DEFAULT_XI
    ns, ncs = [p.n], [p.n_c]
    for _ in range(2):
        p = restart_update(p)
        ns.append(p.n)
        ncs.append(p.n_c)
    assert ns == [64, 128, 256]
    np.testing.assert_allclose(ncs, [0.8, 0.88, 0.968], atol=1e-12)


def test_initial_restart_params_scaling_modes():
    assert initial_restart_params(DEFAULT_XI, 4, "with-d").n == 256
    assert initial_restart_params(DEFAULT_XI, 4, "literal").n == 64
    assert initial_restart_params(DEFAULT_XI, 1, "with-d").n == 64
    with pytest.raises(ValueError):
        initial_restart_params(DEFAULT_XI, 4, "sideways")


def test_cluster_pop_size():
    assert cluster_pop_size(DEFAULT_XI, 1) == 8    # ceil(0.8 * 10)
    assert cluster_pop_size(DEFAULT_XI, 4) == 16   # ceil(0.8 * 20)
    tiny = RestartParams(n=64, n_inc=2.0, n_c=0.01, n_c_inc=1.1)
    assert cluster_pop_size(tiny, 1) == 2          # floored at 2


# --- elite archive ----------------------------------------------------------


def test_empty_archive_always_accepts():
    problem = make_problem(2)
    ev = Evaluator(problem)
    archive = EliteArchive()
    (candidate,) = make_solutions(problem, np.array([[0.1]]), start_index=5)
    update_elite_archive(archive, candidate, ev, problem.bounds)
    assert len(archive) == 1
    assert archive.elites[0] is candidate
    assert archive.accept_feval == [0]  # appended at the current counter
    assert ev.evals_used == 0


def test_identical_candidate_keeps_the_incumbent():
    problem = make_problem(2)
    ev = Evaluator(problem)
    archive = EliteArchive()
    (elite,) = make_solutions(problem, np.array([[0.1]]), start_index=1)
    update_elite_archive(archive, elite, ev, problem.bounds)
    twin = Solution(elite.x.copy(), elite.f, 99)
    update_elite_archive(archive, twin, ev, problem.bounds)
    assert len(archive) == 1
    assert archive.elites[0] is elite
    assert ev.evals_used == 0  # resolved by the duplicate-distance gate


def test_two_separated_peaks_both_archived():
    problem = make_problem(2)
    ev = Evaluator(problem)
    archive = EliteArchive()
    first, second = make_solutions(problem, np.array([[0.1], [0.3]]))
    update_elite_archive(archive, first, ev, problem.bounds)
    update_elite_archive(archive, second, ev, problem.bounds)
    assert len(archive) == 2
    assert ev.evals_used == 1  # one valley probe at the midpoint
    assert archive.accept_feval[1] == ev.evals_used


def test_same_niche_replacement_reorders_by_acceptance():
    problem = make_problem(2)
    ev = Evaluator(problem)
    archive = EliteArchive()
    off_peak, peak_b = make_solutions(problem, np.array([[0.12], [0.3]]))
    archive.elites = [off_peak, peak_b]
    archive.accept_feval = [10, 20]
    (challenger,) = make_solutions(problem, np.array([[0.1]]), start_index=30)
    update_elite_archive(archive, challenger, ev, problem.bounds)
    assert len(archive) == 2
    # The challenger beat its same-niche neighbor (0.12) and re-enters
    # the acceptance order at its own evaluation index.
    assert archive.accept_feval == [20, 30]
    assert [float(e.x[0]) for e in archive.elites] == [0.3, 0.1]


def test_losing_same_niche_candidate_changes_nothing():
    problem = bowl_problem(d=1)
    ev = Evaluator(problem)
    archive = EliteArchive()
    best, worse = make_solutions(problem, np.array([[0.1], [0.4]]))
    update_elite_archive(archive, best, ev, problem.bounds)
    before = ev.evals_used
    update_elite_archive(archive, worse, ev, problem.bounds)
    assert len(archive) == 1
    assert archive.elites[0] is best
    assert ev.evals_used > before  # a real test ran, same basin won


def test_exhausted_budget_leaves_archive_unchanged():
    problem = dataclasses.replace(bowl_problem(d=1), budget=0)
    ev = Evaluator(problem)
    archive = EliteArchive()
    near, far = make_solutions(problem, np.array([[0.1], [3.0]]))
    update_elite_archive(archive, near, ev, problem.bounds)  # empty: free
    elites, accept_feval = list(archive.elites), list(archive.accept_feval)
    update_elite_archive(archive, far, ev, problem.bounds)
    assert archive.elites == elites
    assert archive.accept_feval == accept_feval
    assert ev.evals_used == 0


def test_prune_archive_drops_deep_local_optima():
    archive = EliteArchive()
    archive.elites = [Solution(np.array([float(i)]), f, i + 1)
                      for i, f in enumerate([1.0, 0.9999, 0.5])]
    archive.accept_feval = [1, 2, 3]
    prune_archive(archive, tol=1e-3)
    assert [e.f for e in archive.elites] == [1.0, 0.9999]
    assert archive.accept_feval == [1, 2]
    assert archive.best_fitness() == 1.0


# --- full runs --------------------------------------------------------------


def test_zero_budget_run_returns_empty_archive():
    problem = dataclasses.replace(make_problem(1), budget=0)
    archive, trace = run(problem, seed=0)
    assert len(archive) == 0
    assert len(trace) == 0
    assert trace.budget == 0


def test_himmelblau_run_finds_all_four_peaks():
    problem = make_problem(4)
    archive, trace = run(problem, seed=0)
    assert len(archive) == 4
    g = count_distinct_global(archive.elites, problem, eps=1e-5)
    assert g == 4
    # Acceptance order is strictly increasing and the trace mirrors it.
    fevals = trace.fevals
    assert np.all(np.diff(fevals) > 0)
    assert list(fevals) == archive.accept_feval
    for record, elite in zip(trace.records, archive.elites):
        assert record[1] == elite.f
        np.testing.assert_array_equal(record[2], elite.x)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_equal_maxima_run_archives_exactly_five(seed):
    problem = make_problem(2)
    archive, _ = run(problem, seed=seed)
    assert len(archive) == 5
    assert count_distinct_global(archive.elites, problem, eps=1e-5) == 5


def test_run_is_bit_reproducible():
    problem = dataclasses.replace(make_problem(2), budget=4000)

    def snapshot():
        archive, trace = run(problem, seed=11)
        return ([list(map(float, e.x)) for e in archive.elites],
                [e.f for e in archive.elites],
                list(archive.accept_feval),
                [(int(t), f, list(map(float, x)))
                 for t, f, x in trace.records])

    assert snapshot() == snapshot()


def test_run_respects_budget_exactly():
    rec = RecordingProblem(
        dataclasses.replace(make_problem(2), budget=3000))
    archive, trace = run(rec.problem, seed=4)
    assert rec.n_evals <= 3000
    assert len(archive) >= 1
    assert np.all(trace.fevals >= 1)
    assert np.all(trace.fevals <= 3000)


def test_run_scaling_modes_complete():
    problem = dataclasses.replace(make_problem(4), budget=4000)
    for mode in ("with-d", "literal"):
        rec = RecordingProblem(problem)
        archive, _ = run(rec.problem, seed=1, xi_scaling=mode)
        assert rec.n_evals <= 4000
        assert len(archive) >= 1
