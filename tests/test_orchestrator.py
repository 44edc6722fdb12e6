"""Outer restart loop: parameter recursion, elite archive maintenance,
and full single-problem runs."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import hillvallea.orchestrator as orchestrator
from hillvallea.orchestrator import (DEFAULT_XI, RestartParams,
                                     cluster_pop_size, prune_archive,
                                     restart_update, run,
                                     update_elite_archive)
from hillvallea.problems.evaluator import Evaluator, Solution
from hillvallea.problems.suite import make_problem
from hillvallea.scoring import count_distinct_global

from conftest import (BIG, EQUAL_MAXIMA, RecordingObjective, bowl,
                      bowl_problem, make_solutions)


# --- restart parameters -----------------------------------------------------


def test_default_restart_params():
    assert (DEFAULT_XI.n, DEFAULT_XI.n_inc, DEFAULT_XI.n_c,
            DEFAULT_XI.n_c_inc) == (64, 2.0, 0.8, 1.1)


@pytest.mark.parametrize("kwargs", [
    dict(n=1, n_inc=2.0, n_c=0.8, n_c_inc=1.1),
    dict(n=64, n_inc=1.0, n_c=0.8, n_c_inc=1.1),
    dict(n=64, n_inc=2.0, n_c=0.0, n_c_inc=1.1),
    dict(n=64, n_inc=2.0, n_c=0.8, n_c_inc=0.9),
    dict(n=64.0, n_inc=2.0, n_c=0.8, n_c_inc=1.1),
    dict(n=64, n_inc=float("nan"), n_c=0.8, n_c_inc=1.1),
    dict(n=64, n_inc=2.0, n_c=float("nan"), n_c_inc=1.1),
    dict(n=64, n_inc=2.0, n_c=0.8, n_c_inc=float("nan")),
    dict(n=64, n_inc=float("inf"), n_c=0.8, n_c_inc=1.1),
    dict(n=64, n_inc=2.0, n_c=float("inf"), n_c_inc=1.1),
    dict(n=64, n_inc=2.0, n_c=0.8, n_c_inc=float("inf")),
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


def test_cluster_pop_size():
    assert cluster_pop_size(DEFAULT_XI, 1) == 8    # ceil(0.8 * 10)
    assert cluster_pop_size(DEFAULT_XI, 4) == 16   # ceil(0.8 * 20)
    tiny = RestartParams(n=64, n_inc=2.0, n_c=0.01, n_c_inc=1.1)
    assert cluster_pop_size(tiny, 1) == 2          # floored at 2


# --- elite archive ----------------------------------------------------------


def test_empty_archive_always_accepts():
    fn, bounds = EQUAL_MAXIMA
    ev = Evaluator(fn, bounds, BIG)
    elites = []
    (candidate,) = make_solutions(fn, np.array([[0.1]]), start_index=5)
    update_elite_archive(elites, candidate, ev, bounds)
    assert len(elites) == 1
    assert elites[0].x is candidate.x and elites[0].f == candidate.f
    assert elites[0].eval_index == 0  # stamped with the current counter
    assert ev.evals_used == 0


def test_identical_candidate_keeps_the_incumbent():
    fn, bounds = EQUAL_MAXIMA
    ev = Evaluator(fn, bounds, BIG)
    elites = []
    (elite,) = make_solutions(fn, np.array([[0.1]]), start_index=1)
    update_elite_archive(elites, elite, ev, bounds)
    incumbent = elites[0]
    twin = Solution(elite.x.copy(), elite.f, 99)
    update_elite_archive(elites, twin, ev, bounds)
    assert elites == [incumbent]
    assert ev.evals_used == 0  # resolved by the duplicate-distance gate


def test_two_separated_peaks_both_archived():
    fn, bounds = EQUAL_MAXIMA
    ev = Evaluator(fn, bounds, BIG)
    elites = []
    first, second = make_solutions(fn, np.array([[0.1], [0.3]]))
    update_elite_archive(elites, first, ev, bounds)
    update_elite_archive(elites, second, ev, bounds)
    assert len(elites) == 2
    assert ev.evals_used == 1  # one valley probe at the midpoint
    assert [e.eval_index for e in elites] == [0, 1]


def test_same_niche_replacement_reorders_by_acceptance():
    fn, bounds = EQUAL_MAXIMA
    ev = Evaluator(fn, bounds, BIG)
    off_peak, peak_b = make_solutions(fn, np.array([[0.12], [0.3]]),
                                      start_index=10)
    peak_b.eval_index = 20
    elites = [off_peak, peak_b]
    (challenger,) = make_solutions(fn, np.array([[0.1]]), start_index=30)
    update_elite_archive(elites, challenger, ev, bounds)
    # The challenger beat its same-niche neighbor (0.12) and re-enters
    # the acceptance order at its own evaluation index.
    assert elites == [peak_b, challenger]
    assert [e.eval_index for e in elites] == [20, 30]


def test_replacement_tied_with_an_acceptance_index_keeps_list_order():
    fn, bounds = EQUAL_MAXIMA
    ev = Evaluator(fn, bounds, BIG)
    off_peak, peak_b, peak_c = make_solutions(
        fn, np.array([[0.12], [0.3], [0.5]]), start_index=10)
    peak_b.eval_index, peak_c.eval_index = 20, 25
    elites = [off_peak, peak_b, peak_c]
    (challenger,) = make_solutions(fn, np.array([[0.1]]), start_index=20)
    update_elite_archive(elites, challenger, ev, bounds)
    # The challenger takes the first slot with peak_b's index; the sort
    # is stable, so it stays ahead of peak_b.
    assert elites == [challenger, peak_b, peak_c]


def test_losing_same_niche_candidate_changes_nothing():
    fn, bounds = bowl(d=1)
    ev = Evaluator(fn, bounds, BIG)
    elites = []
    best, worse = make_solutions(fn, np.array([[0.1], [0.4]]))
    update_elite_archive(elites, best, ev, bounds)
    incumbent = elites[0]
    before = ev.evals_used
    update_elite_archive(elites, worse, ev, bounds)
    assert elites == [incumbent]
    assert ev.evals_used > before  # a real test ran, same basin won


def test_exhausted_budget_leaves_archive_unchanged():
    fn, bounds = bowl(d=1)
    ev = Evaluator(fn, bounds, 0)
    elites = []
    near, far = make_solutions(fn, np.array([[0.1], [3.0]]))
    update_elite_archive(elites, near, ev, bounds)  # empty: free
    before = list(elites)
    update_elite_archive(elites, far, ev, bounds)
    assert elites == before
    assert [e.eval_index for e in elites] == [0]
    assert ev.evals_used == 0


def test_prune_archive_drops_deep_local_optima():
    elites = [Solution(np.array([float(i)]), f, i + 1)
              for i, f in enumerate([1.0, 0.9999, 0.5])]
    prune_archive(elites, tol=1e-3)
    assert [e.f for e in elites] == [1.0, 0.9999]
    assert [e.eval_index for e in elites] == [1, 2]


# --- full runs --------------------------------------------------------------


def test_zero_budget_run_returns_empty_archive():
    problem = dataclasses.replace(make_problem(1), budget=0)
    assert run(problem, seed=0) == []


def test_himmelblau_run_finds_all_four_peaks():
    problem = make_problem(4)
    elites = run(problem, seed=0)
    assert len(elites) == 4
    g = count_distinct_global(elites, problem, eps=1e-5)
    assert g == 4
    # Acceptance order is strictly increasing.
    assert np.all(np.diff([e.eval_index for e in elites]) > 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_equal_maxima_run_archives_exactly_five(seed):
    problem = make_problem(2)
    elites = run(problem, seed=seed)
    assert len(elites) == 5
    assert count_distinct_global(elites, problem, eps=1e-5) == 5


def test_run_reads_only_fn_bounds_and_budget():
    """README's contract: run on a plain namespace of a problem's fn,
    bounds and budget returns the Problem's elites bit for bit."""
    problem = dataclasses.replace(make_problem(4), budget=5000)
    task = SimpleNamespace(fn=problem.fn, bounds=problem.bounds,
                           budget=5000)

    def snapshot(elites):
        return [(e.x.tobytes(), e.f, e.eval_index) for e in elites]

    expected = snapshot(run(problem, seed=0))
    assert expected
    assert snapshot(run(task, seed=0)) == expected


def test_run_is_bit_reproducible():
    problem = dataclasses.replace(make_problem(2), budget=4000)

    def snapshot():
        elites = run(problem, seed=11)
        return ([list(map(float, e.x)) for e in elites],
                [e.f for e in elites],
                [e.eval_index for e in elites])

    assert snapshot() == snapshot()


def test_next_restart_history_labels_each_selected_point_by_its_cluster(
        monkeypatch):
    cluster_fn = orchestrator.hill_valley_clustering
    sample_fn = orchestrator.sample_initial_population
    partitions, histories = [], []

    def clustering(points, ev, bounds, fitness):
        clusters = cluster_fn(points, ev, bounds, fitness)
        partitions.append((points, clusters))
        return clusters

    def sampling(n, bounds, points, labels, rng):
        histories.append((points, labels))
        return sample_fn(n, bounds, points, labels, rng)

    monkeypatch.setattr(orchestrator, "hill_valley_clustering", clustering)
    monkeypatch.setattr(orchestrator, "sample_initial_population", sampling)
    run(dataclasses.replace(make_problem(2), budget=4000), seed=3)
    # The history each restart samples against is the previous one's.
    assert len(histories[1:]) >= 2
    assert any(len(clusters) > 1 for _, clusters in partitions)
    for (selection, clusters), (points, labels) in zip(partitions,
                                                       histories[1:]):
        by_point = {tuple(x): k for x, k in zip(points.tolist(),
                                                labels.tolist())}
        assert len(points) == len(labels) == len(by_point) == len(selection)
        for k, cluster in enumerate(clusters):
            for m in cluster:
                assert by_point[tuple(selection[m].tolist())] == k


def test_each_core_search_starts_from_its_clusters_fittest_member(
        monkeypatch):
    """A search gets its cluster's rows, and tracks as its best the
    first (fittest) of them, stamped with the evaluation index that
    point had in the restart's initial population."""
    cluster_fn = orchestrator.hill_valley_clustering
    sample_fn = orchestrator.sample_initial_population
    init_fn = orchestrator.init_core_search
    problem = make_problem(4)
    rec = RecordingObjective(problem.fn)
    events = []

    def sampling(n, bounds, points, labels, rng):
        xs = sample_fn(n, bounds, points, labels, rng)
        events.append(("sample", rec.n_evals, xs))
        return xs

    def clustering(points, ev, bounds, fitness):
        clusters = cluster_fn(points, ev, bounds, fitness)
        events.append(("cluster", points, fitness, clusters))
        return clusters

    def init(members, best, pop_size, bounds):
        events.append(("init", members, best))
        return init_fn(members, best, pop_size, bounds)

    monkeypatch.setattr(orchestrator, "sample_initial_population", sampling)
    monkeypatch.setattr(orchestrator, "hill_valley_clustering", clustering)
    monkeypatch.setattr(orchestrator, "init_core_search", init)
    run(dataclasses.replace(problem, fn=rec, budget=6000), seed=0)

    searches = 0
    for event in events:
        if event[0] == "sample":
            _, base, xs = event
        elif event[0] == "cluster":
            _, points, fitness, clusters = event
            pending = iter(clusters)
        else:
            _, members, best = event
            cluster = next(pending)
            np.testing.assert_array_equal(members, points[cluster])
            first = cluster[0]
            np.testing.assert_array_equal(best.x, points[first])
            assert best.f == fitness[first] == fitness[cluster].max()
            assert base < best.eval_index <= base + len(xs)
            np.testing.assert_array_equal(
                xs[best.eval_index - base - 1], best.x)
            np.testing.assert_array_equal(
                rec.rows[best.eval_index - 1], best.x)
            searches += 1
    assert searches > 1


def test_run_respects_budget_exactly():
    problem = make_problem(2)
    rec = RecordingObjective(problem.fn)
    elites = run(dataclasses.replace(problem, fn=rec, budget=3000), seed=4)
    assert rec.n_evals <= 3000
    assert len(elites) >= 1
    assert all(1 <= e.eval_index <= 3000 for e in elites)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p0", [DEFAULT_XI,
                                dataclasses.replace(DEFAULT_XI, n=10)],
                         ids=["n64", "n10"])
def test_first_population_is_base_size_times_dimension(d, p0):
    problem = bowl_problem(d, budget=3 * p0.n * d)
    batches = []

    def fn(xs):
        batches.append(len(xs))
        return problem.fn(xs)

    run(dataclasses.replace(problem, fn=fn), p0, seed=0)
    assert batches[0] == p0.n * d
