"""Niche detection: pairwise valley test, edge-length scheduling, and
fitness-sorted clustering with the cheap worse-half merge rule."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hillvallea.bounds import Bounds
from hillvallea.hillvalley import (expected_edge_length,
                                   hill_valley_clustering, hill_valley_test,
                                   n_test_points)
from hillvallea.problems.evaluator import (BudgetExhaustedError, Evaluator,
                                           Solution)
from hillvallea.problems.functions import shubert

from conftest import (BIG, EQUAL_MAXIMA, RecordingObjective, bowl,
                      make_solutions, sorted_selection)


# --- expected edge length ---------------------------------------------------


def test_expected_edge_length_unit_square():
    b = Bounds(np.zeros(2), np.ones(2))
    assert expected_edge_length(100, b) == pytest.approx(0.1, abs=1e-15)


def test_expected_edge_length_unit_interval():
    b = Bounds(np.zeros(1), np.ones(1))
    assert expected_edge_length(10, b) == pytest.approx(0.1, abs=1e-15)


def test_expected_edge_length_two_box():
    b = Bounds(np.zeros(2), np.full(2, 2.0))
    assert expected_edge_length(4, b) == pytest.approx(1.0, abs=1e-15)


# --- test-point scheduling --------------------------------------------------


def test_n_test_points_scales_with_distance():
    assert n_test_points(0.5 * 0.3, 0.3) == 1
    assert n_test_points(1.5 * 0.3, 0.3) == 2
    assert n_test_points(100 * 0.3, 0.3) == 10  # capped


def test_n_test_points_boundary():
    assert n_test_points(0.3, 0.3) == 2        # exactly one edge length
    assert n_test_points(0.0, 0.3) == 1


@settings(deadline=None, max_examples=300)
@given(st.floats(0.0, 1e9), st.floats(1e-9, 1e9))
def test_single_test_point_exactly_when_closer_than_one_edge(dist, eel):
    assert (n_test_points(dist, eel) == 1) == (dist < eel)


# --- pairwise valley test ---------------------------------------------------


def test_valley_between_equal_maxima_peaks():
    fn, bounds = EQUAL_MAXIMA
    rec = RecordingObjective(fn)
    ev = Evaluator(rec, bounds, BIG)
    assert hill_valley_test(ev, np.array([0.1]), 1.0,
                            np.array([0.3]), 1.0, 1) is False
    # Exactly one probe, at the midpoint 0.2 where fitness drops to ~0.
    np.testing.assert_array_equal(rec.stream(), np.array([[0.2]]))
    assert ev.evals_used == 1


def test_concave_pair_shares_the_bowl():
    fn, bounds = bowl(d=1)
    ev = Evaluator(fn, bounds, BIG)
    a, b = make_solutions(fn, np.array([[-1.0], [1.0]]))
    assert a.f == b.f == -1.0
    assert hill_valley_test(ev, a.x, a.f, b.x, b.f, 3) is True
    assert ev.evals_used == 3


def test_identical_endpoints_cost_nothing():
    ev = Evaluator(*bowl(d=2), BIG)
    a = Solution(np.array([0.5, 0.5]), -0.5, 1)
    b = Solution(np.array([0.5, 0.5]), -0.5, 2)
    assert hill_valley_test(ev, a.x, a.f, a.x, a.f, 5) is True
    assert hill_valley_test(ev, a.x, a.f, b.x, b.f, 5) is True
    assert ev.evals_used == 0


def test_valley_test_short_circuits_on_first_barrier():
    fn, bounds = EQUAL_MAXIMA
    ev = Evaluator(fn, bounds, BIG)
    a, b = make_solutions(fn, np.array([[0.1], [0.9]]))
    assert hill_valley_test(ev, a.x, a.f, b.x, b.f, 10) is False
    assert ev.evals_used == 1


def test_valley_test_probes_identical_points_in_both_directions():
    fn, bounds = EQUAL_MAXIMA
    a, b = make_solutions(fn, np.array([[0.13], [0.82]]))
    rec_ab = RecordingObjective(fn)
    rec_ba = RecordingObjective(fn)
    v_ab = hill_valley_test(Evaluator(rec_ab, bounds, BIG),
                            a.x, a.f, b.x, b.f, 7)
    v_ba = hill_valley_test(Evaluator(rec_ba, bounds, BIG),
                            b.x, b.f, a.x, a.f, 7)
    assert v_ab == v_ba
    np.testing.assert_array_equal(rec_ab.stream(), rec_ba.stream())


def test_valley_test_propagates_budget_exhaustion():
    fn, bounds = bowl(d=1)
    ev = Evaluator(fn, bounds, 2)
    a, b = make_solutions(fn, np.array([[-1.0], [1.0]]))
    with pytest.raises(BudgetExhaustedError):
        hill_valley_test(ev, a.x, a.f, b.x, b.f, 3)
    assert ev.evals_used == 2


# --- clustering -------------------------------------------------------------


def test_singleton_selection_forms_one_cluster():
    fn, bounds = bowl(d=2)
    ev = Evaluator(fn, bounds, BIG)
    points, fitness = sorted_selection(fn, np.array([[1.0, 1.0]]))
    clusters = hill_valley_clustering(points, ev, bounds, fitness)
    assert len(clusters) == 1
    assert clusters[0] == [0]
    assert ev.evals_used == 0


def test_clustering_rejects_empty_selection():
    fn, bounds = bowl(d=1)
    with pytest.raises(ValueError):
        hill_valley_clustering(np.empty((0, 1)), Evaluator(fn, bounds, BIG),
                               bounds, np.empty(0))


def test_clustering_rejects_unsorted_selection():
    fn, bounds = bowl(d=1)
    points = np.array([[2.0], [0.5]])
    fitness = fn(points)  # ascending
    assert fitness[0] < fitness[1]
    with pytest.raises(ValueError):
        hill_valley_clustering(points, Evaluator(fn, bounds, BIG), bounds,
                               fitness)



def test_equal_maxima_selection_splits_into_five_niches():
    fn, bounds = EQUAL_MAXIMA
    peaks = np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])
    neighbors = peaks + 0.02
    points, fitness = sorted_selection(fn, np.vstack([peaks, neighbors]))
    ev = Evaluator(fn, bounds, BIG)
    clusters = hill_valley_clustering(points, ev, bounds, fitness)
    assert len(clusters) == 5
    for cluster in clusters:
        assert len(cluster) == 2
        xs = sorted(float(points[m, 0]) for m in cluster)
        # Each niche pairs one peak with its nearby offset point.
        assert xs[1] - xs[0] == pytest.approx(0.02, abs=1e-12)
        assert fitness[cluster[0]] == fitness[cluster].max()


@pytest.mark.parametrize("d", [1, 2, 5])
def test_concave_bowl_always_one_cluster(d):
    fn, bounds = bowl(d=d)
    rng = np.random.default_rng(d)
    for size in (2, 7, 40):
        points, fitness = sorted_selection(
            fn, rng.uniform(-5.0, 5.0, size=(size, d)))
        clusters = hill_valley_clustering(
            points, Evaluator(fn, bounds, BIG), bounds, fitness)
        assert len(clusters) == 1
        assert len(clusters[0]) == size


def test_clustering_is_a_partition_on_rugged_landscapes():
    bounds = Bounds(np.full(2, -10.0), np.full(2, 10.0))
    rng = np.random.default_rng(99)
    for size in (3, 17, 60):  # Shubert has many separated peaks
        points, fitness = sorted_selection(
            shubert, rng.uniform(-10.0, 10.0, size=(size, 2)))
        clusters = hill_valley_clustering(
            points, Evaluator(shubert, bounds, BIG), bounds, fitness)
        seen = [m for c in clusters for m in c]
        assert sorted(seen) == list(range(size))
        assert all(c == sorted(c) for c in clusters)
        assert 1 <= len(clusters) <= size
        best = [fitness[c[0]] for c in clusters]
        assert all(a >= b for a, b in zip(best, best[1:]))


def test_force_accept_consumes_zero_evaluations():
    """A selection whose better half is one duplicated point and whose
    worse half trails away in sub-edge-length steps clusters entirely
    without touching the evaluator (proved with a zero-budget one)."""
    d = 2
    bounds = Bounds(np.zeros(d), np.ones(d))
    n = 12
    eel = expected_edge_length(n, bounds)
    xs = [np.full(d, 0.5)] * (n // 2)
    while len(xs) < n:
        step = np.full(d, 0.4 * eel / math.sqrt(d))
        xs.append(np.clip(xs[-1] + step, 0.0, 1.0))
    fitness = np.arange(n, 0, -1, dtype=float)
    ev = Evaluator(lambda a: np.zeros(len(a)), bounds, 0)
    clusters = hill_valley_clustering(np.array(xs), ev, bounds, fitness)
    assert ev.evals_used == 0
    assert len(clusters) == 1
    assert len(clusters[0]) == n


def test_force_accept_joins_the_nearest_better_cluster():
    """A worse-half point lands in the cluster of its nearest better
    solution untested; six selection points keep the edge length (1/6)
    below the 0.2 peak spacing so only the straggler merges cheaply."""
    fn, bounds = EQUAL_MAXIMA
    peaks = np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])
    straggler = np.array([[0.72]])  # within one edge length of 0.7
    points, fitness = sorted_selection(fn, np.vstack([peaks, straggler]))
    ev = Evaluator(fn, bounds, BIG)
    clusters = hill_valley_clustering(points, ev, bounds, fitness)
    assert len(clusters) == 5
    straggler_cluster = next(
        c for c in clusters
        if any(float(points[m, 0]) == 0.72 for m in c))
    assert any(float(points[m, 0]) == 0.7 for m in straggler_cluster)


def test_budget_exhaustion_leaves_singletons():
    fn, bounds = EQUAL_MAXIMA
    # Five well-separated peaks force real valley tests; after two
    # evaluations the budget dies and the tail becomes singletons.
    peaks = np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])
    points, fitness = sorted_selection(fn, peaks)
    ev = Evaluator(fn, bounds, 2)
    clusters = hill_valley_clustering(points, ev, bounds, fitness)
    assert ev.evals_used == 2
    # Still a partition of all five.
    seen = [m for c in clusters for m in c]
    assert sorted(seen) == list(range(5))
    assert len(clusters) == 5  # nothing merged on partial evidence


# --- nearest-first walk equivalence ----------------------------------------
# The shipping implementation starts each walk from a few KD-tree
# neighbours and falls back to a sort of the whole prefix. This
# straightforward quadratic reference encodes the intended semantics
# directly; both must produce identical partitions AND identical
# evaluation streams.


def reference_clustering(points, fitness, ev, bounds):
    """Plain restatement of the clustering contract; returns the cluster
    index per selection position."""
    s_count = len(points)
    eel = expected_edge_length(s_count, bounds)
    worse_half_start = -(-s_count // 2)
    max_candidates = bounds.d + 1
    assigned = [-1] * s_count
    assigned[0] = 0
    n_clusters = 1
    exhausted = False
    for i in range(1, s_count):
        target = -1
        if not exhausted:
            d2 = [float(((points[j] - points[i]) ** 2).sum())
                  for j in range(i)]
            seen = set()
            try:
                for j in sorted(range(i), key=lambda j: (d2[j], j)):
                    c = assigned[j]
                    if c in seen:
                        continue
                    seen.add(c)
                    n_t = n_test_points(math.sqrt(d2[j]), eel)
                    if i >= worse_half_start and n_t == 1:
                        target = c
                        break
                    if hill_valley_test(ev, points[i], fitness[i],
                                        points[j], fitness[j], n_t):
                        target = c
                        break
                    if len(seen) == max_candidates:
                        break
            except BudgetExhaustedError:
                exhausted = True
                target = -1
        if target < 0:
            target = n_clusters
            n_clusters += 1
        assigned[i] = target
    return assigned


def cluster_assignment(clusters, s_count):
    assigned = [-1] * s_count
    for ci, cluster in enumerate(clusters):
        for member in cluster:
            assigned[member] = ci
    return assigned


def rugged_fn(freq: float):
    def fn(xs: np.ndarray) -> np.ndarray:
        return (np.sin(freq * xs).sum(axis=1)
                + 0.3 * np.cos(3.1 * freq * xs).sum(axis=1))
    return fn


def assert_routes_agree(fn, bounds, budget, xs):
    points, fitness = sorted_selection(fn, xs)
    rec_new = RecordingObjective(fn)
    rec_ref = RecordingObjective(fn)
    ev_new = Evaluator(rec_new, bounds, budget)
    ev_ref = Evaluator(rec_ref, bounds, budget)

    clusters = hill_valley_clustering(points, ev_new, bounds, fitness)
    got = cluster_assignment(clusters, len(points))
    want = reference_clustering(points, fitness, ev_ref, bounds)

    assert got == want
    assert ev_new.evals_used == ev_ref.evals_used
    np.testing.assert_array_equal(rec_new.stream(), rec_ref.stream())


@pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
def test_clustering_routes_agree_exactly(d):
    """Small selections cover budget exhaustion. Sizes 200 and 500 make
    heads partial so walks fall back to the prefix sort; frequency 30
    makes valley tests fail so walks reach d + 1 clusters; grid points
    put exact distance ties at the head cut; at d = 10 numpy sums the
    squared differences pairwise."""
    rng = np.random.default_rng(1000 + d)
    bounds = Bounds(np.full(d, -3.0), np.full(d, 3.0))
    for size in (1, 2, 3, 10, 33, 64):
        for budget in (0, 3, 25, 10**9):
            freq = float(rng.integers(1, 5))
            xs = rng.uniform(-3.0, 3.0, size=(size, d))
            if size >= 4:
                xs[-1] = xs[0]  # exact duplicate point
            assert_routes_agree(rugged_fn(freq), bounds, budget, xs)
    for size in (200, 500):
        uniform = rng.uniform(-3.0, 3.0, size=(size, d))
        grid = rng.integers(-6, 7, size=(size, d)) * 0.5
        for xs in (uniform, grid):
            for freq in (2.0, 30.0):
                assert_routes_agree(rugged_fn(freq), bounds, BIG, xs)
