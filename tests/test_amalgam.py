"""Core local search: univariate-Gaussian estimation-of-distribution
steps with adaptive variance scaling and anticipated mean shift."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import hillvallea.amalgam as amalgam
from hillvallea.amalgam import (core_search_step, core_search_terminated,
                                guideline_pop_size, init_core_search)
from hillvallea.bounds import Bounds
from hillvallea.hillvalley import Cluster
from hillvallea.problems.evaluator import Evaluator, Solution

from conftest import quadratic_bowl, synthetic_problem


def offset_bowl_problem(budget=10**9):
    """f(x) = -(x - 3)^2 on a wide interval."""
    return synthetic_problem(quadratic_bowl([3.0]), [-50.0], [50.0],
                             budget=budget,
                             optima_positions=np.array([[3.0]]),
                             optima_fitness=np.zeros(1))


def unit_spread_cluster() -> Cluster:
    """Two members straddling 0 whose sample standard deviation is 1."""
    a = 1.0 / math.sqrt(2.0)
    members = [Solution(np.array([-a]), -(-a - 3.0) ** 2, 1),
               Solution(np.array([a]), -(a - 3.0) ** 2, 2)]
    best = int(np.argmax([m.f for m in members]))
    return Cluster(members, best)


# --- population sizing ------------------------------------------------------


@pytest.mark.parametrize("d,expected", [(1, 10), (4, 20), (10, 32)])
def test_guideline_pop_size(d, expected):
    assert guideline_pop_size(d) == expected


# --- defaults ---------------------------------------------------------------


def test_default_config_constants():
    assert amalgam.SELECTION_FRACTION == 0.35
    assert amalgam.ETA_DEC == 0.9
    assert amalgam.ETA_INC == 1.0 / 0.9
    assert amalgam.DELTA_AMS == 2.0
    assert amalgam.SDR_THRESHOLD == 1.0
    assert amalgam.C_MULT_MIN == 1e-10
    assert amalgam.C_MULT_MAX == 1e3
    assert amalgam.FITNESS_TOL == 1e-12
    assert amalgam.PARAM_TOL == 1e-12
    assert amalgam.nis_limit(4) == 29
    # Selection size at the contract's reference point.
    assert max(1, int(np.ceil(amalgam.SELECTION_FRACTION * 20))) == 7


# --- initialization ---------------------------------------------------------


def test_init_singleton_cluster_floors_the_spread():
    bounds = Bounds(np.array([-50.0]), np.array([50.0]))
    member = Solution(np.array([7.0]), -16.0, 1)
    state = init_core_search(Cluster([member], 0), 10, bounds)
    np.testing.assert_array_equal(state.mean, np.array([7.0]))
    np.testing.assert_allclose(state.stddev, 1e-4 * 100.0)
    assert state.c_mult == 1.0
    assert state.nis == 0
    assert state.best is member
    assert state.generation == 0


def test_init_two_member_cluster_mean_and_sample_stddev():
    bounds = Bounds(np.array([-50.0]), np.array([50.0]))
    members = [Solution(np.array([0.0]), -9.0, 1),
               Solution(np.array([2.0]), -1.0, 2)]
    state = init_core_search(Cluster(members, 1), 10, bounds)
    np.testing.assert_allclose(state.mean, np.array([1.0]), atol=1e-15)
    np.testing.assert_allclose(state.stddev, np.array([math.sqrt(2.0)]),
                               atol=1e-15)
    assert state.best is members[1]


# --- stepping ---------------------------------------------------------------


def test_step_consumes_exactly_pop_size_and_never_loses_the_best():
    problem = offset_bowl_problem()
    ev = Evaluator(problem)
    state = init_core_search(unit_spread_cluster(), 10, problem.bounds)
    rng = np.random.default_rng(0)
    best_f = state.best.f
    for step in range(1, 51):
        state = core_search_step(state, ev, rng)
        assert ev.evals_used == 10 * step
        assert state.best.f >= best_f
        best_f = state.best.f
        assert state.generation == step
        # Spread never collapses to zero.
        assert np.all(state.stddev >= 1e-12 * 100.0)
        assert 1e-10 <= state.c_mult <= 1e3


def test_step_is_deterministic():
    problem = offset_bowl_problem()

    def one(seed):
        ev = Evaluator(problem)
        state = init_core_search(unit_spread_cluster(), 10, problem.bounds)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            state = core_search_step(state, ev, rng)
        return state

    a, b = one(42), one(42)
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.stddev, b.stddev)
    assert a.c_mult == b.c_mult
    assert a.nis == b.nis
    assert a.best.f == b.best.f
    np.testing.assert_array_equal(a.best.x, b.best.x)


def test_step_without_budget_terminates_without_consuming():
    problem = offset_bowl_problem(budget=7)   # fewer than one population
    ev = Evaluator(problem)
    state = init_core_search(unit_spread_cluster(), 10, problem.bounds)
    stepped = core_search_step(state, ev, np.random.default_rng(0))
    assert stepped.terminated
    assert ev.evals_used == 0
    np.testing.assert_array_equal(stepped.mean, state.mean)


def test_samples_stay_inside_bounds():
    """A mean parked on the boundary with a huge spread still only
    evaluates in-bounds points (clamping, not resampling)."""
    fn_box = []

    def spy(xs):
        fn_box.append(xs.copy())
        return -np.abs(xs).sum(axis=1)

    problem = synthetic_problem(spy, [-1.0], [1.0])
    member = Solution(np.array([1.0]), -1.0, 1)
    state = init_core_search(Cluster([member], 0), 16, problem.bounds)
    state = dataclasses.replace(state, stddev=np.array([100.0]))
    core_search_step(state, Evaluator(problem), np.random.default_rng(3))
    sampled = np.vstack(fn_box)
    assert np.all(sampled >= -1.0) and np.all(sampled <= 1.0)
    # The huge spread really did press against both walls.
    assert sampled.min() == -1.0 and sampled.max() == 1.0


# --- termination ------------------------------------------------------------


def test_fresh_wide_state_not_terminated():
    problem = offset_bowl_problem()
    state = init_core_search(unit_spread_cluster(), 10, problem.bounds)
    state = dataclasses.replace(state, stddev=np.array([10.0]))  # 10% range
    assert core_search_terminated(state) is False


def test_terminates_on_parameter_collapse():
    problem = offset_bowl_problem()
    state = init_core_search(unit_spread_cluster(), 10, problem.bounds)
    state = dataclasses.replace(state, stddev=np.array([1e-13 * 100.0]))
    assert core_search_terminated(state) is True


def test_terminates_on_long_no_improvement_stretch():
    problem = offset_bowl_problem()
    state = init_core_search(unit_spread_cluster(), 10, problem.bounds)
    d = problem.bounds.d
    assert core_search_terminated(
        dataclasses.replace(state, nis=25 + d)) is False
    assert core_search_terminated(
        dataclasses.replace(state, nis=26 + d)) is True


def test_terminates_on_flat_selection_and_on_flag():
    problem = offset_bowl_problem()
    state = init_core_search(unit_spread_cluster(), 10, problem.bounds)
    assert core_search_terminated(
        dataclasses.replace(state, selection_spread=1e-13)) is True
    assert core_search_terminated(
        dataclasses.replace(state, terminated=True)) is True


# --- convergence smoke ------------------------------------------------------


def test_converges_to_the_offset_peak_in_nearly_all_runs():
    """On f(x) = -(x-3)^2 from mean 0 and unit spread, the search gets
    within 1e-5 of the peak inside 5000 evaluations in at least 95 of
    100 seeded runs."""
    hits = 0
    for seed in range(100):
        problem = offset_bowl_problem(budget=5000)
        ev = Evaluator(problem)
        state = init_core_search(unit_spread_cluster(), 10, problem.bounds)
        rng = np.random.default_rng(seed)
        while not core_search_terminated(state):
            state = core_search_step(state, ev, rng)
        if abs(float(state.best.x[0]) - 3.0) < 1e-5:
            hits += 1
    assert hits >= 95
