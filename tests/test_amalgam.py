"""Core local search: univariate-Gaussian estimation-of-distribution
steps with adaptive variance scaling and anticipated mean shift."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import hillvallea.amalgam as amalgam
from hillvallea.amalgam import (AMS_FRACTION, C_MULT_MAX, C_MULT_MIN,
                                DELTA_AMS, ETA_DEC, ETA_INC, FITNESS_TOL,
                                INIT_STDDEV_FLOOR, MATERIAL_GAIN_REL,
                                PARAM_TOL, SDR_THRESHOLD, SELECTION_FRACTION,
                                STAGNATION_GRACE, STEP_STDDEV_FLOOR,
                                CoreSearchState, core_search_step,
                                guideline_pop_size, init_core_search,
                                nis_limit)
from hillvallea.bounds import Bounds
from hillvallea.problems.evaluator import Evaluator, Solution

from conftest import BIG, RecordingObjective, quadratic_bowl

# f(x) = -(x - 3)^2 on a wide interval
OFFSET_BOWL = quadratic_bowl([3.0])
WIDE = Bounds(np.array([-50.0]), np.array([50.0]))


def unit_spread_cluster() -> tuple[np.ndarray, Solution]:
    """Two members straddling 0 whose sample standard deviation is 1,
    and the fitter of them as the tracked best."""
    a = 1.0 / math.sqrt(2.0)
    return (np.array([[a], [-a]]),
            Solution(np.array([a]), -(a - 3.0) ** 2, 2))


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
    state = init_core_search(member.x[None, :], member, 10, bounds)
    np.testing.assert_array_equal(state.mean, np.array([7.0]))
    np.testing.assert_allclose(state.stddev, 1e-4 * 100.0)
    assert state.c_mult == 1.0
    assert state.nis == 0
    assert state.best is member
    assert state.generation == 0


def test_init_two_member_cluster_mean_and_sample_stddev():
    bounds = Bounds(np.array([-50.0]), np.array([50.0]))
    best = Solution(np.array([2.0]), -1.0, 2)
    state = init_core_search(np.array([[2.0], [0.0]]), best, 10, bounds)
    np.testing.assert_allclose(state.mean, np.array([1.0]), atol=1e-15)
    np.testing.assert_allclose(state.stddev, np.array([math.sqrt(2.0)]),
                               atol=1e-15)
    assert state.best is best


# --- stepping ---------------------------------------------------------------


def test_step_consumes_exactly_pop_size_and_never_loses_the_best():
    ev = Evaluator(OFFSET_BOWL, WIDE, BIG)
    state = init_core_search(*unit_spread_cluster(), 10, WIDE)
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
    def one(seed):
        ev = Evaluator(OFFSET_BOWL, WIDE, BIG)
        state = init_core_search(*unit_spread_cluster(), 10, WIDE)
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
    ev = Evaluator(OFFSET_BOWL, WIDE, 7)   # fewer than one population
    state = init_core_search(*unit_spread_cluster(), 10, WIDE)
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

    bounds = Bounds(np.array([-1.0]), np.array([1.0]))
    member = Solution(np.array([1.0]), -1.0, 1)
    state = init_core_search(member.x[None, :], member, 16, bounds)
    state = dataclasses.replace(state, stddev=np.array([100.0]))
    core_search_step(state, Evaluator(spy, bounds, BIG),
                     np.random.default_rng(3))
    sampled = np.vstack(fn_box)
    assert np.all(sampled >= -1.0) and np.all(sampled <= 1.0)
    # The huge spread really did press against both walls.
    assert sampled.min() == -1.0 and sampled.max() == 1.0


def reference_core_search_step(state, ev, rng):
    """The step as first written: a fresh state from
    dataclasses.replace, the elite appended with vstack and append, and
    ndarray.mean and ndarray.std on the selected rows. The package's
    step must reproduce it bit for bit."""
    pop = state.pop_size
    bounds = state.bounds
    if ev.remaining < pop:
        return dataclasses.replace(state, terminated=True)

    scale = state.c_mult * state.stddev
    xs = state.mean + rng.standard_normal((pop, bounds.d)) * scale
    n_ams = int(AMS_FRACTION * pop)
    if state.generation > 0 and n_ams > 0:
        shift = DELTA_AMS * state.c_mult * (state.mean - state.prev_mean)
        xs[:n_ams] += shift
    np.clip(xs, bounds.lower, bounds.upper, out=xs)

    base_index = ev.evals_used
    fs = ev.evaluate_batch(xs)

    cand_x = np.vstack([xs, state.best.x[None, :]])
    cand_f = np.append(fs, state.best.f)

    n_sel = max(1, int(np.ceil(SELECTION_FRACTION * pop)))
    order = np.argsort(-cand_f, kind="stable")
    sel = order[:n_sel]
    spread = float(cand_f[sel[0]] - cand_f[sel[-1]])

    gen_best = int(np.argmax(fs))
    if fs[gen_best] > state.best.f:
        best = Solution(xs[gen_best].copy(), float(fs[gen_best]),
                        base_index + gen_best + 1)
    else:
        best = state.best

    gain_floor = MATERIAL_GAIN_REL * max(1.0, abs(state.best.f))
    if fs[gen_best] > state.best.f + gain_floor:
        improved_sel = sel[cand_f[sel] > state.best.f]
        avg_improvement = cand_x[improved_sel].mean(axis=0)
        sdr = float(np.abs((avg_improvement - state.mean) / state.stddev).max())
        c_mult = max(state.c_mult, 1.0)
        if sdr > SDR_THRESHOLD:
            c_mult *= ETA_INC
        nis = 0
    else:
        nis = state.nis + 1
        c_mult = state.c_mult
        wide = bool(np.any(c_mult * state.stddev
                           >= INIT_STDDEV_FLOOR * bounds.range))
        hold = wide or nis <= STAGNATION_GRACE
        if c_mult > 1.0 or not hold:
            c_mult *= ETA_DEC
        if hold and c_mult < 1.0:
            c_mult = 1.0
    c_mult = float(np.clip(c_mult, C_MULT_MIN, C_MULT_MAX))

    new_mean = cand_x[sel].mean(axis=0)
    if n_sel > 1:
        new_stddev = cand_x[sel].std(axis=0, ddof=1)
    else:
        new_stddev = np.zeros(bounds.d)
    new_stddev = np.maximum(new_stddev, STEP_STDDEV_FLOOR * bounds.range)
    terminated = bool(
        nis > nis_limit(bounds.d)
        or np.all(c_mult * new_stddev < PARAM_TOL * bounds.range)
        or spread < FITNESS_TOL)

    return dataclasses.replace(
        state, mean=new_mean, stddev=new_stddev, c_mult=c_mult, nis=nis,
        best=best, prev_mean=state.mean, generation=state.generation + 1,
        terminated=terminated,
    )


def wavy(xs):
    """Many local peaks on a concave trend, so searches both improve
    and stall and the elite often enters the selection."""
    return (np.cos(3.0 * xs) - 0.1 * xs ** 2).sum(axis=1)


@pytest.mark.parametrize("d,pop_size,start,spread", [
    (1, 10, 0.7, 1.0),
    (3, 18, 0.7, 1.0),
    (5, 23, 0.7, 1.0),
    (2, 2, 0.7, 1.0),       # a one-row selection
    (3, 18, -5.0, 50.0),    # mean on the lower bound: clamping fires
])
def test_step_matches_reference_bit_for_bit(d, pop_size, start, spread):
    def side():
        bounds = Bounds(np.full(d, -5.0), np.full(d, 5.0))
        recorder = RecordingObjective(wavy)
        mean = np.full(d, start)
        best = Solution(mean.copy(), float(wavy(mean[None, :])[0]), 0)
        state = CoreSearchState(
            mean=mean, stddev=np.full(d, spread), c_mult=1.0,
            pop_size=pop_size, nis=0, best=best, prev_mean=mean.copy(),
            generation=0, bounds=bounds,
            floors=init_core_search(best.x[None, :], best, pop_size,
                                    bounds).floors)
        return (state, Evaluator(recorder, bounds, BIG), recorder,
                np.random.default_rng(d * 100 + pop_size))

    fast, fast_ev, fast_rec, fast_rng = side()
    ref, ref_ev, ref_rec, ref_rng = side()
    n_sel = max(1, math.ceil(SELECTION_FRACTION * pop_size))
    elite_selected = 0
    for _ in range(200):
        best_f = ref.best.f
        fast = core_search_step(fast, fast_ev, fast_rng)
        ref = reference_core_search_step(ref, ref_ev, ref_rng)
        fs = wavy(np.array(ref_rec.rows[-pop_size:]))
        elite_selected += int(np.count_nonzero(fs >= best_f) < n_sel)
        for name in ("mean", "stddev", "prev_mean"):
            np.testing.assert_array_equal(getattr(fast, name),
                                          getattr(ref, name))
        np.testing.assert_array_equal(fast.best.x, ref.best.x)
        assert fast.c_mult == ref.c_mult
        assert fast.nis == ref.nis
        assert fast.best.f == ref.best.f
        assert fast.best.eval_index == ref.best.eval_index
        assert fast.terminated == ref.terminated
        assert fast.generation == ref.generation
    np.testing.assert_array_equal(fast_rec.stream(), ref_rec.stream())
    assert elite_selected > 0
    if start == -5.0:
        assert np.count_nonzero(ref_rec.stream() == -5.0) > 0
        assert np.count_nonzero(ref_rec.stream() == 5.0) > 0


# --- termination ------------------------------------------------------------
# Each test takes one step from a hand-made state into one stop rule.


def stalled_at_peak(stddev: float, nis: int = 0,
                    c_mult: float = 1.0) -> CoreSearchState:
    """A search on OFFSET_BOWL centred on its peak x = 3 whose tracked
    best scores 1, above every sample: no step improves on it, and the
    selection always spans at least the gap below it."""
    best = Solution(np.array([3.0]), 1.0, 0)
    state = init_core_search(best.x[None, :], best, 10, WIDE)
    return dataclasses.replace(state, stddev=np.array([stddev]), nis=nis,
                               c_mult=c_mult)


def test_fresh_wide_state_not_terminated():
    """A fresh wide search steps on while a population's evaluations
    remain; the step after that finds the budget short and terminates
    without sampling."""
    ev = Evaluator(OFFSET_BOWL, WIDE, 10)
    state = init_core_search(*unit_spread_cluster(), 10, WIDE)
    state = dataclasses.replace(state, stddev=np.array([10.0]))  # 10% range
    state = core_search_step(state, ev, np.random.default_rng(0))
    assert not state.terminated
    assert ev.evals_used == 10
    stepped = core_search_step(state, ev, np.random.default_rng(0))
    assert stepped.terminated
    assert ev.evals_used == 10
    assert stepped.generation == state.generation


def test_terminates_on_parameter_collapse():
    """A model at the step floor whose multiplier shrinks below one
    collapses under PARAM_TOL; the same model at multiplier one does
    not."""
    rng = np.random.default_rng(0)
    floor = STEP_STDDEV_FLOOR * WIDE.range[0]
    ev = Evaluator(OFFSET_BOWL, WIDE, BIG)
    kept = core_search_step(stalled_at_peak(floor), ev, rng)
    assert not kept.terminated
    shrunk = core_search_step(
        stalled_at_peak(floor, nis=STAGNATION_GRACE, c_mult=1e-3), ev, rng)
    assert shrunk.nis <= nis_limit(WIDE.d)
    assert shrunk.c_mult * shrunk.stddev[0] < PARAM_TOL * WIDE.range[0]
    assert shrunk.terminated


def test_terminates_on_long_no_improvement_stretch():
    rng = np.random.default_rng(0)
    ev = Evaluator(OFFSET_BOWL, WIDE, BIG)
    limit = nis_limit(WIDE.d)
    at_limit = core_search_step(stalled_at_peak(10.0, nis=limit - 1), ev, rng)
    assert at_limit.nis == limit and not at_limit.terminated
    past = core_search_step(stalled_at_peak(10.0, nis=limit), ev, rng)
    assert past.nis == limit + 1 and past.terminated


def test_terminates_on_flat_selection_and_on_flag():
    """A constant objective gives a selection without fitness spread,
    which sets the terminated flag on the first step."""
    ev = Evaluator(lambda xs: np.zeros(len(xs)), WIDE, BIG)
    best = Solution(np.array([0.0]), 0.0, 0)
    state = init_core_search(best.x[None, :], best, 10, WIDE)
    state = dataclasses.replace(state, stddev=np.array([10.0]))
    stepped = core_search_step(state, ev, np.random.default_rng(0))
    assert stepped.nis == 1 and stepped.c_mult == 1.0
    assert stepped.terminated


# --- convergence smoke ------------------------------------------------------


def test_converges_to_the_offset_peak_in_nearly_all_runs():
    """On f(x) = -(x-3)^2 from mean 0 and unit spread, the search gets
    within 1e-5 of the peak inside 5000 evaluations in at least 95 of
    100 seeded runs."""
    hits = 0
    for seed in range(100):
        ev = Evaluator(OFFSET_BOWL, WIDE, 5000)
        state = init_core_search(*unit_spread_cluster(), 10, WIDE)
        rng = np.random.default_rng(seed)
        while not state.terminated:
            state = core_search_step(state, ev, rng)
        if abs(float(state.best.x[0]) - 3.0) < 1e-5:
            hits += 1
    assert hits >= 95
