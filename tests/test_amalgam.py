"""Core local search: univariate-Gaussian estimation-of-distribution
steps with adaptive variance scaling and anticipated mean shift."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest

import hillvallea.amalgam as amalgam
from hillvallea.amalgam import (AMS_FRACTION, C_MULT_MAX, C_MULT_MIN,
                                DELTA_AMS, ETA_DEC, ETA_INC, FITNESS_TOL,
                                INIT_STDDEV_FLOOR, MATERIAL_GAIN_REL,
                                PARAM_TOL, SDR_THRESHOLD, SELECTION_FRACTION,
                                STAGNATION_GRACE, STEP_STDDEV_FLOOR,
                                core_search_step, empty_core_search,
                                guideline_pop_size, init_core_search,
                                join_core_searches, nis_limit)
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
    stack = init_core_search(member.x[None, :], member, 10, bounds)
    assert stack.size == 1
    np.testing.assert_array_equal(stack.mean, [[7.0]])
    np.testing.assert_array_equal(stack.prev_mean, [[7.0]])
    np.testing.assert_allclose(stack.stddev, [[1e-4 * 100.0]])
    np.testing.assert_array_equal(stack.c_mult, [1.0])
    np.testing.assert_array_equal(stack.nis, [0])
    np.testing.assert_array_equal(stack.best_x, [member.x])
    np.testing.assert_array_equal(stack.best_f, [member.f])
    np.testing.assert_array_equal(stack.best_index, [member.eval_index])
    assert stack.generation == 0 and stack.stopped == ()


def test_init_two_member_cluster_mean_and_sample_stddev():
    bounds = Bounds(np.array([-50.0]), np.array([50.0]))
    best = Solution(np.array([2.0]), -1.0, 2)
    stack = init_core_search(np.array([[2.0], [0.0]]), best, 10, bounds)
    np.testing.assert_allclose(stack.mean, [[1.0]], atol=1e-15)
    np.testing.assert_allclose(stack.stddev, [[math.sqrt(2.0)]], atol=1e-15)
    np.testing.assert_array_equal(stack.best_x, [[2.0]])
    assert stack.best_f[0] == -1.0 and stack.best_index[0] == 2


def assert_one_row_per_search(stack):
    for field in dataclasses.fields(stack):
        value = getattr(stack, field.name)
        if isinstance(value, np.ndarray):
            assert len(value) == stack.size, field.name


def test_join_keeps_the_searches_in_order_and_sums_their_generations():
    stacks = [init_core_search(np.array([[x]]), Solution(np.array([x]),
                                                         -x * x, i), 10, WIDE)
              for i, x in enumerate([1.0, 2.0, 3.0])]
    # The middle search's samples all land on its mean, a flat
    # selection that stops it at its first step.
    stacks[1] = dataclasses.replace(stacks[1], generation=4,
                                    stddev=np.array([[1e-300]]))
    joined = join_core_searches(stacks)
    assert joined.size == 3 and joined.generation == 4
    assert_one_row_per_search(joined)
    np.testing.assert_array_equal(joined.mean, [[1.0], [2.0], [3.0]])
    np.testing.assert_array_equal(joined.best_index, [0, 1, 2])
    assert joined.pop_size == 10 and joined.bounds is WIDE

    ev = Evaluator(quadratic_bowl([0.0]), WIDE, BIG)
    stepped = core_search_step(joined, ev, np.random.default_rng(0))
    assert stepped.size == 2 and stepped.generation == 7
    assert_one_row_per_search(stepped)
    np.testing.assert_array_equal(stepped.prev_mean, [[1.0], [3.0]])
    (middle,) = stepped.stopped
    assert middle.x[0] == 2.0 and middle.eval_index == 1


def test_a_search_joined_to_an_empty_stack_is_unchanged():
    member = Solution(np.array([2.0]), -1.0, 2)
    alone = init_core_search(np.array([[2.0], [0.0]]), member, 10, WIDE)
    empty = empty_core_search(10, WIDE)
    assert empty.size == 0 and empty.generation == 0
    joined = join_core_searches([empty, alone])
    for field in dataclasses.fields(alone):
        a, b = getattr(alone, field.name), getattr(joined, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


# --- stepping ---------------------------------------------------------------


def test_step_consumes_exactly_pop_size_and_never_loses_the_best():
    ev = Evaluator(OFFSET_BOWL, WIDE, BIG)
    stack = init_core_search(*unit_spread_cluster(), 10, WIDE)
    rng = np.random.default_rng(0)
    best_f = stack.best_f[0]
    for step in range(1, 51):
        stack = core_search_step(stack, ev, rng)
        assert ev.evals_used == 10 * step
        assert stack.generation == step
        if not stack.size:
            break
        assert stack.best_f[0] >= best_f
        best_f = stack.best_f[0]
        # Spread never collapses to zero.
        assert np.all(stack.stddev >= 1e-12 * 100.0)
        assert 1e-10 <= stack.c_mult[0] <= 1e3
    assert step > 10
    (best,) = stack.stopped
    assert best.f >= best_f


def test_step_is_deterministic():
    def one(seed):
        ev = Evaluator(OFFSET_BOWL, WIDE, BIG)
        stack = init_core_search(*unit_spread_cluster(), 10, WIDE)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            stack = core_search_step(stack, ev, rng)
        return stack

    a, b = one(42), one(42)
    for name in ("mean", "stddev", "prev_mean", "c_mult", "nis", "best_x",
                 "best_f", "best_index"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_step_without_budget_terminates_without_consuming():
    ev = Evaluator(OFFSET_BOWL, WIDE, 7)   # fewer than one population
    stack = init_core_search(*unit_spread_cluster(), 10, WIDE)
    stepped = core_search_step(stack, ev, np.random.default_rng(0))
    assert stepped.size == 0 and stepped.generation == 0
    assert ev.evals_used == 0
    (best,) = stepped.stopped
    np.testing.assert_array_equal(best.x, stack.best_x[0])
    assert (best.f, best.eval_index) == (stack.best_f[0],
                                         stack.best_index[0])
    assert stack.size == 1   # the stack stepped is left as it was


def test_a_short_budget_admits_searches_in_stack_order():
    """Budget for two populations out of three: the first two searches
    of the stack step, each on its own block of the batch, and the
    third stops unsampled; the next step can afford none."""
    rec = RecordingObjective(OFFSET_BOWL)
    ev = Evaluator(rec, WIDE, 25)
    starts = [-20.0, 0.0, 20.0]
    stack = join_core_searches([
        init_core_search(np.array([[x]]), Solution(np.array([x]), -1e9, i),
                         10, WIDE) for i, x in enumerate(starts)])
    rng = np.random.default_rng(1)
    stepped = core_search_step(stack, ev, rng)
    assert ev.evals_used == 20 and stepped.generation == 2
    rows = rec.stream()[:, 0]
    # the floored spread keeps each block within 0.1 of its own mean
    np.testing.assert_allclose(rows[:10], starts[0], atol=0.1)
    np.testing.assert_allclose(rows[10:], starts[1], atol=0.1)
    (third,) = stepped.stopped
    assert third.x[0] == starts[2] and third.eval_index == 2
    assert stepped.size == 2
    last = core_search_step(stepped, ev, rng)
    assert ev.evals_used == 20 and last.size == 0
    assert [b.x[0] for b in last.stopped] == list(stepped.best_x[:, 0])


def test_samples_stay_inside_bounds():
    """A mean parked on the boundary with a huge spread still only
    evaluates in-bounds points (clamping, not resampling), each axis
    within its own box."""
    for bounds in (Bounds(np.array([-1.0]), np.array([1.0])),
                   Bounds(np.array([-1.0, 0.0, 10.0]),
                          np.array([1.0, 5.0, 12.0]))):
        fn_box = []

        def spy(xs):
            fn_box.append(xs.copy())
            return -np.abs(xs).sum(axis=1)

        member = Solution(bounds.upper.copy(), -np.abs(bounds.upper).sum(), 1)
        stack = init_core_search(member.x[None, :], member, 16, bounds)
        stack = dataclasses.replace(stack,
                                    stddev=np.full((1, bounds.d), 100.0))
        core_search_step(stack, Evaluator(spy, bounds, BIG),
                         np.random.default_rng(3))
        sampled = np.vstack(fn_box)
        assert np.all(sampled >= bounds.lower)
        assert np.all(sampled <= bounds.upper)
        # The huge spread really did press against both walls of every
        # axis.
        np.testing.assert_array_equal(sampled.min(axis=0), bounds.lower)
        np.testing.assert_array_equal(sampled.max(axis=0), bounds.upper)


@dataclass
class ReferenceState:
    """One search as the step was first written for it."""
    mean: np.ndarray
    stddev: np.ndarray
    c_mult: float
    pop_size: int
    nis: int
    best: Solution
    prev_mean: np.ndarray
    generation: int
    bounds: Bounds
    terminated: bool = False


def reference_core_search_step(state, ev, rng):
    """The step as first written: a fresh state from
    dataclasses.replace, the elite appended with vstack and append, and
    ndarray.mean and ndarray.std on the selected rows. A stack of one
    search must step as this does, bit for bit."""
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


def assert_row_steps_as(stack, i, ref):
    """Row i of `stack` holds the lone search `ref`."""
    for name in ("mean", "stddev", "prev_mean"):
        np.testing.assert_array_equal(getattr(stack, name)[i],
                                      getattr(ref, name))
    np.testing.assert_array_equal(stack.best_x[i], ref.best.x)
    assert stack.c_mult[i] == ref.c_mult
    assert stack.nis[i] == ref.nis
    assert stack.best_f[i] == ref.best.f


@pytest.mark.parametrize("d,pop_size,start,spread", [
    (1, 10, 0.7, 1.0),
    (1, 30, 0.7, 1.0),      # an 11-row selection
    (3, 18, 0.7, 1.0),
    (5, 23, 0.7, 1.0),
    (2, 2, 0.0, 1.0),       # a one-row selection, led by the elite
    (3, 18, -5.0, 50.0),    # mean on the lower bound: clamping fires
])
def test_step_matches_reference_bit_for_bit(d, pop_size, start, spread):
    bounds = Bounds(np.full(d, -5.0), np.full(d, 5.0))

    def side():
        recorder = RecordingObjective(wavy)
        return (Evaluator(recorder, bounds, BIG), recorder,
                np.random.default_rng(d * 100 + pop_size))

    mean = np.full(d, start)
    best = Solution(mean.copy(), float(wavy(mean[None, :])[0]), 0)
    fast = dataclasses.replace(
        init_core_search(mean[None, :], best, pop_size, bounds),
        stddev=np.full((1, d), spread))
    ref = ReferenceState(mean=mean, stddev=np.full(d, spread), c_mult=1.0,
                         pop_size=pop_size, nis=0, best=best,
                         prev_mean=mean.copy(), generation=0, bounds=bounds)
    fast_ev, fast_rec, fast_rng = side()
    ref_ev, ref_rec, ref_rng = side()
    n_sel = max(1, math.ceil(SELECTION_FRACTION * pop_size))
    elite_selected = 0
    for _ in range(200):
        best_f = ref.best.f
        fast = core_search_step(fast, fast_ev, fast_rng)
        ref = reference_core_search_step(ref, ref_ev, ref_rng)
        fs = wavy(np.array(ref_rec.rows[-pop_size:]))
        elite_selected += int(np.count_nonzero(fs >= best_f) < n_sel)
        assert fast.generation == ref.generation
        if ref.terminated:
            assert fast.size == 0
            (stopped,) = fast.stopped
            np.testing.assert_array_equal(stopped.x, ref.best.x)
            assert stopped.f == ref.best.f
            assert stopped.eval_index == ref.best.eval_index
            break
        assert fast.size == 1 and fast.stopped == ()
        assert_row_steps_as(fast, 0, ref)
        assert fast.best_index[0] == ref.best.eval_index
    np.testing.assert_array_equal(fast_rec.stream(), ref_rec.stream())
    assert elite_selected > 0
    if start == -5.0:
        assert np.count_nonzero(ref_rec.stream() == -5.0) > 0
        assert np.count_nonzero(ref_rec.stream() == 5.0) > 0


class ReplayRng:
    """Hands out given blocks of normal draws in turn."""

    def __init__(self):
        self.blocks = []

    def standard_normal(self, shape):
        block = self.blocks.pop(0)
        assert block.shape == shape
        return block.copy()


class RecordingRng:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def standard_normal(self, shape):
        z = self.rng.standard_normal(shape)
        self.draws.append(z.copy())
        return z


@pytest.mark.parametrize("d,pop_size", [(1, 30), (2, 13), (3, 18)])
def test_stack_steps_each_search_as_it_would_step_alone(d, pop_size):
    """Searches stepped together take the steps each takes alone on its
    own rows of the same normal draws, down to the stop of each, and
    each best's evaluation index is its row of the shared batch."""
    bounds = Bounds(np.full(d, -5.0), np.full(d, 5.0))
    starts = [(-3.0, 1.0), (-1.0, 0.05), (0.7, 2.0), (2.5, 0.3),
              (4.0, 0.01)]

    def start(x, spread):
        mean = np.full(d, x)
        best = Solution(mean.copy(), float(wavy(mean[None, :])[0]), 0)
        return dataclasses.replace(
            init_core_search(mean[None, :], best, pop_size, bounds),
            stddev=np.full((1, d), spread))

    rec = RecordingObjective(wavy)
    ev, rng = Evaluator(rec, bounds, BIG), RecordingRng(7)
    stack = join_core_searches([start(*s) for s in starts])
    alone = [start(*s) for s in starts]
    lone_ev = [Evaluator(wavy, bounds, BIG) for _ in starts]
    replay = ReplayRng()
    stop_generations = set()
    for generation in range(1, 400):
        if not alone:
            break
        stack = core_search_step(stack, ev, rng)
        z = rng.draws[-1]
        assert z.shape == (len(alone), pop_size, d)
        stepped, stopped = [], []
        for i, lone in enumerate(alone):
            replay.blocks.append(z[i:i + 1])
            lone = core_search_step(lone, lone_ev[i], replay)
            (stepped if lone.size else stopped).append((i, lone))
        assert [s.x.tolist() for s in stack.stopped] == [
            lone.stopped[0].x.tolist() for _, lone in stopped]
        assert [s.f for s in stack.stopped] == [
            lone.stopped[0].f for _, lone in stopped]
        if stopped:
            stop_generations.add(generation)
        alone = [lone for _, lone in stepped]
        assert stack.size == len(alone)
        for row, lone in enumerate(alone):
            for name in ("mean", "stddev", "prev_mean", "c_mult", "nis",
                         "best_x", "best_f"):
                np.testing.assert_array_equal(getattr(stack, name)[row],
                                              getattr(lone, name)[0])
        for best_x, index in zip(stack.best_x, stack.best_index):
            if index > 0:
                np.testing.assert_array_equal(rec.rows[index - 1], best_x)
    assert not alone
    assert len(stop_generations) >= 2


# --- termination ------------------------------------------------------------
# Each test takes one step from a hand-made state into one stop rule.


def stalled_at_peak(stddev: float, nis: int = 0, c_mult: float = 1.0):
    """A search on OFFSET_BOWL centred on its peak x = 3 whose tracked
    best scores 1, above every sample: no step improves on it, and the
    selection always spans at least the gap below it."""
    best = Solution(np.array([3.0]), 1.0, 0)
    stack = init_core_search(best.x[None, :], best, 10, WIDE)
    return dataclasses.replace(stack, stddev=np.array([[stddev]]),
                               nis=np.array([nis]),
                               c_mult=np.array([c_mult]))


def test_fresh_wide_state_not_terminated():
    """A fresh wide search steps on while a population's evaluations
    remain; the step after that finds the budget short and stops it
    without sampling."""
    ev = Evaluator(OFFSET_BOWL, WIDE, 10)
    stack = init_core_search(*unit_spread_cluster(), 10, WIDE)
    stack = dataclasses.replace(stack, stddev=np.array([[10.0]]))  # 10%
    stack = core_search_step(stack, ev, np.random.default_rng(0))
    assert stack.size == 1
    assert ev.evals_used == 10
    stepped = core_search_step(stack, ev, np.random.default_rng(0))
    assert stepped.size == 0
    assert ev.evals_used == 10
    assert stepped.generation == stack.generation


def test_terminates_on_parameter_collapse():
    """A model at the step floor whose multiplier shrinks below one
    collapses under PARAM_TOL; the same model at multiplier one does
    not."""
    rng = np.random.default_rng(0)
    floor = STEP_STDDEV_FLOOR * WIDE.range[0]
    ev = Evaluator(OFFSET_BOWL, WIDE, BIG)
    kept = core_search_step(stalled_at_peak(floor), ev, rng)
    assert kept.size == 1
    # one more stagnant generation stays within nis_limit, and the
    # multiplier 1e-3 shrinks by ETA_DEC, far below PARAM_TOL / floor
    assert STAGNATION_GRACE + 1 <= nis_limit(WIDE.d)
    assert 1e-3 * ETA_DEC * floor < PARAM_TOL * WIDE.range[0]
    shrunk = core_search_step(
        stalled_at_peak(floor, nis=STAGNATION_GRACE, c_mult=1e-3), ev, rng)
    assert shrunk.size == 0 and len(shrunk.stopped) == 1


def test_terminates_on_long_no_improvement_stretch():
    rng = np.random.default_rng(0)
    ev = Evaluator(OFFSET_BOWL, WIDE, BIG)
    limit = nis_limit(WIDE.d)
    at_limit = core_search_step(stalled_at_peak(10.0, nis=limit - 1), ev, rng)
    assert at_limit.size == 1 and at_limit.nis[0] == limit
    past = core_search_step(stalled_at_peak(10.0, nis=limit), ev, rng)
    assert past.size == 0 and len(past.stopped) == 1


def test_terminates_on_flat_selection_and_on_flag():
    """A constant objective gives a selection without fitness spread,
    which stops the search on the first step."""
    ev = Evaluator(lambda xs: np.zeros(len(xs)), WIDE, BIG)
    best = Solution(np.array([0.0]), 0.0, 0)
    stack = init_core_search(best.x[None, :], best, 10, WIDE)
    stack = dataclasses.replace(stack, stddev=np.array([[10.0]]))
    stepped = core_search_step(stack, ev, np.random.default_rng(0))
    assert stepped.size == 0 and len(stepped.stopped) == 1
    assert ev.evals_used == 10


# --- convergence smoke ------------------------------------------------------


def test_converges_to_the_offset_peak_in_nearly_all_runs():
    """On f(x) = -(x-3)^2 from mean 0 and unit spread, the search gets
    within 1e-5 of the peak inside 5000 evaluations in at least 95 of
    100 seeded runs."""
    hits = 0
    for seed in range(100):
        ev = Evaluator(OFFSET_BOWL, WIDE, 5000)
        stack = init_core_search(*unit_spread_cluster(), 10, WIDE)
        rng = np.random.default_rng(seed)
        while stack.size:
            stack = core_search_step(stack, ev, rng)
        (best,) = stack.stopped
        if abs(float(best.x[0]) - 3.0) < 1e-5:
            hits += 1
    assert hits >= 95
