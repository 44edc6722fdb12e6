"""Per-cluster core search: univariate-Gaussian estimation of
distribution with adaptive variance scaling.

Each generation samples a diagonal Gaussian, clamps to bounds, shifts a
slice of the samples along the recent mean displacement (anticipated
mean shift), evaluates, and re-estimates the distribution from the
fittest fraction. The distribution multiplier grows when improvements
land more than one estimated standard deviation from the mean and never
drops below one while improvements keep arriving. While the model stays
wider than the initialization floor, stagnation leaves its scale alone
(a wide model may still be straddling several peaks); once narrower,
every stagnant generation shrinks it, driving collapse and termination.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bounds import Bounds
from .problems.evaluator import Evaluator, Solution


SELECTION_FRACTION = 0.35
ETA_DEC = 0.9
ETA_INC = 1.0 / ETA_DEC
DELTA_AMS = 2.0
# Half of the eventual selection receives the anticipated shift.
AMS_FRACTION = 0.5 * SELECTION_FRACTION
SDR_THRESHOLD = 1.0
C_MULT_MIN = 1e-10
C_MULT_MAX = 1e3
INIT_STDDEV_FLOOR = 1e-4    # fraction of bound range
STEP_STDDEV_FLOOR = 1e-12   # fraction of bound range
FITNESS_TOL = 1e-12
PARAM_TOL = 1e-12
# Smallest relative fitness gain that counts as progress for the
# stagnation counter and the scaling trigger. Best-so-far tracking
# still records every gain; this only stops sub-resolution gains
# from keeping a converged search alive.
MATERIAL_GAIN_REL = 1e-9
# Stagnant generations tolerated at nominal scale once the model has
# contracted below the initialization floor. Short unlucky streaks
# during terminal polish cost nothing; sustained stagnation there
# shrinks the model and frees the remaining budget.
STAGNATION_GRACE = 5


def nis_limit(d: int) -> int:
    """No-improvement generations tolerated before termination."""
    return 25 + d


@dataclass(eq=False)
class CoreSearchState:
    mean: np.ndarray
    stddev: np.ndarray
    c_mult: float
    pop_size: int
    nis: int
    best: Solution
    prev_mean: np.ndarray
    generation: int
    bounds: Bounds
    # INIT_STDDEV_FLOOR, STEP_STDDEV_FLOOR and PARAM_TOL times the
    # bounds' range, worked out once per search
    floors: tuple[np.ndarray, np.ndarray, np.ndarray]
    terminated: bool = False


def guideline_pop_size(d: int) -> int:
    return int(np.ceil(10.0 * np.sqrt(d)))


def init_core_search(members: np.ndarray, best: Solution, pop_size: int,
                     bounds: Bounds) -> CoreSearchState:
    """Start a search at a cluster, given as its members' rows and its
    fittest member as the tracked best: the rows' mean, their sample
    standard deviation floored at a fraction of the domain range, far
    above PARAM_TOL. A fresh search is never terminated."""
    mean = members.mean(axis=0)
    if len(members) > 1:
        stddev = members.std(axis=0, ddof=1)
    else:
        stddev = np.zeros(bounds.d)
    floors = (INIT_STDDEV_FLOOR * bounds.range,
              STEP_STDDEV_FLOOR * bounds.range, PARAM_TOL * bounds.range)
    stddev = np.maximum(stddev, floors[0])
    return CoreSearchState(
        mean=mean, stddev=stddev, c_mult=1.0, pop_size=pop_size, nis=0,
        best=best, prev_mean=mean.copy(), generation=0,
        bounds=bounds, floors=floors,
    )


def core_search_step(state: CoreSearchState, ev: Evaluator,
                     rng: np.random.Generator) -> CoreSearchState:
    """One generation; returns the next state and leaves `state` as it
    was. The search ends (`terminated`) on a budget short of one
    population, which samples nothing, on more than nis_limit(d)
    stagnant generations, on a collapsed model or on a flat selection."""
    pop = state.pop_size
    bounds = state.bounds
    best_f = state.best.f
    if ev.remaining < pop:
        return dataclasses.replace(state, terminated=True)

    # The tracked best joins the candidate set as row `pop` (elitism of
    # one), so the model stays anchored to the basin it has already
    # reached even when a generation of fresh samples scatters. Stable
    # sort puts fresh samples ahead of the elite on fitness ties.
    cand_x = np.empty((pop + 1, bounds.d))
    xs = cand_x[:pop]
    rng.standard_normal(out=xs)
    scale = state.c_mult * state.stddev
    xs *= scale
    xs += state.mean
    n_ams = int(AMS_FRACTION * pop)
    if state.generation > 0 and n_ams > 0:
        xs[:n_ams] += DELTA_AMS * state.c_mult * (state.mean - state.prev_mean)
    np.maximum(xs, bounds.lower, out=xs)
    np.minimum(xs, bounds.upper, out=xs)
    cand_x[pop] = state.best.x

    base_index = ev.evals_used
    fs = ev.evaluate_batch(xs)
    cand_f = np.empty(pop + 1)
    cand_f[:pop] = fs
    cand_f[pop] = best_f

    n_sel = max(1, math.ceil(SELECTION_FRACTION * pop))
    sel = (-cand_f).argsort(kind="stable")[:n_sel]
    sel_f = cand_f[sel]
    spread = float(sel_f[0] - sel_f[-1])
    selected = cand_x[sel]

    gen_best = int(fs.argmax())
    gen_best_f = float(fs[gen_best])
    if gen_best_f > best_f:
        best = Solution(xs[gen_best].copy(), gen_best_f,
                        base_index + gen_best + 1)
    else:
        best = state.best

    gain_floor = MATERIAL_GAIN_REL * max(1.0, abs(best_f))
    if gen_best_f > best_f + gain_floor:
        # the selection is sorted fittest first, so the rows that beat
        # the tracked best lead it
        improved = selected[:np.count_nonzero(sel_f > best_f)]
        avg_improvement = np.add.reduce(improved, axis=0) / len(improved)
        # Improvement displacement measured in unmultiplied standard
        # deviations: an inflated model still registers far-flung
        # improvements as "beyond one deviation" and keeps growing.
        sdr = float(np.maximum.reduce(
            np.abs((avg_improvement - state.mean) / state.stddev)))
        c_mult = max(state.c_mult, 1.0)
        if sdr > SDR_THRESHOLD:
            c_mult *= ETA_INC
        nis = 0
    else:
        nis = state.nis + 1
        c_mult = state.c_mult
        # A model still wider than the initialization floor may be
        # straddling several peaks, so stagnation leaves its nominal
        # scale alone; once narrower than any freshly initialized model
        # it is in terminal polish, where only a short streak is
        # tolerated before every stagnant generation shrinks it.
        wide = np.count_nonzero(scale >= state.floors[0]) > 0
        hold = wide or nis <= STAGNATION_GRACE
        if c_mult > 1.0 or not hold:
            c_mult *= ETA_DEC
        if hold and c_mult < 1.0:
            c_mult = 1.0
    c_mult = min(max(c_mult, C_MULT_MIN), C_MULT_MAX)

    # ndarray.mean and ndarray.std(ddof=1) spelled out as the ufunc
    # calls they make, sharing the mean: same operations, same bits.
    new_mean = np.add.reduce(selected, axis=0)
    new_mean /= n_sel
    if n_sel > 1:
        np.subtract(selected, new_mean, out=selected)
        np.square(selected, out=selected)
        new_stddev = np.add.reduce(selected, axis=0)
        new_stddev /= n_sel - 1
        np.sqrt(new_stddev, out=new_stddev)
    else:
        new_stddev = np.zeros(bounds.d)
    np.maximum(new_stddev, state.floors[1], out=new_stddev)

    collapsed = np.count_nonzero(c_mult * new_stddev < state.floors[2])
    terminated = (nis > nis_limit(bounds.d) or collapsed == bounds.d
                  or spread < FITNESS_TOL)
    return CoreSearchState(new_mean, new_stddev, c_mult, pop, nis, best,
                           state.mean, state.generation + 1, bounds,
                           state.floors, terminated)
