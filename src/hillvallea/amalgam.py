"""Per-cluster core search: univariate-Gaussian estimation of
distribution with adaptive variance scaling, stepped for many clusters
at once.

Each generation samples a diagonal Gaussian, clamps to bounds, shifts a
slice of the samples along the recent mean displacement (anticipated
mean shift), evaluates, and re-estimates the distribution from the
fittest fraction. The distribution multiplier grows when improvements
land more than one estimated standard deviation from the mean and never
drops below one while improvements keep arriving. While the model stays
wider than the initialization floor, stagnation leaves its scale alone
(a wide model may still be straddling several peaks); once narrower,
every stagnant generation shrinks it, driving collapse and termination.

The searches of one restart share a population size, so their states
stack as arrays with one row per search (`CoreSearchStack`). A step
moves every active search of the stack one generation with one call
per phase and one evaluation batch; a search that stops leaves the
stack and keeps its best for the archive. A search's rows of the
normal draws and of the batch are the ones it would draw and evaluate
alone, so a stack of several searches takes the same steps as each of
its searches stepped by itself on its own rows of the draws.
"""

from __future__ import annotations

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
class CoreSearchStack:
    """The active searches of one population size, one row each in the
    order they joined, and the bests of the searches that stopped in
    the step that made this stack, in that order.

    A fresh search's previous mean is its mean, so its first
    anticipated shift is zero. `generation` counts the generations
    stepped, summed over searches."""
    mean: np.ndarray        # (C, d)
    stddev: np.ndarray      # (C, d)
    prev_mean: np.ndarray   # (C, d)
    c_mult: np.ndarray      # (C,)
    nis: np.ndarray         # (C,) stagnant generations
    best_x: np.ndarray      # (C, d)
    best_f: np.ndarray      # (C,)
    best_index: np.ndarray  # (C,) evaluation index of each best
    pop_size: int
    bounds: Bounds
    generation: int = 0
    stopped: tuple[Solution, ...] = ()

    @property
    def size(self) -> int:
        """Active searches."""
        return len(self.c_mult)


def guideline_pop_size(d: int) -> int:
    return int(np.ceil(10.0 * np.sqrt(d)))


def init_core_search(members: np.ndarray, best: Solution, pop_size: int,
                     bounds: Bounds) -> CoreSearchStack:
    """A stack of one search started at a cluster, given as its
    members' rows and its fittest member as the tracked best: the rows'
    mean, their sample standard deviation floored at a fraction of the
    domain range, far above PARAM_TOL."""
    mean = members.mean(axis=0)
    if len(members) > 1:
        stddev = members.std(axis=0, ddof=1)
    else:
        stddev = np.zeros(bounds.d)
    stddev = np.maximum(stddev, INIT_STDDEV_FLOOR * bounds.range)
    return CoreSearchStack(
        mean=mean[None, :],
        stddev=stddev[None, :], prev_mean=mean[None, :].copy(),
        c_mult=np.ones(1), nis=np.zeros(1, dtype=np.intp),
        best_x=np.array(best.x, dtype=float)[None, :],
        best_f=np.array([best.f]),
        best_index=np.array([best.eval_index], dtype=np.intp),
        pop_size=pop_size, bounds=bounds)


def empty_core_search(pop_size: int, bounds: Bounds) -> CoreSearchStack:
    """A stack with no searches, for searches to join."""
    rows = np.empty((0, bounds.d))
    return CoreSearchStack(
        mean=rows, stddev=rows, prev_mean=rows, c_mult=np.empty(0),
        nis=np.empty(0, dtype=np.intp), best_x=rows, best_f=np.empty(0),
        best_index=np.empty(0, dtype=np.intp), pop_size=pop_size,
        bounds=bounds)


def join_core_searches(stacks: list[CoreSearchStack]) -> CoreSearchStack:
    """One stack holding the active searches of all of `stacks`, which
    share a population size and bounds, in their order."""
    rows = {name: np.concatenate([getattr(s, name) for s in stacks])
            for name in ("mean", "stddev", "prev_mean", "c_mult", "nis",
                         "best_x", "best_f", "best_index")}
    return CoreSearchStack(
        **rows, pop_size=stacks[0].pop_size, bounds=stacks[0].bounds,
        generation=sum(s.generation for s in stacks))


def core_search_step(stack: CoreSearchStack, ev: Evaluator,
                     rng: np.random.Generator) -> CoreSearchStack:
    """One generation of the stack's active searches; returns the next
    stack and leaves `stack` as it was.

    The searches are admitted in stack order while a whole population
    of each still fits in the budget; the rest stop without sampling.
    The admitted ones draw `standard_normal((k, pop, d))`, one (pop, d)
    block each, and are evaluated in one batch in that order. A search
    stops on more than nis_limit(d) stagnant generations, on a
    collapsed model or on a flat selection."""
    pop = stack.pop_size
    bounds = stack.bounds
    d = bounds.d
    k = min(stack.size, ev.remaining // pop)
    mean = stack.mean[:k]
    stddev = stack.stddev[:k]
    c_mult = stack.c_mult[:k]
    best_x = stack.best_x[:k]
    best_f = stack.best_f[:k]
    rows = np.arange(k)

    xs = rng.standard_normal((k, pop, d))
    scale = c_mult[:, None] * stddev
    xs *= scale[:, None, :]
    xs += mean[:, None, :]
    n_ams = int(AMS_FRACTION * pop)
    shift = (DELTA_AMS * c_mult)[:, None] * (mean - stack.prev_mean[:k])
    xs[:, :n_ams] += shift[:, None, :]
    flat = xs.reshape(k * pop, d)
    np.maximum(flat, bounds.lower, out=flat)
    np.minimum(flat, bounds.upper, out=flat)

    base_index = ev.evals_used
    fs = ev.evaluate_batch(flat)

    # The tracked best joins each search's candidates as column `pop`
    # (elitism of one), so the model stays anchored to the basin it has
    # already reached even when a generation of fresh samples scatters.
    # Stable sort puts fresh samples ahead of the elite on fitness ties.
    cand_f = np.empty((k, pop + 1))
    cand_f[:, :pop] = fs.reshape(k, pop)
    cand_f[:, pop] = best_f
    n_sel = max(1, math.ceil(SELECTION_FRACTION * pop))
    sel = (-cand_f).argsort(axis=1, kind="stable")[:, :n_sel]
    sel += (rows * (pop + 1))[:, None]
    sel_f = cand_f.take(sel)
    cand_x = np.concatenate((xs, best_x[:, None, :]), axis=1)
    selected = cand_x.reshape(-1, d).take(sel.ravel(), axis=0)
    selected = selected.reshape(k, n_sel, d)
    spread = sel_f[:, 0] - sel_f[:, -1]

    gen_best = cand_f[:, :pop].argmax(axis=1)
    gen_best_f = cand_f[rows, gen_best]
    improved = gen_best_f > best_f
    new_best_x = np.where(improved[:, None], xs[rows, gen_best], best_x)
    new_best_f = np.where(improved, gen_best_f, best_f)
    new_best_index = np.where(improved, base_index + rows * pop + gen_best + 1,
                              stack.best_index[:k])

    material = gen_best_f > best_f + MATERIAL_GAIN_REL * np.maximum(
        1.0, np.abs(best_f))
    # The selection is sorted fittest first, so the rows that beat the
    # tracked best lead it: their mean, in unmultiplied standard
    # deviations from the model's mean, is how far improvements land.
    # An inflated model thus still registers far-flung improvements as
    # "beyond one deviation" and keeps growing.
    beat = sel_f > best_f[:, None]
    n_beat = np.count_nonzero(beat, axis=1)
    avg_improvement = np.add.reduce(selected * beat[:, :, None], axis=1)
    avg_improvement /= np.maximum(n_beat, 1)[:, None]
    sdr = np.abs((avg_improvement - mean) / stddev).max(axis=1)
    grown = np.maximum(c_mult, 1.0)
    grown = np.where(sdr > SDR_THRESHOLD, grown * ETA_INC, grown)
    nis = np.where(material, 0, stack.nis[:k] + 1)
    # A model still wider than the initialization floor may be
    # straddling several peaks, so stagnation leaves its nominal scale
    # alone; once narrower than any freshly initialized model it is in
    # terminal polish, where only a short streak is tolerated before
    # every stagnant generation shrinks it.
    hold = ((scale >= INIT_STDDEV_FLOOR * bounds.range).any(axis=1)
            | (nis <= STAGNATION_GRACE))
    held = np.where((c_mult > 1.0) | ~hold, c_mult * ETA_DEC, c_mult)
    held = np.where(hold & (held < 1.0), 1.0, held)
    new_c_mult = np.where(material, grown, held)
    np.maximum(new_c_mult, C_MULT_MIN, out=new_c_mult)
    np.minimum(new_c_mult, C_MULT_MAX, out=new_c_mult)

    # ndarray.mean and ndarray.std(ddof=1) of each search's selection
    # spelled out as the ufunc calls they make, sharing the mean: same
    # operations, same bits.
    new_mean = np.add.reduce(selected, axis=1)
    new_mean /= n_sel
    if n_sel > 1:
        np.subtract(selected, new_mean[:, None, :], out=selected)
        np.square(selected, out=selected)
        new_stddev = np.add.reduce(selected, axis=1)
        new_stddev /= n_sel - 1
        np.sqrt(new_stddev, out=new_stddev)
    else:
        new_stddev = np.zeros((k, d))
    np.maximum(new_stddev, STEP_STDDEV_FLOOR * bounds.range, out=new_stddev)

    collapsed = (new_c_mult[:, None] * new_stddev
                 < PARAM_TOL * bounds.range).all(axis=1)
    stop = (nis > nis_limit(d)) | collapsed | (spread < FITNESS_TOL)
    go = np.flatnonzero(~stop)
    stopped = ()
    if len(go) < stack.size:
        stopped = tuple(
            [Solution(new_best_x[i], float(new_best_f[i]),
                      int(new_best_index[i])) for i in np.flatnonzero(stop)]
            + [Solution(stack.best_x[i], float(stack.best_f[i]),
                        int(stack.best_index[i]))
               for i in range(k, stack.size)])
    return CoreSearchStack(
        mean=new_mean[go], stddev=new_stddev[go], prev_mean=mean[go],
        c_mult=new_c_mult[go], nis=nis[go], best_x=new_best_x[go],
        best_f=new_best_f[go], best_index=new_best_index[go], pop_size=pop,
        bounds=bounds, generation=stack.generation + k,
        stopped=stopped)
