"""Closed-form problems of the niching benchmark suite (ids 1-10).

All functions are maximization objectives. Each takes an array of shape
(n, d) and returns the n fitness values. Source functions that are
conventionally minimized (six-hump camel back, Shubert, modified
Rastrigin) are negated here once and for all.

Each objective sits beside the derivation of its global optima. Positions
are either exact by construction (trap endpoints, sine peaks, cosine
grids) or polished from seeds on analytic derivatives with numpy alone:
bisection on p03's log-derivative, Newton on the Shubert factor's
derivative (p06, p08) and one Newton step with an explicit 2x2 inverse
on Himmelblau's defining equations (p04) and the camel back's gradient
(p05), whose Jacobians both have a unit off-diagonal. No derivation
calls BLAS or LAPACK.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np


def _sorted_rows(points: np.ndarray) -> np.ndarray:
    order = np.lexsort(points.T[::-1])
    return points[order]


def _lattice(axes: list[np.ndarray]) -> np.ndarray:
    """Rows of the Cartesian product of the per-coordinate values."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# A polish that has not settled within this many steps raises.
_POLISH_CAP = 100


def _polish(step: Callable[[np.ndarray], np.ndarray],
            residual: Callable[[np.ndarray], np.ndarray],
            x: np.ndarray) -> np.ndarray:
    """Apply step to the points (the last axis of x) until it moves none.

    A point takes a step only when the step shrinks its residual: in
    floating point, Newton's last steps can cycle among a few ulps of a
    root, and a bisection's bracket stops narrowing once its midpoint
    rounds onto an end.
    """
    r = residual(x)
    for _ in range(_POLISH_CAP):
        proposal = step(x)
        r_proposal = residual(proposal)
        moves = r_proposal < r
        if not moves.any():
            return x
        x = np.where(moves, proposal, x)
        r = np.where(moves, r_proposal, r)
    raise RuntimeError(f"polish did not settle within {_POLISH_CAP} steps")


# The trap's eight linear pieces, split at the breaks: piece i is
# slope * (t - anchor) when rising and slope * (anchor - t) when falling.
_TRAP_BREAKS = np.array([2.5, 5.0, 7.5, 12.5, 17.5, 22.5, 27.5])
_TRAP_SLOPE = np.array([80.0, 64.0, 64.0, 28.0, 28.0, 32.0, 32.0, 80.0])
_TRAP_ANCHOR = np.array([2.5, 2.5, 7.5, 7.5, 17.5, 17.5, 27.5, 27.5])
_TRAP_RISING = np.array([False, True] * 4)


def five_uneven_peak_trap(x: np.ndarray) -> np.ndarray:
    """Piecewise-linear trap on [0, 30] with peaks of 200 at both ends."""
    t = x[:, 0]
    piece = np.searchsorted(_TRAP_BREAKS, t, side="right")
    slope = _TRAP_SLOPE[piece]
    anchor = _TRAP_ANCHOR[piece]
    return np.where(_TRAP_RISING[piece], slope * (t - anchor),
                    slope * (anchor - t))


def _five_uneven_peak_trap_optima() -> np.ndarray:
    return np.array([[0.0], [30.0]])


def equal_maxima(x: np.ndarray) -> np.ndarray:
    """Five equal peaks of height 1 at x = 0.1, 0.3, 0.5, 0.7, 0.9."""
    return np.sin(5.0 * np.pi * x[:, 0]) ** 6


def _equal_maxima_optima() -> np.ndarray:
    return np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])


def uneven_decreasing_maxima(x: np.ndarray) -> np.ndarray:
    """Five unevenly spaced peaks under a decaying envelope; one global."""
    t = x[:, 0]
    env = np.exp(-2.0 * np.log(2.0) * ((t - 0.08) / 0.854) ** 2)
    return env * np.sin(5.0 * np.pi * (t ** 0.75 - 0.05)) ** 6


def _uneven_decreasing_maxima_log_slope(t: np.ndarray) -> np.ndarray:
    """d/dt of the log of uneven_decreasing_maxima, where its sine is > 0."""
    u = 5.0 * np.pi * (t ** 0.75 - 0.05)
    return (-4.0 * np.log(2.0) * (t - 0.08) / 0.854 ** 2
            + 22.5 * np.pi * t ** -0.25 * np.cos(u) / np.sin(u))


def _uneven_decreasing_maxima_optima() -> np.ndarray:
    # The log-derivative falls from + to - across [0.05, 0.12].
    def halve(bracket: np.ndarray) -> np.ndarray:
        lo, hi = bracket
        mid = 0.5 * (lo + hi)
        rising = _uneven_decreasing_maxima_log_slope(mid) > 0.0
        return np.array([np.where(rising, mid, lo), np.where(rising, hi, mid)])

    lo, _ = _polish(halve, lambda b: b[1] - b[0], np.array([[0.05], [0.12]]))
    return lo[:, None]


def himmelblau(x: np.ndarray) -> np.ndarray:
    """Himmelblau rescaled to maximization; four peaks of exactly 200."""
    a = x[:, 0] ** 2 + x[:, 1] - 11.0
    b = x[:, 0] + x[:, 1] ** 2 - 7.0
    return 200.0 - a * a - b * b


def _newton_step(p: np.ndarray, residual: tuple[np.ndarray, np.ndarray],
                 diagonal: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """One Newton step on a 2-D system whose Jacobian at p is
    [[diagonal[0], 1], [1, diagonal[1]]], with its explicit inverse."""
    x, y = p
    a, b = residual
    dx, dy = diagonal
    det = dx * dy - 1.0
    return np.array([x - (dy * a - b) / det, y - (dx * b - a) / det])


def _himmelblau_optima() -> np.ndarray:
    # The peaks are the roots of a = x^2 + y - 11 and b = x + y^2 - 7;
    # their Jacobian is [[2x, 1], [1, 2y]].
    def residual(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x, y = p
        return x * x + y - 11.0, x + y * y - 7.0

    def newton(p: np.ndarray) -> np.ndarray:
        return _newton_step(p, residual(p), (2.0 * p[0], 2.0 * p[1]))

    seeds = np.array([(3.0, 2.0), (-2.8, 3.1), (-3.78, -3.28), (3.58, -1.85)])
    roots = _polish(newton, lambda p: np.abs(residual(p)).sum(axis=0), seeds.T)
    return _sorted_rows(roots.T)


def six_hump_camel_back(x: np.ndarray) -> np.ndarray:
    """Negated six-hump camel back; two global peaks of ~1.0316."""
    u = x[:, 0]
    v = x[:, 1]
    u2 = u * u
    v2 = v * v
    return -((4.0 - 2.1 * u2 + u2 * u2 / 3.0) * u2 + u * v + (4.0 * v2 - 4.0) * v2)


def _six_hump_camel_back_optima() -> np.ndarray:
    # The peaks are roots of the (minimized) camel back's gradient.
    def gradient(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x, y = p
        return (8.0 * x - 8.4 * x ** 3 + 2.0 * x ** 5 + y,
                x - 8.0 * y + 16.0 * y ** 3)

    def newton(p: np.ndarray) -> np.ndarray:
        x, y = p                       # the Hessian's off-diagonal is 1
        hessian_diagonal = (8.0 - 25.2 * x * x + 10.0 * x ** 4,
                            48.0 * y * y - 8.0)
        return _newton_step(p, gradient(p), hessian_diagonal)

    seeds = np.array([(0.09, -0.71), (-0.09, 0.71)])
    roots = _polish(newton, lambda p: np.abs(gradient(p)).sum(axis=0), seeds.T)
    return _sorted_rows(roots.T)


# The Shubert factor's term weights j = 1..5 and frequencies j + 1.
_SHUBERT_J = np.arange(1.0, 6.0)
_SHUBERT_FREQ = _SHUBERT_J + 1.0


def _shubert_factor(y: np.ndarray) -> np.ndarray:
    """Sum_j j*cos((j+1)*y + j) over j = 1..5, per coordinate."""
    j = _SHUBERT_J
    return (j * np.cos(_SHUBERT_FREQ * y[..., None] + j)).sum(axis=-1)


def _shubert_factor_slopes(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of the factor, per coordinate."""
    phase = _SHUBERT_FREQ * y[..., None] + _SHUBERT_J
    weight = _SHUBERT_J * _SHUBERT_FREQ
    return (-(weight * np.sin(phase)).sum(axis=-1),
            -(weight * _SHUBERT_FREQ * np.cos(phase)).sum(axis=-1))


def shubert(x: np.ndarray) -> np.ndarray:
    """Negated Shubert function; n*3^n global peaks on [-10, 10]^n."""
    return -np.prod(_shubert_factor(x), axis=-1)


def _shubert_factor_extrema() -> tuple[np.ndarray, np.ndarray]:
    """Locations of the three lowest minima and three highest maxima of
    the one-dimensional factor on [-10, 10], each a root of the factor's
    derivative to within its rounding."""
    def newton(y: np.ndarray) -> np.ndarray:
        slope, curvature = _shubert_factor_slopes(y)
        return y - slope / curvature

    grid = np.linspace(-10.0, 10.0, 20001)
    vals = _shubert_factor(grid)
    # interior grid points above or below both neighbours
    interior = (vals[1:-1] - vals[:-2]) * (vals[1:-1] - vals[2:]) > 0.0
    locs = _polish(newton, lambda y: np.abs(_shubert_factor_slopes(y)[0]),
                   grid[1:-1][interior])
    vals = _shubert_factor(locs)

    def copies(v: np.ndarray) -> np.ndarray:
        xs = np.sort(locs[v - v.min() < 1e-6])
        if len(xs) != 3:
            raise RuntimeError(f"expected 3 extrema copies, found {len(xs)}")
        return xs

    return copies(vals), copies(-vals)


def _shubert_optima(d: int) -> np.ndarray:
    mins, maxs = _shubert_factor_extrema()
    # The product of factors is most negative with exactly one factor at
    # a minimum of the 1-D factor and the rest at maxima.
    return _sorted_rows(np.vstack([
        _lattice([mins if axis == neg_axis else maxs for axis in range(d)])
        for neg_axis in range(d)]))


def vincent(x: np.ndarray) -> np.ndarray:
    """Mean of sin(10 ln x_i); 6^d equal global peaks on [0.25, 10]^d."""
    # ndarray.mean's own reduction and division, without its wrapper
    return np.add.reduce(np.sin(10.0 * np.log(x)), axis=1) / x.shape[1]


def _vincent_optima(d: int) -> np.ndarray:
    peaks = np.exp((np.pi / 2.0 + 2.0 * np.pi * np.arange(-2, 4)) / 10.0)
    return _sorted_rows(_lattice([peaks] * d))


_MOD_RASTRIGIN_K = np.array([3.0, 4.0])
_MOD_RASTRIGIN_FREQ = 2.0 * np.pi * _MOD_RASTRIGIN_K


def modified_rastrigin(x: np.ndarray) -> np.ndarray:
    """Negated modified Rastrigin (d=2, k=(3,4)); 12 global peaks of -2."""
    return -(10.0 + 9.0 * np.cos(_MOD_RASTRIGIN_FREQ * x)).sum(axis=1)


def _modified_rastrigin_optima() -> np.ndarray:
    return _sorted_rows(_lattice([(2.0 * np.arange(k) + 1.0) / (2.0 * k)
                                  for k in _MOD_RASTRIGIN_K]))


# Problem id -> (objective, derivation of its global optima's positions).
_BUILDERS = {
    1: (five_uneven_peak_trap, _five_uneven_peak_trap_optima),
    2: (equal_maxima, _equal_maxima_optima),
    3: (uneven_decreasing_maxima, _uneven_decreasing_maxima_optima),
    4: (himmelblau, _himmelblau_optima),
    5: (six_hump_camel_back, _six_hump_camel_back_optima),
    6: (shubert, lambda: _shubert_optima(2)),
    7: (vincent, lambda: _vincent_optima(2)),
    8: (shubert, lambda: _shubert_optima(3)),
    9: (vincent, lambda: _vincent_optima(3)),
    10: (modified_rastrigin, _modified_rastrigin_optima),
}


@lru_cache(maxsize=None)
def closed_form(problem_id: int
                ) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """(objective, global-optima positions) of problem 1-10."""
    fn, optima = _BUILDERS[problem_id]
    return fn, optima()
