"""Closed-form problems of the niching benchmark suite (ids 1-10).

All functions are maximization objectives. Each takes an array of shape
(n, d) and returns the n fitness values. Source functions that are
conventionally minimized (six-hump camel back, Shubert, modified
Rastrigin) are negated here once and for all.

CLOSED_FORM lists each problem's objective with its global optima.
Positions are either exact by construction (trap endpoints, sine peaks,
cosine grids) or listed to the last bit: p03's peak, Himmelblau's three
irrational peaks (p04), the camel back's pair (p05) and the Shubert
factor's extrema, from which the p06 and p08 lattices are built. The
tests check that each listed position is stationary, is a local maximum
and scores the published optimum, and pin every problem's bytes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def _sorted_rows(points: np.ndarray) -> np.ndarray:
    order = np.lexsort(points.T[::-1])
    return points[order]


def _lattice(axes: list[np.ndarray]) -> np.ndarray:
    """Rows of the Cartesian product of the per-coordinate values."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


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


def equal_maxima(x: np.ndarray) -> np.ndarray:
    """Five equal peaks of height 1 at x = 0.1, 0.3, 0.5, 0.7, 0.9."""
    return np.sin(5.0 * np.pi * x[:, 0]) ** 6


def uneven_decreasing_maxima(x: np.ndarray) -> np.ndarray:
    """Five unevenly spaced peaks under a decaying envelope; one global."""
    t = x[:, 0]
    env = np.exp(-2.0 * np.log(2.0) * ((t - 0.08) / 0.854) ** 2)
    return env * np.sin(5.0 * np.pi * (t ** 0.75 - 0.05)) ** 6


def himmelblau(x: np.ndarray) -> np.ndarray:
    """Himmelblau rescaled to maximization; four peaks of exactly 200."""
    a = x[:, 0] ** 2 + x[:, 1] - 11.0
    b = x[:, 0] + x[:, 1] ** 2 - 7.0
    return 200.0 - a * a - b * b


def six_hump_camel_back(x: np.ndarray) -> np.ndarray:
    """Negated six-hump camel back; two global peaks of ~1.0316."""
    u = x[:, 0]
    v = x[:, 1]
    u2 = u * u
    v2 = v * v
    return -((4.0 - 2.1 * u2 + u2 * u2 / 3.0) * u2 + u * v + (4.0 * v2 - 4.0) * v2)


# The Shubert factor's term weights j = 1..5 and frequencies j + 1.
_SHUBERT_J = np.arange(1.0, 6.0)
_SHUBERT_FREQ = _SHUBERT_J + 1.0


def _shubert_factor(y: np.ndarray) -> np.ndarray:
    """Sum_j j*cos((j+1)*y + j) over j = 1..5, per coordinate."""
    j = _SHUBERT_J
    return (j * np.cos(_SHUBERT_FREQ * y[..., None] + j)).sum(axis=-1)


# The three lowest minima and three highest maxima of the factor on
# [-10, 10]: its slope vanishes at each to within its rounding.
_SHUBERT_FACTOR_MINIMA = np.array(
    [-7.708313735499347, -1.425128428319761, 4.858056878859825])
_SHUBERT_FACTOR_MAXIMA = np.array(
    [-7.0835064076515595, -0.8003211004719731, 5.482864206707613])


def shubert(x: np.ndarray) -> np.ndarray:
    """Negated Shubert function; n*3^n global peaks on [-10, 10]^n."""
    return -np.prod(_shubert_factor(x), axis=-1)


def _shubert_optima(d: int) -> np.ndarray:
    mins, maxs = _SHUBERT_FACTOR_MINIMA, _SHUBERT_FACTOR_MAXIMA
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


# Problem id -> (objective, global-optima positions in sorted rows).
CLOSED_FORM: dict[int, tuple[Callable[[np.ndarray], np.ndarray],
                             np.ndarray]] = {
    1: (five_uneven_peak_trap, np.array([[0.0], [30.0]])),
    2: (equal_maxima, np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])),
    3: (uneven_decreasing_maxima, np.array([[0.07969977961179582]])),
    4: (himmelblau, np.array([[-3.779310253377747, -3.2831859912861696],
                              [-2.805118086952745, 3.131312518250573],
                              [3.0, 2.0],
                              [3.5844283403304917, -1.8481265269644034]])),
    5: (six_hump_camel_back,
        np.array([[-0.08984201310031807, 0.7126564030207396],
                  [0.08984201310031807, -0.7126564030207396]])),
    6: (shubert, _shubert_optima(2)),
    7: (vincent, _vincent_optima(2)),
    8: (shubert, _shubert_optima(3)),
    9: (vincent, _vincent_optima(3)),
    10: (modified_rastrigin,
         _sorted_rows(_lattice([(2.0 * np.arange(k) + 1.0) / (2.0 * k)
                                for k in _MOD_RASTRIGIN_K]))),
}
