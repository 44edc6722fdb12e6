"""Composition functions (problems 11-20).

A composition blends n basic functions, each shifted, scaled and
turned by a rotation matrix, with Gaussian weights centered at the
shift points. Every basic function is non-negative with minimum 0 at
the origin, so the composed objective, negated for maximization,
attains its global maximum of exactly 0 at each shift point: the shift
points are the global optima.

Shift vectors and rotation matrices are never hard-coded; they are read
from a plain-text data file per instance (see `load_composition` for
the format). Defaults ship with the package and can be regenerated with
scripts/generate_composition_data.py.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BasicFunction = Callable[[np.ndarray], np.ndarray]

BLEND_SCALE = 2000.0

# Basic functions see at most this many rows per call, rows of all the
# components of a run counted together. This bounds weierstrass's two
# (rows, d, 21) temporaries, its phases and their nearest integers, to
# 2 x 512 x d x 21 doubles (3.4 MB at d = 20). Blocks of 2048 rows
# raised the peak memory of p16 runs by about 2 MB, and the seed-0 run
# times of p16 and p18 did not differ between 512 and 2048.
_BLOCK_ROWS = 512


def sphere(z: np.ndarray) -> np.ndarray:
    return (z * z).sum(axis=1)


@functools.cache
def _griewank_divisors(d: int) -> np.ndarray:
    i = np.sqrt(np.arange(1.0, d + 1.0))
    i.flags.writeable = False
    return i


def griewank(z: np.ndarray) -> np.ndarray:
    i = _griewank_divisors(z.shape[1])
    return (z * z).sum(axis=1) / 4000.0 - np.cos(z / i).prod(axis=1) + 1.0


def rastrigin(z: np.ndarray) -> np.ndarray:
    return (z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0).sum(axis=1)


_WEIERSTRASS_A = 0.5 ** np.arange(21)
_WEIERSTRASS_B = 3.0 ** np.arange(21)
# Each cos(pi 3^k) is -1, since 3^k is odd.
_WEIERSTRASS_F0 = -float(_WEIERSTRASS_A.sum())


def weierstrass(z: np.ndarray) -> np.ndarray:
    """Sum over coordinates and k < 21 of 0.5^k cos(2 pi 3^k (z + 1/2)),
    less its value at the origin, so that the minimum 0 sits there.

    Each phase is reduced in turns before the cosine: t = 3^k (z + 1/2),
    less the nearest integer, which is exact, then times 2 pi. The
    cosine then sees |t| <= pi, where it is cheap, rather than phases of
    up to about 1e11 rad. At the origin every t is a half turn and
    cos(+-pi) is exactly -1, so weierstrass(0) is exactly 0. Each term
    is at least -0.5^k and rounded addition is monotone, so the result
    is never negative.
    """
    t = _WEIERSTRASS_B * (z[..., None] + 0.5)
    t -= np.rint(t)
    t *= 2.0 * np.pi
    np.cos(t, out=t)
    t *= _WEIERSTRASS_A
    return t.sum(axis=(-2, -1)) - z.shape[1] * _WEIERSTRASS_F0


def expanded_griewank_rosenbrock(z: np.ndarray) -> np.ndarray:
    """Griewank-of-Rosenbrock chained over consecutive coordinate pairs,
    wrapping around, shifted so the minimum 0 sits at the origin."""
    u = z + 1.0
    v = np.concatenate((u[:, 1:], u[:, :1]), axis=1)
    r = 100.0 * (u * u - v) ** 2 + (1.0 - u) ** 2
    return (r * r / 4000.0 - np.cos(r) + 1.0).sum(axis=1)


@dataclass(frozen=True)
class CompositionFamily:
    """Static recipe for one composition: which basics, scales, spreads."""

    name: str
    sigma: tuple[float, ...]
    lam: tuple[float, ...]
    components: tuple[BasicFunction, ...]

    @property
    def n_components(self) -> int:
        return len(self.components)


CF1 = CompositionFamily(
    name="CF1",
    sigma=(1.0,) * 6,
    lam=(1.0, 1.0, 8.0, 8.0, 1.0 / 5.0, 1.0 / 5.0),
    components=(griewank, griewank, weierstrass, weierstrass, sphere, sphere),
)

CF2 = CompositionFamily(
    name="CF2",
    sigma=(1.0,) * 8,
    lam=(1.0, 1.0, 10.0, 10.0, 1.0 / 10.0, 1.0 / 10.0, 1.0 / 7.0, 1.0 / 7.0),
    components=(rastrigin, rastrigin, weierstrass, weierstrass,
                griewank, griewank, sphere, sphere),
)

CF3 = CompositionFamily(
    name="CF3",
    sigma=(1.0, 1.0, 2.0, 2.0, 2.0, 2.0),
    lam=(1.0 / 4.0, 1.0 / 10.0, 2.0, 1.0, 2.0, 5.0),
    components=(expanded_griewank_rosenbrock, expanded_griewank_rosenbrock,
                weierstrass, weierstrass, griewank, griewank),
)

CF4 = CompositionFamily(
    name="CF4",
    sigma=(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0),
    lam=(4.0, 1.0, 4.0, 1.0, 1.0 / 10.0, 1.0 / 5.0, 1.0 / 10.0, 1.0 / 40.0),
    components=(rastrigin, rastrigin,
                expanded_griewank_rosenbrock, expanded_griewank_rosenbrock,
                weierstrass, weierstrass, griewank, griewank),
)

FAMILIES = {f.name: f for f in (CF1, CF2, CF3, CF4)}


class CompositionFunction:
    """Callable composition instance bound to concrete shifts/rotations."""

    def __init__(self, family: CompositionFamily, shifts: np.ndarray,
                 rotations: np.ndarray):
        n = family.n_components
        shifts = np.asarray(shifts, dtype=float)
        rotations = np.asarray(rotations, dtype=float)
        d = shifts.shape[1]
        if shifts.shape != (n, d) or rotations.shape != (n, d, d):
            raise ValueError("shift/rotation shapes do not match the family")
        self.family = family
        self.d = d
        self.shifts = shifts
        self.rotations = rotations
        # Stored negated: s / (-c) has the bits of -(s) / c.
        self._neg_sigma_sq2d = -2.0 * d * np.asarray(family.sigma) ** 2
        self._lam = np.asarray(family.lam)
        # Reference magnitude per component, evaluated at a fixed probe
        # point so the blended terms share a common scale.
        probe = np.full(d, 5.0)
        self._fmax = np.empty(n)
        for i, fn in enumerate(family.components):
            zi = (probe / self._lam[i]) @ rotations[i]
            self._fmax[i] = abs(float(fn(zi[None, :])[0]))
        if not np.all(self._fmax > 0.0):
            raise ValueError("degenerate component normalization")
        # Runs [a, b) of consecutive components sharing a basic function,
        # each evaluated in one call (every family pairs them adjacently).
        comps = family.components
        starts = [i for i in range(n) if i == 0 or comps[i] is not comps[i - 1]]
        self._runs = [(comps[a], a, b)
                      for a, b in zip(starts, starts[1:] + [n])]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        n = self.family.n_components
        m = x.shape[0]
        diff = x - self.shifts[:, None, :]
        # Weights and values are blended as (m, n) C-contiguous arrays:
        # numpy sums 8 or more terms pairwise only along a contiguous axis.
        w = np.empty((m, n))
        np.divide((diff * diff).sum(axis=2).T, self._neg_sigma_sq2d, out=w)
        np.exp(w, out=w)
        # Divide, not multiply by 1/lam: the products differ in the last bit.
        diff /= self._lam[:, None, None]
        # No row blocks: at d = 20 the gemm's bits depend on the row count.
        z = diff @ self.rotations
        g = np.empty((n, m))
        for fn, a, b in self._runs:
            rows = z[a:b].reshape(-1, self.d)
            out = g[a:b].reshape(-1)
            for s in range(0, len(rows), _BLOCK_ROWS):
                out[s:s + _BLOCK_ROWS] = fn(rows[s:s + _BLOCK_ROWS])
        g *= BLEND_SCALE
        g /= self._fmax[:, None]
        wmax = w.max(axis=1, keepdims=True)
        np.multiply(w, 1.0 - wmax ** 10, out=w, where=w != wmax)
        total = w.sum(axis=1, keepdims=True)
        if total.all():
            w /= total
        else:
            w = np.where(total == 0.0, 1.0 / n,
                         w / np.where(total == 0.0, 1.0, total))
        np.multiply(w, g.T, out=w)
        return -w.sum(axis=1)


def composition_data_filename(family_name: str, d: int) -> str:
    return f"{family_name.lower()}_d{d:02d}.txt"


def load_composition(family: CompositionFamily, d: int,
                     path: Path) -> CompositionFunction:
    """Read one instance's data file: n rows of d shift coordinates,
    then n stacked d-by-d rotation matrices, whitespace-delimited.
    Raises ValueError for a file that does not parse into those values;
    the caller names the file."""
    raw = np.loadtxt(path, dtype=float)
    n = family.n_components
    expected = n + n * d
    raw = np.atleast_2d(raw)
    if raw.shape != (expected, d):
        raise ValueError(
            f"expected {expected} rows of {d} values (got shape {raw.shape})")
    if not np.isfinite(raw).all():
        raise ValueError("non-finite value in shifts or rotations")
    shifts = raw[:n]
    rotations = raw[n:].reshape(n, d, d)
    return CompositionFunction(family, shifts, rotations)

