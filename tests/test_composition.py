"""The composition objective (problems 11-20) against a tests-only copy
of its per-component loop, which it must match bit for bit.

The reference evaluates one component at a time: its own distances,
weight, rotation and basic function, then blends the (m, n) weights
and values. The package stacks the components into one broadcast, one
stacked rotation and one basic-function call per same-function run.
Both must give the same bits at each sampled row count, on uniform points,
box corners, points next to a shift point, the shift points
themselves, and points far outside the box where every weight
underflows. The reference's basic functions use the package's formulas,
the Weierstrass phase reduction in turns included: that test checks the
blend, not the basic functions' numerics.

Those numerics are checked on their own: weierstrass against an exact
rational reduction of its phases, and its sign, with every composition's
sign next to and at its shift points. CI also runs the equivalence and
the sign tests under other OpenBLAS core types, since the stacked
product must match the per-component one under each BLAS kernel, and no
composition may score above 0 under any of them.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from hillvallea.problems.composition import BLEND_SCALE, weierstrass
from hillvallea.problems.suite import make_problem

COMPOSITION_IDS = tuple(range(11, 21))
ROW_COUNTS = (1, 2, 27, 1000, 3000)
POINT_KINDS = ("uniform", "corners", "near_shift", "shifts", "far")


# --- reference copy of the per-component composition ---------------------


def ref_sphere(z):
    return (z * z).sum(axis=1)


def ref_griewank(z):
    i = np.sqrt(np.arange(1.0, z.shape[1] + 1.0))
    return (z * z).sum(axis=1) / 4000.0 - np.cos(z / i).prod(axis=1) + 1.0


def ref_rastrigin(z):
    return (z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0).sum(axis=1)


_A = 0.5 ** np.arange(21)
_B = 3.0 ** np.arange(21)
_F0 = -float(_A.sum())


def ref_weierstrass(z):
    t = _B * (z[..., None] + 0.5)
    t = 2.0 * np.pi * (t - np.rint(t))
    return (_A * np.cos(t)).sum(axis=(-2, -1)) - z.shape[1] * _F0


def ref_expanded_griewank_rosenbrock(z):
    u = z + 1.0
    v = np.roll(u, -1, axis=1)
    r = 100.0 * (u * u - v) ** 2 + (1.0 - u) ** 2
    return (r * r / 4000.0 - np.cos(r) + 1.0).sum(axis=1)


REFERENCE_BASICS = {
    "sphere": ref_sphere,
    "griewank": ref_griewank,
    "rastrigin": ref_rastrigin,
    "weierstrass": ref_weierstrass,
    "expanded_griewank_rosenbrock": ref_expanded_griewank_rosenbrock,
}


class ReferenceComposition:
    """The composition objective, one component at a time."""

    def __init__(self, family, shifts, rotations):
        self.components = [REFERENCE_BASICS[fn.__name__]
                           for fn in family.components]
        self.shifts = np.asarray(shifts, dtype=float)
        self.rotations = np.asarray(rotations, dtype=float)
        d = self.shifts.shape[1]
        self.sigma_sq2d = 2.0 * d * np.asarray(family.sigma) ** 2
        self.lam = np.asarray(family.lam)
        probe = np.full(d, 5.0)
        self.fmax = np.empty(len(self.components))
        for i, fn in enumerate(self.components):
            zi = (probe / self.lam[i]) @ self.rotations[i]
            self.fmax[i] = abs(float(fn(zi[None, :])[0]))

    def __call__(self, x):
        n = len(self.components)
        m = x.shape[0]
        w = np.empty((m, n))
        g = np.empty((m, n))
        for i, fn in enumerate(self.components):
            diff = x - self.shifts[i]
            w[:, i] = np.exp(-(diff * diff).sum(axis=1) / self.sigma_sq2d[i])
            z = (diff / self.lam[i]) @ self.rotations[i]
            g[:, i] = BLEND_SCALE * fn(z) / self.fmax[i]
        wmax = w.max(axis=1, keepdims=True)
        w = np.where(w == wmax, w, w * (1.0 - wmax ** 10))
        total = w.sum(axis=1, keepdims=True)
        w = np.where(total == 0.0, 1.0 / n,
                     w / np.where(total == 0.0, 1.0, total))
        return -(w * g).sum(axis=1)


def reference_of(problem):
    fn = problem.fn
    return ReferenceComposition(fn.family, fn.shifts, fn.rotations)


def sample_points(problem, kind, m, rng):
    lo, hi = problem.bounds.lower, problem.bounds.upper
    d = problem.d
    if kind == "uniform":
        return rng.uniform(lo, hi, size=(m, d))
    if kind == "corners":
        return np.where(rng.integers(0, 2, size=(m, d)) == 1, hi, lo)
    if kind == "far":
        # Outside the box, where every weight underflows to 0 and the
        # blend falls back to equal weights.
        sign = rng.choice([-1.0, 1.0], size=(m, d))
        return sign * rng.uniform(100.0, 150.0, size=(m, d))
    shifts = problem.optima_positions[rng.integers(0, problem.n_global_optima,
                                                   size=m)]
    if kind == "shifts":
        return shifts.copy()
    return np.clip(shifts + rng.uniform(-1e-3, 1e-3, size=(m, d)), lo, hi)


# --- equivalence ------------------------------------------------------------


@pytest.mark.parametrize("pid", COMPOSITION_IDS)
def test_stacked_composition_matches_per_component_loop(pid):
    problem = make_problem(pid)
    reference = reference_of(problem)
    rng = np.random.default_rng(pid)
    for kind in POINT_KINDS:
        for m in ROW_COUNTS:
            x = sample_points(problem, kind, m, rng)
            got, want = problem.fn(x), reference(x)
            np.testing.assert_array_equal(got, want,
                                          err_msg=f"{kind}, {m} rows")
            assert got.tobytes() == want.tobytes(), f"{kind}, {m} rows"


# SHA-256 of every field of make_problem(pid) except the objective
# itself, taken before the components were stacked.
PROBLEM_FIELDS_SHA256 = {
    11: "ea4f74e5e9037e22404c86aa0792485e56927c0afb3f28395039055f5ea9c831",
    12: "85d73ec0aba3d67df1cf22db67829baeaea5f1d81e95ad5b65fdcb6a76f54f5c",
    13: "51bf96ee40a31f2b25386d81f13f3c55be3fa581c9605623f2f8233f2b076335",
    14: "4a02607cfec769946818f8ed90e2ba071392ed7b68686f2b4698e17b34228b77",
    15: "003fa2a39fe2b2c8a0ad0846f1b238b70bc6767b0ac95f4642bbd5fedd0a98e7",
    16: "179f86b98795924289bb63b2ca919d84eb9253f3b63741e1e0281da201065ded",
    17: "2decbf9a2ed5b3a7352c971a7d8fb49aede346f8ce094797fc070a10d2d0f01b",
    18: "2797097f9fac9ff564d6f0f13e0e2d382d025e3d77c2fb356c86b3e85a80f2cb",
    19: "cb3aba40bea2c75c3bb572766a6b250e9a163e00edc1737ab2389a9789081888",
    20: "bc6091ee96a7168cb6c1899b94ba731d94822cd5c1f1135c894b6d8264742231",
}


def problem_fields_sha256(problem):
    h = hashlib.sha256()
    h.update(repr((problem.id, problem.name, problem.d,
                   problem.n_global_optima, problem.budget,
                   problem.niche_radius)).encode())
    for arr in (problem.bounds.lower, problem.bounds.upper,
                problem.bounds.range, problem.optima_positions,
                problem.optima_fitness):
        h.update(repr((arr.dtype.str, arr.shape, arr.flags.writeable,
                       arr.flags.c_contiguous)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("pid", COMPOSITION_IDS)
def test_composition_problem_fields_are_unchanged(pid):
    problem = make_problem(pid)
    assert problem_fields_sha256(problem) == PROBLEM_FIELDS_SHA256[pid]
    reference = reference_of(problem)
    np.testing.assert_array_equal(problem.optima_positions, reference.shifts)
    np.testing.assert_array_equal(problem.optima_fitness,
                                  reference(reference.shifts))


# --- Weierstrass numerics and the sign of every composition -----------------


def exact_weierstrass(z):
    """weierstrass with each phase 3^k (z + 1/2) reduced to the nearest
    integer in exact rational arithmetic before the cosine."""
    out = []
    for row in z:
        terms = []
        for v in row:
            u = Fraction(float(v)) + Fraction(1, 2)
            for k in range(21):
                t = 3 ** k * u
                t -= round(t)
                terms.append(math.ldexp(math.cos(2.0 * math.pi * float(t))
                                        + 1.0, -k))
        out.append(math.fsum(terms))
    return np.array(out)


def unreduced_weierstrass(z):
    """The formula before the phases were reduced: the cosine takes
    2 pi 3^k (z + 1/2) as it is, up to about 1e11 rad."""
    inner = _A * np.cos(2.0 * np.pi * _B * (z[..., None] + 0.5))
    f0 = float((_A * np.cos(np.pi * _B)).sum())
    return inner.sum(axis=(-2, -1)) - z.shape[1] * f0


# Rounding z + 1/2 and then 3^k (z + 1/2) moves the k-th phase by at
# most 2^-52 3^k |z + 1/2| turns, and its term by 2 pi 2^-52 1.5^k
# |z + 1/2|; the 1e-14 covers the cosines and the sum.
PHASE_ROUNDING_BOUND = 2.0 * np.pi * 2.0 ** -52 * (1.5 ** 21 - 1.0) / 0.5


@pytest.mark.parametrize("radius", (5.0, 25.0))
def test_weierstrass_is_as_close_to_exact_reduction_as_before(radius):
    z = np.random.default_rng(int(radius)).uniform(-radius, radius,
                                                   size=(400, 1))
    exact = exact_weierstrass(z)
    got = weierstrass(z)
    error = np.abs(got - exact)
    bound = PHASE_ROUNDING_BOUND * np.abs(z[:, 0] + 0.5) + 1e-14
    assert (error <= bound).all()
    # The mean, not the maximum: the two formulas share the rounding of
    # z + 1/2, and over 400 points the reduced one had the larger maximum
    # in 4 of 40 seeds tried, but the lower mean in all 40 (by 7-32%).
    assert error.mean() <= np.abs(unreduced_weierstrass(z) - exact).mean()
    assert (got >= 0.0).all()


@pytest.mark.parametrize("d", (1, 2, 5, 10, 20))
def test_weierstrass_is_nonnegative_and_exactly_zero_at_the_origin(d):
    rng = np.random.default_rng(d)
    for scale in (1e-7, 1e-12, 1e-300):
        z = rng.uniform(-scale, scale, size=(400, d))
        assert (weierstrass(z) >= 0.0).all(), scale
    assert (weierstrass(np.zeros((3, d))) == 0.0).all()
    assert (weierstrass(np.full((1, d), -0.0)) == 0.0).all()


@pytest.mark.parametrize("pid", COMPOSITION_IDS)
def test_composition_never_scores_above_zero_near_its_shift_points(pid):
    problem = make_problem(pid)
    rng = np.random.default_rng(pid)
    shifts = problem.optima_positions
    assert (problem.fn(shifts) == 0.0).all()
    lo, hi = problem.bounds.lower, problem.bounds.upper
    for scale in (1e-3, 1e-7, 1e-12):
        picks = rng.integers(0, len(shifts), size=400)
        x = shifts[picks] + rng.uniform(-scale, scale,
                                        size=(400, problem.d))
        x = np.clip(x, lo, hi)
        assert (problem.fn(x) <= 0.0).all(), scale
