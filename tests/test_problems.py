"""Benchmark problem definitions and the budget-gated evaluator."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hillvallea.bounds import Bounds
from hillvallea.problems import functions
from hillvallea.problems.evaluator import (BudgetExhaustedError, Evaluator,
                                           OutOfBoundsError)
from hillvallea.problems.suite import (DEFAULT_DATA_DIR, InvalidProblemError,
                                       MissingDataError, PROBLEM_IDS,
                                       make_problem)

from conftest import BIG, EQUAL_MAXIMA, problem_fields_sha256

REPO = Path(__file__).resolve().parent.parent

# Expected (dimension, global-optima count, budget) per problem id.
TABLE_ROWS = {
    1: (1, 2, 50_000), 2: (1, 5, 50_000), 3: (1, 1, 50_000),
    4: (2, 4, 50_000), 5: (2, 2, 50_000), 6: (2, 18, 200_000),
    7: (2, 36, 200_000), 8: (3, 81, 400_000), 9: (3, 216, 400_000),
    10: (2, 12, 200_000), 11: (2, 6, 200_000), 12: (2, 8, 200_000),
    13: (2, 6, 200_000), 14: (3, 6, 400_000), 15: (3, 8, 400_000),
    16: (5, 6, 400_000), 17: (5, 8, 400_000), 18: (10, 6, 400_000),
    19: (10, 8, 400_000), 20: (20, 8, 400_000),
}


def test_problem_ids_cover_1_to_20():
    assert PROBLEM_IDS == tuple(range(1, 21))


def test_problem_7_matches_table_row():
    p = make_problem(7)
    assert (p.d, p.n_global_optima, p.budget) == (2, 36, 200_000)
    assert p.name == "Vincent"


def test_problem_20_matches_table_row():
    p = make_problem(20)
    assert (p.d, p.n_global_optima, p.budget) == (20, 8, 400_000)


@pytest.mark.parametrize("bad_id", [0, 21, -3, 100, True, 2.0, 1.5])
def test_out_of_range_id_rejected(bad_id):
    with pytest.raises(InvalidProblemError):
        make_problem(bad_id)


def test_numpy_integer_id_is_stored_as_int():
    p = make_problem(np.int64(7))
    assert p.id == 7 and type(p.id) is int


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_every_problem_constructs_consistently(pid):
    p = make_problem(pid)
    d, n_global, budget = TABLE_ROWS[pid]
    assert (p.d, p.n_global_optima, p.budget) == (d, n_global, budget)
    assert p.optima_positions.shape == (n_global, d)
    assert p.optima_fitness.shape == (n_global,)
    # All optima inside the box.
    assert np.all(p.optima_positions >= p.bounds.lower)
    assert np.all(p.optima_positions <= p.bounds.upper)
    # Stored fitness agrees with the objective at the stored position.
    assert np.max(np.abs(p.fn(p.optima_positions) - p.optima_fitness)) <= 1e-9
    # Optima are pairwise distinct points.
    diff = p.optima_positions[:, None, :] - p.optima_positions[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > 1e-6


@pytest.mark.parametrize("pid", PROBLEM_IDS)
def test_optima_are_local_maxima(pid):
    """Nudging any stored optimum inside the box never gains fitness."""
    p = make_problem(pid)
    rng = np.random.default_rng(pid)
    step = 1e-4 * p.bounds.range
    for pos, fit in zip(p.optima_positions, p.optima_fitness):
        for _ in range(8):
            nudge = np.clip(pos + step * rng.uniform(-1, 1, p.d),
                            p.bounds.lower, p.bounds.upper)
            if np.array_equal(nudge, pos):
                continue
            assert float(p.fn(nudge[None, :])[0]) <= fit + 1e-12


# problem_fields_sha256(make_problem(pid)) of the closed-form problems.
# A one-ulp move of any listed optimum changes its problem's hash.
CLOSED_FORM_FIELDS_SHA256 = {
    1: "48734151059e8819edd0eb592c69580cd43100db6112b7b533b06640b1d78f99",
    2: "3dc227687a96f3ec24037e2f37d8ba0134cbb4f59b357ab373bbf5ab44ba3890",
    3: "42d44f1ea3c6b9d496a9a1180783ad4836e05a8e6b07efc110e73c8e021389c0",
    4: "d00e74bc36279d05be7a89b1dac98f2c04dd999dede0ef70b35fd32fbec3b5f8",
    5: "74d78d1e49a7d3efb7d609b92add589b2ec96c40700b01c3866181a4df8bdd24",
    6: "1adf30b50619ebcbf2e9b2f0a1a45a01f6d2650d7ac0e8460df7e2b27f237cdb",
    7: "153cb2413af080a933c7d245c6145da613f6a638785fd19f842de156c4de0f25",
    8: "a8cd81e6834c73976ca6cf8014c3690b4486a24633a1550d918d161de16c3e7e",
    9: "943a9bf9e28dd55b04ddfb61f46093e7a4eca9b3ea99d6c16ef9ac697fd6c323",
    10: "f925d90cb5d23798324263bce7f80c9f9a6867648c9521c4004badbdc2200e59",
}


@pytest.mark.parametrize("pid", range(1, 11))
def test_closed_form_problem_fields_are_unchanged(pid):
    assert (problem_fields_sha256(make_problem(pid))
            == CLOSED_FORM_FIELDS_SHA256[pid])


@pytest.mark.parametrize("pid", range(11, 21))
def test_composition_peaks_at_exactly_zero(pid):
    """Composition objectives peak at 0 on each shift point and are
    non-positive everywhere else."""
    p = make_problem(pid)
    assert np.all(p.optima_fitness == 0.0)
    rng = np.random.default_rng(pid)
    xs = rng.uniform(p.bounds.lower, p.bounds.upper, size=(100, p.d))
    assert np.all(p.fn(xs) <= 1e-12)


def test_equal_maxima_peak_value():
    p = make_problem(2)
    ev = Evaluator(p.fn, p.bounds, p.budget)
    assert ev.evaluate(np.array([0.1])) == pytest.approx(1.0, abs=1e-12)


def test_equal_maxima_peaks_and_troughs():
    peaks = np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])
    troughs = np.array([[0.2], [0.4], [0.6], [0.8]])
    assert np.all(np.abs(functions.equal_maxima(peaks) - 1.0) <= 1e-12)
    assert np.all(functions.equal_maxima(troughs) < 1e-90)


def test_five_uneven_peak_trap_piecewise_values():
    p = make_problem(1)
    ev = Evaluator(p.fn, p.bounds, p.budget)
    assert ev.evaluate(np.array([0.0])) == 200.0
    xs = np.array([[2.5], [5.0], [27.5], [30.0]])
    np.testing.assert_allclose(
        functions.five_uneven_peak_trap(xs), [0.0, 160.0, 0.0, 200.0],
        atol=1e-12)


def test_himmelblau_peak_value():
    assert functions.himmelblau(np.array([[3.0, 2.0]]))[0] == 200.0


def test_six_hump_camel_back_peak_value():
    # The two global peaks of the negated objective sit at the
    # literature value 1.0316284... .
    p = make_problem(5)
    np.testing.assert_allclose(p.optima_fitness, 1.0316284535, atol=1e-6)


def test_shubert_2d_peak_value():
    # All 18 global peaks share the literature value 186.7309088... .
    p = make_problem(6)
    np.testing.assert_allclose(p.optima_fitness, 186.7309088, atol=1e-4)


def test_vincent_peak_value():
    x = np.full((1, 2), np.exp(np.pi / 20.0))
    assert functions.vincent(x)[0] == pytest.approx(1.0, abs=1e-12)


def test_modified_rastrigin_peak_value():
    p = make_problem(10)
    np.testing.assert_allclose(p.optima_fitness, -2.0, atol=1e-9)


# The CEC2013 niching suite's published global-optimum fitness of
# problems 1-10. p03's is rounded: its true peak is 1.7e-7 lower.
PUBLISHED_OPTIMUM = {1: 200.0, 2: 1.0, 3: 1.0, 4: 200.0, 5: 1.031628453489877,
                     6: 186.7309088310239, 7: 1.0, 8: 2709.093505572820,
                     9: 1.0, 10: -2.0}


@pytest.mark.parametrize("pid", range(1, 11))
def test_every_closed_form_optimum_scores_the_published_value(pid):
    # 1e-5, the finest accuracy level the scores use
    fitness = make_problem(pid).optima_fitness
    assert np.abs(fitness - PUBLISHED_OPTIMUM[pid]).max() <= 1e-5


def test_missing_composition_data_names_the_file(tmp_path):
    with pytest.raises(MissingDataError, match="cf1_d02.txt"):
        make_problem(11, data_dir=tmp_path)


@pytest.mark.parametrize("edit", ["nan", "inf", "abc", "truncated",
                                  "three-values", "zero-rotation"])
def test_bad_composition_data_names_the_file(tmp_path, edit):
    """A non-finite or non-numeric entry, a missing row, a row of three
    values, or a rotation block of zeros fails when the file is loaded,
    not later inside a run."""
    rows = (DEFAULT_DATA_DIR / "cf1_d02.txt").read_text().splitlines()
    if edit == "truncated":
        rows = rows[:-1]
    elif edit == "three-values":  # the first shift
        rows[0] += " 0"
    elif edit == "zero-rotation":  # the first rotation block
        rows[6] = rows[7] = "0 0"
    else:  # the first shift for nan and abc, the first rotation row for inf
        row = 6 if edit == "inf" else 0
        rows[row] = edit + " " + rows[row].split(None, 1)[1]
    (tmp_path / "cf1_d02.txt").write_text("\n".join(rows) + "\n")
    with pytest.raises(InvalidProblemError, match="cf1_d02.txt"):
        make_problem(11, data_dir=tmp_path)


def test_default_data_dir_ships_with_package():
    assert (DEFAULT_DATA_DIR / "cf1_d02.txt").is_file()
    assert (DEFAULT_DATA_DIR / "cf4_d20.txt").is_file()


def test_generator_reproduces_the_packaged_data_and_nothing_else(tmp_path):
    script = REPO / "scripts" / "generate_composition_data.py"
    subprocess.run([sys.executable, str(script), str(tmp_path)], check=True,
                   capture_output=True)
    written = sorted(p.name for p in tmp_path.rglob("*"))
    packaged = sorted(p.name for p in DEFAULT_DATA_DIR.glob("cf*_d*.txt"))
    assert len(packaged) == 10
    assert written == packaged
    for name in packaged:
        assert ((tmp_path / name).read_bytes()
                == (DEFAULT_DATA_DIR / name).read_bytes()), name


def test_every_package_data_glob_matches_a_file():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((REPO / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]
    assert globs
    for package, patterns in globs.items():
        root = REPO / "src" / package.replace(".", "/")
        for pattern in patterns:
            assert list(root.glob(pattern)), f"{package}: {pattern}"


def test_package_and_all_problems_do_not_import_scipy_optimize():
    # The optima of problems 1-10 are listed in code and checked by the
    # tests in this file, so no root finder runs when a problem is built.
    code = ("import sys\n"
            "import hillvallea\n"
            "for pid in range(1, 21):\n"
            "    hillvallea.make_problem(pid)\n"
            "print('scipy.optimize' in sys.modules)\n")
    src = Path(functions.__file__).resolve().parents[2]
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


# What vanishes at each listed irrational optimum, from the positions.
def _p03_log_slope(positions):
    t = positions[:, 0]
    u = 5.0 * np.pi * (t ** 0.75 - 0.05)
    return (-4.0 * np.log(2.0) * (t - 0.08) / 0.854 ** 2
            + 6.0 * 5.0 * np.pi * 0.75 * t ** -0.25 / np.tan(u))


def _p04_equations(positions):
    x, y = positions.T
    return np.array([x * x + y - 11.0, x + y * y - 7.0])


def _p05_gradient(positions):
    x, y = positions.T
    return np.array([8.0 * x - 8.4 * x ** 3 + 2.0 * x ** 5 + y,
                     x - 8.0 * y + 16.0 * y ** 3])


def _shubert_factor_slope(positions):
    # Every coordinate is one of the 1-D factor's three lowest minima or
    # three highest maxima.
    y = np.unique(positions)
    assert len(y) == 6
    j = np.arange(1.0, 6.0)
    return (j * (j + 1.0) * np.sin((j + 1.0) * y[:, None] + j)).sum(axis=1)


@pytest.mark.parametrize("pid, stationarity", [
    (3, _p03_log_slope), (4, _p04_equations), (5, _p05_gradient),
    (6, _shubert_factor_slope), (8, _shubert_factor_slope)])
def test_polished_optima_are_stationary(pid, stationarity):
    values = stationarity(make_problem(pid).optima_positions)
    assert np.abs(values).max() < 1e-9


# --- evaluator -----------------------------------------------------------


def test_budget_exhaustion_signals():
    ev = Evaluator(*EQUAL_MAXIMA, 3)
    for _ in range(3):
        ev.evaluate(np.array([0.5]))
    assert ev.remaining == 0
    with pytest.raises(BudgetExhaustedError):
        ev.evaluate(np.array([0.5]))
    assert ev.evals_used == 3


def test_out_of_bounds_rejected_without_consuming():
    ev = Evaluator(*EQUAL_MAXIMA, BIG)
    with pytest.raises(OutOfBoundsError):
        ev.evaluate(np.array([1.5]))
    with pytest.raises(OutOfBoundsError):
        ev.evaluate(np.array([-0.1]))
    assert ev.evals_used == 0


def test_evaluate_is_deterministic():
    box = Bounds(np.full(2, -6.0), np.full(2, 6.0))
    ev = Evaluator(functions.himmelblau, box, BIG)
    x = np.array([1.234, -2.345])
    assert ev.evaluate(x) == ev.evaluate(x)


def test_batch_evaluation_is_all_or_nothing():
    ev = Evaluator(*EQUAL_MAXIMA, 5)
    xs = np.full((6, 1), 0.5)
    with pytest.raises(BudgetExhaustedError):
        ev.evaluate_batch(xs)
    assert ev.evals_used == 0          # nothing consumed
    fs = ev.evaluate_batch(xs[:5])
    assert len(fs) == 5 and ev.evals_used == 5


def test_batch_indices_are_consecutive_row_order():
    ev = Evaluator(*EQUAL_MAXIMA, BIG)
    ev.evaluate(np.array([0.2]))
    xs = np.array([[0.6], [0.1], [0.4]])
    fs = ev.evaluate_batch(xs)
    assert ev.evals_used == 4
    # Row order is kept: the peak at 0.1 is row 1.
    assert int(np.argmax(fs)) == 1
    assert fs[1] == pytest.approx(1.0, abs=1e-12)


def test_batch_rejects_out_of_bounds_without_consuming():
    ev = Evaluator(*EQUAL_MAXIMA, BIG)
    with pytest.raises(OutOfBoundsError):
        ev.evaluate_batch(np.array([[0.5], [1.5]]))
    assert ev.evals_used == 0


def test_batch_names_its_first_out_of_bounds_row():
    """A value past the bound in a middle row and the last column of a
    large batch is found, reported with its whole row, and nothing is
    consumed; a row before it with a value exactly on a bound is in."""
    box = Bounds(np.full(3, -1.0), np.full(3, 1.0))
    ev = Evaluator(lambda xs: np.zeros(len(xs)), box, BIG)
    xs = np.random.default_rng(4).uniform(-1.0, 1.0, (2000, 3))
    xs[700, 1] = 1.0
    xs[1234] = [0.25, -0.5, 1.0 + 1e-12]
    for bad_later in (None, (1500, 0)):
        if bad_later is not None:
            xs[bad_later] = -2.0
        with pytest.raises(OutOfBoundsError) as err:
            ev.evaluate_batch(xs)
        assert repr(xs[1234]) in str(err.value)
        assert ev.evals_used == 0
    xs[1234, 2] = xs[1500, 0] = -1.0
    assert len(ev.evaluate_batch(xs)) == 2000


def test_empty_batch_is_free():
    ev = Evaluator(*EQUAL_MAXIMA, BIG)
    assert len(ev.evaluate_batch(np.empty((0, 1)))) == 0
    assert ev.evals_used == 0


# --- objective output check ---------------------------------------------


def scripted_evaluator():
    """An evaluator on [0, 1] whose objective returns whatever
    `out["fs"]` holds, whatever it is asked."""
    out = {}
    return Evaluator(lambda xs: out["fs"], EQUAL_MAXIMA[1], BIG), out


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=100)
@given(st.lists(finite_floats, min_size=1, max_size=20), st.data())
def test_non_finite_output_raises_without_consuming(values, data):
    ev, out = scripted_evaluator()
    out["fs"] = np.ones(3)
    ev.evaluate_batch(np.full((3, 1), 0.5))
    bad = np.array(values)
    i = data.draw(st.integers(0, len(bad) - 1))
    bad[i] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    out["fs"] = bad
    with pytest.raises(ValueError):
        ev.evaluate_batch(np.full((len(bad), 1), 0.5))
    assert ev.evals_used == 3
    out["fs"] = bad[i:i + 1]
    with pytest.raises(ValueError):
        ev.evaluate(np.array([0.5]))
    assert ev.evals_used == 3


# Wrong outputs for m points: a column, one value too many, and the
# right count in a list, which the error names by its type.
WRONG_OUTPUTS = {
    "column": lambda m: np.zeros((m, 1)),
    "long": lambda m: np.zeros(m + 1),
    "list": lambda m: [0.0] * m,
}


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 20), st.sampled_from(sorted(WRONG_OUTPUTS)))
def test_wrongly_shaped_output_raises_without_consuming(m, kind):
    ev, out = scripted_evaluator()
    message = "list" if kind == "list" else "shape"
    out["fs"] = WRONG_OUTPUTS[kind](m)
    with pytest.raises(ValueError, match=message):
        ev.evaluate_batch(np.full((m, 1), 0.5))
    assert ev.evals_used == 0
    out["fs"] = WRONG_OUTPUTS[kind](1)
    with pytest.raises(ValueError, match=message):
        ev.evaluate(np.array([0.5]))
    assert ev.evals_used == 0


# Wrong inputs on problem 7 (d = 2), each of which broadcasts against
# the bounds: a one-coordinate point and a batch of one-coordinate rows,
# then a point with a third coordinate, a (1, 2) "point" and a flat batch.
WRONG_POINTS = [np.array([1.0]), np.array([1.0, 2.0, 3.0]),
                np.ones((1, 2))]
WRONG_BATCHES = [np.ones((3, 1)), np.ones((3, 3)), np.ones(2),
                 np.ones((1, 2, 2))]


@pytest.mark.parametrize("x", WRONG_POINTS, ids=lambda x: str(x.shape))
def test_wrongly_shaped_point_raises_without_consuming(x):
    p = make_problem(7)
    ev = Evaluator(p.fn, p.bounds, p.budget)
    with pytest.raises(ValueError, match=re.escape(str(x.shape))):
        ev.evaluate(x)
    assert ev.evals_used == 0
    # the shape is checked before the budget
    with pytest.raises(ValueError, match=re.escape(str(x.shape))):
        Evaluator(p.fn, p.bounds, 0).evaluate(x)


@pytest.mark.parametrize("xs", WRONG_BATCHES, ids=lambda x: str(x.shape))
def test_wrongly_shaped_batch_raises_without_consuming(xs):
    p = make_problem(7)
    ev = Evaluator(p.fn, p.bounds, p.budget)
    with pytest.raises(ValueError, match=re.escape(str(xs.shape))):
        ev.evaluate_batch(xs)
    assert ev.evals_used == 0


@settings(deadline=None, max_examples=100)
@given(st.lists(finite_floats, min_size=1, max_size=20))
def test_finite_output_is_returned_unchanged(values):
    ev, out = scripted_evaluator()
    out["fs"] = np.array(values)
    fs = ev.evaluate_batch(np.full((len(values), 1), 0.5))
    np.testing.assert_array_equal(fs, np.array(values))
    assert ev.evals_used == len(values)
    out["fs"] = np.array(values[:1])
    assert ev.evaluate(np.array([0.5])) == values[0]
    assert ev.evals_used == len(values) + 1


# --- bounds ---------------------------------------------------------------


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Bounds(np.array([0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="finite"):
        Bounds(np.array([0.0]), np.array([np.inf]))
    # finite ends whose difference overflows
    with pytest.raises(ValueError, match="finite"):
        Bounds(np.array([-1e308]), np.array([1e308]))


def test_bounds_geometry():
    b = Bounds(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    assert b.d == 2
    assert b.volume == 4.0
