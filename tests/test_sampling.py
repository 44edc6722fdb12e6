"""Initial-population sampling: uniform draws, cluster-aware rejection,
and greedy scattered subset selection."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

import hillvallea.sampling as sampling
from hillvallea.bounds import Bounds
from hillvallea.sampling import (greedy_scattered_subset, rejection_sample,
                                 sample_initial_population, sample_uniform)

from conftest import min_pairwise_distance

UNIT_SQUARE = Bounds(np.zeros(2), np.ones(2))
UNIT_LINE = Bounds(np.zeros(1), np.ones(1))
# the history points and labels a run's first restart samples against
NO_HISTORY = np.empty((0, 2)), np.empty(0, dtype=np.intp)


# --- uniform sampling ------------------------------------------------------


def test_sample_uniform_empty():
    out = sample_uniform(0, UNIT_SQUARE, np.random.default_rng(0))
    assert out.shape == (0, 2)


def test_sample_uniform_containment():
    out = sample_uniform(3, UNIT_SQUARE, np.random.default_rng(1))
    assert out.shape == (3, 2)
    assert np.all((out >= 0.0) & (out <= 1.0))


def test_sample_uniform_deterministic():
    a = sample_uniform(10, UNIT_SQUARE, np.random.default_rng(7))
    b = sample_uniform(10, UNIT_SQUARE, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("lower,upper", [
    ([0.0], [30.0]), ([0.25, 0.25], [10.0, 10.0]),
    ([-1.9, -1.1], [1.9, 1.1]), ([-5.0] * 5, [5.0] * 5),
    ([-1e150, 3.0, -7.5], [1e150, 3.5, -7.25])])
def test_sample_uniform_draws_what_rng_uniform_draws(lower, upper):
    """The same doubles, in the same order, as numpy's own uniform draw
    over the box, and the generator left in the same state."""
    bounds = Bounds(np.array(lower), np.array(upper))
    ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
    for n in (0, 1, 7, 1000):
        np.testing.assert_array_equal(
            sample_uniform(n, bounds, ours),
            theirs.uniform(bounds.lower, bounds.upper, size=(n, bounds.d)))
    assert ours.random() == theirs.random()


# --- rejection sampling ----------------------------------------------------


def test_empty_history_degenerates_to_uniform():
    uniform = sample_uniform(25, UNIT_SQUARE, np.random.default_rng(3))
    rejected = rejection_sample(25, UNIT_SQUARE, *NO_HISTORY,
                                np.random.default_rng(3))
    np.testing.assert_array_equal(uniform, rejected)


def count_draws(monkeypatch) -> dict:
    """Count the raw uniform draws rejection_sample makes. Every
    accepted slot takes exactly one draw, the capped final round
    included, so a call for n points rejected draws - n of them."""
    counter = {"draws": 0}

    def counting(n, bounds, rng):
        counter["draws"] += n
        return sample_uniform(n, bounds, rng)

    monkeypatch.setattr(sampling, "sample_uniform", counting)
    return counter


def single_label_history(m: int, bounds: Bounds, seed: int):
    pts = sample_uniform(m, bounds, np.random.default_rng(seed))
    return pts, np.zeros(m, dtype=int)


@pytest.mark.parametrize("d", [2, 5])
def test_single_cluster_history_rejects_ninety_percent(monkeypatch, d):
    """With one cluster covering the whole domain every raw draw faces
    the 0.9 rejection gate; the observed rejection fraction over roughly
    ten thousand raw draws lands within 0.02 of 0.9. In 2-D the grid of
    certified cells answers; in 5-D every gated draw goes to the tree."""
    bounds = Bounds(np.zeros(d), np.ones(d))
    history = single_label_history(50, bounds, seed=11)
    counter = count_draws(monkeypatch)
    out = rejection_sample(1000, bounds, *history, np.random.default_rng(42))
    assert out.shape == (1000, d)
    draws = counter["draws"]
    assert draws >= 5000
    fraction = (draws - 1000) / draws
    assert abs(fraction - 0.9) <= 0.02


def test_two_cluster_history_never_rejects_on_the_boundary_mix(monkeypatch):
    """Neighbors from different clusters disarm the rejection gate."""
    pts = np.array([[0.25, 0.5], [0.75, 0.5]])
    # d+1 = 3 > |history| = 2: both neighbors are always the full set,
    # labels differ, so nothing is ever rejected.
    counter = count_draws(monkeypatch)
    rejection_sample(500, UNIT_SQUARE, pts, np.array([0, 1]),
                     np.random.default_rng(5))
    assert counter["draws"] == 500


def test_short_history_with_one_label_still_rejects(monkeypatch):
    """Fewer history points than d+1 still gate on the available ones."""
    counter = count_draws(monkeypatch)
    out = rejection_sample(300, UNIT_SQUARE, np.array([[0.5, 0.5]]),
                           np.array([3]), np.random.default_rng(6))
    assert out.shape == (300, 2)
    assert counter["draws"] - 300 > 0


def test_redraw_cap_accepts_unconditionally(monkeypatch):
    """With certain rejection every slot runs the full redraw budget and
    the final draw is accepted anyway."""
    monkeypatch.setattr(sampling, "REJECTION_PROBABILITY", 1.0)
    history = single_label_history(10, UNIT_SQUARE, seed=2)
    counter = count_draws(monkeypatch)
    out = rejection_sample(7, UNIT_SQUARE, *history, np.random.default_rng(0))
    assert out.shape == (7, 2)
    assert np.all((out >= 0.0) & (out <= 1.0))
    assert counter["draws"] == 7 * (sampling.MAX_REDRAWS + 1)
    assert counter["draws"] - 7 == 7 * sampling.MAX_REDRAWS


@pytest.mark.parametrize("d", [2, 5])
def test_rejection_output_always_in_bounds_and_sized(d):
    bounds = Bounds(np.array([-3.0, 2.0, 0.0, -1.0, 5.0][:d]),
                    np.array([-1.0, 6.0, 0.5, 1.0, 9.0][:d]))
    pts = sample_uniform(40, bounds, np.random.default_rng(8))
    labels = np.arange(40) % 4
    out = rejection_sample(123, bounds, pts, labels, np.random.default_rng(9))
    assert out.shape == (123, bounds.d)
    assert np.all(out >= bounds.lower) and np.all(out <= bounds.upper)


def lattice(d: int, side: int) -> np.ndarray:
    """The side**d centers of a regular grid over the unit box."""
    axis = (np.arange(side) + 0.5) / side
    return np.array(list(itertools.product(axis, repeat=d)))


def region_labels(pts: np.ndarray) -> np.ndarray:
    """Labels by region, as hill-valley clustering tends to produce."""
    return (pts[:, 0] * 3).astype(int) + 3 * (pts[:, -1] > 0.6)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_certified_cells_match_tree_route(d):
    """Points in a cell certified as single-label skip the tree query;
    the predicate must still equal a direct nearest-(d+1) tree query on
    every query point, including near the label boundaries. Lattice
    histories, queried on a lattice of their own midpoints, put exact
    distance ties everywhere. Some cells must be certified only in part,
    by their halves."""
    rng = np.random.default_rng(40 + d)
    bounds = Bounds(np.zeros(d), np.ones(d))
    histories = [(rng.uniform(size=(h, d)), rng.uniform(size=(5000, d)))
                 for h in (1, 5, 60, 400)]
    side = {1: 300, 2: 24, 3: 9}[d]
    grid = np.arange(2 * side + 1) / (2 * side)
    ties = np.array(list(itertools.product(grid, repeat=d)))
    histories += [(lattice(d, side), ties), (lattice(d, 3), ties)]
    halves_certified = 0
    for pts, q in histories:
        labels = region_labels(pts)
        fast = sampling._single_basin_test(pts, labels, bounds)(q)
        k = min(d + 1, len(pts))
        idx = cKDTree(pts).query(q, k=k)[1].reshape(len(q), k)
        slow = (labels[idx] == labels[idx[:, :1]]).all(axis=1)
        np.testing.assert_array_equal(fast, slow)
        tree = cKDTree(pts)
        certified, _ = sampling._single_label_cells(tree, labels, bounds, k)
        # every certified cell of the table holds its certificate: the
        # history points within R_k(c) + 2 rho of its center share a label
        per_axis = round(len(certified) ** (1.0 / d))
        cells = np.stack(np.unravel_index(np.flatnonzero(certified),
                                          (per_axis,) * d), axis=1)
        centers = (cells + 0.5) / per_axis
        r_k = tree.query(centers, k=k)[0].reshape(len(cells), k)[:, -1]
        reach = r_k + np.sqrt(d) / per_axis
        for near in tree.query_ball_point(centers, reach * (1.0 - 1e-9)):
            assert len(set(labels[near])) <= 1
        # count the cells whose halves are certified in part
        half = per_axis // 2
        blocks = certified.reshape((half, 2) * d)
        pairs = tuple(range(1, 2 * d, 2))
        halves_certified += int((blocks.any(axis=pairs)
                                 & ~blocks.all(axis=pairs)).sum())
        if len(pts) == 400:
            assert certified.any() and not certified.all()
    assert halves_certified > 0


def test_certified_cells_see_past_a_dense_blob():
    """A blob of one label near a cell's center fills the center's
    nearest-neighbor list, while a lone point of another label sits in
    the cell's far corner: the cell must not be certified, since queries
    near the corner see both labels."""
    rng = np.random.default_rng(3)
    n_blob = 3 * sampling._CERTIFY_NEIGHBORS
    per_axis = int((sampling._CELLS_PER_HISTORY_POINT * (n_blob + 1))
                   ** 0.5)
    width = 1.0 / per_axis
    corner = np.full(2, (per_axis // 2) * width)
    blob = corner + width * (0.4 + 0.01 * rng.uniform(size=(n_blob, 2)))
    lone = corner + width * 0.97
    pts = np.vstack((blob, lone))
    labels = np.r_[np.zeros(n_blob, dtype=int), 1]
    q = corner + width * rng.uniform(size=(4000, 2))
    fast = sampling._single_basin_test(pts, labels, UNIT_SQUARE)(q)
    idx = cKDTree(pts).query(q, k=3)[1]
    slow = (labels[idx] == labels[idx[:, :1]]).all(axis=1)
    assert not slow.all()
    np.testing.assert_array_equal(fast, slow)


def test_rejection_one_dimensional_history_end_to_end(monkeypatch):
    pts = np.sort(np.random.default_rng(4).uniform(size=(30, 1)), axis=0)
    labels = (pts[:, 0] > 0.5).astype(int)
    counter = count_draws(monkeypatch)
    out = rejection_sample(400, UNIT_LINE, pts, labels,
                           np.random.default_rng(10))
    assert out.shape == (400, 1)
    assert np.all((out >= 0.0) & (out <= 1.0))
    # The split-line history really does reject some draws.
    assert 0 < counter["draws"] - 400


# --- greedy scattered subset ----------------------------------------------


def test_greedy_subset_line_example():
    candidates = np.array([[0.0], [1.0], [2.0], [10.0]])
    np.testing.assert_array_equal(greedy_scattered_subset(candidates, 2),
                                  np.array([[10.0], [0.0]]))
    np.testing.assert_array_equal(greedy_scattered_subset(candidates, 1),
                                  np.array([[10.0]]))


def test_greedy_subset_full_set_and_empty():
    candidates = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 0.0]])
    out = greedy_scattered_subset(candidates, 3)
    assert sorted(map(tuple, out)) == sorted(map(tuple, candidates))
    assert greedy_scattered_subset(candidates, 0).shape == (0, 2)


def test_greedy_subset_oversized_request_rejected():
    # too many, a negative count in 2-D and 5-D, and a flat array
    for shape, k in [((3, 2), 4), ((3, 2), -1), ((3, 5), -1), ((3,), 2)]:
        with pytest.raises(ValueError, match="candidates"):
            greedy_scattered_subset(np.zeros(shape), k)


def test_greedy_subset_deterministic_members():
    rng = np.random.default_rng(0)
    candidates = rng.uniform(size=(50, 3))
    a = greedy_scattered_subset(candidates, 20)
    b = greedy_scattered_subset(candidates, 20)
    np.testing.assert_array_equal(a, b)
    cand_set = set(map(tuple, candidates))
    assert all(tuple(row) in cand_set for row in a)


def best_subset_min_distance(candidates: np.ndarray, k: int) -> float:
    return max(min_pairwise_distance(candidates[list(comb)])
               for comb in itertools.combinations(range(len(candidates)), k))


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 8), st.integers(1, 3), st.integers(0, 2**31 - 1),
       st.data())
def test_greedy_subset_is_half_as_scattered_as_optimal(n, d, seed, data):
    """Farthest-point selection achieves at least half the best possible
    minimum pairwise distance (checked against brute force)."""
    k = data.draw(st.integers(1, n))
    candidates = np.random.default_rng(seed).uniform(-50, 50, size=(n, d))
    greedy = min_pairwise_distance(greedy_scattered_subset(candidates, k))
    brute = best_subset_min_distance(candidates, k)
    assert greedy >= brute / 2.0 - 1e-9


# --- route equivalence -----------------------------------------------------
# The public function sends d <= 3 to the grid route and wider candidate
# arrays to the gemv route; these tests pin both against the
# straightforward one-pick-at-a-time loop below.


def eager_farthest_points(candidates: np.ndarray, k: int,
                          seed: int) -> list[int]:
    """Reference selection: after each pick, refresh every candidate's
    distance to the chosen set and take the argmax."""
    chosen = [seed]
    min_d2 = ((candidates - candidates[seed]) ** 2).sum(axis=1)
    min_d2[seed] = -np.inf  # never re-pick a chosen candidate
    for _ in range(k - 1):
        nxt = int(np.argmax(min_d2))
        chosen.append(nxt)
        np.minimum(min_d2, ((candidates - candidates[nxt]) ** 2).sum(axis=1),
                   out=min_d2)
        min_d2[nxt] = -np.inf
    return chosen


# Small inputs of both routes; n = 63 and n = 65 sit on either side of
# one 64-row block of the grid route.
SMALL_SIZES = (1, 2, 63, 65, 2048)


def small_ks(n: int) -> list[int]:
    return sorted({1, n // 2, n} - {0})


def fps_instances(rng, d: int, n: int = 3000):
    yield rng.uniform(-5.0, 7.0, size=(n, d))                      # uniform
    centers = rng.normal(size=(5, d)) * 4.0                        # clustered
    mix = centers[rng.integers(0, 5, n)] + rng.normal(size=(n, d)) * 0.2
    yield mix
    side = int(np.ceil(n ** (1.0 / d)))                            # exact ties
    grid = np.array(list(itertools.product(range(side), repeat=d)),
                    dtype=float)[:n]
    yield grid[rng.permutation(n)]
    base = rng.uniform(size=(max(n // 10, 1), d))                  # duplicates
    yield base[np.arange(n) % len(base)]


def centroid_seed(candidates: np.ndarray) -> int:
    centroid = candidates.mean(axis=0)
    return int(np.argmax(((candidates - centroid) ** 2).sum(axis=1)))


# At n = 4096 the grid route's blocks number no more than a batch, so
# every candidate is in the top list; at n = 16384 batches of
# sampling._BATCH members come from the blocks. The lattice and
# duplicate instances put exact ties on the top list's cut.
LARGE_SIZES = ((4096, (4096,)), (16384, (1024,)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_route_matches_eager_route_exactly(d):
    rng = np.random.default_rng(100 + d)
    sizes = ([(3000, (5, 611, 1500))]
             + [(n, small_ks(n)) for n in SMALL_SIZES] + list(LARGE_SIZES))
    for n, ks in sizes:
        for candidates in fps_instances(rng, d, n):
            seed = centroid_seed(candidates)
            for k in ks:
                eager = np.asarray(eager_farthest_points(candidates, k, seed))
                grid = np.asarray(
                    sampling._grid_farthest_points(candidates, k, seed))
                np.testing.assert_array_equal(grid, eager)


@pytest.mark.parametrize("d", [2, 5, 8])
def test_gemv_route_matches_eager_route_on_generic_data(d):
    # norms-minus-dot arithmetic differs in rounding from the eager
    # difference-of-squares, so tie-heavy inputs are excluded; on
    # continuous data the selected indices must coincide.
    rng = np.random.default_rng(200 + d)
    for trial in range(3):
        candidates = rng.uniform(-5.0, 7.0, size=(3000, d))
        seed = centroid_seed(candidates)
        for k in (5, 611, 1500):
            eager = np.asarray(eager_farthest_points(candidates, k, seed))
            gemv = np.asarray(
                sampling._gemv_farthest_points(candidates, k, seed))
            np.testing.assert_array_equal(gemv, eager)


def test_public_dispatch_agrees_with_eager_selection():
    rng = np.random.default_rng(321)
    # d <= 3 dispatches to the grid route, d = 5 to gemv
    cases = [(d, 2500, (900,)) for d in (2, 5)] + [
        (d, n, small_ks(n)) for d in (1, 2, 3, 5) for n in SMALL_SIZES]
    for d, n, ks in cases:
        candidates = rng.uniform(-1.0, 1.0, size=(n, d))
        seed = centroid_seed(candidates)
        for k in ks:
            expected = candidates[eager_farthest_points(candidates, k, seed)]
            np.testing.assert_array_equal(
                greedy_scattered_subset(candidates, k), expected)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sq_dist_gives_the_doubles_of_numpy_row_sums(d):
    """Below 8 axes numpy sums a row left to right, as _sq_dist does;
    the grid routes and the cell certification rely on the equality."""
    rng = np.random.default_rng(500 + d)
    a = rng.uniform(-5.0, 7.0, size=(20000, d))
    x = rng.uniform(-5.0, 7.0, size=d)
    np.testing.assert_array_equal(
        sampling._sq_dist([a[:, j] for j in range(d)], x),
        ((a - x) ** 2).sum(axis=1))
    b = a[:300]
    np.testing.assert_array_equal(
        sampling._sq_dist([b[:, j, None] for j in range(d)], b),
        ((b[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1))


# --- initial population pipeline -------------------------------------------


def test_initial_population_of_one_keeps_the_scattered_draw():
    seed = 77
    draws = sample_uniform(2, UNIT_SQUARE, np.random.default_rng(seed))
    centroid = draws.mean(axis=0)
    expected = draws[np.argmax(((draws - centroid) ** 2).sum(axis=1))]
    out = sample_initial_population(1, UNIT_SQUARE, *NO_HISTORY,
                                    np.random.default_rng(seed))
    np.testing.assert_array_equal(out, expected[None, :])


def test_initial_population_containment_and_size():
    bounds = Bounds(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))
    out = sample_initial_population(64, bounds, *NO_HISTORY,
                                    np.random.default_rng(13))
    assert out.shape == (64, 2)
    assert np.all(out >= bounds.lower) and np.all(out <= bounds.upper)


def test_initial_population_deterministic():
    history = single_label_history(20, UNIT_SQUARE, seed=1)
    a = sample_initial_population(32, UNIT_SQUARE, *history,
                                  np.random.default_rng(55))
    b = sample_initial_population(32, UNIT_SQUARE, *history,
                                  np.random.default_rng(55))
    np.testing.assert_array_equal(a, b)


def test_initial_population_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        sample_initial_population(0, UNIT_SQUARE, *NO_HISTORY,
                                  np.random.default_rng(0))
