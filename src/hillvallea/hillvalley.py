"""Niche detection.

Two solutions share a niche when no sampled point on the segment
between them falls below the worse endpoint's fitness. Clustering walks
a fitness-sorted selection, testing each solution against its nearest
previous (fitter) solutions in distinct clusters, nearest first;
worse-half solutions within one expected edge length of such a
solution join its cluster without spending evaluations. The
nearest-first order comes from a few KD-tree neighbours per solution,
with an exact sort of the whole prefix as the rare fallback.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .bounds import Bounds
from .problems.evaluator import BudgetExhaustedError, Evaluator

TEST_POINT_CAP = 10
# Spatial neighbours fetched per solution. Most walks end among a
# solution's nearest few previous solutions, so the exact sort of the
# whole prefix is a fallback.
_HEAD_K = 16
# The KD-tree's distances and the exact ones differ by a few ulps of
# rounding, so every solution whose exact squared distance lies below
# this fraction of the k-th fetched squared distance was fetched.
_HEAD_MARGIN = 1.0 - 1e-9


def expected_edge_length(n: int, bounds: Bounds) -> float:
    """Typical nearest-neighbor spacing of n uniform points in the box."""
    return float((bounds.volume / n) ** (1.0 / bounds.d))


def n_test_points(dist: float, eel: float) -> int:
    return min(TEST_POINT_CAP, 1 + int(dist / eel))


def hill_valley_test(ev: Evaluator, xa: np.ndarray, fa: float,
                     xb: np.ndarray, fb: float, n_t: int) -> bool:
    """True when points xa and xb, of fitness fa and fb, appear to share
    a niche: with x the lexicographically smaller of the two and y the
    other, none of the n_t probes x + k/(n_t+1)·(y − x), k = 1..n_t,
    scores below min(fa, fb). Short-circuits on the first
    counterexample. Starting from the smaller endpoint makes swapping
    the two points probe bit-identical points.

    The probes split the segment into gaps of h = |y − x|/(n_t+1), so
    any sub-floor interval wider than h contains a probe and is always
    detected; a valley is missed only when it lies inside a single
    probe gap."""
    ax, bx = xa.tolist(), xb.tolist()
    if ax == bx:
        return True
    lo, hi = (xa, xb) if ax <= bx else (xb, xa)
    f_min = min(fa, fb)
    step = (hi - lo) / (n_t + 1)
    for k in range(1, n_t + 1):
        if ev.evaluate(lo + k * step) < f_min:
            return False
    return True


def hill_valley_clustering(points: np.ndarray, ev: Evaluator, bounds: Bounds,
                           fitness: np.ndarray) -> list[list[int]]:
    """Partition a selection, the rows of points and their fitness, best
    first, into niches: each cluster the ascending row indices of its
    members, the clusters in the order of their best members.

    Each point is tested against at most d+1 nearest previous points
    from distinct clusters, nearest first, ties by index. Worse-half
    points within one expected edge length of a candidate join its
    cluster untested. On budget exhaustion every not-yet-clustered
    point becomes a singleton cluster.

    A point's walk starts with its head: the fetched KD-tree neighbours
    j < i whose exact squared distance lies below the cut (the k-th
    fetched squared distance times _HEAD_MARGIN), sorted by (distance,
    index). Every unfetched point lies at or beyond the cut, so the
    head is exactly the start of the full nearest-first order; a walk
    that runs past it continues in a stable sort of the whole prefix.
    """
    s_count = len(points)
    if s_count == 0:
        raise ValueError("selection must be non-empty")
    if np.any(np.diff(fitness) > 0):
        raise ValueError("selection must be sorted by fitness, best first")

    eel = expected_edge_length(s_count, bounds)
    worse_half_start = -(-s_count // 2)
    max_candidates = bounds.d + 1

    k = min(_HEAD_K, s_count)
    dd, ii = cKDTree(points).query(points, k=k)
    dd, ii = dd.reshape(s_count, k), ii.reshape(s_count, k)
    d2 = ((points[ii] - points[:, None, :]) ** 2).sum(axis=-1)
    in_head = ((ii < np.arange(s_count)[:, None])
               & (d2 < dd[:, -1:] ** 2 * _HEAD_MARGIN))
    d2 = np.where(in_head, d2, np.inf)
    order = np.lexsort((ii, d2))
    ii = np.take_along_axis(ii, order, axis=1)
    d2 = np.take_along_axis(d2, order, axis=1)
    head_len = in_head.sum(axis=1).tolist()

    def nearest_first(i: int):
        """Yield (squared distance, j) over j < i, nearest first."""
        m = head_len[i]
        yield from zip(d2[i, :m].tolist(), ii[i, :m].tolist())
        if m < i:
            row = ((points[:i] - points[i]) ** 2).sum(axis=1)
            for j in np.argsort(row, kind="stable")[m:].tolist():
                yield float(row[j]), j

    def walk(i: int) -> int:
        """Assign point i by testing nearest previous points in
        distinct clusters; returns the cluster index or -1."""
        seen: set[int] = set()
        for dist2, j in nearest_first(i):
            c = assigned[j]
            if c in seen:
                continue
            seen.add(c)
            n_t = n_test_points(math.sqrt(dist2), eel)
            if (i >= worse_half_start and n_t == 1) or hill_valley_test(
                    ev, points[i], fitness[i], points[j], fitness[j], n_t):
                return c
            if len(seen) == max_candidates:
                break
        return -1

    clusters = [[0]]
    assigned = [0] * s_count
    for i in range(1, s_count):
        try:
            target = walk(i)
        except BudgetExhaustedError:
            clusters.extend([j] for j in range(i, s_count))
            break
        if target >= 0:
            clusters[target].append(i)
        else:
            target = len(clusters)
            clusters.append([i])
        assigned[i] = target
    return clusters
