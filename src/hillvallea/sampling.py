"""Initial-population sampling.

Three stages feed each restart: uniform draws, rejection against the
previous restart's clustered population (to bias away from basins that
are already represented), and greedy scattered subset selection from 2N
candidates down to N. None of these consume objective evaluations.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .bounds import Bounds

REJECTION_PROBABILITY = 0.9
MAX_REDRAWS = 100


def sample_uniform(n: int, bounds: Bounds,
                   rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(bounds.lower, bounds.upper, size=(n, bounds.d))


def rejection_sample(n: int, bounds: Bounds, points: np.ndarray,
                     labels: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw n points uniformly, rejecting a draw with probability 0.9
    when its nearest d+1 history points all carry one cluster label.
    The history is the previous restart's selected `points` and `labels`.
    Each slot is redrawn at most MAX_REDRAWS times, then the final draw
    is accepted unconditionally.

    Each round draws its candidates, then its gate uniforms, and only
    candidates whose gate fired are looked up in the history; a draw
    that passes the gate is accepted whatever its neighbors."""
    if len(points) == 0:
        return sample_uniform(n, bounds, rng)

    single_basin = _single_basin_test(points, labels, bounds)
    out = np.empty((n, bounds.d))
    unfilled = np.arange(n)
    for round_no in range(MAX_REDRAWS + 1):
        m = len(unfilled)
        candidates = sample_uniform(m, bounds, rng)
        if round_no == MAX_REDRAWS:
            out[unfilled] = candidates
            break
        reject = rng.uniform(size=m) < REJECTION_PROBABILITY
        gated = np.flatnonzero(reject)
        if len(gated):
            reject[gated] = single_basin(candidates[gated])
        accepted = unfilled[~reject]
        out[accepted] = candidates[~reject]
        unfilled = unfilled[reject]
        if len(unfilled) == 0:
            break
    return out


# Both grids, the subset route's and the rejection lookups', span at
# most _GRID_MAX_D axes. The lookups first consult about
# _CELLS_PER_HISTORY_POINT cells per history point, each checked against
# its _CERTIFY_NEIGHBORS nearest history points. Speed-only knobs: a
# cell that cannot be certified falls back to the exact query.
_GRID_MAX_D = 3
_CELLS_PER_HISTORY_POINT = 2
_CERTIFY_NEIGHBORS = 32


def _single_basin_test(points: np.ndarray, labels: np.ndarray,
                       bounds: Bounds):
    """Predicate over an (m, d) array: whether each point's nearest
    d+1 history points all carry one label."""
    k = min(bounds.d + 1, len(points))
    tree = cKDTree(points)

    def query(q: np.ndarray) -> np.ndarray:
        near = labels[tree.query(q, k=k)[1].reshape(len(q), k)]
        return (near == near[:, :1]).all(axis=1)

    if bounds.d > _GRID_MAX_D:
        return query
    certified, cell_of = _single_label_cells(tree, labels, bounds, k)

    def test(q: np.ndarray) -> np.ndarray:
        out = certified[cell_of(q)]
        rest = np.flatnonzero(~out)
        if len(rest):
            out[rest] = query(q[rest])
        return out

    return test


def _single_label_cells(tree: cKDTree, labels: np.ndarray, bounds: Bounds,
                        k: int):
    """Grid cells over the box in which every point's k nearest history
    points provably share one label, and the map from points to cells.

    For a cell with center c and half-diagonal rho, the k nearest
    history points of any point in the cell lie within R_k(c) + 2 rho of
    c, R_k(c) being c's own k-th nearest distance. When every history
    point within that reach carries one label, so do the neighbors that
    any query from the cell returns, however it breaks distance ties."""
    d = bounds.d
    per_axis = max(1, int((_CELLS_PER_HISTORY_POINT * tree.n) ** (1.0 / d)))
    width = bounds.range / per_axis
    rho = 0.5 * float(np.sqrt((width ** 2).sum()))
    centers = bounds.lower + (np.indices((per_axis,) * d).reshape(d, -1).T
                              + 0.5) * width
    kk = min(_CERTIFY_NEIGHBORS, tree.n)
    dist, idx = tree.query(centers, k=kk)
    dist = dist.reshape(len(centers), kk)
    near = labels[idx.reshape(len(centers), kk)]
    # the relative margin absorbs rounding in distances and cell lookup
    reach = (dist[:, k - 1] + 2.0 * rho) * (1.0 + 1e-9)
    inside = dist <= reach[:, None]
    certified = ((near == near[:, :1]) | ~inside).all(axis=1)
    if kk < tree.n:
        certified &= ~inside[:, -1]  # every point within reach was seen
    scale = per_axis / bounds.range
    strides = per_axis ** np.arange(d - 1, -1, -1)

    def cell_of(q: np.ndarray) -> np.ndarray:
        cell = ((q - bounds.lower) * scale).astype(np.int64)
        np.clip(cell, 0, per_axis - 1, out=cell)
        return cell @ strides

    return certified, cell_of


def greedy_scattered_subset(candidates: np.ndarray, k: int) -> np.ndarray:
    """Farthest-point subset: seed with the candidate farthest from the
    centroid, then repeatedly add the candidate maximizing the minimum
    distance to the chosen set. Ties break to the lowest index."""
    candidates = np.asarray(candidates, dtype=float)
    if k > len(candidates):
        raise ValueError(f"cannot select {k} of {len(candidates)} candidates")
    if k == 0:
        return candidates[:0]
    centroid = candidates.mean(axis=0)
    seed = int(np.argmax(((candidates - centroid) ** 2).sum(axis=1)))
    if candidates.shape[1] <= _GRID_MAX_D:
        chosen = _grid_farthest_points(candidates, k, seed)
    else:
        chosen = _gemv_farthest_points(candidates, k, seed)
    return candidates[chosen]


# The grid route keeps a running maximum of the cached distances per
# block of 2**_BLOCK_SHIFT cell-sorted candidates, checks a batch for
# conflicts _CONFLICT_CHUNK members at a time and reads at most
# _MAX_BATCH top candidates per batch. Speed-only knobs: the picks do
# not depend on them.
_BLOCK_SHIFT = 6
_BLOCK = 1 << _BLOCK_SHIFT
_CONFLICT_CHUNK = 64
_MAX_BATCH = 512
# _EARLIER[i, j]: batch member i comes before member j
_EARLIER = np.triu(np.ones((_MAX_BATCH, _MAX_BATCH), dtype=bool), 1)


def _gemv_farthest_points(candidates: np.ndarray, k: int,
                          seed: int) -> np.ndarray:
    """One pick at a time for d > _GRID_MAX_D: each pick refreshes the
    cached distances with norms and one matrix-vector product."""
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = seed
    norms = np.einsum("ij,ij->i", candidates, candidates)
    buf = np.empty(len(candidates))
    min_d2 = ((candidates - candidates[seed]) ** 2).sum(axis=1)
    min_d2[seed] = -np.inf
    for m in range(1, k):
        j = int(np.argmax(min_d2))
        chosen[m] = j
        np.dot(candidates, candidates[j], out=buf)
        buf *= -2.0
        buf += norms
        buf += norms[j]
        np.minimum(min_d2, buf, out=min_d2)
        min_d2[j] = -np.inf
    return chosen


def _grid_farthest_points(candidates: np.ndarray, k: int,
                          seed: int) -> np.ndarray:
    """The selection for d <= _GRID_MAX_D, several exact picks at a time.

    The top cached distances are read in pick order (largest first,
    ties to the lowest index). The longest prefix of them in which no
    member is closer to an earlier member than its own cached distance
    is a run of consecutive single picks: no member's cached value can
    shrink under the earlier ones, and every other value only ever
    decreases, so each member is still the exact argmax in its turn.
    The picks then refresh only the candidates in the grid cells within
    their own max-min distance; a candidate farther away cannot shrink.
    """
    n, d = candidates.shape
    # The cell geometry is padded to three axes of which the unused
    # ones hold a single cell.
    pts = np.zeros((n, 3))
    pts[:, :d] = candidates
    lo = pts.min(axis=0)
    span = pts.max(axis=0) - lo
    vol = float(np.prod(np.maximum(span[:d], 1e-300)))
    mx = int(np.ceil((4.0 * k) ** (1.0 / d))) + 1
    h = max((vol / k) ** (1.0 / d), float(span.max()) / mx, 1e-300)
    inv_h = 1.0 / h
    nx = (span / h).astype(np.int64) + 1
    cell = ((pts - lo) * inv_h).astype(np.int64)
    np.minimum(cell, nx - 1, out=cell)
    flat = cell @ np.array([1, nx[0], nx[0] * nx[1]])
    order = np.argsort(flat, kind="stable")
    starts = np.searchsorted(flat[order], np.arange(int(nx.prod()) + 1))

    # Everything below lives in cell-sorted positions, so that a row of
    # cells is one contiguous slice; `tiebreak` maps a position back to
    # its original index (padding sorts last).
    nb = -(-n // _BLOCK)
    tiebreak = np.concatenate((order, np.arange(n, nb * _BLOCK)))
    cols = [np.ascontiguousarray(candidates[order, j]) for j in range(d)]
    vals = np.full(nb * _BLOCK, -np.inf)
    mind2 = vals[:n]
    mind2[:] = _sq_dist(cols, candidates[seed])
    mind2[np.flatnonzero(order == seed)] = -np.inf
    blocks = vals.reshape(nb, _BLOCK)
    blockmax = blocks.max(axis=1)
    touched = np.zeros(nb, dtype=bool)
    lanes = np.arange(_BLOCK)
    chosen = np.empty(k, dtype=np.intp)
    chosen[0] = seed
    m = 1
    size = 8
    while m < k:
        # The `size` largest values all sit in the blocks whose running
        # maximum reaches the size-th largest block maximum.
        size = min(size, k - m)
        if nb > size:
            thr = blockmax[np.argpartition(blockmax, nb - size)[nb - size:]
                           ].min()
            pos = (np.flatnonzero(blockmax >= thr)[:, None] * _BLOCK
                   + lanes).ravel()
            pos = pos[vals[pos] >= thr]
        else:
            pos = np.arange(n)
        top = np.lexsort((tiebreak[pos], -vals[pos]))[:size]
        top_pos = pos[top]
        top_d2 = vals[top_pos]
        xs = pts[order[top_pos]]
        run = size
        for c0 in range(0, size, _CONFLICT_CHUNK):
            c1 = min(c0 + _CONFLICT_CHUNK, size)
            pair_d2 = _sq_dist([xs[:c1, j, None] for j in range(d)],
                               xs[c0:c1])
            shrinks = ((pair_d2 < top_d2[c0:c1]) & _EARLIER[:c1, c0:c1]
                       ).any(axis=0)
            if shrinks.any():
                run = c0 + int(shrinks.argmax())
                break
        picks = top_pos[:run]
        chosen[m:m + run] = order[picks]
        m += run
        size = min(2 * run + 8, _MAX_BATCH)

        touched[picks >> _BLOCK_SHIFT] = True
        ring, owner = _ring_positions(xs[:run], np.sqrt(top_d2[:run]), lo,
                                      inv_h, nx, starts)
        dd = _sq_dist([c[ring] for c in cols], xs[:run][owner])
        shrunk = dd < mind2[ring]
        hit = ring[shrunk]
        np.minimum.at(mind2, hit, dd[shrunk])
        touched[hit >> _BLOCK_SHIFT] = True
        mind2[picks] = -np.inf
        stale = np.flatnonzero(touched)
        touched[stale] = False
        blockmax[stale] = blocks[stale].max(axis=1)
    return chosen


def _sq_dist(cols: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Squared distances summed axis by axis in the order of
    ((a - b) ** 2).sum(axis=1), so the doubles are identical to it."""
    total = (cols[0] - x[..., 0]) ** 2
    for j in range(1, len(cols)):
        total += (cols[j] - x[..., j]) ** 2
    return total


def _ring_positions(centers: np.ndarray, radii: np.ndarray, lo, inv_h,
                    nx, starts) -> tuple[np.ndarray, np.ndarray]:
    """Cell-sorted positions of the candidates in the grid cells that
    meet each ball's bounding box, and the ball each one belongs to.
    Centers and grid are padded to three axes. The radii get a relative
    margin so that rounding cannot drop a cell from the box."""
    reach = (radii * (1.0 + 1e-9))[:, None]
    first = np.clip((centers - reach - lo) * inv_h, 0, nx - 1).astype(np.int64)
    last = np.clip((centers + reach - lo) * inv_h, 0, nx - 1).astype(np.int64)
    # one entry per row of cells along axis 0
    width1 = last[:, 1] - first[:, 1] + 1
    n_rows = width1 * (last[:, 2] - first[:, 2] + 1)
    row_ball = np.repeat(np.arange(len(centers)), n_rows)
    local = np.arange(len(row_ball)) - np.repeat(np.cumsum(n_rows) - n_rows,
                                                 n_rows)
    c1 = first[row_ball, 1] + local % width1[row_ball]
    c2 = first[row_ball, 2] + local // width1[row_ball]
    row_base = (c2 * nx[1] + c1) * nx[0]
    a = starts[row_base + first[row_ball, 0]]
    e = starts[row_base + last[row_ball, 0] + 1]
    lengths = e - a
    ring = (np.repeat(a - (np.cumsum(lengths) - lengths), lengths)
            + np.arange(int(lengths.sum())))
    return ring, np.repeat(row_ball, lengths)


def sample_initial_population(n: int, bounds: Bounds, points: np.ndarray,
                              labels: np.ndarray,
                              rng: np.random.Generator) -> np.ndarray:
    """Draw 2N candidates with rejection, keep the N most scattered."""
    if n < 1:
        raise ValueError("population size must be at least 1")
    candidates = rejection_sample(2 * n, bounds, points, labels, rng)
    return greedy_scattered_subset(candidates, n)
