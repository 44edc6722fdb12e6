"""Initial-population sampling.

Three stages feed each restart: uniform draws, rejection against the
previous restart's clustered population (to bias away from basins that
are already represented), and greedy scattered subset selection from 2N
candidates down to N. None of these consume objective evaluations.

In up to _GRID_MAX_D dimensions the rejection lookups and the subset
run on grids of cells; these routes draw and pick exactly what the
plain definitions do, and the grids only decide how much work that
takes. Wider subsets refresh distances as norms minus twice a dot
product, which rounds differently from the plain sum of squared
differences, so a near-tie may go the other way; tests pin that route
to the plain loop on generic data only.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .bounds import Bounds

REJECTION_PROBABILITY = 0.9
MAX_REDRAWS = 100


def sample_uniform(n: int, bounds: Bounds,
                   rng: np.random.Generator) -> np.ndarray:
    """n points drawn uniformly from the box: the doubles of
    rng.uniform(bounds.lower, bounds.upper, size=(n, d)), which takes
    lower + range * u element by element, made a column at a time, as
    numpy's broadcast over a short last axis costs several times the
    draws themselves."""
    out = rng.random((n, bounds.d))
    for j in range(bounds.d):
        col = out[:, j]
        col *= bounds.range[j]
        col += bounds.lower[j]
    return out


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
            reject = np.zeros(m, dtype=bool)
        else:
            reject = rng.uniform(size=m) < REJECTION_PROBABILITY
            gated = np.flatnonzero(reject)
            if len(gated):
                reject[gated] = single_basin(candidates.take(gated, axis=0))
        # rows move a column at a time (take for a gather), which numpy
        # does several times faster than whole short rows
        keep = np.flatnonzero(~reject)
        slots = unfilled[keep]
        for j in range(bounds.d):
            out[:, j][slots] = candidates[:, j][keep]
        unfilled = unfilled[reject]
        if len(unfilled) == 0:
            break
    return out


# Both grids, the subset route's and the rejection lookups', span at
# most _GRID_MAX_D axes. The lookups use about _CELLS_PER_HISTORY_POINT
# cells per history point. A cell that no window of cells certifies is
# checked against its _CERTIFY_NEIGHBORS nearest history points, in one
# tree query; one that fails that check is split in two along every
# axis. Speed-only knobs: a cell that cannot be certified falls back to
# the exact query.
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
            out[rest] = query(q.take(rest, axis=0))
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
    any query from the cell returns, however it breaks distance ties.

    Three checks establish it, cheapest first. A cell whose 3**d block
    of cells holds k history points has R_k(c) <= 3 rho, so a reach of
    at most 5 rho: a window of cells covering that ball that holds a
    single label certifies the cell. Any other cell is checked against
    its nearest history points. A cell that fails is split in two along
    every axis; a half's reach lies inside the cell's, so the history
    points within the cell's reach decide the half."""
    d = bounds.d
    per_axis = max(1, int((_CELLS_PER_HISTORY_POINT * tree.n) ** (1.0 / d)))
    shape = (per_axis,) * d
    width = bounds.range / per_axis
    rho = 0.5 * float(np.sqrt((width ** 2).sum()))

    cell = ((tree.data - bounds.lower) * (per_axis / bounds.range)
            ).astype(np.int64)
    np.clip(cell, 0, per_axis - 1, out=cell)
    home = np.ravel_multi_index(cell.T, shape)
    count = np.bincount(home, minlength=per_axis ** d).reshape(shape)
    none_above, none_below = labels.max() + 1, labels.min() - 1
    lowest = np.full(count.shape, none_above, dtype=labels.dtype)
    highest = np.full(count.shape, none_below, dtype=labels.dtype)
    np.minimum.at(lowest.reshape(-1), home, labels)
    np.maximum.at(highest.reshape(-1), home, labels)
    # cells per axis that a ball of 5 rho (and the margin) around a
    # cell's center can reach, so that rounding cannot miss a cell
    window = np.floor(5.0 * rho * (1.0 + 1e-9) / width + 0.5 + 1e-6)
    lowest = _box(lowest, window.astype(int), np.minimum, none_above)
    highest = _box(highest, window.astype(int), np.maximum, none_below)
    block = _box(count, np.ones(d, dtype=int), np.add, 0)
    certified = ((block >= k) & (lowest == highest)).ravel()

    kk = min(_CERTIFY_NEIGHBORS, tree.n)
    cells = np.flatnonzero(~certified)
    ijk = np.stack(np.unravel_index(cells, shape), axis=1)
    dist, idx = tree.query(bounds.lower + (ijk + 0.5) * width, k=kk)
    idx = idx.reshape(len(cells), kk)
    ok, inside = _single_label_within_reach(
        dist.reshape(len(cells), kk) ** 2, labels[idx], k, rho)
    seen = ~inside[:, -1] | (kk == tree.n)  # all within reach seen
    ok &= seen
    certified[cells] = ok
    split = np.flatnonzero(seen & ~ok)

    grid = certified.reshape(shape)
    for axis in range(d):
        grid = np.repeat(grid, 2, axis=axis)
    certified = grid.ravel()
    if len(split):
        # the certified halves of cells that failed, as flat cell
        # indices on the grid of half-size cells
        certified[_single_label_halves(
            ijk[split], np.where(inside[split], idx[split], tree.n),
            2 * per_axis, tree, labels, bounds, k)] = True
    per_axis *= 2
    scale = per_axis / bounds.range

    def cell_of(q: np.ndarray) -> np.ndarray:
        flat = np.zeros(len(q), dtype=np.int64)
        for j in range(d):
            c = ((q[:, j] - bounds.lower[j]) * scale[j]).astype(np.int64)
            np.clip(c, 0, per_axis - 1, out=c)
            flat *= per_axis
            flat += c
        return flat

    return certified, cell_of


def _single_label_halves(ijk: np.ndarray, in_reach: np.ndarray,
                         per_axis: int, tree: cKDTree, labels: np.ndarray,
                         bounds: Bounds, k: int) -> np.ndarray:
    """The halves of the cells at grid positions ijk, split along every
    axis, that the history points within each cell's reach (its row of
    in_reach, padded with tree.n) certify as single-label, as flat cell
    indices on the grid of per_axis half-size cells per axis."""
    d = bounds.d
    width = bounds.range / per_axis
    rho = 0.5 * float(np.sqrt((width ** 2).sum()))
    in_reach = in_reach[:, :max(k, int((in_reach < tree.n).sum(axis=1)
                                       .max()))]
    # the padding is a point at infinity
    coords = [np.append(tree.data[:, j], np.inf)[in_reach] for j in range(d)]
    lab = np.append(labels, labels[0])[in_reach]
    certified = []
    for half in np.ndindex((2,) * d):
        sub = 2 * ijk + half
        centers = bounds.lower + (sub + 0.5) * width
        ok, _ = _single_label_within_reach(
            _sq_dist(coords, centers[:, None]), lab, k, rho)
        certified.append(np.ravel_multi_index(sub[ok].T, (per_axis,) * d))
    return np.concatenate(certified)


def _single_label_within_reach(d2: np.ndarray, near: np.ndarray, k: int,
                               rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row of squared distances d2 from a cell center to history
    points labelled near: whether every point within the reach
    R_k + 2 rho, R_k the row's k-th nearest distance, carries the nearest
    point's label, and which points lie within that reach."""
    # the relative margin absorbs rounding in distances and cell lookup
    reach = (np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1])
             + 2.0 * rho) * (1.0 + 1e-9)
    inside = d2 <= (reach * reach)[:, None]
    first = near[np.arange(len(near)), np.argmin(d2, axis=1)]
    return ((near == first[:, None]) | ~inside).all(axis=1), inside


def _box(grid: np.ndarray, half: np.ndarray, op: np.ufunc,
         fill) -> np.ndarray:
    """op over each cell's box of half[j] cells to either side along
    axis j, cells past the grid's edge holding fill."""
    for axis, h in enumerate(half):
        a = np.moveaxis(grid, axis, 0)
        n = len(a)
        padded = np.full((n + 2 * h,) + a.shape[1:], fill, dtype=a.dtype)
        padded[h:h + n] = a
        out = padded[:n].copy()
        for shift in range(1, 2 * h + 1):
            op(out, padded[shift:shift + n], out=out)
        grid = np.moveaxis(out, 0, axis)
    return grid


def greedy_scattered_subset(candidates: np.ndarray, k: int) -> np.ndarray:
    """Farthest-point subset: seed with the candidate farthest from the
    centroid, then repeatedly add the candidate maximizing the minimum
    distance to the chosen set. Ties break to the lowest index."""
    candidates = np.asarray(candidates, dtype=float)
    if candidates.ndim != 2:
        raise ValueError(f"candidates of shape {candidates.shape}, "
                         f"expected (n, d)")
    if not 0 <= k <= len(candidates):
        raise ValueError(f"cannot select {k} of {len(candidates)} candidates")
    if k == 0:
        return candidates[:0]
    centroid = candidates.mean(axis=0)
    seed = int(np.argmax(((candidates - centroid) ** 2).sum(axis=1)))
    if candidates.shape[1] <= _GRID_MAX_D:
        chosen = _grid_farthest_points(candidates, k, seed)
    else:
        chosen = _gemv_farthest_points(candidates, k, seed)
    # take gathers rows several times faster than fancy indexing does
    return candidates.take(chosen, axis=0)


# The grid route keeps a running maximum of the cached distances per
# block of 2**_BLOCK_SHIFT cell-sorted candidates and reads the _BATCH
# top candidates per batch. Speed-only knobs: the picks do not depend on
# them.
_BLOCK_SHIFT = 6
_BLOCK = 1 << _BLOCK_SHIFT
_BATCH = 128
# _EARLIER[i, j]: batch member i comes before member j
_EARLIER = np.triu(np.ones((_BATCH, _BATCH), dtype=bool), 1)


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
    ties to the lowest index). A member that some earlier member is
    closer to than its own cached distance is skipped. Every other
    member is picked in its turn, as long as its value exceeds what
    each skipped member before it holds after the picks before that
    one; the batch stops at the first member that does not. No pick's
    value can shrink under the earlier picks, and every other value only
    ever decreases, so each pick is still the exact argmax in its turn.

    The picks then refresh the candidates in the grid cells within their
    own max-min distance. A candidate outside the top list, or after the
    stop, holds at most that distance, so it cannot shrink from farther
    away. A skipped member lies in the ring of each earlier pick that
    shrinks it, and a later pick is no closer to it than the later
    pick's own distance, which exceeds what the member already holds.
    """
    n, d = candidates.shape
    # The cell geometry is padded to three axes of which the unused
    # ones hold a single cell. Whole columns are worked on one at a
    # time, which numpy does several times faster than short rows.
    pts = np.zeros((n, 3))
    lo = np.zeros(3)
    span = np.zeros(3)
    for j in range(d):
        pts[:, j] = candidates[:, j]
        lo[j] = pts[:, j].min()
        span[j] = pts[:, j].max() - lo[j]
    vol = float(np.prod(np.maximum(span[:d], 1e-300)))
    mx = int(np.ceil((4.0 * k) ** (1.0 / d))) + 1
    h = max((vol / k) ** (1.0 / d), float(span.max()) / mx, 1e-300)
    inv_h = 1.0 / h
    nx = (span / h).astype(np.int64) + 1
    flat = np.zeros(n, dtype=np.int64)
    for j in reversed(range(d)):
        cell = ((pts[:, j] - lo[j]) * inv_h).astype(np.int64)
        np.minimum(cell, nx[j] - 1, out=cell)
        flat *= nx[j]
        flat += cell
    order = np.argsort(flat, kind="stable")
    starts = np.zeros(int(nx.prod()) + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=len(starts) - 1), out=starts[1:])

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
    while m < k:
        size = min(_BATCH, k - m)
        # The `size` largest values all sit in the blocks whose running
        # maximum reaches the size-th largest one (every block if fewer).
        thr = (np.partition(blockmax, nb - size)[nb - size] if nb > size
               else -np.inf)
        pos = (np.flatnonzero(blockmax >= thr)[:, None] * _BLOCK
               + lanes).ravel()
        v = vals[pos]
        keep = np.flatnonzero(v >= thr)
        pos = pos[keep]
        v = v[keep]
        if len(v) > 2 * size:
            # only values tied with or above the size-th largest can
            # make the top list; sort just those
            keep = np.flatnonzero(
                v >= np.partition(v, len(v) - size)[len(v) - size])
            pos = pos[keep]
            v = v[keep]
        top = np.lexsort((tiebreak[pos], -v))[:size]
        top_pos = pos[top]
        top_d2 = v[top]
        xs = pts.take(order[top_pos], axis=0)

        pair_d2 = _sq_dist([xs[:, j, None] for j in range(d)], xs)
        shrinks = (pair_d2 < top_d2) & _EARLIER[:size, :size]
        take = ~shrinks.any(axis=0)
        # a skipped member's value after the picks before it
        held = np.where(shrinks & take[:, None], pair_d2, np.inf).min(axis=0)
        np.minimum(held, top_d2, out=held)
        held[take] = -np.inf
        # the most any skipped member before each picked one holds
        late = np.flatnonzero(take & (top_d2 <= np.maximum.accumulate(held)))
        if len(late):
            take[late[0]:] = False
        sel = np.flatnonzero(take)
        picks = top_pos[sel]
        chosen[m:m + len(sel)] = order[picks]
        m += len(sel)
        xs = xs[sel]

        touched[picks >> _BLOCK_SHIFT] = True
        hit = _refresh_rings(mind2, cols, xs, np.sqrt(top_d2[sel]),
                             (lo, inv_h, nx, starts))
        touched[hit >> _BLOCK_SHIFT] = True
        mind2[picks] = -np.inf
        stale = np.flatnonzero(touched)
        touched[stale] = False
        blockmax[stale] = blocks[stale].max(axis=1)
    return chosen


def _sq_dist(cols: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Squared distances summed axis by axis, left to right. Below 8
    axes these are the doubles of ((a - b) ** 2).sum(axis=1); from 8 on
    numpy sums a row pairwise and many rows differ in their last bits.
    Every caller has d <= 3."""
    total = (cols[0] - x[..., 0]) ** 2
    for j in range(1, len(cols)):
        total += (cols[j] - x[..., j]) ** 2
    return total


def _refresh_rings(mind2: np.ndarray, cols: list[np.ndarray],
                   centers: np.ndarray, radii: np.ndarray,
                   grid) -> np.ndarray:
    """Lower the cached distances of the candidates in the balls' rings
    to their distances from the ball centers, and return the positions
    that shrank. Radii come largest first. An early batch's boxes can
    cover the grid several times over, so its balls go in groups that
    cover it about once, which bounds the ring arrays near n."""
    inv_h, nx = grid[1], grid[2]
    widest = 1.0  # the share of the grid that the widest box covers
    for cells in nx.tolist():
        widest *= min(1.0, (2.0 * inv_h * float(radii[0]) + 2.0) / cells)
    parts = max(1, int(len(radii) * widest))
    hits = []
    for g in range(parts):
        group = slice(len(radii) * g // parts, len(radii) * (g + 1) // parts)
        ring, owner = _ring_positions(centers[group], radii[group], *grid)
        dd = (cols[0][ring] - centers[group, 0][owner]) ** 2
        for j in range(1, len(cols)):
            dd += (cols[j][ring] - centers[group, j][owner]) ** 2
        shrunk = np.flatnonzero(dd < mind2[ring])
        hits.append(ring[shrunk])
        np.minimum.at(mind2, hits[-1], dd[shrunk])
    return np.concatenate(hits)


def _ring_positions(centers: np.ndarray, radii: np.ndarray, lo, inv_h,
                    nx, starts) -> tuple[np.ndarray, np.ndarray]:
    """Cell-sorted positions of the candidates in the grid cells that
    meet each ball's bounding box, and the ball each one belongs to.
    Centers and grid are padded to three axes. The radii get a relative
    and an absolute margin so that rounding cannot drop a cell from the
    box; a cell too many only costs time."""
    c = (centers - lo) * inv_h
    r = (radii * (inv_h * (1.0 + 1e-9)) + 1e-9)[:, None]
    first = (c - r).astype(np.int64)
    np.maximum(first, 0, out=first)
    last = c + r
    np.minimum(last, nx - 1, out=last)
    last = last.astype(np.int64)
    # Every ball gets as many rows of cells along axis 0 as the tallest
    # box; a row past a box's own end holds other cells, or none past
    # the grid's end.
    w1 = int((last[:, 1] - first[:, 1]).max()) + 1
    w2 = int((last[:, 2] - first[:, 2]).max()) + 1
    rows = (np.arange(w2)[:, None] * nx[1] + np.arange(w1)).ravel()
    row = (first[:, 2] * nx[1] + first[:, 1])[:, None] + rows
    row *= nx[0]
    a = row + first[:, :1]
    e = row + last[:, :1] + 1
    np.minimum(a, len(starts) - 1, out=a)
    np.minimum(e, len(starts) - 1, out=e)
    a = starts[a.ravel()]
    lengths = starts[e.ravel()] - a
    ends = np.cumsum(lengths)
    ring = np.repeat(a - (ends - lengths), lengths) + np.arange(ends[-1])
    owner = np.repeat(np.arange(len(centers)).repeat(len(rows)), lengths)
    return ring, owner


def sample_initial_population(n: int, bounds: Bounds, points: np.ndarray,
                              labels: np.ndarray,
                              rng: np.random.Generator) -> np.ndarray:
    """Draw 2N candidates with rejection, keep the N most scattered."""
    if n < 1:
        raise ValueError("population size must be at least 1")
    candidates = rejection_sample(2 * n, bounds, points, labels, rng)
    return greedy_scattered_subset(candidates, n)
