"""The outer optimization loop.

Repeats until the evaluation budget runs out: sample an initial
population (biased away from the previous restart's known basins),
select the fittest fraction, cluster it into niches, run one core
search per cluster, and feed each search's best solution to the elite
archive as soon as the search stops. The first population is the base
size times the dimension; population size doubles and the cluster-size
factor grows by 1.1x per restart.

A restart's core searches run in lockstep, as one stack that a single
step moves a generation forward. Clusters join it in descending
best-fitness order: the fittest alone, then two more for each search
that stops, while the budget could see the stack through. So the first
optima arrive early, and a tight budget still goes to the fittest
clusters first. Searches that stop in the same generation are offered
to the archive in that order; clusters the budget left out offer their
fittest members.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .amalgam import (core_search_step, empty_core_search,
                      guideline_pop_size, init_core_search,
                      join_core_searches, nis_limit)
from .bounds import Bounds
from .hillvalley import (expected_edge_length, hill_valley_clustering,
                         hill_valley_test, n_test_points)
from .problems.evaluator import (BudgetExhaustedError, Evaluator, Solution)
from .problems.suite import Problem, is_integer
from .sampling import sample_initial_population

SELECTION_FRACTION = 0.35

ELITE_PRUNE_TOL = 1e-5

# Candidates closer to their nearest elite than this fraction of the
# domain diagonal merge without a hill-valley test: at that separation
# the segment's fitness differences sit at double-precision noise, so
# the test's strict comparison fires on rounding error, not on a valley.
DUPLICATE_DISTANCE_FRACTION = 1e-5


@dataclass(frozen=True)
class RestartParams:
    n: int
    n_inc: float
    n_c: float
    n_c_inc: float

    def __post_init__(self) -> None:
        if not is_integer(self.n):
            raise ValueError(f"population size must be an integer, "
                             f"got {self.n!r}")
        if self.n < 2:
            raise ValueError("initial population size must be at least 2")
        if not all(map(math.isfinite, (self.n_inc, self.n_c, self.n_c_inc))):
            raise ValueError(f"n_inc, n_c and n_c_inc must be finite, got "
                             f"{self.n_inc!r}, {self.n_c!r}, {self.n_c_inc!r}")
        if self.n_inc <= 1.0:
            raise ValueError("population multiplier must exceed 1")
        if self.n_c <= 0.0:
            raise ValueError("cluster-size factor must be positive")
        if self.n_c_inc < 1.0:
            raise ValueError("cluster-size multiplier must be at least 1")


DEFAULT_XI = RestartParams(n=2 ** 6, n_inc=2.0, n_c=0.8, n_c_inc=1.1)


def restart_update(p: RestartParams) -> RestartParams:
    return dataclasses.replace(p, n=int(round(p.n * p.n_inc)),
                               n_c=p.n_c * p.n_c_inc)


def cluster_pop_size(p: RestartParams, d: int) -> int:
    return max(2, int(np.ceil(p.n_c * guideline_pop_size(d))))


def update_elite_archive(elites: list[Solution], candidate: Solution,
                         ev: Evaluator, bounds: Bounds) -> None:
    """Merge a terminated core search's best into the archive, a list
    in acceptance order whose elites carry their acceptance index as
    eval_index. The candidate is hill-valley tested against its nearest
    elite only: a different niche appends it, stamped with the current
    evaluation count; the same niche keeps the fitter of the two, and a
    winning candidate keeps its own index and moves to its place in
    acceptance order (stable on ties). When the budget runs out during
    the test the archive is unchanged."""
    if not elites:
        elites.append(Solution(candidate.x, candidate.f, ev.evals_used))
        return

    positions = np.array([e.x for e in elites])
    d2 = ((positions - candidate.x) ** 2).sum(axis=1)
    nearest = int(np.argmin(d2))
    elite = elites[nearest]
    dist = float(np.sqrt(d2[nearest]))
    if dist <= DUPLICATE_DISTANCE_FRACTION * bounds.diagonal:
        same_niche = True
    else:
        eel = expected_edge_length(len(elites) + 1, bounds)
        n_t = n_test_points(dist, eel)
        try:
            same_niche = hill_valley_test(ev, candidate.x, candidate.f,
                                          elite.x, elite.f, n_t)
        except BudgetExhaustedError:
            return

    if not same_niche:
        elites.append(Solution(candidate.x, candidate.f, ev.evals_used))
    elif candidate.f > elite.f:
        elites[nearest] = candidate
        elites.sort(key=lambda e: e.eval_index)


def prune_archive(elites: list[Solution], tol: float) -> None:
    """Drop elites more than tol below the archive's best fitness, in
    place. Keeps acceptance order."""
    if elites:
        cutoff = max(e.f for e in elites) - tol
        elites[:] = [e for e in elites if e.f >= cutoff]


def run(problem: Problem, p0: RestartParams = DEFAULT_XI,
        seed: int = 0) -> list[Solution]:
    """Optimize until the budget runs out. Returns the elites in
    acceptance order, each with its acceptance index as eval_index:
    the run's record for scoring and for its trace file."""
    rng = np.random.default_rng(seed)
    bounds = problem.bounds
    ev = Evaluator(problem.fn, bounds, problem.budget)
    elites: list[Solution] = []
    # the previous restart's selection and the cluster of each point
    points, labels = np.empty((0, bounds.d)), np.empty(0, dtype=np.intp)
    p = dataclasses.replace(p0, n=p0.n * bounds.d)

    while ev.remaining >= p.n:
        xs = sample_initial_population(p.n, bounds, points, labels, rng)
        base_index = ev.evals_used
        fs = ev.evaluate_batch(xs)

        n_sel = int(np.ceil(SELECTION_FRACTION * p.n))
        order = np.argsort(-fs, kind="stable")[:n_sel]
        points, fitness = xs[order], fs[order]
        clusters = hill_valley_clustering(points, ev, bounds, fitness)

        def cluster_best(cluster: np.ndarray) -> Solution:
            """The cluster's fittest member, stamped with its index in
            the restart's initial population."""
            j = order[cluster[0]]
            return Solution(xs[j], float(fs[j]), base_index + int(j) + 1)

        pop_size = cluster_pop_size(p, bounds.d)
        # The restart's fittest cluster is searched alone, and each
        # search that stops lets two more clusters join, so the stack
        # doubles with every search length: the first optima reach the
        # archive about as early as when the clusters were searched one
        # after another, and the restart's later generations still step
        # many searches at once. A cluster joins only while the stack,
        # it included, could last nis_limit(d) generations within the
        # budget, so a tight budget goes to the fittest clusters first;
        # it joins an empty stack whenever it can take a step at all.
        life = pop_size * nis_limit(bounds.d)
        stack = empty_core_search(pop_size, bounds)
        joined = 0
        while True:
            stopped = joined - stack.size  # joined, no longer stacked
            room = min(int(ev.remaining // life), 1 + stopped) - stack.size
            if not stack.size and ev.remaining >= pop_size:
                room = max(room, 1)
            joining = clusters[joined:joined + max(room, 0)]
            if joining:
                stack = join_core_searches([stack, *(
                    init_core_search(points[c], cluster_best(c), pop_size,
                                     bounds)
                    for c in joining)])
                joined += len(joining)
            if not stack.size:
                break
            stack = core_search_step(stack, ev, rng)
            for best in stack.stopped:
                update_elite_archive(elites, best, ev, bounds)
        # The clusters left out when the budget ran low offer their
        # fittest members, as unstepped searches.
        for cluster in clusters[joined:]:
            if ev.remaining == 0:
                break
            update_elite_archive(elites, cluster_best(cluster), ev, bounds)

        points = points[np.concatenate(clusters)]
        labels = np.repeat(np.arange(len(clusters)), list(map(len, clusters)))
        p = restart_update(p)

    prune_archive(elites, ELITE_PRUNE_TOL)
    return elites
