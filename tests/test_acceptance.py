"""Acceptance suite: one test per release criterion, one pass/fail line
each under `pytest -v`.

Criteria 1-5 re-run the desk-scale benchmark (10 seeds per problem,
full per-problem budgets), so this module takes several minutes.
Criterion 6 is a set of method-level property suites with independent
oracles; criterion 7 checks that the full-scale reproduction target is
documented and runnable rather than executing it.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from hillvallea.cli import build_parser, parse_problem_ids
from hillvallea.harness import ExperimentConfig
from hillvallea.hillvalley import (expected_edge_length,
                                   hill_valley_clustering, hill_valley_test)
from hillvallea.orchestrator import RestartParams, run
from hillvallea.bounds import Bounds
from hillvallea.problems import functions
from hillvallea.problems.evaluator import Evaluator, Solution
from hillvallea.problems.suite import MissingDataError, make_problem
from hillvallea.sampling import greedy_scattered_subset
from hillvallea.scoring import (LevelScores, aggregate, count_distinct_global,
                                f1, peak_ratio, score_run, success_rate)

from conftest import BIG, bowl, make_solutions, min_pairwise_distance, \
    sorted_selection, synthetic_problem

REPO = Path(__file__).resolve().parent.parent
N_RUNS = 10
FAST_PIDS = (1, 2, 3, 4, 5, 10)
HARD_PIDS = (6, 7)
COMPOSITION_PIDS = (11, 12)


@dataclass
class DeskGroup:
    problem: object
    runs: list[list[Solution]]  # each run's elites
    scores: list[list[LevelScores]]  # one list per run
    elapsed: float


def _sweep(pid: int) -> DeskGroup:
    problem = make_problem(pid)
    t0 = time.perf_counter()
    runs, scores = [], []
    for seed in range(N_RUNS):
        elites = run(problem, seed=seed)
        runs.append(elites)
        scores.append(score_run(elites, problem))
    return DeskGroup(problem, runs, scores, time.perf_counter() - t0)


def _s1(group: DeskGroup) -> float:
    return float(np.mean([[ls.pr for ls in s] for s in group.scores]))


def _s3(group: DeskGroup) -> float:
    return float(np.mean([[ls.dyn_f1 for ls in s] for s in group.scores]))


@pytest.fixture(scope="session")
def desk():
    groups = {pid: _sweep(pid) for pid in FAST_PIDS + HARD_PIDS}
    for pid, g in groups.items():
        print(f"\n[desk] p{pid:02d}: S1={_s1(g):.4f} S3={_s3(g):.4f} "
              f"elapsed={g.elapsed:.1f}s", flush=True)
    return groups


@pytest.fixture(scope="session")
def composition_desk():
    """(groups, waiver): groups empty and waiver set when the
    composition data files are unavailable."""
    groups = {}
    for pid in COMPOSITION_PIDS:
        try:
            groups[pid] = _sweep(pid)
        except MissingDataError as exc:
            return {}, f"criterion waived, composition data unavailable: {exc}"
        g = groups[pid]
        print(f"\n[desk] p{pid:02d}: S1={_s1(g):.4f} S3={_s3(g):.4f} "
              f"elapsed={g.elapsed:.1f}s", flush=True)
    return groups, None


# --- criterion 1: easy problems fully solved, fast --------------------------


def test_criterion_1_easy_problems_fully_solved_within_two_minutes(desk):
    for pid in FAST_PIDS:
        group = desk[pid]
        pr = np.array([[ls.pr for ls in s] for s in group.scores])
        level_means = pr.mean(axis=0)
        assert level_means.min() >= 0.99, \
            f"problem {pid}: per-level mean peak ratios {level_means}"
        assert _s1(group) >= 0.99
    total = sum(desk[pid].elapsed for pid in FAST_PIDS)
    per_problem = ", ".join(f"p{pid:02d} {desk[pid].elapsed:.1f}s"
                            for pid in FAST_PIDS)
    assert total < 120.0, \
        f"easy-problem sweep took {total:.1f}s ({per_problem})"


# --- criterion 2: harder 2-D problems within their budgets ------------------


def test_criterion_2_shubert_and_vincent_scores(desk):
    for pid in HARD_PIDS:
        s1 = _s1(desk[pid])
        assert s1 >= 0.95, f"problem {pid}: mean S1 {s1:.4f}"


# --- criterion 3: the archive filter never admits junk ----------------------


def test_criterion_3_success_rate_one_on_every_run(desk):
    for pid in FAST_PIDS + HARD_PIDS:
        group = desk[pid]
        for run_scores in group.scores:
            for ls in run_scores:
                assert ls.sr == 1.0, \
                    f"problem {pid}: SR {ls.sr} at eps={ls.eps}"
            # With a clean archive, a run that also finds every
            # optimum has F1 equal to its peak ratio at every level.
            if all(ls.pr == 1.0 for ls in run_scores):
                for ls in run_scores:
                    assert ls.f1 == ls.pr == 1.0


# --- criterion 4: composition problems (waived without data files) ----------


def test_criterion_4_composition_problems(composition_desk):
    groups, waiver = composition_desk
    if waiver is not None:
        pytest.skip(waiver)
    for pid in COMPOSITION_PIDS:
        s1 = _s1(groups[pid])
        assert s1 >= 0.95, f"problem {pid}: mean S1 {s1:.4f}"


# --- criterion 5: dynamic F1 sanity on every completed run ------------------


def _prefix_f1_curve(sols: list[Solution], problem, eps) -> list[float]:
    curve = []
    for i in range(1, len(sols) + 1):
        g = count_distinct_global(sols[:i], problem, eps)
        curve.append(f1(peak_ratio(g, problem.n_global_optima),
                        success_rate(g, i)))
    return curve


def test_criterion_5_dynamic_f1_bounded_by_final_f1(desk, composition_desk):
    groups = dict(desk)
    groups.update(composition_desk[0])
    checked = 0
    for pid, group in groups.items():
        for elites, run_scores in zip(group.runs, group.scores):
            for ls in run_scores:
                assert 0.0 <= ls.dyn_f1 <= 1.0
                curve = _prefix_f1_curve(elites, group.problem, ls.eps)
                if all(a <= b for a, b in zip(curve, curve[1:])):
                    checked += 1
                    assert ls.dyn_f1 <= ls.f1 + 1e-12, \
                        f"problem {pid} eps={ls.eps}: dyn {ls.dyn_f1} " \
                        f"> final {ls.f1}"
    assert checked > 0  # the monotone-prefix premise actually occurred


# --- criterion 6: method-level property suites ------------------------------


def _vincent_1d(rows):
    return np.sin(10.0 * np.log(rows[:, 0]))


def _shubert_1d(rows):
    x = rows[:, 0]
    total = np.zeros_like(x)
    for j in range(1, 6):
        total += j * np.cos((j + 1) * x + j)
    return -total


def _sub_floor_runs(inner: np.ndarray, below: np.ndarray):
    """(first, last) grid coordinates of each maximal run of
    consecutive grid points that score below the floor."""
    edges = np.flatnonzero(np.diff(np.concatenate(
        ([0], below.astype(np.int8), [0]))))
    return list(zip(inner[edges[::2]], inner[edges[1::2] - 1]))


def test_criterion_6_niche_test_agrees_with_dense_grid_oracle():
    """The hill-valley test probes x + k/(n_t+1)·(y − x), k = 1..n_t, so
    its guarantee is exact: every sub-floor interval wider than the probe
    spacing h contains a probe and is detected, and a miss can only be
    an interval that lies inside a single probe gap. How often random
    pairs straddle a narrow valley depends on the landscape, so the
    overall agreement rate is reported, not bounded."""
    landscapes = [
        (functions.five_uneven_peak_trap, 0.0, 30.0),
        (functions.equal_maxima, 0.0, 1.0),
        (functions.uneven_decreasing_maxima, 0.0, 1.0),
        (_vincent_1d, 0.25, 10.0),
        (_shubert_1d, -10.0, 10.0),
    ]
    n_t = 10
    for idx, (fn, lo, hi) in enumerate(landscapes):
        bounds = Bounds(np.array([lo]), np.array([hi]))
        rng = np.random.default_rng(100 + idx)
        agree = wide = 0
        for _ in range(50):
            xa, xb = rng.uniform(lo, hi, size=2)
            a, b = make_solutions(fn, np.array([[xa], [xb]]))
            ev = Evaluator(fn, bounds, BIG)
            sparse = hill_valley_test(ev, a.x, a.f, b.x, b.f, n_t)

            grid = np.linspace(min(xa, xb), max(xa, xb), 10_000)
            fgrid = fn(grid[:, None])
            floor = min(a.f, b.f)
            dense = bool(fgrid[1:-1].min() >= floor)
            runs = _sub_floor_runs(grid[1:-1], fgrid[1:-1] < floor)
            h = abs(xb - xa) / (n_t + 1)

            if any(last - first > h for first, last in runs):
                # An interval wider than h must contain a probe.
                wide += 1
                assert not sparse, \
                    f"landscape {idx}: barrier wider than h={h} missed"
            if sparse == dense:
                agree += 1
                continue
            # A disagreement must be the sparse test missing real
            # barriers, each strictly inside one gap between its probes.
            assert sparse and not dense
            probes = min(xa, xb) + np.arange(1, n_t + 1) * h
            pts = np.sort(np.concatenate(([min(xa, xb), max(xa, xb)],
                                          probes)))
            for first, last in runs:
                k = np.searchsorted(pts, first)
                assert pts[k - 1] < first <= last < pts[k], \
                    f"landscape {idx}: missed barrier spans a probe"
        # The wide-barrier premise actually occurred on this landscape.
        assert wide > 0, f"landscape {idx}: no barrier wider than h"
        print(f"\n[niche] landscape {idx}: {agree}/50 agree with the "
              f"dense oracle, {wide} pairs with a barrier wider than h")


def _rugged(rows):
    return (np.cos(4.0 * rows).sum(axis=1)
            + 0.3 * np.sin(9.0 * rows + 1.0).sum(axis=1))


def test_criterion_6_clustering_invariants_across_dimensions():
    for d in (1, 2, 5):
        bowl_fn, bounds = bowl(d=d, lo=0.0, hi=1.0)
        # Partition: every selected solution lands in exactly one cluster.
        for size, seed in itertools.product((2, 9, 33), (0, 1)):
            rng = np.random.default_rng(seed)
            xs = rng.uniform(0.0, 1.0, size=(size, d))
            points, fitness = sorted_selection(_rugged, xs)
            clusters = hill_valley_clustering(
                points, Evaluator(_rugged, bounds, BIG), bounds, fitness)
            clustered = [s for c in clusters for s in c]
            assert len(clustered) == size
            assert set(clustered) == set(range(size))

        # Concave landscape: a bowl always forms a single cluster.
        for size in (2, 7, 40):
            rng = np.random.default_rng(size)
            xs = rng.uniform(0.0, 1.0, size=(size, d))
            points, fitness = sorted_selection(bowl_fn, xs)
            clusters = hill_valley_clustering(
                points, Evaluator(bowl_fn, bounds, BIG), bounds, fitness)
            assert len(clusters) == 1
            assert len(clusters[0]) == size

        # Force-accept: worse-half solutions within one expected edge
        # length of their nearest better neighbor join it untested, so
        # a tight chain clusters without spending any evaluations.
        n = 12
        eel = expected_edge_length(n, bounds)
        step = 0.1 * eel / math.sqrt(d)
        center = np.full(d, 0.5)
        xs = [center.copy() for _ in range(n // 2)]
        for i in range(1, n // 2 + 1):
            xs.append(center + i * step)
        points, fitness = sorted_selection(bowl_fn, np.array(xs))
        ev = Evaluator(bowl_fn, bounds, 0)
        clusters = hill_valley_clustering(points, ev, bounds, fitness)
        assert ev.evals_used == 0
        assert len(clusters) == 1
        assert len(clusters[0]) == n


def test_criterion_6_greedy_subset_within_two_of_exhaustive():
    rng = np.random.default_rng(20260819)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, n + 1))
        candidates = rng.uniform(-1.0, 1.0, size=(n, d))
        chosen = greedy_scattered_subset(candidates, k)
        assert chosen.shape == (k, d)
        best = max(min_pairwise_distance(candidates[list(combo)])
                   for combo in itertools.combinations(range(n), k))
        got = min_pairwise_distance(chosen)
        if math.isinf(best):
            assert math.isinf(got)
        else:
            assert got >= best / 2.0 - 1e-9


def _integrated_f1(sols: list[Solution], problem, eps: float) -> float:
    """Independent oracle: sample the piecewise-constant prefix-F1 curve
    at the midpoint of every unit evaluation interval and average."""
    fevals = np.array([s.eval_index for s in sols])
    curve = np.array([0.0] + _prefix_f1_curve(sols, problem, eps))
    mids = np.arange(problem.budget) + 0.5
    idx = np.searchsorted(fevals, mids)
    return math.fsum(curve[idx]) / problem.budget


def test_criterion_6_dynamic_f1_matches_independent_integrator():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n_opt = int(rng.integers(1, 7))
        budget = int(rng.integers(10, 2001))
        problem = synthetic_problem(
            _rugged, [-1.0], [float(n_opt)], budget=budget,
            optima_positions=np.arange(n_opt, dtype=float)[:, None],
            optima_fitness=np.ones(n_opt), niche_radius=0.05)
        t = int(rng.integers(1, min(budget, 12) + 1))
        fevals = np.sort(rng.choice(np.arange(1, budget + 1), size=t,
                                    replace=False))
        sols = []
        for fe in fevals:
            opt = float(rng.integers(0, n_opt))
            kind = rng.random()
            if kind < 0.6:
                sols.append(Solution(np.array([opt]), 1.0, int(fe)))
            elif kind < 0.8:  # right fitness, too far from any optimum
                sols.append(Solution(np.array([opt + 0.5]), 1.0, int(fe)))
            else:             # right position, fitness outside every level
                sols.append(Solution(np.array([opt]), 0.3, int(fe)))
        dyn = {s.eps: s.dyn_f1 for s in score_run(sols, problem)}
        for eps in (1e-1, 1e-3):
            expected = _integrated_f1(sols, problem, eps)
            assert abs(dyn[eps] - expected) <= 1e-12


def test_criterion_6_fuzzed_runs_never_exceed_budget():
    rng = np.random.default_rng(99)
    for _ in range(100):
        pid = int(rng.choice(FAST_PIDS))
        budget = int(rng.integers(50, 3001))
        xi = RestartParams(n=int(rng.integers(4, 97)),
                           n_inc=float(rng.uniform(1.5, 3.0)),
                           n_c=float(rng.uniform(0.3, 1.2)),
                           n_c_inc=float(rng.uniform(1.05, 1.4)))
        problem = dataclasses.replace(make_problem(pid), budget=budget)
        counter = {"n": 0}
        inner = problem.fn

        def counting(xs, inner=inner, counter=counter):
            xs = np.atleast_2d(xs)
            counter["n"] += len(xs)
            return inner(xs)

        counted = dataclasses.replace(problem, fn=counting)
        elites = run(counted, xi, int(rng.integers(0, 10_000)))
        assert counter["n"] <= budget, \
            f"problem {pid} budget {budget}: spent {counter['n']}"
        assert all(e.eval_index <= budget for e in elites)


# --- criterion 7: full-scale target documented, not executed ----------------


def test_criterion_7_full_scale_reproduction_documented():
    readme = REPO / "README.md"
    text = " ".join(readme.read_text().split())
    for needle in ("50 runs", "20 problems", "±0.02",
                   "0.892", "0.934", "0.883", "xi-scaling"):
        assert needle in text, f"README lacks {needle!r}"
    # The documented invocation parses and builds a valid configuration.
    args = build_parser().parse_args(
        ["--problems", "1-20", "--runs", "50", "--seed", "0",
         "--out", "bench-results/full"])
    cfg = ExperimentConfig(problems=parse_problem_ids(args.problems),
                           runs=args.runs, seed=args.seed, out_dir=args.out)
    assert cfg.problems == tuple(range(1, 21)) and cfg.runs == 50


# --- README desk-scale table ------------------------------------------------


def test_readme_desk_table_matches_desk_sweep(desk, composition_desk):
    """The README's desk-scale rows are what scripts/desk_sweep.py
    prints for the desk runs; composition rows are checked only when
    their data files are available."""
    spec = importlib.util.spec_from_file_location(
        "desk_sweep", REPO / "scripts" / "desk_sweep.py")
    desk_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(desk_sweep)

    section = (REPO / "README.md").read_text().split(
        "## Desk-scale results", 1)[1].split("\n## ", 1)[0]
    readme = {int(line.split()[1]): line for line in section.splitlines()
              if line.startswith("| ") and line.split()[1].isdigit()}
    assert set(readme) == set(FAST_PIDS + HARD_PIDS + COMPOSITION_PIDS)

    composition, waiver = composition_desk
    groups = {**desk, **composition}
    report = aggregate({pid: g.scores for pid, g in groups.items()})
    expected = {p.problem_id: desk_sweep.readme_row(p)
                for p in report.problems}
    if waiver is not None:
        readme = {pid: row for pid, row in readme.items()
                  if pid not in COMPOSITION_PIDS}
    assert readme == expected
