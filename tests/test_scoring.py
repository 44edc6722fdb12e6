"""Performance measures: distinct-optimum counting, peak ratio, success
rate, static and dynamic F1, and per-problem aggregation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hillvallea.problems.evaluator import Solution
from hillvallea.problems.suite import InvalidProblemError, make_problem
from hillvallea.scoring import (ACCURACY_LEVELS, InvalidTraceError,
                                aggregate, count_distinct_global, f1,
                                peak_ratio, score_run, success_rate)

from conftest import bowl_problem, level, make_solutions, synthetic_problem


def test_accuracy_levels():
    assert ACCURACY_LEVELS == (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)


def flat_one(x):
    x = np.asarray(x, dtype=float)
    return 1.0 if x.ndim == 1 else np.ones(x.shape[0])


# --- scalar measures --------------------------------------------------------


def test_peak_ratio_examples():
    assert peak_ratio(2, 4) == 0.5
    assert peak_ratio(81, 81) == 1.0
    assert peak_ratio(0, 6) == 0.0
    with pytest.raises(InvalidProblemError):
        peak_ratio(0, 0)


def test_success_rate_examples():
    assert success_rate(5, 5) == 1.0
    assert success_rate(2, 4) == 0.5
    assert success_rate(0, 0) == 0.0


def test_f1_examples():
    assert f1(1.0, 1.0) == 1.0
    assert f1(0.5, 1.0) == pytest.approx(2 / 3, abs=1e-4)
    assert f1(0.0, 0.0) == 0.0


@given(pr=st.floats(0.0, 1.0), sr=st.floats(0.0, 1.0))
@settings(max_examples=200)
def test_f1_bounded_by_its_inputs(pr, sr):
    v = f1(pr, sr)
    assert 0.0 <= v <= 1.0
    assert v <= max(pr, sr) + 1e-12
    assert v >= min(pr, sr) - 1e-12


# --- distinct-optimum counting ----------------------------------------------


def test_counts_all_peaks_of_equal_maxima():
    problem = make_problem(2)
    sols = make_solutions(problem.fn, problem.optima_positions)
    assert count_distinct_global(sols, problem, eps=1e-5) == 5


def test_duplicate_solutions_claim_one_peak():
    problem = make_problem(2)
    sols = make_solutions(problem.fn, np.array([[0.1], [0.1]]))
    assert count_distinct_global(sols, problem, eps=1e-5) == 1


def test_three_of_five_peaks():
    problem = make_problem(2)
    sols = make_solutions(problem.fn, np.array([[0.1], [0.3], [0.5]]))
    assert count_distinct_global(sols, problem, eps=1e-5) == 3


def test_position_gate_uses_niche_radius():
    problem = synthetic_problem(
        flat_one, lower=[0.0], upper=[2.0],
        optima_positions=np.array([[0.0], [1.0]]),
        optima_fitness=np.array([1.0, 1.0]), niche_radius=0.1)
    sols = make_solutions(problem.fn, np.array([[0.25]]))
    assert count_distinct_global(sols, problem, eps=1e-1) == 0
    near = make_solutions(problem.fn, np.array([[0.05]]))
    assert count_distinct_global(near, problem, eps=1e-1) == 1


def test_each_solution_claims_its_nearest_open_peak():
    problem = synthetic_problem(
        flat_one, lower=[0.0], upper=[1.0],
        optima_positions=np.array([[0.0], [0.15]]),
        optima_fitness=np.array([1.0, 1.0]), niche_radius=0.2)
    sols = make_solutions(problem.fn, np.array([[0.04], [0.11]]))
    assert count_distinct_global(sols, problem, eps=1e-1) == 2


def test_count_never_exceeds_peaks_or_solutions():
    problem = make_problem(2)
    rng = np.random.default_rng(3)
    for n in (0, 1, 3, 9, 40):
        xs = rng.uniform(0.0, 1.0, size=(n, 1))
        sols = make_solutions(problem.fn, xs)
        g = count_distinct_global(sols, problem, 1e-1)
        assert g <= min(problem.n_global_optima, n)


def test_count_is_monotone_in_accuracy_level():
    problem = make_problem(2)
    xs = np.array([[0.1], [0.3], [0.504], [0.9], [0.62]])
    sols = make_solutions(problem.fn, xs)
    gs = [count_distinct_global(sols, problem, eps) for eps in ACCURACY_LEVELS]
    assert all(a >= b for a, b in zip(gs, gs[1:]))
    assert gs[0] > gs[-1]  # the off-peak points only pass loose levels


@pytest.mark.parametrize("eps", ACCURACY_LEVELS)
def test_fitness_gap_equal_to_the_level_counts(eps):
    # |-eps - 0.0| is eps exactly, and a gap of eps passes level eps.
    problem = synthetic_problem(
        flat_one, lower=[-1.0], upper=[1.0],
        optima_positions=np.zeros((1, 1)), optima_fitness=np.zeros(1),
        niche_radius=0.1)
    sols = [Solution(np.array([0.01]), -eps, 1)]
    assert abs(sols[0].f - problem.optima_fitness[0]) == eps
    assert count_distinct_global(sols, problem, eps) == 1
    assert ([ls.g for ls in score_run(sols, problem)]
            == [int(level >= eps) for level in ACCURACY_LEVELS])


# --- dynamic F1 -------------------------------------------------------------


def trace_of(problem, rows):
    """A run's elites as run returns them: (eval_index, position) rows
    with genuine fitness, in acceptance order."""
    trace = []
    for feval, x in rows:
        x = np.asarray(x, dtype=float)
        f = float(np.atleast_1d(problem.fn(x[None, :]))[0])
        trace.append(Solution(x, f, feval))
    return trace


def dyn_f1_at(trace, problem, eps):
    """The dynamic F1 that score_run gives at accuracy level eps."""
    (scores,) = [s for s in score_run(trace, problem) if s.eps == eps]
    return scores.dyn_f1


def test_dyn_f1_single_record_at_half_budget():
    problem = bowl_problem(d=1, budget=1000)
    trace = trace_of(problem, [(500, [0.0])])
    assert dyn_f1_at(trace, problem, eps=1e-5) == 0.5


def test_dyn_f1_empty_trace_is_zero():
    problem = bowl_problem(d=1, budget=1000)
    assert dyn_f1_at(trace_of(problem, []), problem, eps=1e-5) == 0.0


def test_dyn_f1_two_records_hand_computed():
    # Three peaks; the run finds one at feval 250 and a second at 500 of
    # 1000. Prefix F1 values: one peak of three found by one solution
    # gives 0.5, two of three by two solutions gives 0.8, so the value
    # is 0.5*0.8 + 0.25*0.5 = 0.525.
    problem = synthetic_problem(
        flat_one, lower=[-1.0], upper=[3.0], budget=1000,
        optima_positions=np.array([[0.0], [1.0], [2.0]]),
        optima_fitness=np.array([1.0, 1.0, 1.0]), niche_radius=0.1)
    trace = trace_of(problem, [(250, [0.0]), (500, [1.0])])
    assert dyn_f1_at(trace, problem, eps=1e-2) == pytest.approx(0.525,
                                                                abs=1e-12)


def test_dyn_f1_penalizes_duplicate_records():
    # One optimum hit three times: the prefixes count 1, 2, 3 solutions
    # for the same single peak, so their F1 values are 1, 2/3, 1/2 and
    # dyn = 0.1*1 + 0.1*(2/3) + 0.7*(1/2) = 31/60.
    problem = bowl_problem(d=1, budget=1000)
    trace = trace_of(problem, [(100, [0.0]), (200, [0.0]), (300, [0.0])])
    assert dyn_f1_at(trace, problem, eps=1e-5) == pytest.approx(31 / 60,
                                                                abs=1e-12)


def test_dyn_f1_rejects_misordered_traces():
    problem = bowl_problem(d=1, budget=1000)
    with pytest.raises(InvalidTraceError):
        score_run(trace_of(problem, [(500, [0.0]), (500, [0.1])]), problem)
    with pytest.raises(InvalidTraceError):
        score_run(trace_of(problem, [(0, [0.0])]), problem)
    with pytest.raises(InvalidTraceError):
        score_run(trace_of(problem, [(1001, [0.0])]), problem)


def test_dyn_f1_stays_in_unit_interval():
    problem = make_problem(2)
    rng = np.random.default_rng(9)
    for _ in range(25):
        t = rng.integers(1, 8)
        fevals = np.sort(rng.choice(
            np.arange(1, problem.budget + 1), size=t, replace=False))
        xs = rng.uniform(0.0, 1.0, size=t)
        trace = trace_of(problem, [(int(fe), [x])
                                   for fe, x in zip(fevals, xs)])
        for s in score_run(trace, problem):
            assert 0.0 <= s.dyn_f1 <= 1.0


def reference_count(solutions, problem, eps):
    """The greedy matching as first written: one vectorised pass per
    solution over the optima still unclaimed."""
    if len(solutions) == 0:
        return 0
    fs = np.array([s.f for s in solutions])
    xs = np.array([s.x for s in solutions])
    opt_pos = problem.optima_positions
    opt_fit = problem.optima_fitness
    radius_sq = problem.niche_radius ** 2
    claimed = np.zeros(len(opt_fit), dtype=bool)
    g = 0
    for i in np.argsort(-fs, kind="stable"):
        close_fit = np.abs(opt_fit - fs[i]) <= eps
        if not close_fit.any():
            continue
        d2 = ((opt_pos - xs[i]) ** 2).sum(axis=1)
        eligible = close_fit & ~claimed & (d2 <= radius_sq)
        if eligible.any():
            hits = np.flatnonzero(eligible)
            claimed[hits[np.argmin(d2[hits])]] = True
            g += 1
    return g


def reference_dyn_f1(trace, problem, eps):
    """The dynamic F1 as first written: every prefix recounted from
    scratch."""
    t = len(trace)
    if t == 0:
        return 0.0
    fevals = [s.eval_index for s in trace]
    budget = problem.budget

    def prefix_f1(upto):
        g = reference_count(trace[:upto], problem, eps)
        return f1(peak_ratio(g, problem.n_global_optima),
                  success_rate(g, upto))

    total = (budget - fevals[-1]) / budget * prefix_f1(t)
    for i in range(2, t + 1):
        width = (fevals[i - 1] - fevals[i - 2]) / budget
        total += width * prefix_f1(i - 1)
    return float(total)


@st.composite
def crowded_traces(draw):
    """Optima and solutions on a coarse grid, so positions repeat;
    fitness from a few values close to the optima's, so ties are common
    and several solutions are eligible at loose levels; niche radii of
    one to several grid steps, so one solution may claim several optima
    and an early claim can push later solutions to their second or
    third choice."""
    d = draw(st.integers(1, 2))
    grid = st.integers(0, 4).map(lambda k: 0.25 * k)
    points = lambda n: st.lists(st.lists(grid, min_size=d, max_size=d),
                                min_size=n, max_size=n)
    m = draw(st.integers(1, 6))
    problem = synthetic_problem(
        flat_one, lower=[-1.0] * d, upper=[2.0] * d, budget=1000,
        optima_positions=np.array(draw(points(m))),
        optima_fitness=np.ones(m),
        niche_radius=draw(st.sampled_from([0.1, 0.3, 0.6, 1.2])))
    t = draw(st.integers(0, 12))
    fevals = sorted(draw(st.lists(st.integers(1, 1000), min_size=t,
                                  max_size=t, unique=True)))
    fits = draw(st.lists(st.sampled_from([1.0, 1.0 - 1e-6, 0.999, 0.95,
                                          0.5]), min_size=t, max_size=t))
    trace = [Solution(np.array(x), fit, fe)
             for fe, fit, x in zip(fevals, fits, draw(points(t)))]
    return problem, trace


def fittest_first_cascade():
    """The first solution is equally near both optima and takes the
    lower-indexed one unless the fitter second solution, whose only
    optimum that is, claims it first: fittest-first gives 2, record
    order 1."""
    problem = synthetic_problem(
        flat_one, lower=[-1.0], upper=[2.0], budget=1000,
        optima_positions=np.array([[0.0], [0.5]]),
        optima_fitness=np.ones(2), niche_radius=0.3)
    trace = [Solution(np.array([0.25]), 0.95, 100),
             Solution(np.array([-0.125]), 1.0, 400)]
    return problem, trace


@given(case=crowded_traces(),
       eps=st.sampled_from(ACCURACY_LEVELS + (0.5,)))
@example(case=fittest_first_cascade(), eps=0.1)
@settings(max_examples=300, deadline=None)
def test_count_distinct_global_equals_the_reference_count(case, eps):
    """score_run's dynamic F1 is held against the per-prefix recount by
    test_score_run_equals_the_per_level_references."""
    problem, trace = case
    assert count_distinct_global(trace, problem, eps) == \
        reference_count(trace, problem, eps)


@given(case=crowded_traces())
@example(case=fittest_first_cascade())
@settings(max_examples=100, deadline=None)
def test_score_run_equals_the_per_level_references(case):
    """score_run works out each level's claims once for both the count
    and the dynamic F1."""
    problem, trace = case
    for s in score_run(trace, problem):
        assert s.g == reference_count(trace, problem, s.eps)
        assert s.dyn_f1 == reference_dyn_f1(trace, problem, s.eps)


# --- per-run and per-problem aggregation ------------------------------------


def test_score_run_levels_are_internally_consistent():
    problem = make_problem(2)
    trace = trace_of(problem, [(40, [0.1]), (90, [0.3]), (200, [0.504])])
    scores = score_run(trace, problem)
    assert tuple(s.eps for s in scores) == ACCURACY_LEVELS
    for s in scores:
        assert s.pr == peak_ratio(s.g, problem.n_global_optima)
        assert s.sr == success_rate(s.g, 3)
        assert s.f1 == f1(s.pr, s.sr)
        assert 0.0 <= s.dyn_f1 <= 1.0
    assert scores[0].g == 3 and scores[-1].g == 2


def test_aggregate_single_run_is_identity():
    run_scores = [level(eps, pr=0.6, sr=0.5, f1v=0.55, dyn=0.4)
                  for eps in ACCURACY_LEVELS]
    report = aggregate({4: [run_scores]})
    (p,) = report.problems
    assert p.problem_id == 4 and p.n_runs == 1
    assert p.pr == (0.6,) * 5 and p.sr == (0.5,) * 5
    assert p.f1 == (0.55,) * 5 and p.dyn_f1 == (0.4,) * 5
    assert p.score("S1") == pytest.approx(0.6)
    assert p.score("S2") == pytest.approx(0.55)
    assert p.score("S3") == pytest.approx(0.4)


def test_aggregate_means_per_level_across_runs():
    run_a = [level(eps, pr=1.0) for eps in ACCURACY_LEVELS]
    run_b = [level(eps, pr=0.5) for eps in ACCURACY_LEVELS]
    report = aggregate({1: [run_a, run_b]})
    assert report.problems[0].pr == (0.75,) * 5
    assert report.problems[0].n_runs == 2


def test_four_full_levels_and_one_half_average_to_point_nine():
    prs = [1.0, 1.0, 1.0, 1.0, 0.5]
    run_scores = [level(eps, pr=pr)
                  for eps, pr in zip(ACCURACY_LEVELS, prs)]
    report = aggregate({7: [run_scores]})
    assert report.problems[0].score("S1") == pytest.approx(0.9, abs=1e-15)


def test_grand_means_average_problems():
    high = [level(eps, pr=1.0, f1v=1.0, dyn=1.0) for eps in ACCURACY_LEVELS]
    low = [level(eps, pr=0.5, f1v=0.25, dyn=0.0) for eps in ACCURACY_LEVELS]
    report = aggregate({1: [high], 2: [low]})
    assert report.grand("S1") == pytest.approx(0.75)
    assert report.grand("S2") == pytest.approx(0.625)
    assert report.grand("S3") == pytest.approx(0.5)


def test_aggregate_rejects_empty_input():
    with pytest.raises(ValueError):
        aggregate({})
    with pytest.raises(ValueError):
        aggregate({1: []})
