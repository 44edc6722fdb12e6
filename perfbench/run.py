"""Benchmark of hillvallea through its public entry point
`hillvallea.harness.run_experiment`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
its `src/` directory. One pass is one call of `run_experiment` over the
workload's problems, each with `runs` optimizer seeds starting at
seed * runs; every run of a pass is then checked against the published
CEC2013 references (`checks.py`). Passes repeat until --seconds have
passed. With --trace 0 the last line is a JSON object with the
end-to-end metrics; with --trace 1 every untraced pass is followed by a
traced one (`tracing.py`) and the last line holds the per-layer
metrics. `all` runs every workload in its own process. Scratch output
goes to perfbench-out/ in the checkout and is deleted after each pass,
except the last traced pass's spans.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"

SETUP_REPEATS = 5
# A short run of each problem before timing, so that lazy imports and
# first-call costs inside numpy and scipy are not billed to a pass.
WARMUP_BUDGET = 5_000


@dataclass(frozen=True)
class Workload:
    problems: tuple[int, ...]
    runs: int   # optimizer seeds per problem in one pass
    jobs: int   # worker processes of run_experiment


# Several optimizer seeds per problem in a pass: the wall time of one
# seed varies by about 10% from seed to seed, and a pass of 20-30 s also
# averages over the machine's slower and faster spells.
WORKLOADS = {
    "lowd-sampling": Workload((7, 10), runs=3, jobs=1),
    "lowd-coresearch": Workload((6, 8, 9), runs=2, jobs=1),
    "composition-5d": Workload((16,), runs=2, jobs=1),
    "harness-jobs2": Workload((16,), runs=2, jobs=2),
}

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "s1_peak_ratio": "ratio", "s2_f1": "ratio"}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import hillvallea
for pid in {pids!r}:
    hillvallea.make_problem(pid)
print(repr(time.perf_counter() - t0))
"""


def import_program():
    """The hillvallea package of this checkout, never another copy."""
    package = SRC / "hillvallea"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import hillvallea
    import hillvallea.harness
    if Path(hillvallea.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported {hillvallea.__file__}, "
                         f"not the checkout's {package}")
    return hillvallea


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process."""
    libs = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in Path(path).name.lower():
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def machine_record(loadavg) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "loadavg": list(loadavg),
    }


@dataclass
class Pass:
    wall_s: float
    attempted: int
    failures: list
    errors: list[str]
    table: dict
    trace_bytes: int
    spans: list | None


def check_outputs(hv, problems, cfg, failures, spans) -> tuple[list, dict]:
    """Every run of a pass that did not fail against the CEC2013
    references, then the score table against their counts."""
    errors = []
    failed = {(f.problem_id, f.run_index) for f in failures}
    evals = tracing.SpanTree(spans).run_evals() if spans is not None else {}
    per_problem: dict[int, list] = {}
    for pid, problem in problems.items():
        for r in range(cfg.runs):
            if (pid, r) in failed:
                continue
            records = checks.read_trace_csv(
                cfg.out_dir / "traces" / f"p{pid:02d}_run{r:03d}.csv")
            solutions = [hv.problems.Solution(np.array(x), f, fe)
                         for fe, f, x in records]
            g = [hv.scoring.count_distinct_global(solutions, problem, eps)
                 for eps in checks.ACCURACY_LEVELS]
            traced = None
            if spans is not None:
                traced = evals.get((pid, cfg.seed + r))
                if traced is None:
                    errors.append(f"p{pid:02d} run {r}: not seen by tracing")
            run_errors, counts = checks.check_run(pid, records, g, traced)
            errors += [f"run {r}: {e}" for e in run_errors]
            per_problem.setdefault(pid, []).append((counts, len(records)))
    table = checks.read_score_table(cfg.out_dir / "scores.csv")
    if per_problem:
        errors += checks.check_table(table, per_problem)
    return errors, table


def run_pass(hv, wl: Workload, problems, seed: int, trace: bool) -> Pass:
    tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT))
    try:
        cfg = hv.harness.ExperimentConfig(
            problems=wl.problems, runs=wl.runs, seed=seed * wl.runs,
            jobs=wl.jobs, out_dir=tmp / "results")
        spans = None
        t0 = time.perf_counter()
        if trace:
            spool = tmp / "spool"
            spool.mkdir()
            (_, failures), spans = tracing.traced_call(
                hv, spool, "harness.run_experiment",
                hv.harness.run_experiment, cfg)
        else:
            _, failures = hv.harness.run_experiment(cfg)
        wall = time.perf_counter() - t0
        errors, table = check_outputs(hv, problems, cfg, failures, spans)
        trace_bytes = sum(p.stat().st_size
                          for p in (cfg.out_dir / "traces").glob("*.csv"))
    finally:
        shutil.rmtree(tmp)
    return Pass(wall, len(wl.problems) * wl.runs, failures, errors,
                table, trace_bytes, spans)


def warm_up(hv, wl: Workload) -> None:
    tmp = Path(tempfile.mkdtemp(prefix="warmup-", dir=OUT))
    try:
        cfg = hv.harness.ExperimentConfig(
            problems=wl.problems, runs=1, out_dir=tmp,
            budget_overrides={p: WARMUP_BUDGET for p in wl.problems})
        hv.harness.run_experiment(cfg)
    finally:
        shutil.rmtree(tmp)


def setup_seconds(wl: Workload) -> float:
    """Median over fresh interpreters of the time to import hillvallea
    and build the workload's problems."""
    code = SETUP_CODE.format(src=str(SRC), pids=wl.problems)
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def peak_rss_mb(wl: Workload) -> float:
    who = resource.RUSAGE_CHILDREN if wl.jobs > 1 else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    loadavg = os.getloadavg()
    hv = import_program()
    wl = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    problems = {pid: hv.make_problem(pid) for pid in wl.problems}
    errors = []
    for problem in problems.values():
        errors += checks.check_suite(problem, SRC / "hillvallea" / "data")
    warm_up(hv, wl)

    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        plain.append(run_pass(hv, wl, problems, seed, trace=False))
        if trace:
            traced.append(run_pass(hv, wl, problems, seed, trace=True))
    passes = plain + traced
    for p in passes:
        errors += p.errors
        for f in p.failures:
            print(f"FAILED p{f.problem_id:02d} run {f.run_index}: "
                  f"{f.message}", file=sys.stderr)
        if p.table != plain[0].table:
            errors.append("score tables differ between passes of one seed")
    wall_s = statistics.median(p.wall_s for p in plain)

    print("machine " + json.dumps(machine_record(loadavg)))
    print(f"workload {name} seed {seed}: problems {list(wl.problems)}, "
          f"runs {wl.runs}, jobs {wl.jobs}, optimizer seeds "
          f"{seed * wl.runs}..{seed * wl.runs + wl.runs - 1}, "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    if trace:
        per_pass = [tracing.layer_metrics(p.spans) for p in traced]
        metrics = {key: statistics.median(m[key] for m in per_pass)
                   for key in per_pass[0]}
        metrics["harness.trace_bytes"] = traced[-1].trace_bytes
        metrics["harness.tracing_overhead_s"] = (
            statistics.median(p.wall_s for p in traced) - wall_s)
        tracing.save_spans(traced[-1].spans, OUT / f"spans-{name}.npz")
        units = {key: unit for key, (unit, _) in tracing.PER_LAYER.items()}
    else:
        table = plain[0].table
        rss = peak_rss_mb(wl)   # before set-up starts more children
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_seconds(wl),
            "peak_rss_mb": rss,
            "s1_peak_ratio": table[("avg", "S1")][0],
            "s2_f1": table[("avg", "S2")][0],
        }
        units = UNITS
        print(f"S3 dynamic F1 (reference only, not gated): "
              f"{table[('avg', 'S3')][0]:.6f}")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(f"runs attempted {attempted}, failed {failed}")
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]}
                        for k, v in metrics.items()}}


def run_all(args) -> int:
    """Every workload, each in a fresh process of this script."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
