"""Golden traces: seed-0 runs of problems 1-12 must reproduce the
committed fingerprints bit for bit.

A fingerprint holds a SHA-256 of the elites the run returns (each
one's acceptance index, fitness and position, in acceptance order: the
rows of its trace file), a SHA-256 of every point the run evaluated (in
call order), the evaluation count and a SHA-256 of the run's scores at
every accuracy level.
No step of the runs of problems 1-10 goes through BLAS. Problems 11 and
12 multiply by their rotation matrices, which are identities: each
product's sum has one nonzero term, so no BLAS kernel or thread count
can change its bits. The hashes are still only guaranteed on one
platform (numpy build and CPU). Regenerate with

    PYTHONPATH=src python tests/test_golden.py --write

only when a change of the seeded output is intended, and say why.

    PYTHONPATH=src python tests/test_golden.py --print 11-20

prints the fingerprints of the given problems (ids as the CLI's
--problems takes them) as JSON and writes nothing, so two checkouts'
outputs can be compared with diff.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hillvallea.cli import parse_problem_ids
from hillvallea.orchestrator import run
from hillvallea.problems.suite import make_problem
from hillvallea.scoring import score_run

GOLDEN_FILE = Path(__file__).resolve().parent / "golden" / "seed0_traces.json"
GOLDEN_PIDS = tuple(range(1, 13))


def fingerprint(pid: int, seed: int = 0) -> dict:
    problem = make_problem(pid)
    inner = problem.fn
    stream = hashlib.sha256()
    count = [0]

    def recording(xs):
        xs = np.ascontiguousarray(np.atleast_2d(xs), dtype=float)
        stream.update(xs.tobytes())
        count[0] += len(xs)
        return inner(xs)

    elites = run(dataclasses.replace(problem, fn=recording), seed=seed)
    records = hashlib.sha256()
    for e in elites:
        records.update(np.int64(e.eval_index).tobytes())
        records.update(np.float64(e.f).tobytes())
        records.update(np.ascontiguousarray(e.x, dtype=float).tobytes())
    scores = hashlib.sha256()
    for ls in score_run(elites, problem):
        scores.update(np.int64(ls.g).tobytes())
        for value in (ls.pr, ls.sr, ls.f1, ls.dyn_f1):
            scores.update(np.float64(value).tobytes())
    return {"n_records": len(elites),
            "records_sha256": records.hexdigest(),
            "evaluations": count[0],
            "evaluated_points_sha256": stream.hexdigest(),
            "scores_sha256": scores.hexdigest()}


@pytest.mark.parametrize("pid", GOLDEN_PIDS)
def test_seed0_trace_matches_golden(pid):
    golden = json.loads(GOLDEN_FILE.read_text())[f"p{pid:02d}"]
    assert fingerprint(pid) == golden


def fingerprints(pids) -> str:
    table = {f"p{pid:02d}": fingerprint(pid) for pid in pids}
    return json.dumps(table, indent=2) + "\n"


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--write"]:
        GOLDEN_FILE.write_text(fingerprints(GOLDEN_PIDS))
    elif len(args) == 2 and args[0] == "--print":
        sys.stdout.write(fingerprints(parse_problem_ids(args[1])))
    else:
        raise SystemExit("usage: python tests/test_golden.py "
                         "--write | --print IDS")
