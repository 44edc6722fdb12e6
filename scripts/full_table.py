"""Full-scale benchmark reproduction: 50 runs of all 20 problems.

This is the long-running target documented in the README (hours of CPU
time; the 10- and 20-dimensional composition problems dominate). The
score table lands in bench-results/full/scores.csv and the per-run
traces in bench-results/full/traces/. Use --jobs to parallelize across
cores; further hillvallea-bench flags are passed through.

Usage: python scripts/full_table.py [--jobs K]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hillvallea.cli import main

if __name__ == "__main__":
    raise SystemExit(main([
        "--problems", "1-20",
        "--runs", "50",
        "--seed", "0",
        "--out", "bench-results/full",
        *sys.argv[1:],
    ]))
