"""Regenerate the packaged composition-function data files.

Each composition instance needs one shift vector per component (the
global optima) and one d-by-d rotation matrix per component. Shifts are
drawn uniformly in [-4, 4]^d with a minimum pairwise separation so the
optima sit well inside the [-5, 5]^d domain and never share a niche;
rotations are identity for CF1 and CF2 and orthogonal matrices (QR of
a Gaussian draw) for the families in ROTATED. Each file holds the
shifts, then the stacked rotations, d values to a line, as
`load_composition` reads them. The package only reads these files;
this script is their only writer.

Everything is seeded and the script writes nothing else, but the QR
goes through LAPACK, so the rotated families' files (cf3_*, cf4_*)
come out byte for byte as committed only under the OpenBLAS kernel
that wrote them (SkylakeX); under Haswell, Zen or Sandybridge
(OPENBLAS_CORETYPE) those 8 files differ in their last digits. The
optima of problems 11-20 are these shift points; those of problems
1-10 are derived in code.

Usage: python scripts/generate_composition_data.py [out_dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hillvallea.problems.composition import (FAMILIES,
                                             composition_data_filename)

SHIFT_BOX = 4.0
BASE_SEED = 20190701
ROTATED = {"CF3", "CF4"}
INSTANCES = [("CF1", 2), ("CF2", 2), ("CF3", 2), ("CF3", 3), ("CF4", 3),
             ("CF3", 5), ("CF4", 5), ("CF3", 10), ("CF4", 10), ("CF4", 20)]


def separated_shifts(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample n points in the shift box, keeping a minimum
    pairwise distance; the threshold relaxes if a configuration is hard
    to place (it never is for these sizes)."""
    min_dist = 2.5
    while True:
        points: list[np.ndarray] = []
        for _ in range(5000):
            candidate = rng.uniform(-SHIFT_BOX, SHIFT_BOX, size=d)
            if all(np.linalg.norm(candidate - p) >= min_dist for p in points):
                points.append(candidate)
                if len(points) == n:
                    return np.array(points)
        min_dist *= 0.95


def random_rotations(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    out = np.empty((n, d, d))
    for i in range(n):
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        out[i] = q * np.sign(np.diag(r))
    return out


def save_composition_data(path: Path, shifts: np.ndarray,
                          rotations: np.ndarray) -> None:
    rows = np.vstack([shifts, rotations.reshape(-1, shifts.shape[1])])
    np.savetxt(path, rows, fmt="%.17g")


def main(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, (family_name, d) in enumerate(INSTANCES):
        family = FAMILIES[family_name]
        rng = np.random.default_rng(BASE_SEED + index)
        shifts = separated_shifts(family.n_components, d, rng)
        if family_name in ROTATED:
            rotations = random_rotations(family.n_components, d, rng)
        else:
            rotations = np.broadcast_to(
                np.eye(d), (family.n_components, d, d)).copy()
        path = out_dir / composition_data_filename(family_name, d)
        save_composition_data(path, shifts, rotations)
        print(f"wrote {path}")


if __name__ == "__main__":
    target = (Path(sys.argv[1]) if len(sys.argv) > 1
              else Path(__file__).resolve().parent.parent
              / "src" / "hillvallea" / "data")
    main(target)
