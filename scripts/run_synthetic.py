#!/usr/bin/env python3
"""Reference synthetic experiment: GRMSC on the calibration dataset.

Generates the planted three-cluster, three-view dataset used throughout
the test suite (n=150, dims 20/30/40, subspace rank 3, noise 0.05,
seed 7), runs the requested number of seeded restarts, and leaves
report.csv / summary.csv / labels.csv under --out.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mvsc.cli import main as cli_main
from mvsc.solver import VARIANTS

SPEC = {
    "n": 150,
    "clusters": 3,
    "dims": [20, 30, 40],
    "subspace_rank": 3,
    "noise_sigma": 0.05,
    "seed": 7,
    "name": "acceptance",
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("results/synthetic"))
    ap.add_argument("--restarts", type=int, default=30)
    ap.add_argument("--variant", default="grmsc", choices=VARIANTS)
    ap.add_argument("--trace-residuals", action="store_true",
                    help="also dump per-iteration solver traces")
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    spec_path = args.out / "spec.json"
    spec_path.write_text(json.dumps(SPEC, indent=2) + "\n")

    argv = [
        "run",
        "--synthetic", str(spec_path),
        "--out", str(args.out),
        "--restarts", str(args.restarts),
        "--variant", args.variant,
    ]
    if args.trace_residuals:
        argv.append("--trace-residuals")
    code = cli_main(argv)
    if code == 0:
        print(f"wrote {args.out / 'summary.csv'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
