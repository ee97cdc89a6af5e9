"""Algebra-vs-simulation comparison sweeps, written out as CSV.

Two default experiments:
  sirs       5x5 grid over beta and gamma, closed population, single seed
  nonlinear  4x4x4 grid over beta, gamma, sigma with saturating incidence

Each grid point computes the matrix-pipeline R0, runs the deterministic
dynamics to convergence, estimates R0 from the attack rate, and records the
relative error. Run: python scripts/run_sweeps.py [--out DIR] [--quick]
"""

import argparse
import os
import time

from ngmpn.estimate import SweepConfig, sweep
from ngmpn.modelzoo import builtin


def linspace(lo, hi, count):
    step = (hi - lo) / (count - 1)
    return [lo + step * i for i in range(count - 1)] + [hi]


EXPERIMENTS = {
    "sirs": dict(
        model="sirs",
        grid=lambda q: {"beta": linspace(0.1, 0.5, 3 if q else 5),
                        "gamma": linspace(0.05, 0.25, 3 if q else 5)},
        config=SweepConfig(dt=0.05, overrides={"delta": 0.0},
                           marking0=(999999.0, 1.0, 0.0)),
    ),
    "nonlinear": dict(
        model="nonlinear",
        grid=lambda q: {"beta": [0.3, 0.6] if q else [0.3, 0.4, 0.5, 0.6],
                        "gamma": [0.2, 0.32] if q else [0.2, 0.24, 0.28, 0.32],
                        "sigma": [0.15, 0.5] if q else [0.15, 0.2, 0.35, 0.5]},
        config=SweepConfig(dt=0.02, overrides={"mu": 0.0}),
    ),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results", help="output directory")
    ap.add_argument("--quick", action="store_true",
                    help="coarser grids for a fast smoke run")
    ap.add_argument("--only", choices=sorted(EXPERIMENTS),
                    help="run a single experiment")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    for name, exp in EXPERIMENTS.items():
        if args.only and name != args.only:
            continue
        m = builtin(exp["model"])
        t0 = time.time()
        report = sweep(m, exp["grid"](args.quick), exp["config"])
        elapsed = time.time() - t0
        path = os.path.join(args.out, f"sweep_{name}.csv")
        with open(path, "w") as fh:
            report.write_csv(fh)
        print(f"{name}: {len(report.rows)} points in {elapsed:.1f}s  "
              f"rrmse={report.rrmse:.6f}  max_rel={report.max_rel_err:.6f}  "
              f"failures={report.failures}  -> {path}")
        worst = sorted((r for r in report.rows if r.rel_err is not None),
                       key=lambda r: -r.rel_err)[:3]
        for row in worst:
            print(f"    {row.params}  alg={row.r0_alg:.4f}  "
                  f"hat={row.r0_hat:.4f}  rel={row.rel_err:.2e}")
        for row in report.rows:
            if row.error:
                print(f"    FAIL {row.params}  {row.error}")


if __name__ == "__main__":
    main()
