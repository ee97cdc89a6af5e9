"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads r0_zoo ode_sweep --seeds 101-110

For each workload and end-to-end metric this prints the median of the runs
and the distance between the first and third quartiles as a share of that
median, the figure BENCHMARK.json's bounds are set against. Runs go one
after another, never in parallel. Each run's JSON line is kept under
perfbench/results/ (ignored by git).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_of(text):
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)

    worst = {"setup_s": 0.0, "other": 0.0}
    for workload in args.workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            line = proc.stdout.strip().splitlines()[-1]
            (out_dir / f"{workload}.seed{seed}.json").write_text(line + "\n")
            result = json.loads(line)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if k in bounds), flush=True)
        print(f"{workload}: failed shares "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})}")
        for name in runs[0]["metrics"]:
            if name not in bounds:
                continue
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            kind = "setup_s" if name == "setup_s" else "other"
            worst[kind] = max(worst[kind], share / bounds[name])
            print(f"  {name:14s} median {med:12.6g}  IQR/median {share:7.2%}  "
                  f"bound {bounds[name]:.0%}")
    # setup_s is held to its bound only through its median, not its spread
    print(f"largest spread as a share of its bound: {worst['other']:.2f} "
          f"(setup_s: {worst['setup_s']:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
