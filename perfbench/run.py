"""Benchmark of the ngmpn package: R0, ODE sweeps and Gillespie replicates.

    python3 perfbench/run.py --workload r0_zoo --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Everything runs in this one
process, on one thread. See perfbench/README.md for what each number means.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("petri", "expr", "ngm", "linalg", "sim", "estimate", "modelzoo", "cli")
SETUPS = 11


def quartiles(values):
    """First and third quartiles; both equal the value when there is one."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def import_package():
    """Import ngmpn from scratch, dropping any copy imported before."""
    for name in [n for n in sys.modules if n == "ngmpn" or n.startswith("ngmpn.")]:
        del sys.modules[name]
    importlib.import_module("ngmpn")
    return SimpleNamespace(**{m: importlib.import_module(f"ngmpn.{m}") for m in MODULES})


def set_up(workload):
    """Import, load the zoo and warm up; returns (seconds, zoo load seconds)."""
    t0 = time.perf_counter()
    pkg = import_package()
    t1 = time.perf_counter()
    for entry in pkg.modelzoo.zoo_entries():
        pkg.modelzoo.builtin(entry.id)
    zoo = time.perf_counter() - t1
    workload.attach(pkg)
    return time.perf_counter() - t0, zoo


def run_rounds(workload, seconds, setups):
    """Whole rounds until they have taken `seconds`.

    Given the list of set-ups made so far, the package is set up again at
    even intervals until there are SETUPS of them. The host's speed changes
    in bursts of seconds, so set-ups spread over the run sample it as the
    rounds do.
    """
    rounds = []
    spent = 0.0
    while spent < seconds:
        t0 = time.perf_counter()
        rounds.append(workload.round(None))
        spent += time.perf_counter() - t0
        if len(setups) < SETUPS \
                and spent >= seconds * len(setups) / SETUPS:
            setups.append(set_up(workload))
    while len(setups) < SETUPS:
        setups.append(set_up(workload))
    return rounds


def run_pairs(workload, seconds, tracer):
    """Untraced and traced rounds in turn until they have taken `seconds`.

    Both kinds then sample the same stretches of host speed, so the ratio of
    their rates measures the tracing overhead and not a change of speed.
    """
    plain, traced = [], []
    spent = 0.0
    while spent < seconds:
        t0 = time.perf_counter()
        plain.append(workload.round(None))
        install(tracer, workload.pkg)
        try:
            traced.append(workload.round(tracer))
        finally:
            tracer.unpatch()
        spent += time.perf_counter() - t0
    return plain, traced


def install(tracer, pkg):
    """Time the package's public functions at the boundaries between layers."""
    def steps(args, kwargs):
        # run_vapn's step count for the chunk converged_run asks for
        span = kwargs["t_end"] - kwargs.get("t0", 0.0)
        dt = kwargs["dt"]
        n = int(span / dt + 1e-9)
        return n + (1 if span - n * dt > 1e-9 * dt else 0)

    for module in (pkg.ngm, pkg.cli, pkg.estimate):
        tracer.patch(module, "ngm_r0", "ngm.ngm_r0", "arg0")
    tracer.patch(pkg.ngm, "validate_assumptions", "petri.validate_assumptions", "arg0")
    tracer.patch(pkg.ngm, "compute_dfe", "ngm.compute_dfe", "arg0")
    tracer.patch(pkg.ngm, "classify_transitions", "petri.classify_transitions", "arg0")
    tracer.patch(pkg.linalg, "invert", "linalg.invert")
    tracer.patch(pkg.linalg, "eigenvalues", "linalg.eigenvalues")
    tracer.patch(pkg.petri, "parse_model", "petri.parse_model", "result")
    tracer.patch(pkg.cli, "load_model", "cli.load_model", "result")
    tracer.patch(pkg.estimate, "sweep", "estimate.sweep", "arg0")
    tracer.patch(pkg.estimate, "converged_run", "estimate.converged_run", "arg0")
    tracer.patch(pkg.estimate, "run_vapn", "sim.run_vapn", "arg0", work=steps)
    tracer.patch(pkg.estimate, "attack_rate_r0", "estimate.attack_rate_r0")
    tracer.patch(pkg.sim, "run_spn", "sim.run_spn", "arg0")


def per_layer(tracer, model_ids, zoo_ms, overhead_pct):
    """Per-layer metrics: name -> (value, unit). A layer the workload does not
    call reads 0."""
    out = {}
    r0_layers = (("petri.validate_assumptions_us", "petri.validate_assumptions", "warm", False),
                 ("ngm.compute_dfe_us", "ngm.compute_dfe", "warm", False),
                 ("expr.diff_us", "expr.diff", "warm", False),
                 ("expr.eval_expr_us", "expr.eval_expr", "warm", False),
                 ("linalg.invert_us", "linalg.invert", "warm", False),
                 ("linalg.eigenvalues_us", "linalg.eigenvalues", "warm", False),
                 ("ngm.ngm_r0_us", "ngm.ngm_r0", "warm", False),
                 ("ngm.ngm_r0_self_us", "ngm.ngm_r0", "warm", True),
                 ("petri.parse_model_us", "petri.parse_model", "cold", False),
                 ("petri.classify_transitions_us", "petri.classify_transitions", "cold", False))
    for mid in model_ids:
        for metric, span, phase, own in r0_layers:
            out[f"{metric}.{mid}"] = (tracer.per_call(span, 1e6, phase, mid, own), "us")
        out[f"cli.r0_self_ms.{mid}"] = (tracer.per_call("cli.r0", 1e3, "cold", mid, True), "ms")

    steps = tracer.work_of("sim.run_vapn", "warm")
    step_s = tracer.seconds_of("sim.run_vapn", "warm")
    points = tracer.calls_of("estimate.converged_run", "warm")
    out["sim.vapn_steps_per_s"] = (steps / step_s if step_s else 0.0, "1/s")
    out["sim.vapn_build_ms"] = (tracer.per_call("sim.vapn_build", 1e3, "warm"), "ms")
    out["estimate.converged_run_ms"] = (tracer.per_call("estimate.converged_run", 1e3, "warm"), "ms")
    out["estimate.euler_steps_per_point"] = (steps / points if points else 0.0, "count")
    out["estimate.chunks_per_point"] = (
        tracer.calls_of("sim.run_vapn", "warm") / points if points else 0.0, "count")
    out["estimate.attack_rate_r0_us"] = (tracer.per_call("estimate.attack_rate_r0", 1e6, "warm"), "us")
    out["estimate.sweep_self_ms"] = (tracer.per_call("estimate.sweep", 1e3, "warm", own=True), "ms")
    out["sim.spn_replicate_ms"] = (tracer.per_call("sim.run_spn", 1e3, "warm"), "ms")
    out["modelzoo.builtin_ms"] = (zoo_ms, "ms")
    out["bench.trace_overhead_pct"] = (overhead_pct, "%")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ngmpn" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy  # noqa: F401  used by the checks; kept out of the set-up time

    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (have: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    setups = [set_up(workload)]
    workload.prepare()

    if args.trace:
        # the wrappers stay on one copy of the package, so all set-ups come first
        setups += [set_up(workload) for _ in range(SETUPS - 1)]
        zoo_ms = 1e3 * statistics.median(z for _, z in setups)
        tracer = Tracer()
        plain, traced = run_pairs(workload, args.seconds, tracer)
        rounds = plain + traced
        overhead = 100.0 * (quartiles([r.rate for r in plain])[0]
                            / quartiles([r.rate for r in traced])[0] - 1.0)
        model_ids = [e.id for e in workload.pkg.modelzoo.zoo_entries()]
        metrics = per_layer(tracer, model_ids, zoo_ms, overhead)
    else:
        rounds = run_rounds(workload, args.seconds, setups)
        metrics = {
            "setup_s": (statistics.median(s for s, _ in setups), "s"),
            # the rate three rounds in four reach, and the cold-pass time three
            # in four stay under: host contention comes in bursts of seconds,
            # and these quartiles move less with it than the medians do
            "ops_per_s": (quartiles([r.rate for r in rounds])[0], "1/s"),
            "cold_ms": (1e3 * quartiles([r.cold_seconds for r in rounds])[1], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    workload.finish()

    for message in workload.errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, seed {args.seed}", file=sys.stderr)
    print(json.dumps({
        "correct": not workload.errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
