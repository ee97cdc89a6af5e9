"""Command-line front end.

Subcommands: validate | r0 | simulate | sweep | list-models. Exit codes:
0 success, 2 usage, model file or other I/O error, 1 any other package error
(failed validation, estimation or R0 errors, a sweep in which every grid
point failed). All numeric output uses 12 significant digits and JSON
objects are emitted with sorted keys, so runs diff cleanly.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .errors import NgmpnError
from .estimate import SweepConfig, sweep
from .modelzoo import ZooError, builtin, zoo_entries, zoo_entry
from .ngm import ngm_r0
from .petri import ModelError, load_model, validate_assumptions
from .sim import run_spn, run_spn_replicates, run_vapn


class UsageError(NgmpnError):
    pass


def _round12(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}") + 0.0   # + 0.0 folds -0.0 into 0.0
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit_json(obj, fh=None):
    text = json.dumps(_round12(obj), sort_keys=True, allow_nan=False)
    (fh or sys.stdout).write(text + "\n")


def _load(args):
    if bool(args.model) == bool(args.builtin):
        raise UsageError("give exactly one model source: a path or --builtin ID")
    if args.builtin:
        try:
            zoo_entry(args.builtin)
        except ZooError as exc:   # an unknown id; a manifest fault stays exit 1
            raise UsageError(str(exc)) from None
        return builtin(args.builtin)
    if not os.path.exists(args.model):
        raise UsageError(f"no such file: {args.model}")
    return load_model(args.model)


def _params(args):
    out = {}
    for item in args.param or []:
        if "=" not in item:
            raise UsageError(f"-p expects NAME=VALUE, got {item!r}")
        name, _, val = item.partition("=")
        try:
            out[name.strip()] = float(val)
        except ValueError:
            raise UsageError(f"-p {name}: not a number: {val!r}")
    return out


def _seed(args):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("NGMPN_SEED")
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"NGMPN_SEED is not an integer: {env!r}") from None


def cmd_validate(args) -> int:
    m = _load(args)
    findings = validate_assumptions(m)
    for f in findings:
        print(f"{f.code}: {f.status}  {f.detail}")
    bad = any(f.status in ("violated", "fatal") for f in findings)
    return 1 if bad else 0


def cmd_r0(args) -> int:
    m = _load(args)
    result = ngm_r0(m, params=_params(args))
    _emit_json(result.as_dict())
    return 0


def _rep_path(path: str, i: int) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}.rep{i}{ext or '.csv'}"


def _check_dt(args):
    if not 0 < args.dt < math.inf:
        raise UsageError("--dt must be positive and finite")


def cmd_simulate(args) -> int:
    m = _load(args)
    _check_dt(args)
    if args.t_end is None or not 0 <= args.t_end < math.inf:
        raise UsageError("--t-end must be given, finite and non-negative")
    params = _params(args)
    if m.kind == "vapn":
        if args.replicates != 1:
            raise UsageError("--replicates applies to stochastic models only")
        trajs = [run_vapn(m, args.t_end, dt=args.dt, params=params,
                          sample_every=args.sample_every)]
    else:
        seed = _seed(args)
        if args.replicates == 1:
            trajs = [run_spn(m, args.t_end, seed=seed, params=params,
                             sample_dt=args.sample_dt)]
        else:
            trajs = run_spn_replicates(m, args.t_end, seed=seed,
                                       replicates=args.replicates,
                                       params=params, sample_dt=args.sample_dt)
    if args.output:
        if len(trajs) == 1:
            with open(args.output, "w") as fh:
                trajs[0].write_csv(fh)
        else:
            for i, tr in enumerate(trajs):
                with open(_rep_path(args.output, i), "w") as fh:
                    tr.write_csv(fh)
    else:
        for i, tr in enumerate(trajs):
            if len(trajs) > 1:
                print(f"# replicate {i} seed={tr.rng_seed}")
            tr.write_csv(sys.stdout)
    return 0


def _parse_grid(items):
    grid = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"--grid expects NAME=lo:hi:count, got {item!r}")
        name, _, spec = item.partition("=")
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"--grid {name}: expected lo:hi:count, got {spec!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise UsageError(f"--grid {name}: bad numbers in {spec!r}")
        if count < 1:
            raise UsageError(f"--grid {name}: count must be >= 1")
        if count == 1:
            values = [lo]
        else:
            step = (hi - lo) / (count - 1)
            values = [lo + step * i for i in range(count - 1)] + [hi]
        # an inf or nan bound, or a step that overflows, is the spec's fault
        if not all(map(math.isfinite, [lo, hi] + values)):
            raise UsageError(f"--grid {name}: {spec!r} has a value that is not finite")
        grid[name.strip()] = values
    if not grid:
        raise UsageError("sweep needs at least one --grid NAME=lo:hi:count")
    return grid


def cmd_sweep(args) -> int:
    m = _load(args)
    _check_dt(args)
    grid = _parse_grid(args.grid)
    config = SweepConfig(dt=args.dt, chunk_t=args.chunk_t,
                         conv_tol=args.conv_tol, max_t=args.max_t,
                         susceptible=args.susceptible,
                         overrides=_params(args))
    report = sweep(m, grid, config)

    if args.output:
        with open(args.output, "w") as fh:
            report.write_csv(fh)
        _emit_json(report.summary())
    else:
        report.write_csv(sys.stdout)
        _emit_json(report.summary(), sys.stderr)
    if report.failures == len(report.rows):
        print("error: every grid point failed", file=sys.stderr)
        return 1
    return 0


def cmd_list_models(args) -> int:
    for e in zoo_entries():
        print(f"{e.id:12s} {e.kind:5s} {e.description}")
        defaults = ", ".join(f"{k}={v.default:.12g}" for k, v in e.params.items())
        print(f"{'':12s} params: {defaults}")
    return 0


@functools.cache
def _parser():
    """The command-line parser, built on first use: parsing does not change
    it, so one serves every call in the process."""
    ap = argparse.ArgumentParser(prog="ngmpn",
                                 description="Petri-net R0 toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("model", nargs="?", help="model file (.pnet)")
        p.add_argument("--builtin", help="built-in model id (see list-models)")
        p.add_argument("-p", "--param", action="append", metavar="NAME=VALUE",
                       help="override a parameter (repeatable)")

    p = sub.add_parser("validate", help="check structural assumptions")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("r0", help="algebraic R0 via the next-generation matrix")
    common(p)
    p.set_defaults(fn=cmd_r0)

    p = sub.add_parser("simulate", help="run one model, write trajectory CSV")
    common(p)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--seed", type=int)
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--sample-every", type=int, default=1, dest="sample_every")
    p.add_argument("--sample-dt", type=float, default=1.0, dest="sample_dt")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep", help="compare algebraic vs simulated R0 on a grid")
    common(p)
    p.add_argument("--grid", action="append", metavar="NAME=lo:hi:count",
                   help="inclusive linear grid for one parameter (repeatable)")
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--chunk-t", type=float, default=400.0, dest="chunk_t")
    p.add_argument("--conv-tol", type=float, default=1e-6, dest="conv_tol")
    p.add_argument("--max-t", type=float, default=3e5, dest="max_t")
    p.add_argument("--susceptible", default="S")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("list-models", help="list built-in models")
    p.set_defaults(fn=cmd_list_models)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NgmpnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
