"""Command-line front end.

Subcommands: validate | r0 | simulate | sweep | list-models. Exit codes:
0 success, 2 usage, model file or other I/O error, 1 any other package error
(failed validation, estimation or R0 errors, a sweep in which every grid
point failed). All numeric output uses 12 significant digits and JSON
objects are emitted with sorted keys, so runs diff cleanly.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from .errors import NgmpnError
from .estimate import MAX_GRID_POINTS, SweepConfig, sweep
from .modelzoo import ZooError, builtin, zoo_entries, zoo_entry
from .ngm import ngm_r0
from .petri import ModelError, load_model, validate_assumptions
from .sim import RANGES, run_spn, run_spn_replicates, run_vapn


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


def _env_seed():
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


def _given(args, names) -> dict:
    """The options among `names` that were given, by keyword; an option not
    given (None) takes the library's default."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _check_options(args):
    """A given option outside the library's range for it is the command
    line's fault, found before any work."""
    for name, (ok, what) in RANGES.items():
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise UsageError(f"--{name.replace('_', '-')} must be {what}")


# the options of simulate that only one simulator reads; giving one for a
# model of the other kind is a usage error, not an option silently ignored
_SIMULATOR_OPTIONS = {
    "vapn": ("deterministic", ("dt", "sample_every")),
    "spn": ("stochastic", ("sample_dt", "replicates", "seed")),
}


def _simulator_options(args, kind) -> dict:
    """The options given for a `kind` model's simulator, by keyword."""
    for other, (what, names) in _SIMULATOR_OPTIONS.items():
        for name in _given(args, names) if other != kind else ():
            raise UsageError(f"--{name.replace('_', '-')} applies to {what} models only")
    return _given(args, _SIMULATOR_OPTIONS[kind][1])


def cmd_simulate(args) -> int:
    m = _load(args)
    if args.t_end is None:
        raise UsageError("--t-end must be given")
    _check_options(args)
    options = _simulator_options(args, m.kind)
    params = _params(args)
    if m.kind == "vapn":
        trajs = [run_vapn(m, args.t_end, params=params, **options)]
    else:
        if "seed" not in options:
            options["seed"] = _env_seed()
        replicates = options.pop("replicates", 1)
        if replicates == 1:
            trajs = [run_spn(m, args.t_end, params=params, **options)]
        else:
            trajs = run_spn_replicates(m, args.t_end, params=params,
                                       replicates=replicates, **options)
    many = len(trajs) > 1
    for i, tr in enumerate(trajs):
        if args.output:
            fh = open(_rep_path(args.output, i) if many else args.output, "w")
        else:
            fh = contextlib.nullcontext(sys.stdout)
            if many:
                print(f"# replicate {i} seed={tr.rng_seed}")
        with fh as out:
            tr.write_csv(out)
    return 0


def _parse_grid(items):
    grid = {}
    points = 1
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"--grid expects NAME=lo:hi:count, got {item!r}")
        name, _, spec = item.partition("=")
        name = name.strip()
        if name in grid:
            raise UsageError(f"--grid {name}: given more than once")
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"--grid {name}: expected lo:hi:count, got {spec!r}")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise UsageError(f"--grid {name}: bad numbers in {spec!r}")
        if count < 1:
            raise UsageError(f"--grid {name}: count must be >= 1")
        points *= count
        if points > MAX_GRID_POINTS:
            raise UsageError(f"--grid: the grid has more than {MAX_GRID_POINTS} points")
        if count == 1:
            values = [lo]
        else:
            step = (hi - lo) / (count - 1)
            values = [lo + step * i for i in range(count - 1)] + [hi]
        # an inf or nan bound, or a step that overflows, is the spec's fault
        if not all(map(math.isfinite, [lo, hi] + values)):
            raise UsageError(f"--grid {name}: {spec!r} has a value that is not finite")
        grid[name] = values
    if not grid:
        raise UsageError("sweep needs at least one --grid NAME=lo:hi:count")
    return grid


def cmd_sweep(args) -> int:
    m = _load(args)
    _check_options(args)
    grid = _parse_grid(args.grid)
    config = SweepConfig(overrides=_params(args),
                         **_given(args, ("dt", "conv_tol", "max_t", "susceptible")))
    report = sweep(m, grid, config)

    if args.output:
        with open(args.output, "w") as fh:
            report.write_csv(fh)
        _emit_json(report.summary())
    else:
        report.write_csv(sys.stdout)
        _emit_json(report.summary(), sys.stderr)
    # a failed row's CSV cells are empty: say on stderr why it failed
    for row in report.rows:
        if row.error is not None:
            point = ", ".join(f"{k}={row.params[k]:.12g}" for k in report.grid_names)
            print(f"point {point} failed: {row.error}", file=sys.stderr)
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

    p = sub.add_parser("validate", help="check structural assumptions")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("r0", help="algebraic R0 via the next-generation matrix")
    common(p)
    p.set_defaults(fn=cmd_r0)

    p = sub.add_parser("simulate", help="run one model, write trajectory CSV")
    common(p)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--seed", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--sample-every", type=int, dest="sample_every")
    p.add_argument("--sample-dt", type=float, dest="sample_dt")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep", help="compare algebraic vs simulated R0 on a grid")
    common(p)
    p.add_argument("--grid", action="append", metavar="NAME=lo:hi:count",
                   help="inclusive linear grid for one parameter (repeatable)")
    p.add_argument("--dt", type=float)
    p.add_argument("--conv-tol", type=float, dest="conv_tol")
    p.add_argument("--max-t", type=float, dest="max_t")
    p.add_argument("--susceptible")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("list-models", help="list built-in models")
    p.set_defaults(fn=cmd_list_models)

    # validate reads no parameter values, so it takes no -p
    for name in ("r0", "simulate", "sweep"):
        sub.choices[name].add_argument("-p", "--param", action="append", metavar="NAME=VALUE",
                                       help="override a parameter (repeatable)")
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
