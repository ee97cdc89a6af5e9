"""Trajectory simulation for both net kinds.

Deterministic nets advance all places synchronously: each step adds
dt * (inflow - outflow) per place, computed from the arc weights at the
current marking, and clips at zero: a place that would go negative is set to
0.0 and the clip is counted on the trajectory, while the places it feeds
keep their full inflows. A clipped step therefore creates tokens: an S -> I
transfer of weight 2*S, stepped with dt=1 from (S, I) = (10, 0), gives
(0, 20). This is forward Euler whenever nothing clips. A run that would take
more than MAX_STEPS steps raises SimError before it starts, and a run whose
marking turns infinite or NaN raises it at the end.

Stochastic nets fire one transition at a time (Gillespie's direct method):
each enabled transition's rate is its propensity, waiting times are
exponential, and the next event is chosen proportionally to propensity.
Each event takes one pair of uniform draws, the first for the wait and the
second for the choice, from numpy's PCG64 generator; numpy is imported only
where a generator or a seed is made, so deterministic runs never load it.
Markings are token counts: the loop holds them as floats, which count
exactly up to 2**53, and every recorded marking holds
Python ints. A run whose counts could pass 2**53 within MAX_EVENTS events
raises SimError before it starts. After an event only the propensities that
read a place the event changed (in its rate or in an input-arc guard), or
the total N when it changed, are recomputed (the dependency graph of Gibson
& Bruck); the others keep their values, so which event fires, and every
sampled marking, is as if all were recomputed. Time must advance: a run
whose total propensity is not finite, or so large that the mean waiting
time no longer changes t, raises SimError, as does a run that would record
more than MAX_SAMPLES samples (checked before the run starts) and a run that
passes MAX_EVENTS events.

Both simulators compile their whole loop to Python source once per model
(codegen.per_model) and take the parameter values as an argument. The
weights and rates are written by codegen.emit, so each gives the bits
eval_expr gives on the same marking. The vapn stepper runs in blocks of
sample_every steps and records a sample after each full block, so no step
tests whether to sample; each step computes the total N only when a weight
reads it, then each distinct sum and weight once, then updates every place
in place. Where eval_expr would raise (a division by zero, a negative base
under a fractional power, an overflowing power) the generated code raises
too, and codegen.call raises the error as SimError naming the model.
"""
from __future__ import annotations

import itertools
import math
import numbers
from types import MappingProxyType
from typing import NamedTuple

from .codegen import (assignments, call, emit, generated, per_model, symbol_table,
                      targets)
from .errors import NgmpnError
from .expr import free_symbols
from .petri import PetriModel, RESERVED_TOTAL


class SimError(NgmpnError):
    pass


class Trajectory(NamedTuple):
    """Sampled times and markings of one run."""
    places: tuple                   # place names, column order of markings
    times: tuple
    markings: tuple                 # tuple of marking tuples, aligned with times
    clipping_events: int = 0        # vapn: number of clipped place-steps
    rng_seed: int | None = None
    # read-only by default, since every trajectory made without metadata
    # shares it; the simulators give each run a dict of its own, which
    # run_spn_replicates adds to
    metadata: dict = MappingProxyType({})

    def column(self, place: str):
        if place not in self.places:
            raise SimError(f"no place named {place!r} in this trajectory")
        j = self.places.index(place)
        return [m[j] for m in self.markings]

    def final(self):
        return self.markings[-1]

    def write_csv(self, fh):
        fh.write("t," + ",".join(self.places) + "\n")
        for t, m in zip(self.times, self.markings):
            fh.write(f"{t:.12g}," + ",".join(f"{v:.12g}" for v in m) + "\n")


def _param_values(m: PetriModel, params) -> tuple:
    """Merged parameter values in declaration order, as the generated code
    unpacks them."""
    return tuple(m.merged_params(params, SimError).values())


# the most samples a run records; at a few hundred bytes per sample a run
# beyond it would exhaust the memory of a typical host
MAX_SAMPLES = 10_000_000
# the most Euler steps a vapn run takes; at 0.8-5 million steps per second
# (the zoo's vapn models on one x86-64 core, sampled every 160th step) that
# is 3 to 21 minutes of stepping
MAX_STEPS = 1_000_000_000
# the most events an spn run takes; at about 2 million events per second
# (sirs_spn on one x86-64 core, the best of 15 runs) that is about 50
# seconds of simulation
MAX_EVENTS = 100_000_000
# the most replicates one call runs; a seed is spawned for each up front and
# every trajectory is held until the call returns, about 1.2 KB a replicate
# even with one sample (sirs_spn), so a million would hold over a GB
MAX_REPLICATES = 100_000

# the range of each numeric argument of the simulators and of a sweep's
# config: a condition and its wording. sim and estimate check their
# arguments against it, and the command line its options.
RANGES = {
    "dt": (lambda v: 0 < v < math.inf, "positive and finite"),
    "t_end": (lambda v: 0 <= v < math.inf, "finite and non-negative"),
    "max_t": (lambda v: 0 < v < math.inf, "positive and finite"),
    "conv_tol": (lambda v: 0 <= v < math.inf, "finite and >= 0"),
    "sample_dt": (lambda v: v > 0, "positive"),
    "sample_every": (lambda v: isinstance(v, numbers.Integral) and v >= 1,
                     "an integer >= 1"),
    "replicates": (lambda v: isinstance(v, numbers.Integral)
                   and 1 <= v <= MAX_REPLICATES,
                   f"an integer from 1 to {MAX_REPLICATES}"),
}


def check_ranges(error, **values):
    """Raise `error` for the first value outside its range in RANGES."""
    for name, v in values.items():
        ok, what = RANGES[name]
        if not ok(v):
            raise error(f"{name} must be {what}, got {v!r}")


def _check_samples(count: float):
    """Refuse a run that would record more than MAX_SAMPLES samples."""
    if not count <= MAX_SAMPLES:
        raise SimError(f"the run would record {count:.3g} samples, more than "
                       f"{MAX_SAMPLES}; sample less often")


def _marking(m: PetriModel, marking, error=SimError) -> tuple:
    """The marking as a tuple, one value per place of the model, refusing
    with `error` any entry that is not a finite, non-negative number."""
    marking = tuple(marking)
    if len(marking) != len(m.places):
        raise error(f"marking length does not match the model: {len(marking)} "
                    f"entries for the {len(m.places)} places of model {m.name}")
    for place, v in zip(m.places, marking):
        if not (isinstance(v, numbers.Real) and 0 <= v < math.inf):
            raise error(f"marking of place {place.name!r} is not a finite, "
                        f"non-negative number: {v!r}")
    return marking


# ----------------------------------------------------------- deterministic

def _build_vapn(m: PetriModel):
    if m.kind != "vapn":
        raise SimError(f"model {m.name} is not a vapn")
    names = symbol_table(m)
    total = names[RESERVED_TOTAL]
    place_vars = [names[p.name] for p in m.places]
    unpack = targets(place_vars)
    params = targets([names[k] for k in m.params])

    # each distinct weight and sum once: a transfer carries the same weight
    # on its input and its output arc, and equal source gives equal bits
    sums: dict = {}
    weights: dict = {}
    inflow = {p.name: [] for p in m.places}
    outflow = {p.name: [] for p in m.places}
    for arc in m.arcs:
        code = emit(arc.weight, names, sums)
        w = weights.setdefault(code, f"_w{len(weights)}")
        if arc.target in inflow:
            inflow[arc.target].append(w)
        else:
            outflow[arc.source].append(w)
    step = ([f"{total} = {' + '.join(place_vars)}"]
            if any(RESERVED_TOTAL in free_symbols(arc.weight) for arc in m.arcs) else [])
    step += assignments(sums) + [f"{w} = {code}" for code, w in weights.items()]
    # every weight is computed before any place changes, and each place's new
    # value reads only its own old value and the weights, so a place can be
    # updated where it stands
    for x, p in zip(place_vars, m.places):
        ins = " + ".join(inflow[p.name]) or "0.0"
        outs = " + ".join(outflow[p.name]) or "0.0"
        step += [f"{x} = {x} + _dt*(({ins}) - ({outs}))",
                 f"if {x} < 0.0:",
                 f"    {x} = 0.0; _clips += 1"]

    body = "\n            ".join(step)
    src = f"""
def _run(_mk, _nsteps, _dt, _every, _tapp, _mapp, _t0, _p):
    ({unpack}) = map(float, _mk)
    ({params}) = _p
    _clips = 0
    _k = 0
    while _k < _nsteps:
        _j = min(_every, _nsteps - _k)
        for _ in range(_j):
            {body}
        _k += _j
        if _j == _every:
            _tapp(_t0 + _k*_dt)
            _mapp(({unpack}))
    return ({unpack}), _clips
"""
    return generated(src, f"vapn stepper {m.name}")["_run"]


def step_vapn(m: PetriModel, marking, dt: float, params=None):
    """One synchronous update of all places; returns the new marking."""
    return run_vapn(m, dt, dt=dt, params=params, marking0=marking).final()


def run_vapn(m: PetriModel, t_end: float, dt: float = 0.1, params=None,
             marking0=None, t0: float = 0.0, sample_every: int = 1) -> Trajectory:
    """Euler steps of size dt from the initial (or given) marking.

    Records every sample_every-th step plus the final state. A trailing
    partial step covers t_end when it is not a multiple of dt, so a run with
    t_end > t0 ends at t_end however large dt is.
    """
    check_ranges(SimError, dt=dt, sample_every=sample_every)
    span = t_end - t0
    if not 0 <= span < math.inf:
        raise SimError("t_end must be finite and not before t0")
    # the step count first: a run over both bounds needs a larger dt, and
    # sampling less often would leave it over the step bound
    if not span / dt <= MAX_STEPS:
        raise SimError(f"the run would take {span / dt:.3g} Euler steps, more "
                       f"than {MAX_STEPS}; use a larger dt")
    _check_samples(span / dt / sample_every)
    p = _param_values(m, params)
    runner = per_model(m, _build_vapn)
    marking = _marking(m, marking0 if marking0 is not None else m.initial_marking())

    nsteps = int(math.floor(span / dt + 1e-9))
    remainder = span - nsteps * dt

    times = [t0]
    markings = [marking]
    final, clips = call(m, SimError, runner, marking, nsteps, dt, sample_every,
                        times.append, markings.append, t0, p)
    t = t0 + nsteps * dt
    # a remainder within rounding of a whole step is no step; with no whole
    # step (dt > span) the remainder is the span, and always stepped
    if remainder > 1e-9 * min(dt, span):
        # one step of the loop; with _every = 2 > _nsteps = 1 it records no sample
        final, c2 = call(m, SimError, runner, final, 1, remainder, 2, None, None, 0.0, p)
        clips += c2
        t = t_end
    # a place that is not finite stays so (only -inf is clipped, and counted),
    # so the final marking shows whether any step overflowed
    for place, v in zip(m.places, final):
        if not math.isfinite(v):
            raise SimError(f"model {m.name}: the marking of place {place.name!r} "
                           f"is {v} at t={t:.6g}; the run overflowed")
    if times[-1] != t:
        times.append(t)
        markings.append(final)
    return Trajectory(m.place_names(), tuple(times), tuple(markings),
                      clipping_events=clips,
                      metadata={"kind": "vapn", "dt": dt})


# -------------------------------------------------------------- stochastic

def _build_spn(m: PetriModel):
    if m.kind != "spn":
        raise SimError(f"model {m.name} is not an spn")
    names = symbol_table(m)
    total = names[RESERVED_TOTAL]
    place_vars = [names[p.name] for p in m.places]
    marking = f"({targets(place_vars)})"
    params = targets([names[k] for k in m.params])

    rates = []      # source of each propensity, guarded by its input arcs
    depends = []    # names whose change can change each propensity
    deltas = []     # place -> net token change of each transition
    for t in m.transitions:
        inputs = m.inputs_of(t.name)
        change: dict = {}
        for a in inputs:
            change[a.source] = change.get(a.source, 0) - a.mult
        for a in m.outputs_of(t.name):
            change[a.target] = change.get(a.target, 0) + a.mult
        code = emit(t.rate, names)
        guards = " and ".join(f"{names[a.source]} >= {float(a.mult)!r}" for a in inputs)
        rates.append(f"({code}) if ({guards}) else 0.0" if guards else f"({code})")
        depends.append(free_symbols(t.rate) | {a.source for a in inputs})
        deltas.append({p.name: change[p.name] for p in m.places if change.get(p.name)})

    def update(js):
        """Recompute the listed propensities, then check them in order."""
        return ([f"_r{j} = {rates[j]}" for j in js]
                + [f"if _r{j} < 0.0: raise _negative({j}, _t)" for j in js])

    # one branch per transition, flat (nested ifs would meet the parser's
    # nesting limit) and with the last as the fallback when rounding leaves
    # _pick at the total: move the tokens, then recompute only the
    # propensities that read a place (or the total) the move changed
    select = []
    last = len(rates) - 1
    for j, delta in enumerate(deltas):
        net = sum(delta.values())
        changed = set(delta) | ({RESERVED_TOTAL} if net else set())
        body = [f"{names[name]} {'-' if dv < 0 else '+'}= {float(abs(dv))!r}"
                for name, dv in (*delta.items(), (RESERVED_TOTAL, net)) if dv]
        body += ["_t = _tn"]
        body += update([k for k, deps in enumerate(depends) if deps & changed])
        if j < last:
            acc = f"_acc + _r{j}" if j else f"_r{j}"
            select.append(f"{'el' if j else ''}if _pick < (_acc := {acc}):")
        elif j:
            select.append("else:")
        select += ["    " * (last > 0) + line for line in body]

    counts = f"({targets([f'int({x})' for x in place_vars])})"
    sep = "\n        "
    src = f"""
def _run(_mk, _p, _pairs, _tend, _sdt, _tapp, _mapp):
    {marking} = map(float, _mk)
    ({params}) = _p
    {total} = {" + ".join(place_vars)}
    _t = 0.0
    _ns = _sdt
    {sep[:-4].join(update(range(len(rates))))}
    for _u, _v in _pairs:
        _a0 = {" + ".join(f"_r{j}" for j in range(len(rates))) or "0.0"}
        if _a0 == 0.0:
            break
        _tn = _t - _log(1.0 - _u) / _a0
        if _tn >= _tend:
            break
        if not _tn > _t:  # a uniform of 0 waits 0; a wait below ulp(t) stalls
            if not _isfinite(_a0) or _t + 1.0 / _a0 == _t:
                raise _stalled(_t, _a0)
        while _ns <= _tn and _ns < _tend:
            _tapp(_ns)
            _mapp({counts})
            _ns += _sdt
        _pick = _v * _a0
        {sep.join(select)}
    return {counts}, _ns
"""
    tnames = tuple(t.name for t in m.transitions)
    model_name = m.name     # the generated code must not keep the model alive

    def negative(j, t):
        return SimError(f"negative propensity for transition {tnames[j]!r} at t={t:.6g}")

    def stalled(t, a0):
        return SimError(f"model {model_name}: time stopped advancing at t={t:.6g}, "
                        f"where the total propensity is {a0:.6g}")

    run = generated(src, f"spn run {m.name}", _log=math.log, _isfinite=math.isfinite,
                    _negative=negative, _stalled=stalled)["_run"]
    # the most tokens one event adds to the total, for _check_counts
    return run, max([0] + [sum(delta.values()) for delta in deltas])


def _uniforms(rng):
    """rng.random() draws in consecutive pairs, one pair per event, taken
    from blocks: a block of k PCG64 draws equals k scalar draws bit for bit.
    The pair after the first MAX_EVENTS raises SimError, so no run fires
    more than MAX_EVENTS events."""
    def blocks():
        for start in range(0, 2 * MAX_EVENTS, 1024):
            yield rng.random(min(1024, 2 * MAX_EVENTS - start)).tolist()
        raise SimError(f"the run took more than {MAX_EVENTS} events; "
                       f"do its token counts explode before t_end?")
    draws = itertools.chain.from_iterable(blocks())
    return zip(draws, draws)


def _seed(seed) -> int:
    """The seed once checked, or a fresh one from the OS when it is None."""
    if seed is None:
        import numpy as np
        return int(np.random.SeedSequence().generate_state(1, dtype=np.uint64)[0])
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise SimError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _counts(m: PetriModel, marking) -> tuple:
    """The marking as integer token counts, refusing any entry that is not a
    finite, non-negative whole number."""
    marking = _marking(m, marking)
    for place, v in zip(m.places, marking):
        if not (isinstance(v, numbers.Integral) or v == math.floor(v)):
            raise SimError(f"marking of place {place.name!r} is not a whole "
                           f"number: {v!r}")
    return tuple(map(int, marking))


def _check_counts(marking, gain: int):
    """Refuse a run whose token counts could pass 2**53, past which floats do
    not count exactly. No count exceeds the total, which starts at
    sum(marking) and gains at most `gain`, the largest net output of one
    transition, in each of at most MAX_EVENTS events."""
    start = sum(marking)
    if start + MAX_EVENTS * gain > 2**53:
        raise SimError(f"token counts could reach {start + MAX_EVENTS * gain}, more "
                       f"than 2**53, past which floats do not count exactly: "
                       f"{start} at the start plus up to {gain} in each of up to "
                       f"{MAX_EVENTS} events")


def run_spn(m: PetriModel, t_end: float, seed: int | None = None, params=None,
            sample_dt: float = 1.0, marking0=None) -> Trajectory:
    """Event-by-event stochastic run to t_end.

    States are recorded on the sample_dt grid plus the final time; between
    events the marking is constant. A zero total propensity ends the run
    early (the state is absorbing); a run whose time stops advancing raises
    SimError. The generator is seeded explicitly so a (model, seed, t_end)
    triple is reproducible bit for bit.
    """
    check_ranges(SimError, t_end=t_end, sample_dt=sample_dt)
    _check_samples(t_end / sample_dt)
    p = _param_values(m, params)
    runner, gain = per_model(m, _build_spn)
    seed = _seed(seed)
    import numpy as np
    rng = np.random.default_rng(seed)
    marking = _counts(m, marking0 if marking0 is not None else m.initial_marking())
    _check_counts(marking, gain)

    times = [0.0]
    markings = [marking]
    marking, next_sample = call(m, SimError, runner, marking, p, _uniforms(rng), t_end,
                                sample_dt, times.append, markings.append)
    while next_sample < t_end:
        times.append(next_sample)
        markings.append(marking)
        next_sample += sample_dt
    if times[-1] != t_end:
        times.append(t_end)
        markings.append(marking)
    return Trajectory(m.place_names(), tuple(times), tuple(markings),
                      rng_seed=seed,
                      metadata={"kind": "spn", "prng": "PCG64",
                                "numpy": np.__version__})


def run_spn_replicates(m: PetriModel, t_end: float, seed: int | None = None,
                       replicates: int = 1, params=None, sample_dt: float = 1.0):
    """Independent replicate runs with generators spawned from one seed."""
    check_ranges(SimError, replicates=replicates)
    seed = _seed(seed)
    import numpy as np
    out = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(replicates)):
        child_seed = int(child.generate_state(1, dtype=np.uint64)[0])
        traj = run_spn(m, t_end, seed=child_seed, params=params, sample_dt=sample_dt)
        traj.metadata["parent_seed"] = seed
        traj.metadata["replicate"] = i
        out.append(traj)
    return out
