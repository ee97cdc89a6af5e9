import io
import math
import signal
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ngmpn import codegen, sim
from ngmpn.expr import eval_expr, parse_expr
from ngmpn.modelzoo import builtin, zoo_ids
from ngmpn.ngm import ngm_r0
from ngmpn.petri import ModelError, parse_model
from ngmpn.sim import (SimError, run_spn, run_spn_replicates, run_vapn,
                       step_vapn)
from nets import nets

SIR_DENSITY = """\
model sir_density kind=vapn
param beta=0.0003
param gamma=0.1
place S init=990
place I init=10 infected
place R init=0
trans infect
trans recover
arc S -> infect weight="beta*S*I"
arc infect -> I weight="beta*S*I"
arc I -> recover weight="gamma*I"
arc recover -> R weight="gamma*I"
"""

BIRTH_SPN = """\
model birth kind=spn
param lam=2
place X init=0 infected
trans arrive rate="lam"
arc arrive -> X mult=1
"""


# ----------------------------------------------------------------- stepping

def test_step_fixture():
    m = parse_model(SIR_DENSITY)
    nxt = step_vapn(m, (990.0, 10.0, 0.0), 1.0)
    assert nxt == (987.03, 11.969999999999999, 1.0)


def test_step_respects_param_overrides():
    m = parse_model(SIR_DENSITY)
    nxt = step_vapn(m, (990.0, 10.0, 0.0), 1.0, params={"beta": 0.0})
    assert nxt == (990.0, 9.0, 1.0)


def test_step_unknown_param():
    with pytest.raises(SimError):
        step_vapn(parse_model(SIR_DENSITY), (990.0, 10.0, 0.0), 1.0,
                  params={"zeta": 1.0})


def test_disease_free_marking_is_fixed_point():
    m = builtin("sirs")
    mk = (1000000.0, 0.0, 0.0)
    for _ in range(5):
        mk = step_vapn(m, mk, 0.5)
    assert mk == (1000000.0, 0.0, 0.0)


DRAIN = """\
model drain kind=vapn
param k=3
place X init=1 infected
place Y init=0
trans leak
arc X -> leak weight="k*X"
arc leak -> Y weight="k*X"
"""


def test_step_clips_negative_stock():
    m = parse_model(DRAIN)
    assert step_vapn(m, (1.0, 0.0), 1.0) == (0.0, 3.0)
    traj = run_vapn(m, 1.0, dt=1.0)
    assert traj.clipping_events == 1
    assert traj.final() == (0.0, 3.0)


# --------------------------------------------------------------- run_vapn

def test_run_records_initial_state_and_grid():
    traj = run_vapn(builtin("sirs"), 2.0, dt=0.5)
    assert traj.places == ("S", "I", "R")
    assert traj.times == (0.0, 0.5, 1.0, 1.5, 2.0)
    assert traj.markings[0] == (999999.0, 1.0, 0.0)


def test_run_zero_horizon():
    traj = run_vapn(builtin("sirs"), 0.0, dt=0.1)
    assert len(traj.times) == 1
    assert traj.final() == (999999.0, 1.0, 0.0)


def test_run_partial_final_step():
    traj = run_vapn(builtin("sirs"), 1.25, dt=0.5)
    assert traj.times[-1] == pytest.approx(1.25, abs=1e-12)


def test_sample_every_thins_output():
    traj = run_vapn(builtin("sirs"), 10.0, dt=0.1, sample_every=10)
    assert len(traj.times) == 11
    assert traj.times[1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("every", [1, 3, 7, 20, 21])
@pytest.mark.parametrize("partial", [False, True], ids=["whole", "partial"])
@pytest.mark.parametrize("name,dt", [("sirs", 0.1), ("nonlinear", 0.1), ("patch2", 0.1),
                                     ("drain", 0.5)])
def test_run_equals_a_chain_of_single_steps(name, dt, partial, every):
    # 20 whole steps sampled every `every`-th, plus half a step when partial:
    # every time, marking and clip count bit for bit as one step at a time
    m = parse_model(DRAIN) if name == "drain" else builtin(name)
    nsteps = 20
    t_end = nsteps * dt + (dt / 2 if partial else 0.0)
    traj = run_vapn(m, t_end, dt=dt, sample_every=every)

    mk = m.initial_marking()
    times, markings, clips = [0.0], [mk], 0

    def step(h):
        nonlocal mk, clips
        clips += run_vapn(m, h, dt=h, marking0=mk).clipping_events
        mk = step_vapn(m, mk, h)

    for k in range(1, nsteps + 1):
        step(dt)
        if k % every == 0:
            times.append(0.0 + k * dt)
            markings.append(mk)
    t = 0.0 + nsteps * dt
    if partial:
        step(t_end - nsteps * dt)
        t = t_end
    if times[-1] != t:
        times.append(t)
        markings.append(mk)

    def hexes(values):
        return [float.hex(float(v)) for v in values]

    assert hexes(traj.times) == hexes(times)
    assert [hexes(x) for x in traj.markings] == [hexes(x) for x in markings]
    assert traj.clipping_events == clips
    assert name != "drain" or clips == 1


@pytest.mark.parametrize("t_end,dt", [(10.0, 1e10), (10.0, 1e11), (10.0, 1e300),
                                      (1e-10, 1.0)])
def test_run_ends_at_t_end_however_large_dt(t_end, dt):
    m = builtin("sirs")
    traj = run_vapn(m, t_end, dt=dt)
    assert traj.times == (0.0, t_end)
    assert traj.final() == step_vapn(m, m.initial_marking(), t_end)


@pytest.mark.parametrize("every", [2.5, 1.0, 0, -3, "7"])
def test_sample_every_must_be_a_whole_number(every):
    with pytest.raises(SimError, match="sample_every"):
        run_vapn(builtin("sirs"), 10.0, dt=0.1, sample_every=every)


def test_run_matches_hand_rolled_euler_exactly():
    m = builtin("sirs")
    arcs_in = {}    # place -> [(expr, sign)]
    bindings = dict(m.params)
    for arc in m.arcs:
        expr = parse_expr(arc.weight) if isinstance(arc.weight, str) else arc.weight
        if arc.source in m.place_names():
            arcs_in.setdefault(arc.source, []).append((expr, -1.0))
        if arc.target in m.place_names():
            arcs_in.setdefault(arc.target, []).append((expr, +1.0))
    names = m.place_names()
    mk = list(m.initial_marking())
    dt = 0.05
    for _ in range(200):
        env = dict(bindings)
        env.update(zip(names, mk))
        env["N"] = mk[0]
        for p in names[1:]:
            env["N"] = env["N"] + env[p]
        nxt = []
        for i, p in enumerate(names):
            acc = 0.0
            pos = 0.0
            neg = 0.0
            for expr, sign in arcs_in.get(p, []):
                v = eval_expr(expr, env)
                if sign > 0:
                    pos = pos + v
                else:
                    neg = neg + v
            ni = mk[i] + dt * (pos - neg)
            if ni < 0.0:
                ni = 0.0
            nxt.append(ni)
        mk = nxt
    traj = run_vapn(m, 200 * dt, dt=dt)
    assert list(traj.final()) == mk   # bit identical


def test_halving_dt_shows_first_order_convergence():
    m = builtin("sirs")
    mk0 = (9999.0, 1.0, 0.0)

    def s_end(dt):
        return run_vapn(m, 40.0, dt=dt, marking0=mk0,
                        params={"beta": 0.4, "gamma": 0.1, "delta": 0.0},
                        sample_every=10 ** 9).final()[0]

    d1 = s_end(0.1) - s_end(0.05)
    d2 = s_end(0.05) - s_end(0.025)
    assert d1 / d2 == pytest.approx(2.0, rel=0.15)


def test_keyword_place_names_survive_compilation():
    text = """\
model kw kind=vapn
param k=0.5
place lambda init=10 infected
place class init=0
trans move
arc lambda -> move weight="k*lambda"
arc move -> class weight="k*lambda"
"""
    m = parse_model(text)
    assert step_vapn(m, (10.0, 0.0), 1.0) == (5.0, 5.0)


def test_write_csv_round_trip():
    traj = run_vapn(builtin("sirs"), 1.0, dt=0.5)
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,S,I,R"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 999999.0


def test_column_accessor():
    traj = run_vapn(builtin("sirs"), 1.0, dt=0.5)
    assert traj.column("I")[0] == 1.0
    with pytest.raises(SimError):
        traj.column("Q")


# ----------------------------------------------------------------- run_spn

def test_spn_same_seed_reproduces():
    m = builtin("sirs_spn")
    a = run_spn(m, 5.0, seed=42, sample_dt=0.5)
    b = run_spn(m, 5.0, seed=42, sample_dt=0.5)
    assert a.times == b.times and a.markings == b.markings
    assert a.rng_seed == 42


def test_spn_different_seeds_diverge():
    m = builtin("sirs_spn")
    a = run_spn(m, 5.0, seed=1)
    b = run_spn(m, 5.0, seed=2)
    assert a.markings != b.markings


def test_spn_without_a_seed_records_the_one_it_drew():
    m = builtin("sirs_spn")
    a = run_spn(m, 2.0)
    assert type(a.rng_seed) is int and 0 <= a.rng_seed < 2**64
    again = run_spn(m, 2.0, seed=a.rng_seed)
    assert (again.times, again.markings) == (a.times, a.markings)
    assert run_spn(m, 2.0).rng_seed != a.rng_seed
    # replicates record the drawn seed they were spawned from
    runs = run_spn_replicates(m, 2.0, replicates=2)
    parent = runs[0].metadata["parent_seed"]
    assert type(parent) is int and 0 <= parent < 2**64
    again = run_spn_replicates(m, 2.0, seed=parent, replicates=2)
    assert [r.markings for r in again] == [r.markings for r in runs]


def test_spn_markings_stay_integral_and_conserved():
    m = builtin("sirs_spn")   # closed population
    traj = run_spn(m, 10.0, seed=7)
    total = sum(traj.markings[0])
    for mk in traj.markings:
        assert all(type(x) is int and x >= 0 for x in mk)
        assert sum(mk) == total


def test_spn_absorbing_state_fills_forward():
    m = builtin("sirs_spn")
    # no infecteds and no waning: nothing can fire
    traj = run_spn(m, 5.0, seed=3, marking0=(100, 0, 0))
    assert traj.times[-1] == pytest.approx(5.0)
    assert all(mk == (100, 0, 0) for mk in traj.markings)


@pytest.mark.parametrize("value", [math.nan, math.inf, 1.5, "7", -1])
def test_spn_marking_that_is_not_a_token_count_rejected(value):
    with pytest.raises(SimError, match="place 'I'"):
        run_spn(builtin("sirs_spn"), 1.0, seed=1, marking0=(999, value, 0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, "7", None])
def test_vapn_marking_that_is_not_a_finite_non_negative_number_rejected(value):
    m = builtin("sirs")
    with pytest.raises(SimError, match="place 'I'"):
        run_vapn(m, 1.0, dt=0.5, marking0=(999.0, value, 0.0))
    with pytest.raises(SimError, match="place 'I'"):
        step_vapn(m, (999.0, value, 0.0), 0.5)


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_spn_seed_that_is_not_a_non_negative_integer_rejected(seed):
    m = builtin("sirs_spn")
    with pytest.raises(SimError, match="seed"):
        run_spn(m, 1.0, seed=seed)
    with pytest.raises(SimError, match="seed"):
        run_spn_replicates(m, 1.0, seed=seed, replicates=2)


def test_spn_event_count_matches_poisson_rate():
    m = parse_model(BIRTH_SPN)
    traj = run_spn(m, 50.0, seed=11)
    x = traj.final()[0]
    # X ~ Poisson(100); 11 is no outlier seed
    assert abs(x - 100.0) <= 3.0 * 10.0


def test_spn_negative_rate_rejected():
    text = BIRTH_SPN.replace('rate="lam"', 'rate="0 - lam"')
    with pytest.raises(SimError) as err:
        run_spn(parse_model(text), 1.0, seed=1)
    assert "arrive" in str(err.value)


# ------------------------------------------------- the stochastic threshold

def extinction_probabilities(F, V):
    """q[i], the chance that the outbreak one type-i infected starts dies out,
    in the branching process that linearizes an spn net at its DFE: a type-i
    infected makes a type-j one at rate F[j][i], moves to type k at rate
    -V[k][i] and leaves the infected types at rate sum_k V[k][i]. q is the
    least fixed point of the offspring generating functions, reached by
    iterating them from 0 (Allen & van den Driessche 2013)."""
    types = range(len(F))
    rate = [sum(F[j][i] for j in types) + V[i][i] for i in types]
    q = [0.0] * len(F)
    for _ in range(10_000):
        new = [(sum(F[j][i] * q[i] * q[j] for j in types)
                - sum(V[k][i] * q[k] for k in types if k != i)
                + sum(V[k][i] for k in types)) / rate[i] for i in types]
        if new == q:
            break
        q = new
    return q


# model: (params, marking0, t_end, replicates). Each run starts at the DFE with
# one infected token; the params keep the zoo's F and V. seir_spn's S* = Pi/mu
# is 1000 here, not 125 (beta*S* is still 0.3125), so that no major outbreak
# ends by t_end. By t_end the chance that an outbreak which will die out is
# still going (q less the extinction probability by t_end, from the backward
# equations) is 0.0006 for sirs_spn and 0.0005 for seir_spn, against standard
# errors of 0.015 and 0.022.
THRESHOLD_RUNS = {
    "sirs_spn": (None, (99999, 1, 0), 30.0, 1000),
    "seir_spn": ({"Pi": 20.0, "beta": 0.0003125}, (1000, 0, 1, 0), 60.0, 500),
}


@pytest.mark.parametrize("name", sorted(THRESHOLD_RUNS))
def test_early_extinction_matches_the_branching_process_of_f_and_v(name):
    params, marking0, t_end, runs = THRESHOLD_RUNS[name]
    m = builtin(name)
    res = ngm_r0(m, params)
    infected = [m.place_index(p) for p in m.infected_places()]
    assert [res.dfe.marking[i] for i in infected] == [0.0] * len(infected)
    assert abs(res.dfe.marking[0] - marking0[0]) <= 1      # S, less the seed
    seeded = [marking0[i] for i in infected].index(1)
    q = extinction_probabilities(res.F, res.V)[seeded]
    extinct = 0
    for seed in range(runs):
        last = run_spn(m, t_end, seed=seed, params=params, sample_dt=t_end,
                       marking0=marking0).markings[-1]
        extinct += not any(last[i] for i in infected)
    assert abs(extinct / runs - q) <= 4 * math.sqrt(q * (1 - q) / runs)


# ---------------------------------------------- the compiled direct method

def direct_method(m, t_end, seed, sample_dt=1.0):
    """Gillespie's direct method as a plain loop over the rate list, with
    rates evaluated by eval_expr and one scalar draw at a time: the reference
    the compiled run must match bit for bit."""
    names = m.place_names()
    needs = [[(names.index(a.source), a.mult) for a in m.inputs_of(t.name)]
             for t in m.transitions]
    deltas = []
    for t in m.transitions:
        change = [0] * len(names)
        for a in m.inputs_of(t.name):
            change[names.index(a.source)] -= a.mult
        for a in m.outputs_of(t.name):
            change[names.index(a.target)] += a.mult
        deltas.append([(i, dv) for i, dv in enumerate(change) if dv])

    def ratefn(marking):
        env = dict(m.params, N=sum(marking), **dict(zip(names, marking)))
        return [eval_expr(t.rate, env) if all(marking[i] >= k for i, k in need)
                else 0.0 for t, need in zip(m.transitions, needs)]

    rand = np.random.default_rng(seed).random
    marking = list(m.initial_marking())
    times = [0.0]
    markings = [tuple(marking)]
    next_sample = sample_dt
    t = 0.0
    while True:
        rates = ratefn(marking)
        a0 = 0.0
        for r in rates:
            assert r >= 0.0
            a0 += r
        if a0 == 0.0:
            break
        t_next = t - math.log(1.0 - rand()) / a0
        if t_next >= t_end:
            break
        while next_sample <= t_next and next_sample < t_end:
            times.append(next_sample)
            markings.append(tuple(marking))
            next_sample += sample_dt
        pick = rand() * a0
        acc = 0.0
        chosen = len(rates) - 1
        for j, r in enumerate(rates):
            acc += r
            if pick < acc:
                chosen = j
                break
        for place_i, dv in deltas[chosen]:
            marking[place_i] += dv
        t = t_next
    while next_sample < t_end:
        times.append(next_sample)
        markings.append(tuple(marking))
        next_sample += sample_dt
    if times[-1] != t_end:
        times.append(t_end)
        markings.append(tuple(marking))
    return tuple(times), tuple(markings)


# S enters the rate of neither transition, only their guards: once S is
# empty, neither may fire
GUARD_ONLY = """\
model guard kind=spn
param mu=0.8
param lam=0.3
place S init=4 infected
place R init=0
trans arrive rate="lam"
trans die rate="mu"
trans pair rate="mu"
arc arrive -> S mult=1
arc S -> die mult=1
arc die -> R mult=1
arc S -> pair mult=2
"""


# frequency-dependent incidence in an open population: the total N changes
OPEN_SIR = """\
model open_sir kind=spn
param beta=0.9
param gamma=0.2
param Pi=1.5
param mu=0.05
place S init=40
place I init=4 infected
place R init=0
trans birth rate="Pi"
trans infect rate="beta*S*I/N"
trans recover rate="gamma*I"
trans die rate="mu*R"
arc birth -> S mult=1
arc S -> infect mult=1
arc I -> infect mult=1
arc infect -> I mult=2
arc I -> recover mult=1
arc recover -> R mult=1
arc R -> die mult=1
"""


@pytest.mark.parametrize("model,t_end,sample_dt", [
    (builtin("sirs_spn"), 1.0, 0.1),
    (builtin("seir_spn"), 300.0, 1.0),
    (builtin("seir_spn"), 40.0, 0.7),
    (parse_model(BIRTH_SPN), 20.0, 0.25),
    (parse_model(GUARD_ONLY), 30.0, 1.0),
    (parse_model(OPEN_SIR), 60.0, 0.5),
], ids=["sirs_spn", "seir_spn", "seir_spn_fine", "birth", "guard_only", "open_sir"])
def test_compiled_run_equals_the_direct_method_bit_for_bit(model, t_end, sample_dt):
    for seed in (1, 2, 3, 20260814):
        traj = run_spn(model, t_end, seed=seed, sample_dt=sample_dt)
        assert (traj.times, traj.markings) == direct_method(model, t_end, seed, sample_dt)
        assert all(v >= 0 for mk in traj.markings for v in mk)


def test_block_draws_equal_scalar_draws():
    k = 3 * 1024 + 6
    rng = np.random.default_rng(99)
    scalar = [rng.random() for _ in range(k)]
    assert np.random.default_rng(99).random(k).tolist() == scalar
    pairs = sim._uniforms(np.random.default_rng(99))
    assert [x for _ in range(k // 2) for x in next(pairs)] == scalar


def test_counts_up_to_2_to_the_53_stay_exact():
    # arrivals do not depend on X: from 2**53 - MAX_EVENTS the run counts the
    # same arrivals as from 0, to the token
    m = parse_model(BIRTH_SPN)
    base = 2**53 - sim.MAX_EVENTS
    low = run_spn(m, 5.0, seed=1, marking0=(0,))
    high = run_spn(m, 5.0, seed=1, marking0=(base,))
    assert low.final()[0] > 0
    assert high.markings == tuple((base + x,) for (x,) in low.markings)
    assert all(type(x) is int for mk in high.markings for x in mk)
    # a closed population gains no tokens, so it may start at 2**53 itself
    traj = run_spn(builtin("sirs_spn"), 0.5, seed=1, marking0=(2**53 - 2000, 2000, 0))
    assert traj.final() != traj.markings[0]
    assert all(sum(mk) == 2**53 for mk in traj.markings)


@pytest.mark.parametrize("model,marking0", [
    (parse_model(BIRTH_SPN), (2**53 - sim.MAX_EVENTS + 1,)),
    (builtin("sirs_spn"), (2**53 - 2000, 2001, 0)),
], ids=["birth", "sirs_spn"])
def test_counts_that_could_pass_2_to_the_53_are_refused(model, marking0):
    with pytest.raises(SimError, match=r"more than 2\*\*53"):
        run_spn(model, 0.5, seed=1, marking0=marking0)


@contextmanager
def time_limit(seconds):
    """Turn a run that does not end into a failure after `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_run_that_explodes_stops_when_time_stops_advancing():
    # dX/dt = X^3 from 5 reaches infinity at t = 0.02
    m = parse_model(BIRTH_SPN.replace('rate="lam"', 'rate="lam*N^3"')
                    .replace("init=0", "init=5"))
    with time_limit(20), pytest.raises(SimError, match="time stopped advancing"):
        run_spn(m, 1.0, seed=1)


def test_run_past_max_events_ends_in_sim_error(monkeypatch):
    # dX/dt = 2 X^2 from 5 reaches infinity at t = 0.1, but time keeps
    # advancing for some 3e8 events; the event bound stops it first
    monkeypatch.setattr(sim, "MAX_EVENTS", 10_000)
    m = parse_model(BIRTH_SPN.replace('rate="lam"', 'rate="lam*N^2"')
                    .replace("init=0", "init=5"))
    with time_limit(20), pytest.raises(SimError, match="more than 10000 events"):
        run_spn(m, 1.0, seed=1)


def test_nan_propensity_ends_in_sim_error():
    m = parse_model(BIRTH_SPN.replace(
        'rate="lam"', 'rate="lam*1e200*1e200 - lam*1e200*1e200 + X"'))
    with time_limit(20), pytest.raises(SimError, match="time stopped advancing"):
        run_spn(m, 1.0, seed=1)


def test_net_without_transitions_is_absorbing():
    m = parse_model("model still kind=spn\nplace X init=3 infected\n")
    traj = run_spn(m, 2.0, seed=1)
    assert traj.times == (0.0, 1.0, 2.0)
    assert traj.markings == ((3,),) * 3


def test_sample_count_is_bounded_before_any_run():
    sirs, sirs_spn = builtin("sirs"), builtin("sirs_spn")
    # 2e7 steps, each recorded, and 4e8 steps, every 20th recorded
    with pytest.raises(SimError, match="samples"):
        run_vapn(sirs, 2e8, dt=10.0)
    with pytest.raises(SimError, match="samples"):
        run_vapn(sirs, 4e9, dt=10.0, sample_every=20)
    with pytest.raises(SimError, match="samples"):
        run_spn(sirs_spn, 1.0, seed=1, sample_dt=1e-300)
    # the bound is on samples, not steps: thinning makes a fine step legal
    traj = run_vapn(sirs, 1.0, dt=1e-5, sample_every=10 ** 5)
    assert traj.times == (0.0, 1.0)


def test_step_count_is_bounded_before_any_run(monkeypatch):
    sirs = builtin("sirs")
    # thinned to 1001 samples, but 1e12 Euler steps
    with pytest.raises(SimError, match="Euler steps"):
        run_vapn(sirs, 1.0, dt=1e-12, sample_every=10 ** 9)
    # over both bounds: only a larger dt can mend it, so the steps are named
    with pytest.raises(SimError, match="Euler steps.*use a larger dt"):
        run_vapn(sirs, 1.0, dt=1e-300)
    monkeypatch.setattr(sim, "MAX_STEPS", 10)
    assert run_vapn(sirs, 1.0, dt=0.1).times[-1] == 1.0
    with pytest.raises(SimError, match="Euler steps"):
        run_vapn(sirs, 1.1, dt=0.1)


def test_replicates_reproducible_and_tagged():
    m = builtin("sirs_spn")
    runs = run_spn_replicates(m, 3.0, seed=5, replicates=3)
    again = run_spn_replicates(m, 3.0, seed=5, replicates=3)
    assert len(runs) == 3
    for i, (a, b) in enumerate(zip(runs, again)):
        assert a.markings == b.markings
        assert a.metadata["parent_seed"] == 5
        assert a.metadata["replicate"] == i
    assert runs[0].rng_seed != runs[1].rng_seed


def test_replicates_validates_count():
    with pytest.raises(SimError):
        run_spn_replicates(builtin("sirs_spn"), 1.0, seed=1, replicates=0)


@pytest.mark.parametrize("count", [2.5, "2"])
def test_replicates_that_is_not_an_integer_rejected(count):
    with pytest.raises(SimError, match="replicates must be an integer"):
        run_spn_replicates(builtin("sirs_spn"), 1.0, seed=1, replicates=count)


def test_spn_on_vapn_model_rejected():
    with pytest.raises(SimError):
        run_spn(builtin("sirs"), 1.0, seed=1)


def test_vapn_on_spn_model_rejected():
    with pytest.raises(SimError):
        run_vapn(builtin("sirs_spn"), 1.0, dt=0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_param_rejected(value):
    m = parse_model(SIR_DENSITY)
    with pytest.raises(SimError, match="gamma"):
        step_vapn(m, (990.0, 10.0, 0.0), 1.0, params={"gamma": value})
    with pytest.raises(SimError, match="gamma"):
        run_vapn(m, 1.0, dt=0.5, params={"gamma": value})
    with pytest.raises(SimError, match="lam"):
        run_spn(parse_model(BIRTH_SPN), 1.0, seed=1, params={"lam": value})


def test_step_rejects_a_marking_of_the_wrong_length():
    m = parse_model(SIR_DENSITY)
    for marking in [(990.0, 10.0), (990.0, 10.0, 0.0, 1.0)]:
        with pytest.raises(SimError, match="marking length does not match"):
            step_vapn(m, marking, 1.0)


def test_one_compiled_stepper_serves_every_parameter_point(monkeypatch):
    m = parse_model(SIR_DENSITY)
    built, build = [], sim._build_vapn
    monkeypatch.setattr(sim, "_build_vapn", lambda mm: built.append(mm) or build(mm))
    assert step_vapn(m, (990.0, 10.0, 0.0), 1.0) == (987.03, 11.969999999999999, 1.0)
    assert step_vapn(m, (990.0, 10.0, 0.0), 1.0, params={"beta": 0.0}) \
        == (990.0, 9.0, 1.0)
    run_vapn(m, 2.0, dt=0.5, params={"gamma": 0.2})
    assert built == [m]
    assert list(codegen._built[m]) == [sim._build_vapn]


def test_names_clashing_with_generated_code_are_renamed():
    # a place and a parameter named like builtins the stepper loop uses,
    # parameters named like its locals, and a keyword
    text = """\
model clash kind=vapn
param _dt=0.5
param _p=0.25
param min=1
place range init=10 infected
place lambda init=0
trans t
arc range -> t weight="_dt*_p*range"
arc t -> lambda weight="_dt*_p*range"
"""
    m = parse_model(text)
    assert step_vapn(m, (10.0, 0.0), 1.0) == (8.75, 1.25)
    traj = run_vapn(m, 2.0, dt=1.0)
    assert traj.final() == pytest.approx((10.0 * 0.875 ** 2, 10.0 - 10.0 * 0.875 ** 2))


def test_a_place_named_like_any_builtin_is_renamed():
    # the spn loop calls int(), which no hand-kept list of names reserved
    text = """\
model clash kind=spn
param beta=0.3
param gamma=0.1
place S init=99
place int init=1 infected
place R init=0
trans infect rate="beta*S*int/N"
arc S -> infect mult=1
arc int -> infect mult=1
arc infect -> int mult=2
trans recover rate="gamma*int"
arc int -> recover mult=1
arc recover -> R mult=1
"""
    m, twin = parse_model(text), parse_model(text.replace("int", "I"))
    assert ngm_r0(m).r0 == ngm_r0(twin).r0
    a, b = run_spn(m, 20.0, seed=1), run_spn(twin, 20.0, seed=1)
    assert (a.times, a.markings) == (b.times, b.markings)
    assert a.final() != a.markings[0]


@pytest.mark.parametrize("run,match", [
    (lambda: run_vapn(builtin("sirs"), 1.0, dt=0.5, t0=2.0), "not before t0"),
    (lambda: run_spn(builtin("sirs_spn"), -1.0, seed=1), "t_end must be finite"),
    (lambda: run_spn(builtin("sirs_spn"), 1.0, seed=1, sample_dt=0.0), "sample_dt"),
    (lambda: run_spn(builtin("sirs_spn"), 1.0, seed=1, sample_dt=-1.0), "sample_dt"),
], ids=["vapn_t_end_before_t0", "spn_t_end_negative", "spn_sample_dt_zero",
        "spn_sample_dt_negative"])
def test_run_refuses_a_span_or_sample_step_out_of_range(run, match):
    with pytest.raises(SimError, match=match):
        run()


def test_dt_must_be_positive():
    with pytest.raises(SimError):
        run_vapn(builtin("sirs"), 1.0, dt=0.0)


@pytest.mark.parametrize("dt", [math.inf, math.nan])
def test_dt_must_be_finite(dt):
    m = builtin("sirs")
    with pytest.raises(SimError, match="dt"):
        run_vapn(m, 1.0, dt=dt)
    with pytest.raises(SimError, match="dt"):
        step_vapn(m, m.initial_marking(), dt)


# ------------------------------------------------------ arithmetic failures

DECAY = """\
model decay kind=vapn
param k=0.5
place X init=4 infected
place Y init=0
trans t
arc X -> t weight="WEIGHT"
arc t -> Y weight="WEIGHT"
"""


def test_fractional_power_matches_eval_expr_bit_for_bit():
    m = parse_model(DECAY.replace("WEIGHT", "k*(X - Y)^1.5"))
    x, y = step_vapn(m, (4.0, 1.0), 0.1)
    w = eval_expr(parse_expr("k*(X - Y)^1.5"), {"k": 0.5, "X": 4.0, "Y": 1.0})
    assert (x, y) == (4.0 - 0.1 * w, 1.0 + 0.1 * w)


@pytest.mark.parametrize("weight", ["k*(Y - X)^0.5", "k*X/(Y - Y)", "k*X^-1*Y^-1",
                                    "X^1e3"])
def test_weight_arithmetic_failure_is_sim_error(weight):
    m = parse_model(DECAY.replace("WEIGHT", weight))
    with pytest.raises(SimError, match="decay"):
        step_vapn(m, (4.0, 0.0), 0.1)
    with pytest.raises(SimError, match="decay"):
        run_vapn(m, 0.35, dt=0.1)


@pytest.mark.parametrize("rate", ["lam*(X - 1)^0.5", "lam/X", "(lam*10)^400"])
def test_rate_arithmetic_failure_is_sim_error(rate):
    m = parse_model(BIRTH_SPN.replace('rate="lam"', f'rate="{rate}"'))
    with pytest.raises(SimError, match="birth"):
        run_spn(m, 1.0, seed=1)


BLOWUP = """\
model blowup kind=vapn
param a=2
place X init=5 infected
place R init=0
trans grow
trans leave
arc grow -> X weight="a*X*X*X"
arc X -> leave weight="X*X*X"
arc leave -> R weight="X*X*X"
"""


def test_marking_that_overflows_is_sim_error():
    # dX/dt = X^3 from X = 5: the Euler run passes 1e308 at t = 0.7, where X
    # turns nan (inf - inf), and a place that is not finite stays so
    m = parse_model(BLOWUP)
    with pytest.raises(SimError, match="blowup: the marking of place 'X' is nan at t=1"):
        run_vapn(m, 1.0, dt=0.1)
    with pytest.raises(SimError, match="'X' is nan at t=0.5"):
        step_vapn(m, (1e200, 0.0), 0.5)
    # R alone overflows to inf when X is large but finite
    with pytest.raises(SimError, match="'R' is inf at t=1"):
        step_vapn(m, (1e102, 1.797e308), 1.0, {"a": 1.0})


def test_single_place_net_steps_and_runs():
    m = parse_model("""\
model one kind=vapn
param g=0.5
place I init=4 infected
trans recover
arc I -> recover weight="g*I"
""")
    assert step_vapn(m, (4.0,), 0.5) == (3.0,)
    assert run_vapn(m, 1.0, dt=0.5).markings == ((4.0,), (3.0,), (2.25,))


def test_place_named_like_the_power_helper_is_renamed():
    m = parse_model(DECAY.replace("place X", "place _pow").replace("X", "_pow")
                    .replace("WEIGHT", "k*_pow^0.5"))
    assert step_vapn(m, (4.0, 0.0), 1.0) == (3.0, 1.0)


# ------------------------------------------- steppers without switched-off arcs

# weights a zero mu must not switch off: N can overflow while every place is
# finite, and so can the product of the places before a zero factor
GUARDS = """\
model guards kind=vapn
param mu=0.01
param beta=0.5
place S init=10
place I init=1 infected
place R init=0
trans birth
arc birth -> S weight="mu*N"
trans infect
arc S -> infect weight="beta*S*I"
arc infect -> I weight="beta*S*I"
trans die
arc I -> die weight="S*I*mu"
arc R -> die weight="mu*R"
"""

# a source into X that k = 0 switches off, and an outflow that reads Y
SIGNED_ZERO = """\
model signed_zero kind=vapn
param k=1.0
param c=0.5
place X init=0
place Y init=0 infected
trans birth
arc birth -> X weight="k"
trans infect
arc X -> infect weight="c*Y"
arc infect -> Y weight="c*Y"
"""

VAPN_ZOO = [mid for mid in zoo_ids() if builtin(mid).kind == "vapn"]
MARKING_VALUES = st.sampled_from([0.0, 1e-3, 1.0, 7.5, 1e6, 1e200, 1e308, 1.7e308])
BUILD_VAPN = sim._build_vapn


def without_switches(m):
    """sim._build_vapn as if no parameter switched a weight off, so that
    run_vapn runs every weight on the stepper for the empty set."""
    _, source, stepper = codegen.per_model(m, BUILD_VAPN)
    return (), source, stepper


def run_outcome(run):
    """A run's times and markings as float.hex, its clip count, or the text
    of the SimError it ends in."""
    try:
        traj = run()
    except SimError as exc:
        return str(exc)
    return ([t.hex() for t in traj.times],
            [[float(v).hex() for v in mk] for mk in traj.markings],
            traj.clipping_events)


@st.composite
def zero_arc_runs(draw):
    """A vapn net (zoo, generated or GUARDS), a random subset of its
    parameters at 0.0 or -0.0, and a run from a marking with zeros, maybe a
    -0.0, and values whose total or products overflow."""
    source = draw(st.sampled_from(["zoo", "generated", "guards"]))
    if source == "zoo":
        m = builtin(draw(st.sampled_from(VAPN_ZOO)))
    else:
        text = GUARDS if source == "guards" else draw(nets("vapn"))
        try:
            m = parse_model(text)
        except ModelError:
            assume(False)
    zeros = draw(st.lists(st.sampled_from(list(m.params)), unique=True))
    params = {k: draw(st.sampled_from([0.0, -0.0])) for k in zeros}
    marking = draw(st.lists(MARKING_VALUES, min_size=len(m.places),
                            max_size=len(m.places)))
    if draw(st.booleans()):
        marking[draw(st.integers(0, len(marking) - 1))] = -0.0
    return (m, params, tuple(marking), draw(st.sampled_from([0.05, 0.5, 40.0])),
            draw(st.sampled_from([0.0, 2.0, 3.7])), draw(st.sampled_from([1, 3])))


@given(zero_arc_runs())
# N overflows though every place and product is finite: 0*N is NaN
@example((parse_model(GUARDS), {"mu": 0.0, "beta": 0.0}, (1e308, 1.0, 1e308), 0.5, 2.0, 1))
# S*I overflows: S*I*0 is NaN
@example((parse_model(GUARDS), {"mu": 0.0, "beta": 0.0}, (1e200, 1e200, 0.0), 0.5, 2.0, 1))
# R starts at -0.0 and keeps no arc
@example((parse_model(GUARDS), {"mu": -0.0, "beta": 0.0}, (1.0, 1.0, -0.0), 0.5, 2.0, 1))
# X starts at -0.0: without its source X - _dt*(c*Y) keeps the -0.0, where
# X + _dt*((k) - (c*Y)) gives 0.0, unless the run reads -0.0 as 0.0
@example((parse_model(SIGNED_ZERO), {"k": 0.0}, (-0.0, 0.0), 0.5, 2.0, 1))
# R overflows to inf, where the stepper for the empty set makes mu*R NaN
@example((builtin("nonlinear"), {"mu": 0.0, "gamma": 1e308}, (1.0, 0.0, 1.0, 1.7e308),
          0.1, 0.5, 1))
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_stepper_without_switched_off_arcs_gives_the_general_steppers_bits(case):
    # run_vapn leaves out the weights that zero parameters switch off; its
    # runs must equal, bit for bit, those of the stepper that computes every
    # weight, errors included
    m, params, marking, dt, t_end, every = case

    def run():
        return run_vapn(m, t_end, dt=dt, params=params, marking0=marking,
                        sample_every=every)

    got = run_outcome(run)
    with mock.patch.object(sim, "_build_vapn", without_switches):
        want = run_outcome(run)
    assert got == want


def test_switched_off_weights_are_a_leading_zero_parameter_times_atoms():
    def source(m, params):
        switches, write, _ = codegen.per_model(m, BUILD_VAPN)
        p = sim._param_values(m, params)
        return write(frozenset(w for k, w in switches if p[k] == 0.0))

    # mu*R goes and leaves R with no arc; mu*N and S*I*mu stay
    src = source(parse_model(GUARDS), {"mu": -0.0})
    assert "mu*R" not in src and "R = " not in src
    assert "mu*N" in src and "S*I*mu" in src
    # waning off: S keeps only its outflow and R only its inflow
    src = source(builtin("sirs"), {"delta": 0.0})
    assert "delta" not in src.split("= _p")[1]
    assert "S = S - _dt*(_w0)" in src and "R = R + _dt*(_w1)" in src
