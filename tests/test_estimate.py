import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngmpn import codegen, estimate, ngm, sim
from ngmpn.estimate import (EstimateError, SweepConfig, attack_rate_r0,
                            converged_run, rrmse, sweep)
from ngmpn.modelzoo import builtin
from ngmpn.petri import PetriModel, classify_transitions, net_flow, parse_model
from ngmpn.sim import Trajectory

# final sizes of ln(1/s) = r0*(1 - s) for the r0 values used below,
# bisected to full precision
FINAL_SIZE = {
    1.5: 0.41718835613418825,
    2.0: 0.20318786997998017,
    2.5: 0.10735524639079111,
    3.0: 0.05952020929264046,
    5.0: 0.006977153651144874,
}


def plateau_traj(s0, s_inf, samples=200):
    times = tuple(float(t) for t in range(samples))
    markings = tuple((s_inf + (s0 - s_inf) * math.exp(-0.5 * t),)
                     for t in range(samples))
    return Trajectory(("S",), times, markings)


# ----------------------------------------------------------- point estimate

@pytest.mark.parametrize("r0,s_inf", sorted(FINAL_SIZE.items()))
def test_estimator_inverts_final_size_relation(r0, s_inf):
    est = attack_rate_r0(plateau_traj(1.0, s_inf), "S", 1.0)
    assert est.r0_hat == pytest.approx(r0, rel=1e-9)
    assert est.attack_rate == pytest.approx(1.0 - s_inf, rel=1e-12)
    assert est.flags == ()


def test_estimator_spot_values():
    assert attack_rate_r0(plateau_traj(1.0, 0.0595), "S", 1.0).r0_hat == \
        pytest.approx(3.0002966150245114, rel=1e-12)
    assert attack_rate_r0(plateau_traj(1.0, 0.2032), "S", 1.0).r0_hat == \
        pytest.approx(1.9999555262020712, rel=1e-12)


def test_estimator_exact_with_seeded_start():
    # a finite seed (s0 < n) does not bias the estimate
    cases = [(0.999, 0.05944776831626898, 3.0),
             (0.999, 0.9950587402760884, 0.8),
             (1.0 - 1e-6, 0.9985864526724559, 1.0)]
    for s0, s_inf, r0 in cases:
        est = attack_rate_r0(plateau_traj(s0, s_inf), "S", 1.0)
        assert est.r0_hat == pytest.approx(r0, rel=1e-12)


def test_estimator_monotone_in_final_size():
    grid = [0.01 + 0.02 * k for k in range(45)]
    hats = [attack_rate_r0(plateau_traj(1.0, s), "S", 1.0).r0_hat
            for s in grid]
    assert all(a > b for a, b in zip(hats, hats[1:]))


def test_no_outbreak_limits():
    flat = Trajectory(("S",), (0.0, 1.0, 2.0),
                      ((1.0,), (1.0,), (1.0,)))
    est = attack_rate_r0(flat, "S", 1.0)
    assert est.r0_hat == 1.0 and "no_outbreak" in est.flags

    seeded = Trajectory(("S",), (0.0, 1.0, 2.0),
                        ((0.9,), (0.9,), (0.9,)))
    est = attack_rate_r0(seeded, "S", 1.0)
    assert est.r0_hat == 0.0 and "no_outbreak" in est.flags


def test_exhausted_susceptibles():
    traj = Trajectory(("S",), (0.0, 1.0, 2.0), ((1.0,), (0.0,), (0.0,)))
    est = attack_rate_r0(traj, "S", 1.0)
    assert math.isinf(est.r0_hat)
    assert "susceptibles_exhausted" in est.flags


def test_tail_above_start_is_clamped():
    traj = Trajectory(("S",), (0.0, 1.0, 2.0),
                      ((100.0,), (100.0 + 2e-5,), (100.0 + 2e-5,)))
    est = attack_rate_r0(traj, "S", 1000.0, conv_tol=1e-6)
    assert "tail_above_start" in est.flags
    assert est.s_inf == est.s0


def test_unconverged_tail_rejected():
    ramp = Trajectory(("S",), tuple(float(t) for t in range(20)),
                      tuple((1.0 - 0.01 * t,) for t in range(20)))
    with pytest.raises(EstimateError) as err:
        attack_rate_r0(ramp, "S", 1.0)
    assert "not converged" in str(err.value)


def test_multiple_susceptible_places_summed():
    times = tuple(float(t) for t in range(100))
    half = FINAL_SIZE[2.0] / 2
    markings = tuple((half + (0.5 - half) * math.exp(-0.5 * t),
                      half + (0.5 - half) * math.exp(-0.5 * t))
                     for t in range(100))
    traj = Trajectory(("S1", "S2"), times, markings)
    est = attack_rate_r0(traj, ("S1", "S2"), 1.0)
    assert est.r0_hat == pytest.approx(2.0, rel=1e-9)


def test_estimator_input_validation():
    traj = plateau_traj(1.0, 0.5)
    with pytest.raises(EstimateError):
        attack_rate_r0(traj, "S", 0.0)
    with pytest.raises(EstimateError):
        attack_rate_r0(traj, "Q", 1.0)
    with pytest.raises(EstimateError):
        attack_rate_r0(Trajectory(("S",), (0.0,), ((1.0,),)), "S", 1.0)
    with pytest.raises(EstimateError):
        attack_rate_r0(traj, "S", 0.5)   # s0 above stated n
    with pytest.raises(EstimateError, match="negative susceptible count"):
        attack_rate_r0(plateau_traj(1.0, -0.1), "S", 1.0)


# ------------------------------------------------------------------- rrmse

def test_rrmse_fixtures():
    assert rrmse([(2.0, 2.02)]) == pytest.approx(0.01, rel=1e-12)
    assert rrmse([(1.0, 1.01), (2.0, 1.98)]) == pytest.approx(0.01, rel=1e-12)
    assert rrmse([(3.0, 3.0)]) == 0.0


def test_rrmse_accepts_row_objects():
    class Row:
        r0_alg = 2.0
        r0_hat = 2.02
    assert rrmse([Row()]) == pytest.approx(0.01, rel=1e-12)


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.lists(st.tuples(st.floats(min_value=0.1, max_value=10.0),
                          st.floats(min_value=0.1, max_value=10.0)),
                min_size=1, max_size=8))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
def test_rrmse_scale_invariant(c, rows):
    scaled = [(a * c, h * c) for a, h in rows]
    assert rrmse(scaled) == pytest.approx(rrmse(rows), rel=1e-9)


def test_rrmse_validation():
    with pytest.raises(EstimateError):
        rrmse([])
    with pytest.raises(EstimateError):
        rrmse([(0.0, 1.0)])
    with pytest.raises(EstimateError):
        rrmse([(2.0, None)])


# ----------------------------------------------------------- converged_run

def test_converged_run_keeps_initial_sample():
    m = builtin("sirs")
    cfg = SweepConfig(overrides={"delta": 0.0}, marking0=(999999.0, 1.0, 0.0))
    params = {"beta": 0.3, "gamma": 0.1, "delta": 0.0}
    traj = converged_run(m, ngm.ngm_r0(m, params=params), cfg)
    assert traj.times[0] == 0.0
    assert traj.markings[0] == (999999.0, 1.0, 0.0)
    est = attack_rate_r0(traj, "S", 1e6)
    assert est.r0_hat == pytest.approx(3.0, rel=2e-3)
    with pytest.raises(EstimateError, match="max_t too small for a single chunk"):
        converged_run(m, ngm.ngm_r0(m, params=params), cfg._replace(max_t=0.0))


def test_estimate_insensitive_to_dt_refinement():
    m = builtin("sirs")
    params = {"beta": 0.3, "gamma": 0.15, "delta": 0.0}

    def hat(dt):
        cfg = SweepConfig(dt=dt, marking0=(9999.0, 1.0, 0.0))
        traj = converged_run(m, ngm.ngm_r0(m, params=params), cfg)
        return attack_rate_r0(traj, "S", 1e4).r0_hat

    assert abs(hat(0.05) - hat(0.025)) / 2.0 < 1e-3


def test_converged_run_counts_the_clips_of_every_chunk():
    # at dt = 3 the first chunk's outbreak overshoots S below zero once; the
    # returned samples are those of the last chunk, which does not clip
    m = builtin("sirs")
    res = ngm.ngm_r0(m, params={"beta": 1.5, "gamma": 0.1, "delta": 0.0})
    traj = converged_run(m, res, SweepConfig(dt=3.0))
    assert traj.times[1] > traj.times[0] == 0.0
    assert traj.clipping_events == 1


# ------------------------------------------------------------------- sweep

def test_sweep_small_grid():
    m = builtin("sirs")
    cfg = SweepConfig(overrides={"delta": 0.0}, marking0=(999999.0, 1.0, 0.0))
    report = sweep(m, {"beta": [0.3, 0.4], "gamma": [0.1, 0.2]}, cfg)
    assert len(report.rows) == 4
    assert report.failures == 0
    assert report.grid_names == ("beta", "gamma")
    # grid-lexicographic order, first name slowest
    assert [r.params for r in report.rows] == [
        {"beta": 0.3, "gamma": 0.1}, {"beta": 0.3, "gamma": 0.2},
        {"beta": 0.4, "gamma": 0.1}, {"beta": 0.4, "gamma": 0.2}]
    assert report.rrmse < 0.01
    assert report.max_rel_err < 0.01
    for row in report.rows:
        assert row.r0_alg == pytest.approx(row.params["beta"] /
                                           row.params["gamma"], rel=1e-12)


def test_sweep_single_point_rrmse_is_rel_err():
    m = builtin("sirs")
    cfg = SweepConfig(overrides={"delta": 0.0}, marking0=(999999.0, 1.0, 0.0))
    report = sweep(m, {"beta": [0.3]}, cfg)
    assert report.rrmse == report.rows[0].rel_err == report.max_rel_err


def test_short_chunks_do_not_stop_during_ignition():
    # near R0 = 1 in a population of 1e12, S moves less than conv_tol*n per
    # chunk while the seed grows by about 0.5 a chunk; the infected-growth
    # guard keeps the run going to the true final size
    m = builtin("sirs")
    cfg = SweepConfig(overrides={"delta": 0.0}, marking0=(1e12 - 1, 1.0, 0.0))
    params = {"beta": 0.101, "gamma": 0.1, "delta": 0.0}
    traj = converged_run(m, ngm.ngm_r0(m, params=params), cfg)
    est = attack_rate_r0(traj, "S", 1e12)
    assert est.r0_hat == pytest.approx(1.01, rel=1e-5)


def test_sweep_runs_the_r0_pipeline_once_a_point(monkeypatch):
    calls = []

    def counted(m, params=None, constraints=None):
        calls.append(params)
        return ngm.ngm_r0(m, params=params, constraints=constraints)

    monkeypatch.setattr(estimate, "ngm_r0", counted)
    m = builtin("sirs")
    cfg = SweepConfig(overrides={"delta": 0.0}, marking0=(9999.0, 1.0, 0.0))
    report = sweep(m, {"beta": [0.3, 0.4], "gamma": [0.1]}, cfg)
    assert report.failures == 0
    # each point's parameters merged over the overrides and the model's
    assert calls == [{"beta": 0.3, "gamma": 0.1, "delta": 0.0},
                     {"beta": 0.4, "gamma": 0.1, "delta": 0.0}]
    assert [row.params for row in report.rows] == [{"beta": 0.3, "gamma": 0.1},
                                                   {"beta": 0.4, "gamma": 0.1}]


def test_sweep_records_a_chunk_of_more_than_max_steps_steps():
    # a 400-long chunk takes 4e302 steps at dt 1e-300 and, overflowing, inf
    # at 1e-310; run_vapn refuses it with advice a sweep can follow
    for dt, steps in [(1e-300, "4e+302"), (1e-310, "inf")]:
        cfg = SweepConfig(dt=dt, overrides={"delta": 0.0})
        report = sweep(builtin("sirs"), {"beta": [0.3]}, cfg)
        assert report.failures == 1
        assert report.rows[0].error == (f"SimError: the run would take {steps} Euler "
                                        f"steps, more than 1000000000; use a larger dt")


def test_sweep_records_a_point_whose_run_clips():
    # at dt = 3 the outbreak overshoots S below zero once, and the clip grows
    # the population from 1e6 to about 1.55e6: no estimate can stand on it
    cfg = SweepConfig(dt=3.0, overrides={"gamma": 0.1, "delta": 0.0})
    report = sweep(builtin("sirs"), {"beta": [1.5]}, cfg)
    assert report.failures == 1
    assert report.rows[0].r0_hat is None
    assert report.rows[0].error == ("EstimateError: clipping at zero created tokens "
                                    "in 1 place-steps of the run; use a smaller dt (--dt)")


def test_sweep_records_per_point_failures():
    m = builtin("sirs")
    # a horizon far shorter than the outbreak: the one chunk, 1/gamma = 1000
    # long, ends while S still falls; failure is recorded, not raised
    cfg = SweepConfig(overrides={"delta": 0.0}, marking0=(9999.0, 1.0, 0.0),
                      max_t=10.0)
    report = sweep(m, {"beta": [0.003], "gamma": [0.001]}, cfg)
    assert report.failures == 1
    assert report.rows[0].error.startswith("EstimateError: susceptible series not converged")
    assert report.rows[0].r0_hat is None
    assert math.isnan(report.rrmse)
    assert report.summary()["rrmse"] is None
    assert report.summary()["max_rel_err"] is None


def test_records_share_no_mutable_default():
    # a trajectory made without metadata cannot change that of another, and
    # a config made without overrides cannot change those of another
    with pytest.raises(TypeError):
        Trajectory(("S",), (0.0,), ((1.0,),)).metadata["replicate"] = 0
    assert Trajectory(("S",), (0.0,), ((1.0,),)).metadata == {}
    with pytest.raises(TypeError):
        SweepConfig().overrides["delta"] = 0.0
    assert SweepConfig().overrides == {}


def test_sweep_summary_and_csv():
    m = builtin("sirs")
    cfg = SweepConfig(overrides={"delta": 0.0}, marking0=(999999.0, 1.0, 0.0))
    report = sweep(m, {"beta": [0.3, 0.4]}, cfg)
    s = report.summary()
    assert sorted(s) == ["failures", "max_rel_err", "n_points", "rrmse"]
    assert s["n_points"] == 2
    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "beta,r0_alg,r0_hat,rel_err"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0.3"


SIR_SMALL = """\
model sir_small kind=vapn
param beta=0.3
param gamma=0.1
place S init=9999
place I init=1 infected
place R init=0
trans infect
trans recover
arc S -> infect weight="beta*S*I/N"
arc infect -> I weight="beta*S*I/N"
arc I -> recover weight="gamma*I"
arc recover -> R weight="gamma*I"
"""


def test_sweep_derives_parameter_free_work_once(monkeypatch):
    m = parse_model(SIR_SMALL)
    classified, flows = [], []
    monkeypatch.setattr(ngm, "classify_transitions",
                        lambda mm: classified.append(mm) or classify_transitions(mm))
    monkeypatch.setattr(ngm, "net_flow",
                        lambda mm, p: flows.append(p) or net_flow(mm, p))
    derived, derive = [], ngm._derive
    monkeypatch.setattr(ngm, "_derive", lambda mm: derived.append(mm) or derive(mm))
    built, build = [], sim._build_vapn
    monkeypatch.setattr(sim, "_build_vapn", lambda mm: built.append(mm) or build(mm))
    grid = {"beta": [0.25, 0.3, 0.35, 0.4], "gamma": [0.08, 0.1, 0.12, 0.14]}
    report = sweep(m, grid)
    assert report.failures == 0 and len(report.rows) == 16
    assert classified == [m]          # classification, scripts, Jacobians
    assert flows == ["S", "R"]        # one DFE system
    assert derived == [m] and built == [m]   # one R0 derivation, one stepper
    assert list(codegen._built[m]) == [ngm._derive, sim._build_vapn]


def test_steppers_are_compiled_once_per_set_of_switched_off_arcs(monkeypatch):
    compiled = []
    monkeypatch.setattr(sim, "generated", lambda src, what, **helpers:
                        compiled.append(what) or codegen.generated(src, what, **helpers))

    def fresh_sirs():
        m = builtin("sirs")
        return PetriModel(m.name, m.kind, m.places, m.transitions, m.arcs, m.params)

    # delta = 0 switches off waning at every point: that stepper alone
    grid = {"beta": [0.25, 0.3, 0.35, 0.4], "gamma": [0.08, 0.1, 0.12, 0.14]}
    report = sweep(fresh_sirs(), grid, SweepConfig(overrides={"delta": 0.0}))
    assert report.failures == 0 and len(report.rows) == 16
    assert compiled == ["vapn stepper sirs"]

    # a delta axis through 0.0 (and -0.0): that stepper and the general one
    compiled.clear()
    m = fresh_sirs()
    report = sweep(m, {"beta": [0.3], "delta": [0.0, -0.0, 1e-9, 2e-9]})
    assert report.failures == 0
    assert compiled == ["vapn stepper sirs"] * 2

    # beta divides by N, so beta = 0 switches nothing off: no new stepper
    compiled.clear()
    sim.run_vapn(m, 1.0, params={"beta": 0.0, "delta": 1e-9})
    assert compiled == []


@pytest.mark.parametrize("mid,grid", [
    ("seeir", {"beta": [0.5]}),
    ("covid", {"beta_a": [0.3]}),
    ("patch2", {"beta1": [0.3]}),
    ("vectorborne", {"beta_hv": [0.004]}),
])
def test_one_point_sweep_on_a_model_with_several_infected_places(mid, grid):
    # converged_run takes the eigenvalues of ngm_r0's V, a tuple of tuples;
    # patch2 and vectorborne have two susceptible places each
    report = sweep(builtin(mid), grid)
    assert [row.error for row in report.rows] == [None]


def test_sweep_of_a_net_without_infections_records_a_zero_r0():
    # infect declared a transfer: no susceptible place, and F = 0
    m = builtin("sirs")
    m = PetriModel(m.name, m.kind, m.places,
                   tuple(t._replace(kind_override="transfer") if t.name == "infect" else t
                         for t in m.transitions), m.arcs, m.params)
    report = sweep(m, {"beta": [0.3, 0.4]})
    assert [row.error for row in report.rows] == \
        ["EstimateError: nonpositive algebraic R0: 0.0"] * 2


def test_sweep_rejects_empty_grid():
    with pytest.raises(EstimateError):
        sweep(builtin("sirs"), {})


@pytest.mark.parametrize("mid,config,grid", [
    ("sirs", SweepConfig(max_t=math.inf), {"beta": [0.3]}),
    ("sirs", SweepConfig(dt=0.0), {"beta": [0.3]}),
    ("sirs", SweepConfig(conv_tol=-1.0), {"beta": [0.3]}),
    ("sirs", SweepConfig(overrides={"zeta": 1.0}), {"beta": [0.3]}),
    ("sirs", SweepConfig(), {"beta": [0.3, math.inf]}),
    ("sirs", SweepConfig(), {"beta": ["fast"]}),
    ("sirs", SweepConfig(marking0=(math.nan, 1.0, 0.0)), {"beta": [0.3]}),
    ("sirs", SweepConfig(marking0=(math.inf, 1.0, 0.0)), {"beta": [0.3]}),
    ("sirs", SweepConfig(marking0=(999.0, -1.0, 0.0)), {"beta": [0.3]}),
    ("sirs", SweepConfig(marking0=(999.0, 1.0)), {"beta": [0.3]}),
    ("sirs", SweepConfig(marking0=(0.0, 0.0, 0.0)), {"beta": [0.3]}),
    ("sirs_spn", SweepConfig(overrides={"delta": 0.0}), {"beta": [0.3, 0.4]}),
], ids=["max_t_inf", "dt_zero", "conv_tol_negative",
        "unknown_override", "grid_inf", "grid_not_a_number",
        "marking0_nan", "marking0_inf", "marking0_negative", "marking0_short",
        "marking0_empty", "spn_model"])
def test_sweep_checks_inputs_before_any_point(mid, config, grid, monkeypatch):
    monkeypatch.setattr("ngmpn.estimate.ngm_r0", None)   # no point may run
    with pytest.raises(EstimateError):
        sweep(builtin(mid), grid, config)


def test_sweep_runs_chunks_as_long_as_the_slowest_transfer(monkeypatch):
    # 1/gamma = 1000 is longer than CHUNK_T, so each chunk lasts 1000
    chunks = []

    def run(*args, **kwargs):
        chunks.append(kwargs["t_end"] - kwargs["t0"])
        return sim.run_vapn(*args, **kwargs)

    monkeypatch.setattr("ngmpn.estimate.run_vapn", run)
    cfg = SweepConfig(overrides={"delta": 0.0}, marking0=(999999.0, 1.0, 0.0))
    report = sweep(builtin("sirs"), {"beta": [0.003], "gamma": [0.001]}, cfg)
    assert report.failures == 0 and report.rows[0].rel_err <= 1e-4
    assert chunks and set(chunks) == {1000.0}


GROWING = """\
model growing kind=vapn
param beta=0.3
param gamma=0.1
param g=0.2
place S init=9999
place I init=1 infected
place R init=0
trans infect
trans recover
trans breed
arc S -> infect weight="beta*S*I/N"
arc infect -> I weight="beta*S*I/N"
arc I -> recover weight="gamma*I"
arc recover -> R weight="gamma*I"
arc breed -> I weight="g*I"
"""


def test_sweep_refuses_a_point_whose_transfer_flows_do_not_decay():
    # the source into I outruns its removal (g > gamma): V = gamma - g < 0
    m = parse_model(GROWING)
    report = sweep(m, {"g": [0.2, 0.3]})
    assert report.failures == 2
    assert report.rows[0].error == (
        "EstimateError: the transfer flows do not decay at the DFE on a finite "
        "time scale (finding A5): min Re eig(V) = -0.1")
    with pytest.raises(EstimateError, match="finding A5"):
        converged_run(m, ngm.ngm_r0(m, params={"g": 0.2}), SweepConfig())


# V = [[eps, 1], [-1, eps]], whose eigenvalues eps +- i decay at the rate eps
ROTATING = """\
model rotating kind=vapn
param beta=0.3
param eps=1e-320
place S init=999
place A init=1 infected
place B init=0 infected
place R init=0
trans infect
trans spawn
trans leave
trans clear
arc S -> infect weight="beta*S*A/N"
arc infect -> A weight="beta*S*A/N"
arc spawn -> B weight="A"
arc A -> leave weight="B + eps*A"
arc leave -> R weight="B + eps*A"
arc B -> clear weight="eps*B"
arc clear -> R weight="eps*B"
"""


def test_sweep_refuses_a_transfer_time_scale_that_is_not_finite():
    # 1/eps overflows to inf: the row records the cause, not an OverflowError
    report = sweep(parse_model(ROTATING), {"eps": [1e-320, 1e-3]})
    bad, good = report.rows
    assert "do not decay at the DFE on a finite time scale" in bad.error
    # a finite time scale passes; A and B rotate through zero, so A clips
    assert good.error.startswith("EstimateError: clipping at zero created tokens")


def test_sweep_lets_a_programming_error_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a bug, not a failed point")

    monkeypatch.setattr("ngmpn.estimate.attack_rate_r0", broken)
    with pytest.raises(TypeError, match="a bug"):
        sweep(parse_model(SIR_SMALL), {"beta": [0.3]})

