import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ngmpn.expr import eval_expr, to_text
from ngmpn.modelzoo import builtin, oracle_r0, zoo_entry, zoo_ids
from ngmpn.ngm import DfeError, NgmError, compute_dfe, ngm_r0
from ngmpn.petri import net_flow, parse_model


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------- DFE

def test_dfe_sirs_conservation():
    dfe = compute_dfe(builtin("sirs"))
    assert dfe.marking == (1000000.0, 0.0, 0.0)
    assert dfe.method == "conservation-augmented"
    assert dfe.residual <= 1e-10


def test_dfe_seir_newton_demographic_balance():
    # susceptible settles at recruitment/mortality
    dfe = compute_dfe(builtin("seir"), params={"Pi": 2.0, "mu": 0.01})
    assert dfe.method == "newton"
    marking = dict(zip(builtin("seir").place_names(), dfe.marking))
    assert marking["S"] == pytest.approx(200.0, rel=1e-9)
    assert marking["E"] == 0.0 and marking["I"] == 0.0
    assert marking["R"] == pytest.approx(0.0, abs=1e-9)


def test_dfe_vectorborne_two_populations():
    m = builtin("vectorborne")
    dfe = compute_dfe(m)
    marking = dict(zip(m.place_names(), dfe.marking))
    assert marking["S_h"] == pytest.approx(100.0, rel=1e-9)   # Pi/mu_h
    assert marking["S_v"] == pytest.approx(200.0, rel=1e-9)   # Lam/mu_v
    assert marking["I_h"] == 0.0 and marking["I_v"] == 0.0


def test_dfe_patch2():
    m = builtin("patch2")
    dfe = compute_dfe(m)
    marking = dict(zip(m.place_names(), dfe.marking))
    assert marking["S1"] == pytest.approx(200.0, rel=1e-9)
    assert marking["S2"] == pytest.approx(125.0, rel=1e-9)


def test_dfe_constraint_pins_a_place():
    dfe = compute_dfe(builtin("sirs"), constraints={"S": 5e5})
    assert dfe.marking == (500000.0, 0.0, 0.0)
    assert dfe.method == "annotated"


def test_dfe_constraint_accepts_expression_text():
    dfe = compute_dfe(builtin("sirs"), constraints=[("S", "2*3")])
    assert dfe.marking[0] == 6.0


def test_dfe_constraint_on_infected_rejected():
    with pytest.raises(DfeError):
        compute_dfe(builtin("sirs"), constraints={"I": 1.0})


def test_dfe_constraint_unknown_place_rejected():
    with pytest.raises(DfeError):
        compute_dfe(builtin("sirs"), constraints={"Q": 1.0})


@pytest.mark.parametrize("value", [math.nan, math.inf, -5.0, None, "beta +", "1/0", "S"])
def test_dfe_constraint_that_is_not_a_place_value_rejected(value):
    with pytest.raises(DfeError, match="'S'"):
        compute_dfe(builtin("sirs"), constraints={"S": value})


def test_dfe_residual_reported_small_everywhere():
    for mid in ("sirs", "seir", "seeir", "covid", "nonlinear", "patch2",
                "vectorborne", "sirs_spn", "seir_spn"):
        dfe = compute_dfe(builtin(mid))
        assert dfe.residual <= 1e-10, mid


# ---------------------------------------------------------------- script F/V

def test_scripts_sirs():
    res = ngm_r0(builtin("sirs"))
    assert [to_text(e) for e in res.script_f] == ["beta*S*I/N"]
    assert [[to_text(c) for c in row] for row in res.script_v] == \
        [["gamma*I"]]


def test_scripts_spn_twin_keeps_both_infection_terms():
    res = ngm_r0(builtin("sirs_spn"))
    assert [to_text(e) for e in res.script_f] == \
        ["2*beta*S*I/N - beta*S*I/N"]


def test_scripts_seir():
    res = ngm_r0(builtin("seir"))
    assert [to_text(e) for e in res.script_f] == ["beta*S*I", "0"]
    assert [[to_text(c) for c in row] for row in res.script_v] == \
        [["eta*E + mu*E", "0"], ["-eta*E", "alpha*I + mu*I"]]


def test_scripts_catalytic_exposure():
    # S + I -> E + I leaves I untouched; its net infection term cancels
    res = ngm_r0(builtin("seir_spn"))
    assert [to_text(e) for e in res.script_f] == \
        ["beta*S*I", "beta*S*I - beta*S*I"]


def test_scripts_relapse_self_loop():
    # the I_h -> relapse -> 2 I_h loop contributes delta - 2*delta = -delta
    res = ngm_r0(builtin("vectorborne"))
    rows = [[to_text(c) for c in row] for row in res.script_v]
    assert rows == [
        ["delta*I_h - 2*delta*I_h + sigma*I_h + (mu_h + alpha)*I_h", "0"],
        ["0", "mu_v*I_v"],
    ]


def test_split_adds_up_to_net_flow():
    # script F_i minus row i of script V is the net flow of infected place i
    rng = random.Random(20261018)
    for mid in zoo_ids():
        m = builtin(mid)
        res = ngm_r0(m)
        for _ in range(20):
            b = m.bindings_at(tuple(rng.uniform(0.5, 500.0) for _ in m.places))
            for i, place in enumerate(m.infected_places()):
                split = eval_expr(res.script_f[i], b) - sum(
                    eval_expr(c, b) for c in res.script_v[i])
                assert split == pytest.approx(eval_expr(net_flow(m, place), b),
                                              rel=1e-12), (mid, place)


# ----------------------------------------------------------------- Jacobians

def test_jacobians_sirs():
    res = ngm_r0(builtin("sirs"))
    assert res.F == ((pytest.approx(0.3, rel=1e-12),),)
    assert res.V == ((pytest.approx(0.1, rel=1e-12),),)


def test_jacobians_seir_numbers():
    res = ngm_r0(builtin("seir"))
    assert res.F == ((0.0, pytest.approx(0.3125)), (0.0, 0.0))
    assert res.V == ((pytest.approx(0.27), 0.0),
                     (pytest.approx(-0.25), pytest.approx(0.12)))
    assert res.K[0][0] == pytest.approx(2.411265432098765, rel=1e-12)


# ------------------------------------------------------------------------ r0

FROZEN_R0 = {
    "sirs": 3.0,
    "seir": 2.411265432098765,
    "seeir": 1.7815517815517814,
    "covid": 2.080769230769231,
    "nonlinear": 2.747252747252747,
    "vectorborne": 0.8164965809277259,
    "patch2": 2.373533009068967,
    "sirs_spn": 3.0,
    "seir_spn": 2.411265432098765,
}


@pytest.mark.parametrize("mid,expected", sorted(FROZEN_R0.items()))
def test_r0_at_defaults(mid, expected):
    res = ngm_r0(builtin(mid))
    assert rel(res.r0, expected) < 1e-9


def test_r0_seir_spot_point():
    res = ngm_r0(builtin("seir"), params={"beta": 0.5, "Pi": 1.0, "mu": 0.1,
                                          "eta": 0.3, "alpha": 0.2})
    assert res.r0 == pytest.approx(12.5, rel=1e-9)


@pytest.mark.parametrize("mu", [1e-7, 1e-6, 5e-6])
def test_r0_nonlinear_tiny_mortality(mu):
    # flows of order mu stay far below 1 at the starting marking; the DFE
    # solve must still reach S = 1 rather than stop at S0
    res = ngm_r0(builtin("nonlinear"), params={"mu": mu})
    expected = oracle_r0(zoo_entry("nonlinear"), {"mu": mu})
    assert abs(res.r0 - expected) <= 1e-9


def test_r0_nonlinear_spot_point():
    res = ngm_r0(builtin("nonlinear"), params={"sigma": 0.25, "beta": 0.8,
                                               "mu": 0.05, "gamma": 0.2})
    assert res.r0 == pytest.approx(2.666666666666667, rel=1e-9)


def test_r0_sirs_explicit_params():
    res = ngm_r0(builtin("sirs"), params={"beta": 0.4, "gamma": 0.2,
                                          "delta": 0.01})
    assert res.r0 == pytest.approx(2.0, rel=1e-12)


# ------------------------------------------------------------ result surface

def test_result_as_dict_shape():
    d = ngm_r0(builtin("sirs")).as_dict()
    assert sorted(d) == ["F", "K", "V", "Vinv", "dfe", "diagnostics",
                         "findings", "r0"]
    assert d["dfe"]["marking"] == {"S": 1000000.0, "I": 0.0, "R": 0.0}
    assert d["dfe"]["method"] == "conservation-augmented"
    assert d["r0"] == 3.0
    assert d["F"] == [[0.3]]
    assert d["K"] == [[pytest.approx(3.0)]]


def test_diagnostics_and_findings():
    res = ngm_r0(builtin("sirs"))
    assert res.diagnostics["condition_V"] == pytest.approx(1.0)
    assert res.diagnostics["modulus_tie"] is False
    status = {f.code: f.status for f in res.findings}
    assert status == {"A1": "satisfied", "A2": "satisfied", "A3": "satisfied",
                      "A4": "satisfied", "A5": "satisfied"}


def test_transfer_spectrum_checked_numerically():
    # A5 resolves to satisfied on every built-in at defaults
    for mid in FROZEN_R0:
        res = ngm_r0(builtin(mid))
        a5 = [f for f in res.findings if f.code == "A5"]
        assert a5 and a5[0].status == "satisfied", mid


def test_vapn_spn_twins_agree_entrywise():
    a = ngm_r0(builtin("sirs"))
    b = ngm_r0(builtin("sirs_spn"))
    for ra, rb in zip(a.F, b.F):
        for x, y in zip(ra, rb):
            assert abs(x - y) <= 1e-12
    for ra, rb in zip(a.V, b.V):
        for x, y in zip(ra, rb):
            assert abs(x - y) <= 1e-12


# -------------------------------------------------------------------- errors

def test_unknown_parameter_rejected():
    with pytest.raises(NgmError) as err:
        ngm_r0(builtin("sirs"), params={"zeta": 1.0})
    assert "zeta" in str(err.value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_parameter_rejected(value):
    with pytest.raises(NgmError, match="beta"):
        ngm_r0(builtin("sirs"), params={"beta": value})


def test_place_name_as_parameter_rejected():
    with pytest.raises(NgmError):
        ngm_r0(builtin("sirs"), params={"S": 1.0})


def test_no_infected_place_rejected():
    text = """\
model flat kind=vapn
param k=1
place A init=10
place B init=0
trans move
arc A -> move weight="k*A"
arc move -> B weight="k*A"
"""
    with pytest.raises(NgmError):
        ngm_r0(parse_model(text))


# --------------------------------------------------------- threshold theorem

@pytest.mark.parametrize("mid", zoo_ids())
@given(data=st.data())
@settings(max_examples=80, derandomize=True, deadline=None, database=None)
def test_threshold_theorem_on_manifest_ranges(mid, data):
    # van den Driessche & Watmough, Theorem 2: the DFE is unstable exactly
    # when R0 > 1, so the largest real part of the eigenvalues of F - V
    # (numpy's, not the package's) has the sign of R0 - 1; every model gets
    # draws on both sides of 1
    params = data.draw(st.fixed_dictionaries(
        {name: st.floats(spec.lo, spec.hi) for name, spec in zoo_entry(mid).params.items()}))
    res = ngm_r0(builtin(mid), params=params)
    assume(abs(res.r0 - 1.0) >= 1e-9)
    growth = max(np.linalg.eigvals(np.array(res.F) - np.array(res.V)).real)
    assert (growth > 0.0) == (res.r0 > 1.0), (res.r0, growth)
