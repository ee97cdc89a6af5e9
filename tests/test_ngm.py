import importlib.util
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ngmpn import NgmpnError, linalg, ngm, run_spn, run_vapn
from ngmpn.expr import Constant, Mul, eval_expr, free_symbols, to_text
from ngmpn.modelzoo import builtin, oracle_r0, zoo_entry, zoo_ids
from ngmpn.ngm import DfeError, NgmError, compute_dfe, ngm_r0
from ngmpn.petri import (ModelError, PetriModel, net_flow, parse_model,
                         validate_assumptions)
from nets import chains, nets, permuted, reads_as_renamed, renamed, renamings


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


def test_dfe_all_pinned_point_off_equilibrium_rejected():
    # R = 10 wanes into S, so S and R pinned there have a net flow
    with pytest.raises(DfeError, match=r"annotated point is not an equilibrium \(residual 1\)"):
        compute_dfe(builtin("sirs"), constraints={"S": 5e5, "R": 10.0})


SNAP_NET = """model snap kind=vapn
param a = 2.91
param b = 0.02
param mu = 0.22
place S init=100
place I init=1 infected
place R init=36
trans birth
arc birth -> S weight="a"
trans infect
arc S -> infect weight="S*I"
arc infect -> I weight="S*I"
trans back
arc R -> back weight="b*R"
arc back -> S weight="b*R"
trans die_s
arc S -> die_s weight="mu*S"
trans die_r
arc R -> die_r weight="mu*R"
"""


def test_dfe_snaps_a_tiny_negative_to_zero():
    # nothing feeds R, so Newton's one step from R = 36 lands a rounding
    # error below zero
    dfe = compute_dfe(parse_model(SNAP_NET))
    assert dfe.marking == (pytest.approx(2.91 / 0.22, rel=1e-12), 0.0, 0.0)
    assert dfe.notes == ("snapped tiny negative R to zero",)
    assert dfe.method == "newton" and dfe.residual <= 1e-10


@pytest.mark.parametrize("mid,params,drift", [
    # recruitment with no death to balance it: the susceptibles grow at Pi
    ("seir", {"mu": 0.0}, ({"S": 1.0}, 2.5)),
    ("vectorborne", {"mu_h": 0.0}, ({"S_h": 1.0}, 5.0)),
    ("vectorborne", {"mu_v": 0.0}, ({"S_v": 1.0}, 40.0)),
])
def test_dfe_stall_says_which_places_drift(mid, params, drift):
    with pytest.raises(DfeError, match="Newton stalled") as err:
        compute_dfe(builtin(mid), params=params)
    assert err.value.drift == drift


DRIFT_NET = """model drift kind=vapn
param Pi = 3
param a = 0.5
param b = 0.25
place S init=100
place I init=1 infected
place R init=0
trans birth
arc birth -> S weight="Pi"
trans infect
arc S -> infect weight="S*I"
arc infect -> I weight="S*I"
trans rest
arc S -> rest weight="a*S"
arc rest -> R weight="a*S"
trans back
arc R -> back weight="b*R"
arc back -> S weight="b*R"
trans recover
arc I -> recover weight="I"
arc recover -> R weight="I"
"""


def test_dfe_stall_names_a_drifting_sum_of_places():
    # S and R trade tokens and settle relative to each other, but births
    # grow their sum at Pi
    with pytest.raises(DfeError, match="Newton stalled") as err:
        compute_dfe(parse_model(DRIFT_NET))
    assert err.value.drift == ({"S": 1.0, "R": 1.0}, 3.0)


def test_dfe_error_without_a_stall_carries_no_drift():
    with pytest.raises(DfeError) as err:
        compute_dfe(builtin("sirs"), constraints={"S": 5e5, "R": 10.0})
    assert err.value.drift is None


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
        ["2*(beta*S*I/N) - beta*S*I/N"]


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


def scaling_chain(k):
    """The k-stage chain net of scripts/scaling.py, whose R0 is beta*k/g."""
    path = Path(__file__).parents[1] / "scripts" / "scaling.py"
    spec = importlib.util.spec_from_file_location("scaling", path)
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    return scaling.chain(k)


def test_derive_differentiates_a_row_once_per_place_it_contains(monkeypatch):
    # plus once for all the places it lacks, whose derivatives are one tree
    calls = []
    real = ngm.diff

    def counted(e, x):
        calls.append((e, x))
        return real(e, x)

    monkeypatch.setattr(ngm, "diff", counted)
    ngm._derive(parse_model(scaling_chain(20)))
    rows = {}       # by identity: the rows of script F past I1 are equal zeros
    for e, x in calls:
        rows.setdefault(id(e), (free_symbols(e), []))[1].append(x)
    assert len(rows) == 20 + 20 + 2      # script F, script V, DFE flows of S and R
    for present, names in rows.values():
        assert len(names) == len(set(names))
        assert len([x for x in names if x not in present]) <= 1


def test_eigenvalues_take_the_deflation_scale_once(monkeypatch):
    # K of the chain has one non-zero row, so most neighbouring diagonal pairs
    # are both zero and deflate against the scale of the whole matrix
    K = ngm.ngm_r0(parse_model(scaling_chain(50))).K
    assert sum(any(row) for row in K) == 1
    calls = []
    real = linalg.max_abs

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(linalg, "max_abs", counted)
    eigs = linalg.eigenvalues([list(row) for row in K])
    assert len(calls) <= 1
    assert max(map(abs, eigs)) == pytest.approx(25.0, rel=1e-12)


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


# ------------------------------------------ A5: M-matrix criterion, eigenvalues

def a5_of(res):
    (finding,) = [f for f in res.findings if f.code == "A5"]
    return finding


def eigen_verdict(V):
    """A5 decided by the eigenvalues of -V alone."""
    neg_v = linalg.eigenvalues([[-v for v in row] for row in V])
    return "satisfied" if all(ev.real < 0.0 for ev in neg_v) else "violated"


def recorded_eigen_calls(monkeypatch):
    """The matrices linalg.eigenvalues is given from now on."""
    seen = []
    real = linalg.eigenvalues

    def record(a):
        seen.append([list(row) for row in a])
        return real(a)

    monkeypatch.setattr(linalg, "eigenvalues", record)
    return seen


# E and I exchange tokens at k*E and k*I; a negative k puts -k > 0 off the
# diagonal of V, so V is not a Z-matrix. At k = -2, mu = 1, V = [[-1, 2],
# [2, -1]] has V^-1 >= 0 and yet an eigenvalue -1 <= 0: V^-1 alone would
# wrongly decide A5
EXCHANGE_NET = """model exchange kind=vapn
param beta = 0.5
param k = -0.1
param mu = 0.3
place S init=100
place E init=0 infected
place I init=1 infected
trans infect
arc S -> infect weight="beta*S*I/N"
arc infect -> E weight="beta*S*I/N"
trans progress
arc E -> progress weight="k*E"
arc progress -> I weight="k*E"
trans relapse
arc I -> relapse weight="k*I"
arc relapse -> E weight="k*I"
trans leave
arc E -> leave weight="mu*E"
trans recover
arc I -> recover weight="mu*I"
"""

# a source feeds E at b*E, faster than E empties: V is a Z-matrix, but
# V[E][E] < 0 gives V^-1 a negative entry
SPAWN_NET = """model spawn kind=vapn
param beta = 0.5
param b = 0.4
param sigma = 0.2
param gamma = 0.1
place S init=100
place E init=0 infected
place I init=1 infected
trans infect
arc S -> infect weight="beta*S*I/N"
arc infect -> E weight="beta*S*I/N"
trans spawn
arc spawn -> E weight="b*E"
trans progress
arc E -> progress weight="sigma*E"
arc progress -> I weight="sigma*E"
trans recover
arc I -> recover weight="gamma*I"
"""


@pytest.mark.parametrize("k,mu,verdict", [(-0.1, 0.3, "satisfied"), (-2.0, 1.0, "violated")])
def test_a5_without_a_z_matrix_is_decided_by_the_eigenvalues(k, mu, verdict, monkeypatch):
    seen = recorded_eigen_calls(monkeypatch)
    res = ngm_r0(parse_model(EXCHANGE_NET), params={"k": k, "mu": mu})
    assert res.V[0][1] > 0.0 and res.V[1][0] > 0.0   # not a Z-matrix
    if verdict == "violated":
        assert min(v for row in res.Vinv for v in row) >= 0.0
    assert [[-v for v in row] for row in res.V] in seen
    assert a5_of(res).status == eigen_verdict(res.V) == verdict
    # numpy agrees
    assert (max(np.linalg.eigvals(-np.array(res.V)).real) < 0.0) == (verdict == "satisfied")


def test_a5_with_a_negative_inverse_entry_lists_the_eigenvalues(monkeypatch):
    seen = recorded_eigen_calls(monkeypatch)
    res = ngm_r0(parse_model(SPAWN_NET))
    assert res.V[0][1] <= 0.0 and res.V[1][0] <= 0.0   # a Z-matrix
    assert min(v for row in res.Vinv for v in row) < 0.0
    neg_v = [[-v for v in row] for row in res.V]
    assert neg_v in seen
    finding = a5_of(res)
    assert finding.status == "violated"
    for ev in linalg.eigenvalues(neg_v):
        assert f"{ev.real:.6g}{ev.imag:+.6g}j" in finding.detail


def test_a5_on_a_zoo_model_needs_no_eigen_solve_of_v(monkeypatch):
    seen = recorded_eigen_calls(monkeypatch)
    res = ngm_r0(builtin("covid"))
    assert a5_of(res).status == "satisfied"
    assert seen == [[list(row) for row in res.K]]


@pytest.mark.parametrize("mid", zoo_ids())
def test_a5_matches_the_eigenvalues_on_manifest_ranges(mid):
    rng = random.Random(f"a5/{mid}")
    entry = zoo_entry(mid)
    for _ in range(40):
        params = {name: rng.uniform(spec.lo, spec.hi) for name, spec in entry.params.items()}
        res = ngm_r0(builtin(mid), params=params)
        assert a5_of(res).status == eigen_verdict(res.V), params


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


# ----------------------------------------------------------- generated chains

def chain_r0(m):
    """The chain's R0 in closed form: stage j is reached with probability
    prod_{i<j} g_i/(g_i + mu) and infects c_j/(g_j + mu) on average, where c_j
    is b_j times S*/N* (frequency-dependent) or S* (mass action)."""
    p = m.params
    mu = p.get("mu", 0.0)
    s_star = p["Pi"] / mu if mu else sum(m.initial_marking())
    mass_action = not any("N" in free_symbols(a.weight) for a in m.arcs)
    r0, reach = 0.0, 1.0
    for j in range(1, len(m.infected_places()) + 1):
        g = p[f"g{j}"]
        r0 += reach * p[f"b{j}"] * (s_star if mass_action else 1.0) / (g + mu)
        reach *= g / (g + mu)
    return r0


@given(chains())
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
def test_generated_chains_and_their_twins_meet_the_threshold_theorem(texts):
    # the vapn chain and its token-moving spn twin give the same F and V, and
    # the DFE is unstable exactly when R0 > 1 (van den Driessche & Watmough,
    # Theorem 2): the spectral abscissa of F - V has the sign of R0 - 1
    models = [parse_model(text) for text in texts]
    vapn, spn = map(ngm_r0, models)
    for a, b in ((vapn.F, spn.F), (vapn.V, spn.V)):
        for x, y in zip(itertools.chain(*a), itertools.chain(*b), strict=True):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x)), (x, y)
    for res in (vapn, spn):
        assert {f.status for f in res.findings} == {"satisfied"}, res.findings
    assert rel(vapn.r0, chain_r0(models[0])) <= 1e-9
    assume(abs(vapn.r0 - 1.0) >= 1e-9)
    growth = max(np.linalg.eigvals(np.array(vapn.F) - np.array(vapn.V)).real)
    assert (growth > 0.0) == (vapn.r0 > 1.0), (vapn.r0, growth)


# ----------------------------------------------------------------- renaming

def outcomes(text):
    """The findings, the R0 and findings, and a short run (seeded for an spn)
    of the net in `text`, each as text: repr for numbers, and the class and
    message of the package error a step ends in."""
    try:
        m = parse_model(text)
    except ModelError as exc:
        return [("ModelError", str(exc))]
    out = [tuple(f"{f.code} {f.status} {f.detail}" for f in validate_assumptions(m))]
    simulate = (lambda: run_vapn(m, 1.0, dt=0.1)) if m.kind == "vapn" \
        else (lambda: run_spn(m, 0.1, seed=1))
    for step in (lambda: ngm_r0(m), simulate):
        try:
            res = step()
        except NgmpnError as exc:
            out.append((type(exc).__name__, str(exc)))
            continue
        if hasattr(res, "r0"):
            out.append((repr(res.r0), *(f"{f.code} {f.status} {f.detail}"
                                        for f in res.findings)))
        else:
            out.append((repr((res.times, res.markings, res.clipping_events,
                              res.rng_seed)),))
    return out


@given(kind=st.sampled_from(["vapn", "spn"]), data=st.data())
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
def test_renaming_and_reordering_a_net_change_none_of_its_results(kind, data):
    # every identifier renamed to a builtin, a keyword or a name of the
    # generated code's own: the same results bit for bit, up to the names
    text = data.draw(nets(kind) | chains().map(lambda twins: twins[kind == "spn"]))
    names = data.draw(renamings(text))
    base = outcomes(text)
    new = outcomes(renamed(text, names))
    assert [len(o) for o in new] == [len(o) for o in base]
    for o, b in zip(new, base):
        assert all(reads_as_renamed(x, y, names) for x, y in zip(o, b)), (o, b)

    # declarations in another order: R0 up to rounding, the same statuses.
    # Where the flows leave a continuum of DFEs, compute_dfe takes the basic
    # solution favouring earlier declarations, so only there may the DFE
    # differ, and R0 is compared at the first order's DFE
    try:
        a, b = parse_model(text), parse_model(data.draw(permuted(text)))
    except ModelError:
        return
    assert ([(f.code, f.status) for f in validate_assumptions(a)]
            == [(f.code, f.status) for f in validate_assumptions(b)])
    try:
        ra = ngm_r0(a)
    except NgmpnError as exc:
        with pytest.raises(type(exc)):
            ngm_r0(b)
        return
    rb = ngm_r0(b)
    dfe = dict(zip(a.place_names(), ra.dfe.marking))
    if any(abs(v - dfe[p]) > 1e-9 * max(1.0, dfe[p])
           for p, v in zip(b.place_names(), rb.dfe.marking)):
        assert ra.dfe.method == rb.dfe.method == "conservation-augmented"
        rb = ngm_r0(b, constraints={p.name: dfe[p.name] for p in a.places
                                    if not p.infected})
    assert rb.r0 == ra.r0 or rel(rb.r0, ra.r0) <= 1e-12, (rb.r0, ra.r0)
    assert [(f.code, f.status) for f in rb.findings] == \
        [(f.code, f.status) for f in ra.findings]


# ----------------------------------------------------------- time rescaling

def rescaled(m, c):
    """The net with every arc weight (vapn) or rate (spn) multiplied by c,
    i.e. with time running c times as fast."""
    k = Constant(c)
    arcs, transitions = m.arcs, m.transitions
    if m.kind == "vapn":
        arcs = tuple(a._replace(weight=Mul((k, a.weight))) for a in arcs)
    else:
        transitions = tuple(t._replace(rate=Mul((k, t.rate))) for t in transitions)
    return PetriModel(m.name, m.kind, m.places, transitions, arcs, m.params)


@pytest.mark.parametrize("c", [1e-30, 1e-14, 1e-3, 7.0, 1e3, 1e12, 1e30])
@pytest.mark.parametrize("mid", zoo_ids())
def test_r0_and_dfe_invariant_under_time_rescaling(mid, c):
    # scaling every rate by c scales F and V by c, so K = F V^-1 and the
    # zeros of the flows (the DFE) do not change
    base = ngm_r0(builtin(mid))
    res = ngm_r0(rescaled(builtin(mid), c))
    assert rel(res.V[0][0], c * base.V[0][0]) <= 1e-12   # V did scale
    assert rel(res.r0, base.r0) <= 1e-12, (res.r0, base.r0)
    for x, y in zip(res.dfe.marking, base.dfe.marking, strict=True):
        assert abs(x - y) <= 1e-12 * max(abs(y), 1.0), (x, y)
    assert res.dfe.method == base.dfe.method
    assert ([(f.code, f.status) for f in res.findings]
            == [(f.code, f.status) for f in base.findings])


def test_conservation_row_keeps_its_pivot_next_to_huge_flow_rates():
    # sirs's flow Jacobian on S and R is rank deficient, with entries of
    # +-delta; at delta near the largest float the conservation row still
    # counts, and its power-of-two weight does not overflow
    base = ngm_r0(builtin("sirs"))
    res = ngm_r0(builtin("sirs"), params={"delta": 1.7e308})
    assert res.dfe.method == base.dfe.method == "conservation-augmented"
    assert res.dfe.marking == base.dfe.marking and res.r0 == base.r0
