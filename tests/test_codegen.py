"""Generated code against eval_expr, bit for bit.

The expression strategy is test_expr's, with fractional and negative powers
mixed in; the values include signed zeros, integers, infinities and NaN.
Where eval_expr gives a value, the generated code must give the same bits
(compared with float.hex); where eval_expr raises EvalError, the generated
code must fail too, as NgmError in ngm and as SimError in sim.
"""
import gc
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngmpn import codegen, ngm, sim
from ngmpn.codegen import assignments, call, emit, generated, per_model, targets
from ngmpn.expr import (Add, Constant, Div, EvalError, Mul, Neg, Pow, Symbol, add_,
                        diff, eval_expr, simplify, substitute, to_text)
from ngmpn.ngm import NgmError
from ngmpn.petri import net_flow, parse_model
from ngmpn.sim import SimError, run_spn, step_vapn
from test_expr import NAMES, exprs

# one bug shrunk, not one per exception type: shrinking rebuilds a model per
# example and would otherwise run for minutes
SETTINGS = settings(max_examples=200, derandomize=True, deadline=None, database=None,
                    report_multiple_bugs=False)
PARAMS = ["beta", "gamma", "x", "y"]


@st.composite
def trees(draw):
    """test_expr's expressions, some joined to a fractional or negative
    power of another."""
    e = draw(exprs())
    if draw(st.booleans()):
        power = Pow(draw(exprs(depth=2)),
                    draw(st.sampled_from([0.5, 1.5, -0.5, -1.0, -2.0])))
        e = draw(st.sampled_from([Add((e, power)), Mul((power, e)),
                                  Div(e, power), Add((power, Neg(e)))]))
    return e


VALUES = st.one_of(st.floats(min_value=-4.0, max_value=4.0),
                   st.integers(-3, 3),
                   st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300,
                                    math.inf, -math.inf, math.nan]))


def hexes(values):
    return [float.hex(v) for v in values]


def reference(exprs_, bindings):
    """eval_expr of each expression, or None when any raises EvalError."""
    try:
        return [eval_expr(e, bindings) for e in exprs_]
    except EvalError:
        return None


# ----------------------------------------------------------------- emitter

def compiled(e, hoist: bool):
    """A function of the NAMES values, renamed, computing e."""
    names = {n: f"v_{n}" for n in NAMES}
    sums = {} if hoist else None
    body = emit(e, names, sums)
    lines = assignments(sums) if hoist else []
    src = (f"def _f(_x):\n    ({targets(list(names.values()))}) = map(float, _x)\n"
           + "".join(f"    {line}\n" for line in lines) + f"    return {body}\n")
    return generated(src, "test")["_f"]


@given(trees(), st.fixed_dictionaries({n: VALUES for n in NAMES}))
@SETTINGS
def test_emitted_code_matches_eval_expr_bit_for_bit(e, b):
    want = reference([e], b)
    args = [b[n] for n in NAMES]
    for hoist in (False, True):
        f = compiled(e, hoist)
        if want is None:
            with pytest.raises((ArithmeticError, ValueError)):
                f(args)
        else:
            assert hexes([f(args)]) == hexes(want), (to_text(e), hoist)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -0.0, 1e300])
def test_constants_without_a_literal(value):
    e = Add((Constant(value), Mul((Constant(value), Symbol("x")))))
    assert hexes([compiled(e, False)([1.5] * len(NAMES))]) == \
        hexes([eval_expr(e, dict.fromkeys(NAMES, 1.5))])


@pytest.mark.parametrize("base", [-math.inf, -2.0, -0.0, 0.0, 2.0, math.inf, math.nan])
@pytest.mark.parametrize("exponent", [0.5, -0.5, 2.0, -1.0])
def test_powers_at_the_edges(base, exponent):
    e = Pow(Symbol("x"), exponent)
    f = compiled(e, False)
    want = reference([e], {"x": base})
    if want is None:
        with pytest.raises((ArithmeticError, ValueError)):
            f([base] * len(NAMES))
    else:
        assert hexes([f([base] * len(NAMES))]) == hexes(want)


# ---------------------------------------------------------------- per_model

def test_per_model_builds_once_per_model_object():
    # models compare by identity: an equal text parsed twice is two models,
    # and a model's built code goes when the model does
    built = []

    def build(m):
        built.append(m.name)
        return len(built)

    a, b = parse_model(r0_net("gamma*I")), parse_model(r0_net("gamma*I"))
    assert a != b and a == a and len({a, b}) == 2
    assert [per_model(a, build), per_model(a, build), per_model(b, build)] == [1, 1, 2]
    with pytest.raises(AttributeError):
        a.places = ()
    # a pickled model comes back as another model, with code of its own
    c = pickle.loads(pickle.dumps(a))
    assert c != a and c.places == a.places and c.place_index("R") == 2
    assert per_model(c, build) == 3
    held = len(codegen._built)
    del a, c
    gc.collect()
    assert len(codegen._built) == held - 2
    assert per_model(b, build) == 2
    assert built == ["gen"] * 3


# --------------------------------------------------------------------- ngm

def r0_net(text: str) -> str:
    """S and R, and I infected; the expression is the recovery weight, so it
    is in script V and, at I = 0, in R's DFE flow."""
    return f"""\
model gen kind=vapn
param beta=0.3
param gamma=0.1
param x=1.5
param y=0.5
place S init=5
place I init=1 infected
place R init=0
trans infect
trans recover
arc S -> infect weight="beta*S*I"
arc infect -> I weight="beta*S*I"
arc I -> recover weight="{text}"
arc recover -> R weight="{text}"
"""


@given(trees(), st.lists(VALUES, min_size=3, max_size=3),
       st.lists(VALUES, min_size=4, max_size=4))
@SETTINGS
def test_r0_functions_match_eval_expr(e, marking, params):
    m = parse_model(r0_net(to_text(e)))
    w = per_model(m, ngm._derive)
    total = {"N": Add(tuple(Symbol(p) for p in m.place_names()))}
    b = {**dict(zip(m.place_names(), marking)), **dict(zip(PARAMS, params))}

    # F and V: the Jacobians of script F and script V over I
    rows = ([substitute(f, total) for f in w.script_f]
            + [substitute(add_(list(r)), total) for r in w.script_v])
    want = reference([diff(r, "I") for r in rows], b)
    if want is None:
        with pytest.raises(NgmError, match="gen"):
            call(m, NgmError, w.fv, marking, params)
    else:
        F, V = call(m, NgmError, w.fv, marking, params)
        assert hexes(F[0] + V[0]) == hexes(want)

    # the DFE flows of S and R at I = 0, their flow scale and Jacobian
    zero = {"I": Constant(0.0)}
    flows = [simplify(substitute(substitute(net_flow(m, p), total), zero))
             for p in ("S", "R")]
    terms = [t for f in flows for t in (f.terms if isinstance(f, Add) else (f,))]
    jac = [diff(f, p) for f in flows for p in ("S", "R")]
    values = [marking[0], marking[2]]
    want = reference(flows + terms + jac, b)
    if want is None:
        with pytest.raises(NgmError, match="gen"):
            call(m, NgmError, w.dfe, values, params)
    else:
        got_flows, scale, got_jac = call(m, NgmError, w.dfe, values, params)
        want_scale = max([0.0] + [abs(v) for v in want[2:2 + len(terms)]]) or 1.0
        assert hexes(got_flows) == hexes(want[:2])
        assert hexes([scale]) == hexes([want_scale])
        assert hexes(got_jac[0] + got_jac[1]) == hexes(want[2 + len(terms):])


# --------------------------------------------------------------------- sim

def sim_net(kind: str, text: str) -> str:
    """One transition moving S to I at the expression: its weight on both
    arcs (vapn) or its rate (spn)."""
    head = (f"model gen kind={kind}\nparam beta=0.3\nparam gamma=0.1\n"
            "param x=1.5\nparam y=0.5\nplace S init=5\nplace I init=1 infected\n")
    if kind == "vapn":
        return head + (f'trans t\narc S -> t weight="{text}"\n'
                       f'arc t -> I weight="{text}"\n')
    return head + f'trans t rate="{text}"\narc S -> t mult=1\narc t -> I mult=1\n'


@given(trees(), st.lists(VALUES, min_size=2, max_size=2),
       st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4))
@SETTINGS
def test_vapn_step_matches_eval_expr(e, marking, params):
    m = parse_model(sim_net("vapn", to_text(e)))
    s, i = map(float, marking)
    p = dict(zip(PARAMS, params))
    if not all(0.0 <= v < math.inf for v in (s, i)):
        with pytest.raises(SimError, match="marking of place"):
            step_vapn(m, marking, 0.5, p)
    runner = per_model(m, sim._build_vapn)[2](frozenset())

    def step():
        """The compiled step past step_vapn's check of the marking: inside a
        run, places take whatever values the arithmetic gives."""
        return call(m, SimError, runner, marking, 1, 0.5, 2, None, None, 0.0,
                    sim._param_values(m, p))[0]

    want = reference([m.arcs[0].weight], {"S": s, "I": i, "N": s + i, **p})
    if want is None:
        with pytest.raises(SimError, match="gen"):
            step()
        return
    w = want[0]
    expected = [s - 0.5 * w, i + 0.5 * w]
    expected = [0.0 if v < 0.0 else v for v in expected]   # the clip
    assert hexes(step()) == hexes(expected)


# S >= 1, so the input-arc guard lets the rate be evaluated
@given(trees(), st.tuples(st.integers(1, 3), st.integers(0, 3)),
       st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4))
@SETTINGS
def test_spn_rate_failure_is_sim_error(e, marking, params):
    m = parse_model(sim_net("spn", to_text(e)))
    s, i = marking
    p = dict(zip(PARAMS, params))
    want = reference([m.transitions[0].rate], {"S": s, "I": i, "N": s + i, **p})
    if want is None:
        with pytest.raises(SimError, match="gen"):
            run_spn(m, 0.01, seed=1, params=p, marking0=marking)
    else:
        try:
            run_spn(m, 0.01, seed=1, params=p, marking0=marking)
        except SimError:
            pass     # a negative or runaway rate
