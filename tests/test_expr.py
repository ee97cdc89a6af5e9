import copy
import math
import pickle

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from ngmpn.expr import (Add, Constant, Div, EvalError, ExprError, ExprSyntaxError,
                        Mul, Neg, Pow, Symbol, UnboundSymbolError, _tokenize,
                        diff, eval_expr, free_symbols, parse_expr, simplify,
                        substitute, to_text)

NAMES = ["S", "I", "beta", "gamma", "N", "x", "y"]


@st.composite
def exprs(draw, depth=4):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return Symbol(draw(st.sampled_from(NAMES)))
        return Constant(draw(st.floats(min_value=-9, max_value=9,
                                       allow_nan=False, width=32)))
    kind = draw(st.sampled_from(["add", "sub", "mul", "div", "neg", "pow"]))
    if kind == "neg":
        return Neg(draw(exprs(depth=depth - 1)))
    if kind == "pow":
        return Pow(draw(exprs(depth=depth - 1)),
                   float(draw(st.sampled_from([0, 1, 2, 3]))))
    a = draw(exprs(depth=depth - 1))
    b = draw(exprs(depth=depth - 1))
    if kind == "add":
        return Add((a, b))
    if kind == "sub":
        return Add((a, Neg(b)))
    if kind == "mul":
        return Mul((a, b))
    return Div(a, b)


def bindings():
    return st.fixed_dictionaries({n: st.floats(min_value=0.1, max_value=4.0,
                                               allow_nan=False)
                                  for n in NAMES})


# ------------------------------------------------------------ parse / print

X, Y = Symbol("x"), Symbol("y")

# each node class: a node, an equal node built apart, one with another field
# value, its repr, and a field name
NODES = {
    "Constant": (Constant(2.5), Constant(2.5), Constant(3.5), "Constant(2.5)", "value"),
    "Symbol": (X, Symbol("x"), Y, "Symbol('x')", "name"),
    "Add": (Add((X, Y)), Add((Symbol("x"), Y)), Add((Y, X)),
            "Add(Symbol('x'), Symbol('y'))", "terms"),
    "Mul": (Mul((X, Y)), Mul((Symbol("x"), Y)), Mul((X, X)),
            "Mul(Symbol('x'), Symbol('y'))", "factors"),
    "Div": (Div(X, Y), Div(Symbol("x"), Y), Div(Y, X),
            "Div(Symbol('x'), Symbol('y'))", "num"),
    "Pow": (Pow(X, 2.0), Pow(Symbol("x"), 2.0), Pow(X, 3.0),
            "Pow(Symbol('x'), 2.0)", "exponent"),
    "Neg": (Neg(X), Neg(Symbol("x")), Neg(Y), "Neg(Symbol('x'))", "arg"),
}


@pytest.mark.parametrize("cls", sorted(NODES))
def test_node_equality_hash_repr_and_immutability(cls):
    node, twin, other, text, field = NODES[cls]
    assert type(node).__name__ == cls
    assert node == twin and not node != twin and hash(node) == hash(twin)
    assert node != other and not node == other
    assert node != getattr(node, field)     # never equal to a field's value
    assert repr(node) == text
    with pytest.raises(AttributeError):
        setattr(node, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(node, field)
    assert getattr(node, field) == getattr(twin, field)
    for again in (copy.copy(node), copy.deepcopy(node),
                  pickle.loads(pickle.dumps(node))):
        assert type(again) is type(node) and again == node


def test_node_equality_compares_class_then_fields():
    # fields compare as floats do: signed zeros are equal, with equal hashes
    assert Constant(0.0) == Constant(-0.0)
    assert hash(Constant(0.0)) == hash(Constant(-0.0))
    assert Pow(X, 2) == Pow(X, 2.0)
    # equal fields in another class are another node
    assert Add((X,)) != Mul((X,))
    assert Neg(X) != Add((X,)) and Constant(1.0) != 1.0
    assert len({Add((X,)), Mul((X,)), Add((Symbol("x"),))}) == 2
    # fields compare as field tuples do, identity first: a node holding a
    # NaN equals a node holding the same NaN object, but not another NaN
    nan = math.nan
    assert Constant(nan) == Constant(nan) and hash(Constant(nan)) == hash(Constant(nan))
    assert Pow(X, nan) == Pow(X, nan)
    assert Constant(nan) != Constant(float("nan"))


@pytest.mark.parametrize("text", [
    "beta*S*I/N",
    "beta*S*I/N - gamma*I",
    "(beta_a*I_a + beta_s*I_s + beta_h*I_h)*S/N",
    "beta*S*I/(1 + alpha*I^2)",
    "(1 - p)*beta*S*I/N",
    "-beta*S*I + delta*R",
    "2*beta*S*I/N - beta*S*I/N",
    "a - (b - c)",
    "a/(b*c)",
    "x^2",
    "1e-3*S + 2.5E+2",
])
def test_print_parse_fixpoint(text):
    once = to_text(parse_expr(text))
    assert to_text(parse_expr(once)) == once


A, B, C, R = map(Symbol, "abcr")


@pytest.mark.parametrize("text,tree", [
    ("a - b - c", Add((A, Neg(B), Neg(C)))),
    ("a - (b - c)", Add((A, Neg(Add((B, Neg(C))))))),
    ("1 - r", Add((Constant(1.0), Neg(R)))),
    ("a - b + c", Add((A, Neg(B), C))),
])
def test_subtraction_is_a_sum_with_negated_terms(text, tree):
    assert parse_expr(text) == tree
    assert to_text(tree) == text


def test_difference_of_signed_zeros_is_positive_zero():
    # a sum starts from 0.0, so (-0.0) - 0.0 gives +0.0, not IEEE's -0.0
    v = eval_expr(parse_expr("x - y"), {"x": -0.0, "y": 0.0})
    assert math.copysign(1.0, v) == 1.0


@given(exprs())
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
def test_print_parse_fixpoint_generated(e):
    once = to_text(e)
    again = to_text(parse_expr(once))
    assert to_text(parse_expr(again)) == again


# 0 + 0/(c + (2 - 2)) with c = 2**-52: printed without the inner brackets it
# reparsed as (c + 2) - 2, which rounds to 0, and the division raised;
# 1e200*(1e200/1e200) printed without them reparsed as (1e200*1e200)/1e200,
# which overflows to inf
@given(exprs(), bindings())
@example(Add((Constant(0.0), Div(Constant(0.0), Add((Constant(2.220446049250313e-16),
                                                    Add((Constant(2.0),
                                                         Neg(Constant(2.0))))))))),
         {n: 1.0 for n in NAMES})
@example(Mul((Constant(1e200), Div(Constant(1e200), Constant(1e200)))),
         {n: 1.0 for n in NAMES})
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
def test_reparse_preserves_value(e, b):
    try:
        v = eval_expr(e, b)
    except EvalError:
        return
    v2 = eval_expr(parse_expr(to_text(e)), b)
    assert v2 == pytest.approx(v, rel=1e-12, abs=1e-12)


# expression text in the parser's grammar: names, numbers in each written
# form, the four operators with or without spaces, unary minus, brackets and
# numeric exponents
NUMBERS = st.one_of(st.sampled_from(["0", "2", "3.", ".5", "0.25", "1e3", "2.5E-2",
                                     "12345678901234567"]),
                    st.floats(min_value=0.0, max_value=1e300).map(repr))
EXPONENTS = st.one_of(NUMBERS, NUMBERS.map("-{}".format),
                      st.tuples(NUMBERS, NUMBERS).map("({0[0]}/{0[1]})".format))
SPACE = st.sampled_from(["", " "])


def expr_texts():
    def extend(inner):
        return st.one_of(
            st.tuples(inner, SPACE, st.sampled_from("+-*/"), SPACE, inner).map("".join),
            inner.map("-{}".format),
            inner.map("({})".format),
            st.tuples(inner, EXPONENTS).map("{0[0]}^{0[1]}".format))
    return st.recursive(st.one_of(st.sampled_from(NAMES), NUMBERS), extend,
                        max_leaves=24)


# regressions of printing: a negative constant as a later term printed as
# "- 3", which reparsed as a Neg of 3; a negated negative product printed as
# "--S*S", which reparsed as a product with a negated factor
@given(expr_texts())
@example("a + -3")
@example("--(S*S)")
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
def test_walkers_on_parsed_trees(text):
    try:
        e = parse_expr(text)        # within MAX_DEPTH and MAX_NODES
    except ExprError:
        reject()
    assert substitute(e, {}) == e
    printed = to_text(e)
    assert free_symbols(e) == {v for kind, v, _ in _tokenize(printed) if kind == "name"}
    assert parse_expr(printed) == e


@pytest.mark.parametrize("text,value", [
    ("2^3^2", 512.0),          # right-associative power
    ("6/3/2", 1.0),            # left-associative division
    ("-2^2", -4.0),            # unary minus binds looser than power
    ("2*-3", -6.0),
    ("1e2 + 1E-2", 100.01),
    ("(1 + 2)*(3 - 5)", -6.0),
    ("10 - 2 - 3", 5.0),
])
def test_eval_fixtures(text, value):
    assert eval_expr(parse_expr(text), {}) == value


def test_eval_binding():
    e = parse_expr("beta*S*I/N")
    v = eval_expr(e, {"beta": 0.3, "S": 999999.0, "I": 1.0, "N": 1e6})
    assert v == pytest.approx(0.3 * 999999 / 1e6, rel=1e-15)


def test_free_symbols():
    assert free_symbols(parse_expr("beta*S*I/N - gamma*I")) == \
        {"beta", "S", "I", "N", "gamma"}
    assert free_symbols(Constant(3.0)) == set()


# ------------------------------------------------------------------- errors

@pytest.mark.parametrize("text", ["", "a +", "a + * b", "(a", "a b", "1.2.3",
                                  "a ^", "*a", "a $ b", "a@b"])
def test_syntax_errors(text):
    with pytest.raises(ExprSyntaxError):
        parse_expr(text)


@pytest.mark.parametrize("text,message", [
    ("1e400*S", "not finite"),
    ("I^1e400", "not finite"),
    ("I^(1e200*1e200)", "exponent is not finite"),
    ("I^(1e200*1e200 - 1e200*1e200)", "exponent is not finite"),
])
def test_non_finite_numbers_and_exponents_rejected(text, message):
    with pytest.raises(ExprSyntaxError, match=message):
        parse_expr(text)


@pytest.mark.parametrize("exponent", ["(1/0)", "(0^-1)", "((-1)^0.5)"])
def test_exponent_that_cannot_be_evaluated_is_a_syntax_error(exponent):
    with pytest.raises(ExprSyntaxError, match="exponent cannot be evaluated") as err:
        parse_expr("b*S*I^" + exponent)
    assert err.value.offset == 5        # the '^'


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("a + * b")
    assert err.value.offset == 4


@pytest.mark.parametrize("text,offset", [("a $ b", 2), ("a@b", 1)])
def test_stray_character_named_at_its_offset(text, offset):
    with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
        parse_expr(text)
    assert err.value.offset == offset


# (text within the bound, text one past it, what the error says); MAX_DEPTH
# is 32 levels and MAX_NODES 256 nodes
@pytest.mark.parametrize("inside,outside,message", [
    ("x" + "/x" * 31, "x" + "/x" * 32, "nested deeper than 32"),       # no bracket
    ("(" * 31 + "x" + ")" * 31, "(" * 32 + "x" + ")" * 32, "nested deeper than 32"),
    ("-" * 31 + "x", "-" * 32 + "x", "nested deeper than 32"),
    ("x" + "*x" * 254, "x" + "*x" * 255, "more than 256 nodes"),          # leaves + Mul
    ("x" + "*-x" * 127, "x" + "*-x" * 128, "more than 256 nodes"),        # Negs count
    ("x" + "*x^2" * 127, "x" + "*x^2" * 128, "more than 256 nodes"),      # exponents don't
    ("x", "x" + "+x" * 100000, "more than 256 nodes"),   # refused at the 257th leaf
])
def test_expression_size_is_bounded(inside, outside, message):
    parse_expr(inside)
    with pytest.raises(ExprSyntaxError, match=message):
        parse_expr(outside)


def test_trailing_whitespace_is_no_token():
    assert parse_expr("S*I  ") == Mul((Symbol("S"), Symbol("I")))


def test_unbound_symbol_named():
    with pytest.raises(UnboundSymbolError) as err:
        eval_expr(parse_expr("x + 1"), {})
    assert err.value.name == "x"


def test_eval_domain_errors():
    with pytest.raises(EvalError):
        eval_expr(parse_expr("1/x"), {"x": 0.0})
    with pytest.raises(EvalError):
        eval_expr(parse_expr("x^0.5"), {"x": -2.0})
    with pytest.raises(EvalError):
        eval_expr(parse_expr("0^(0 - 1)"), {})


def test_eval_power_overflow_is_eval_error():
    with pytest.raises(EvalError, match="overflows"):
        eval_expr(parse_expr("S^2"), {"S": 1e200})


# --------------------------------------------------------------- substitute

def test_substitute_is_single_pass():
    e = parse_expr("N + S")
    out = substitute(e, {"N": parse_expr("S + I"), "S": Constant(0.0)})
    # the S inside the replacement for N must not itself be substituted
    assert to_text(out) == "S + I + 0"


def test_substitute_leaves_unmapped():
    e = parse_expr("beta*S")
    out = substitute(e, {"beta": Constant(0.5)})
    assert to_text(out) == "0.5*S"
    assert free_symbols(out) == {"S"}


# --------------------------------------------------------------------- diff

@pytest.mark.parametrize("text,wrt,point,expected", [
    ("beta*S*I/N", "I", {"beta": 0.3, "S": 2.0, "I": 7.0, "N": 10.0}, 0.06),
    ("gamma*I", "I", {"gamma": 0.25, "I": 3.0}, 0.25),
    ("x^3", "x", {"x": 2.0}, 12.0),
    ("1/x", "x", {"x": 2.0}, -0.25),
    ("a", "x", {"a": 5.0}, 0.0),
])
def test_diff_fixtures(text, wrt, point, expected):
    d = diff(parse_expr(text), wrt)
    assert eval_expr(d, point) == pytest.approx(expected, rel=1e-12)


def test_diff_saturating_incidence():
    # quotient rule on beta*S*I/(1 + alpha*I^2)
    e = parse_expr("beta*S*I/(1 + alpha*I^2)")
    d = diff(e, "I")
    b = {"beta": 0.6, "S": 0.9, "alpha": 0.1, "I": 0.0}
    assert eval_expr(d, b) == pytest.approx(0.54, rel=1e-12)
    b["I"] = 2.0
    manual = 0.6 * 0.9 * (1 + 0.1 * 4 - 2 * 0.1 * 4) / (1 + 0.1 * 4) ** 2
    assert eval_expr(d, b) == pytest.approx(manual, rel=1e-12)


@given(exprs(), bindings(), st.sampled_from(NAMES))
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
def test_diff_matches_central_difference(e, b, wrt):
    d = diff(e, wrt)
    h = 1e-6
    up = dict(b, **{wrt: b[wrt] + h})
    dn = dict(b, **{wrt: b[wrt] - h})
    try:
        lo, hi, mid = eval_expr(e, dn), eval_expr(e, up), eval_expr(d, b)
    except EvalError:
        return
    numeric = (hi - lo) / (2 * h)
    # cancellation noise in the difference quotient scales with |f|/h
    tol = 2e-4 * (1 + abs(mid)) + 1e-9 * max(abs(lo), abs(hi))
    assert abs(mid - numeric) <= tol


# ----------------------------------------------------------------- simplify

@pytest.mark.parametrize("text,expected", [
    ("2*beta*S*I/N - beta*S*I/N", "beta*S*I/N"),
    ("x - x", "0"),
    ("0*x + y*1", "y"),
    ("x/y + x/y", "2*(x/y)"),
    ("3*a/b - a/b - 2*a/b", "0"),
    ("x^1", "x"),
    ("x^0", "1"),
    ("0/x", "0"),
    ("x + 0", "x"),
    ("2*3", "6"),
    ("a + a + a", "3*a"),
    ("b*a - a*b", "0"),
    ("x*y*x - x*x*y", "0"),
    ("S*I*beta + beta*I*S", "2*S*I*beta"),
])
def test_simplify_fixtures(text, expected):
    assert to_text(simplify(parse_expr(text))) == expected


def test_terms_that_print_alike_are_not_merged():
    # a*(b/c) and a*b/c both print as a*b/c, but a*b overflows first
    e = parse_expr("(a*(b/c))^2 - (a*b/c)^2")
    s = simplify(e)
    assert s != Constant(0.0)
    b = {"a": 1e200, "b": 1e200, "c": 1e300}
    assert eval_expr(s, b) == eval_expr(e, b) == -math.inf


@given(exprs(), bindings())
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
def test_simplify_preserves_value(e, b):
    s = simplify(e)
    try:
        v = eval_expr(e, b)
    except EvalError:
        return
    assert eval_expr(s, b) == pytest.approx(v, rel=1e-9, abs=1e-9)


@given(exprs())
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
def test_simplify_idempotent(e):
    s = simplify(e)
    assert to_text(simplify(s)) == to_text(s)
