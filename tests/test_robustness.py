"""Every input ends in a result or a package error.

One class test: every exception class the package defines derives from
NgmpnError. Property tests: small generated vapn and spn nets, with weights
and rates built from places, parameters and constants by + - * / and integer
or fractional powers, go through the R0 computation and the net's simulator;
any exception that is not an NgmpnError fails the test. A third property
test mutates one token of each bundled model file, and the result must parse
or raise a ModelError. A fourth puts generated weight text, deep, long or
with exponents that cannot be evaluated, into an SIR net: it must parse or
raise a ModelError, and its R0 must be a result or an NgmpnError.
"""
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import ngmpn
from ngmpn import NgmpnError, ngm_r0, parse_model, run_spn, run_vapn
from ngmpn.expr import _children, parse_expr
from ngmpn.petri import ModelError, PetriModel
from nets import nets


def test_every_package_exception_is_an_ngmpn_error():
    classes = []
    for info in pkgutil.iter_modules(ngmpn.__path__):
        module = importlib.import_module(f"ngmpn.{info.name}")
        classes += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if issubclass(cls, BaseException)
                    and cls.__module__ == module.__name__]
    assert len(classes) >= 8
    assert [c for c in classes if not issubclass(c, NgmpnError)] == []


def run_all(text):
    """The R0 computation and the net's own simulator, to a short horizon."""
    try:
        m = parse_model(text)
    except NgmpnError:
        return
    simulate = (lambda: run_vapn(m, t_end=1.0, dt=0.1)) if m.kind == "vapn" \
        else (lambda: run_spn(m, t_end=0.1, seed=1))
    for call in (lambda: ngm_r0(m), simulate):
        try:
            call()
        except NgmpnError:
            pass


@given(nets("vapn"))
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_generated_vapn_nets_end_in_a_result_or_a_package_error(text):
    run_all(text)


@given(nets("spn"))
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_generated_spn_nets_end_in_a_result_or_a_package_error(text):
    run_all(text)


ZOO_TEXTS = [p.read_text()
             for p in sorted(Path(ngmpn.__file__).with_name("models").glob("*.pnet"))]

# what each one-token mutation picks in a file
MUTABLE = {"quote": re.compile('"'), "duplicate": re.compile(r"\S+"),
           "drop": re.compile(r"\S+"),
           "number": re.compile(r"(?<![\w.])\d+(?:\.\d+)?(?:e[-+]?\d+)?(?![\w.])")}


@st.composite
def mutated_zoo_files(draw):
    """A zoo file with one quote deleted, one word duplicated or dropped, or
    one number replaced by nan, inf or 1e400."""
    text = draw(st.sampled_from(ZOO_TEXTS))
    how = draw(st.sampled_from(sorted(MUTABLE)))
    start, end = draw(st.sampled_from([m.span() for m in MUTABLE[how].finditer(text)]))
    piece = text[start:end]
    new = {"quote": "", "drop": "", "duplicate": f"{piece} {piece}",
           "number": draw(st.sampled_from(["nan", "inf", "1e400"]))}[how]
    return text[:start] + new + text[end:]


@given(mutated_zoo_files())
@settings(max_examples=800, derandomize=True, deadline=None, database=None)
def test_mutated_zoo_files_parse_or_raise_a_model_error(text):
    try:
        assert isinstance(parse_model(text), PetriModel)
    except ModelError:
        pass


# weight text at and past the expression bounds (32 levels, 256 nodes), and
# exponents that cannot be evaluated: a division by zero, a negative power of
# zero, a fractional power of a negative number and an overflow
LEAVES = st.sampled_from(["S", "I", "R", "N", "b", "g", "0", "1", "2", "0.5"])
EXPONENTS = st.sampled_from(["2", "-1", "0.5", "(3/2)", "2^0.5", "(1/0)", "(0^-1)",
                             "((-1)^0.5)", "2^2^2^2^2", "1e400", "(1e200*1e200)"])


def weights():
    def grow(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map("".join),
            st.tuples(inner, st.sampled_from([1, 2, 31, 32, 40])).map(
                lambda t: "(" * t[1] + t[0] + ")" * t[1]),
            st.tuples(inner, LEAVES, st.sampled_from([1, 2, 30, 31, 32, 40])).map(
                lambda t: t[0] + f"/{t[1]}" * t[2]),
            st.tuples(inner, LEAVES, st.sampled_from([1, 2, 60, 254, 255, 300])).map(
                lambda t: t[0] + f"*{t[1]}" * t[2]),
            st.tuples(inner, EXPONENTS).map("({0[0]})^{0[1]}".format))

    return st.recursive(LEAVES, grow, max_leaves=6)


def nodes(e):
    return 1 + sum(map(nodes, _children(e)))


@given(weights())
@example("b*S*I^(1/0)")
@example("b*S*I^(0^-1)")
@example("b*S*I^((-1)^0.5)")
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
def test_generated_weights_end_in_a_model_error_or_an_r0(weight):
    text = f"""\
model sir kind=vapn
param b=0.3
param g=0.1
place S init=99
place I init=1 infected
place R init=0
trans infect
trans recover
arc S -> infect weight="{weight}"
arc infect -> I weight="{weight}"
arc I -> recover weight="g*I"
arc recover -> R weight="g*I"
"""
    try:
        m = parse_model(text)
    except ModelError:
        return
    assert isinstance(m, PetriModel)
    if nodes(parse_expr(weight)) < 64:    # the derivatives of a large tree cost seconds
        try:
            ngm_r0(m)
        except NgmpnError:
            pass
