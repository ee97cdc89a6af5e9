"""Every input ends in a result or a package error.

One class test: every exception class the package defines derives from
NgmpnError. Property tests: small generated vapn and spn nets, with weights
and rates built from places, parameters and constants by + - * / and integer
or fractional powers, go through the R0 computation and the net's simulator;
any exception that is not an NgmpnError fails the test. A third property
test mutates one token of each bundled model file, and the result must parse
or raise a ModelError.
"""
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import ngmpn
from ngmpn import NgmpnError, ngm_r0, parse_model, run_spn, run_vapn
from ngmpn.petri import ModelError, PetriModel


def test_every_package_exception_is_an_ngmpn_error():
    classes = []
    for info in pkgutil.iter_modules(ngmpn.__path__):
        module = importlib.import_module(f"ngmpn.{info.name}")
        classes += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                    if issubclass(cls, BaseException)
                    and cls.__module__ == module.__name__]
    assert len(classes) >= 8
    assert [c for c in classes if not issubclass(c, NgmpnError)] == []


PARAMS = {"a": 0.5, "b": 2.0}


def exprs(n):
    leaves = st.sampled_from([f"P{i}" for i in range(n)] + list(PARAMS)
                             + ["N", "0.5", "1", "2", "3"])

    def grow(inner):
        binary = st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda t: f"({t[0]}{t[1]}{t[2]})")
        power = st.tuples(inner, st.sampled_from(["2", "3", "-1", "0.5", "1.5"])).map(
            lambda t: f"({t[0]})^{t[1]}")
        return binary | power

    return st.recursive(leaves, grow, max_leaves=4)


EXPRS = {n: exprs(n) for n in range(2, 5)}  # built once: building is slow


@st.composite
def nets(draw, kind):
    """Model text: 2-4 places, 1-2 of them infected, 1-3 transitions.

    A transition has up to two arcs in and out, at least one in all; an spn
    arc moves one or two tokens. Token counts can grow, so an spn run may
    explode before its horizon, which must end in a SimError once time stops
    advancing.
    """
    n = draw(st.integers(2, 4))
    places = [f"P{i}" for i in range(n)]
    infected = set(draw(st.lists(st.sampled_from(places), min_size=1, max_size=2,
                                 unique=True)))
    lines = [f"model gen kind={kind}"]
    lines += [f"param {k}={v}" for k, v in PARAMS.items()]
    for p in places:
        init = draw(st.integers(0, 5))
        lines.append(f"place {p} init={init}" + (" infected" if p in infected else ""))
    arcs = []
    for k in range(draw(st.integers(1, 3))):
        ins = draw(st.lists(st.sampled_from(places), max_size=2, unique=True))
        outs = draw(st.lists(st.sampled_from(places), min_size=not ins,
                             max_size=2, unique=True))
        if kind == "spn":
            lines.append(f'trans t{k} rate="{draw(EXPRS[n])}"')
            arcs += [f"arc {p} -> t{k} mult={draw(st.integers(1, 2))}" for p in ins]
            arcs += [f"arc t{k} -> {p} mult={draw(st.integers(1, 2))}" for p in outs]
        else:
            lines.append(f"trans t{k}")
            arcs += [f'arc {p} -> t{k} weight="{draw(EXPRS[n])}"' for p in ins]
            arcs += [f'arc t{k} -> {p} weight="{draw(EXPRS[n])}"' for p in outs]
    return "\n".join(lines + arcs) + "\n"


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
