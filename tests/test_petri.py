import itertools
import random

import pytest

from ngmpn import petri
from ngmpn.expr import eval_expr, to_text
from ngmpn.petri import (ModelError, classify_transitions, load_model, net_flow,
                         parse_model, validate_assumptions)

SIRS = """\
model sirs kind=vapn
param beta=0.3
param gamma=0.1
param delta=0.05
place S init=999999
place I init=1 infected
place R init=0
trans infect
trans recover
trans wane
arc S -> infect weight="beta*S*I/N"
arc infect -> I weight="beta*S*I/N"
arc I -> recover weight="gamma*I"
arc recover -> R weight="gamma*I"
arc R -> wane weight="delta*R"
arc wane -> S weight="delta*R"
"""

SIRS_SPN = """\
model sirs_spn kind=spn
param beta=0.3
param gamma=0.1
place S init=98000
place I init=2000 infected
place R init=0
trans infect rate="beta*S*I/N"
trans recover rate="gamma*I"
arc S -> infect mult=1
arc I -> infect mult=1
arc infect -> I mult=2
arc I -> recover mult=1
arc recover -> R mult=1
"""


# ------------------------------------------------------------------ parsing

def test_parse_places_and_params():
    m = parse_model(SIRS)
    assert m.name == "sirs" and m.kind == "vapn"
    assert m.place_names() == ("S", "I", "R")
    assert m.params == {"beta": 0.3, "gamma": 0.1, "delta": 0.05}
    assert m.infected_places() == ("I",)
    assert m.initial_marking() == (999999.0, 1.0, 0.0)


def test_parse_comments_and_quotes():
    text = SIRS.replace('arc S -> infect weight="beta*S*I/N"',
                        'arc S -> infect weight="beta*S*I/N"  # mass action')
    text = "# header comment\n" + text
    m = parse_model(text)
    assert to_text(m.arcs[0].weight) == "beta*S*I/N"


def test_parse_spn():
    m = parse_model(SIRS_SPN)
    assert m.kind == "spn"
    assert m.arcs[2].mult == 2
    assert to_text(m.transition("infect").rate) == "beta*S*I/N"
    with pytest.raises(ModelError, match="unknown place: Q"):
        m.place_index("Q")
    with pytest.raises(ModelError, match="unknown transition: spread"):
        m.transition("spread")


@pytest.mark.parametrize("mangle,fragment", [
    (lambda t: t.replace("place I init=1 infected",
                         "place S init=1"), "already in use"),
    (lambda t: t.replace("place S init=999999", "place N init=999999"),
     "reserved"),
    (lambda t: t.replace("model sirs kind=vapn", "model sirs kind=petri"),
     "kind"),
    (lambda t: t.replace("trans infect", "param late=1\ntrans infect"),
     "precede"),
    (lambda t: t.replace("arc S -> infect", "arc S -> nowhere"), "nowhere"),
    (lambda t: t.replace("arc S -> infect weight=\"beta*S*I/N\"",
                         "arc S -> I weight=\"beta*S*I/N\""), "place"),
    (lambda t: t.replace('weight="beta*S*I/N"', 'weight="beta*S*I/N" mult=1',
                         1), "mult"),
    (lambda t: t.replace('weight="gamma*I"', 'weight="zeta*I"', 1), "zeta"),
    (lambda t: t.replace('weight="gamma*I"', 'weight="gamma*II', 1),
     "line 13: unterminated quote"),
    (lambda t: t.replace("kind=vapn", "kind=vapn infected"), "line 1: model"),
    (lambda t: t.replace("trans recover", "trans recover infected"), "line 9: trans"),
    (lambda t: t.replace('weight="gamma*I"', 'weight="gamma*I" infected', 1),
     "line 13: arc"),
    (lambda t: t.replace("param beta=0.3", "param beta = nan"), "line 2: param beta"),
    (lambda t: t.replace("param beta=0.3", "param beta = 1e400"), "line 2: param beta"),
    (lambda t: t.replace("param beta=0.3", "param beta = fast"),
     "line 2: param beta is not a finite number: 'fast'"),
    (lambda t: t.replace("place S init=999999", "place S init=x1"),
     "line 5: init of place 'S' is not a finite number: 'x1'"),
    (lambda t: t.replace("place S init=999999", "place S init=nan"),
     "line 5: init of place 'S'"),
    (lambda _: SIRS_SPN.replace("place S init=98000", "place S init=inf"),
     "line 4: init of place 'S'"),
    (lambda _: SIRS_SPN.replace("place S init=98000", "place S init=nan"),
     "line 4: init of place 'S'"),
    (lambda t: t.replace("place S init=999999", "place S init=-5"),
     "line 5: init of place 'S' must be at least 0"),
    (lambda _: SIRS_SPN.replace("arc S -> infect mult=1", "arc S -> infect mult=0"),
     "line 9: mult must be at least 1"),
    (lambda t: t.replace("param beta=0.3", "model again kind=vapn"),
     "line 2: duplicate model line"),
    (lambda t: "param early=1\n" + t, "line 1: expected the model line first"),
    (lambda t: t.replace("place S init=999999",
                         'arc S -> infect weight="beta"\nplace S init=999999'),
     "line 5: transitions and arcs must follow places"),
    (lambda t: t.replace("place R init=0", "place R init=0 colour=red"),
     "line 7: unknown attribute 'colour'"),
    (lambda t: t.replace("param beta=0.3", "param beta=0.3 rho=1"),
     "line 2: expected 'param NAME = REAL'"),
    (lambda t: t.replace("trans recover", "trans recover class=removal"),
     "line 9: class must be infection or transfer"),
    (lambda _: "# a comment and nothing else\n", "missing model line"),
    (lambda _: "model empty kind=vapn\nparam a=1\n", "model has no places"),
])
def test_parse_errors(mangle, fragment):
    with pytest.raises(ModelError) as err:
        parse_model(mangle(SIRS))
    assert fragment in str(err.value)


def test_parse_error_cites_line_number():
    bad = SIRS.replace("place I init=1 infected", "place S init=1")
    with pytest.raises(ModelError) as err:
        parse_model(bad)
    assert "line 6" in str(err.value)


def test_spn_arc_needs_mult():
    bad = SIRS_SPN.replace("arc S -> infect mult=1", "arc S -> infect")
    with pytest.raises(ModelError) as err:
        parse_model(bad)
    assert "mult" in str(err.value)


def test_spn_integer_inits():
    bad = SIRS_SPN.replace("place S init=98000", "place S init=98000.5")
    with pytest.raises(ModelError):
        parse_model(bad)


def test_spn_transition_needs_rate():
    bad = SIRS_SPN.replace('trans recover rate="gamma*I"', "trans recover")
    with pytest.raises(ModelError) as err:
        parse_model(bad)
    assert "rate" in str(err.value)


def test_bindings_include_total():
    m = parse_model(SIRS)
    b = m.bindings_at((10.0, 5.0, 1.0))
    assert b["N"] == 16.0 and b["S"] == 10.0 and b["beta"] == 0.3


def test_bindings_override_only_the_given_params():
    m = parse_model(SIRS)
    b = m.bindings_at((10.0, 5.0, 1.0), {"beta": 0.5})
    assert eval_expr(net_flow(m, "I"), b) == 0.5 * 10.0 * 5.0 / 16.0 - 0.1 * 5.0


# ----------------------------------------------------------------- net flow

def test_net_flow_display():
    m = parse_model(SIRS)
    assert to_text(net_flow(m, "S")) == "-beta*S*I/N + delta*R"
    assert to_text(net_flow(m, "I")) == "beta*S*I/N - gamma*I"
    assert to_text(net_flow(m, "R")) == "gamma*I - delta*R"


def test_net_flow_spn_uses_mult_times_rate():
    # terms appear in arc declaration order: I->infect, infect->I, I->recover
    m = parse_model(SIRS_SPN)
    assert to_text(net_flow(m, "I")) == "-beta*S*I/N + 2*(beta*S*I/N) - gamma*I"


def test_flows_sum_to_zero_in_conservative_net():
    m = parse_model(SIRS)
    rng = random.Random(11)
    for _ in range(100):
        marking = tuple(rng.uniform(0, 1000) for _ in range(3))
        b = m.bindings_at(marking)
        total = sum(eval_expr(net_flow(m, p), b) for p in m.place_names())
        assert abs(total) < 1e-9 * (1 + sum(marking))


# ------------------------------------------------------------ classification

def test_classification_sirs():
    assert classify_transitions(parse_model(SIRS)) == {
        "infect": "infection", "recover": "transfer", "wane": "transfer"}


def test_classification_source():
    text = """\
model demo kind=vapn
param mu=0.1
place S init=100
place I init=1 infected
trans birth
trans die
arc birth -> S weight="mu*100"
arc I -> die weight="mu*I"
"""
    classes = classify_transitions(parse_model(text))
    assert classes["birth"] == "source"
    assert classes["die"] == "transfer"


def test_classification_override_wins():
    text = SIRS.replace("trans recover", "trans recover class=infection")
    assert classify_transitions(parse_model(text))["recover"] == "infection"


# --------------------------------------------------------------- assumptions

def test_assumptions_satisfied_on_clean_model():
    findings = validate_assumptions(parse_model(SIRS))
    status = {f.code: f.status for f in findings}
    assert status == {"A1": "satisfied", "A2": "satisfied", "A3": "satisfied",
                      "A4": "satisfied", "A5": "skipped"}


def test_assumption_no_infected_is_fatal():
    text = SIRS.replace("place I init=1 infected", "place I init=1")
    findings = validate_assumptions(parse_model(text))
    assert any(f.code == "fatal" and f.status == "violated" for f in findings)


def test_assumption_a4_source_feeding_infected():
    text = """\
model bad kind=vapn
param mu=0.1
place S init=100
place I init=1 infected
trans spont
trans out
arc spont -> I weight="mu"
arc I -> out weight="mu*I"
"""
    findings = validate_assumptions(parse_model(text))
    status = {f.code: f.status for f in findings}
    assert status["A4"] == "violated"


A3_NET = """\
model leak kind=vapn
param b=0.002
param g=0.1
place S init=99
place I init=1 infected
place R init=0
trans infect
trans recover
arc S -> infect weight="b*S*I"
arc infect -> I weight="b*S*I"
arc infect -> R weight="GAIN"
arc I -> recover weight="g*I"
arc recover -> R weight="g*I"
"""


def test_assumption_a3_infection_feeding_a_non_infected_place():
    # the surplus b*S*I is no constant, so its sign is sampled
    findings = validate_assumptions(parse_model(A3_NET.replace("GAIN", "b*S*I")))
    a3, = [f for f in findings if f.code == "A3"]
    assert a3.status == "violated"
    assert a3.detail == "infect adds b*S*I to non-infected places"
    # what it adds to R it also takes from I: the sampled surplus is negative
    text = A3_NET.replace("GAIN", "0.5*b*S*I").replace(
        "arc S -> infect", 'arc I -> infect weight="b*S*I"\narc S -> infect')
    findings = validate_assumptions(parse_model(text))
    assert [f.status for f in findings if f.code == "A3"] == ["satisfied"]
    # 4*S - S*S - 3.5 > 0 only for S in (1.29, 2.71), and < 0 at 0.1, 1
    # and 10: one free place takes more values than those three
    findings = validate_assumptions(parse_model(A3_NET.replace("GAIN", "4*S - S*S - 3.5")))
    assert [f.status for f in findings if f.code == "A3"] == ["violated"]


@pytest.mark.parametrize("k", range(10))
def test_sign_points_are_bounded_and_closed_under_permutations(k):
    values = petri._sign_values(k)
    assert values[0] == 0.1 and 1.0 in values and values[-1] == 10.0
    points = petri._sign_points(k)
    if k <= 6:
        assert points == set(itertools.product(values, repeat=k))
    assert 0 < len(points) <= petri.SIGN_POINTS
    rng = random.Random(k)
    for _ in range(5):
        order = rng.sample(range(k), k)
        assert {tuple(p[i] for i in order) for p in points} == points


def test_finding_as_dict():
    f = validate_assumptions(parse_model(SIRS))[0]
    d = f.as_dict()
    assert set(d) == {"code", "status", "detail"}


def test_load_model_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.pnet"
    path.write_bytes(SIRS.encode() + b"# caf\xe9\n")
    with pytest.raises(ModelError, match="UTF-8"):
        load_model(path)


@pytest.mark.parametrize("value", ["fast", None, [0.3]])
def test_merged_params_names_a_value_that_is_not_a_number(value):
    with pytest.raises(ModelError, match="beta"):
        parse_model(SIRS).merged_params({"beta": value})
