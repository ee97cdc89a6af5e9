"""Petri net representation of compartment models, plus the model text format.

Two net kinds share one structure. A variable-arc-weight net ("vapn") puts a
state-dependent expression on every arc and steps deterministically; a
stochastic net ("spn") puts integer multiplicities on arcs and a rate
expression on every transition and is executed event by event. Places carry
the compartments, transitions carry the flows.

Model text format, line oriented, '#' outside quotes starts a comment:

    model NAME kind=vapn|spn
    param NAME = REAL
    place NAME init=REAL [infected]
    trans NAME [rate="EXPR"] [class=infection|transfer]
    arc SRC -> DST [weight="EXPR"] [mult=INT]

A line starts with its statement word. An attribute value that holds a space
or '#' is quoted, and its quotes must close; no value holds a quote. The word
`infected` is allowed on place lines only. Every number is finite. A vapn net
gives every arc a weight= and no transition a rate=; an spn net gives every
transition a rate=, every arc a mult= of at least 1 and every place a
whole-number init.

Statement order is: model line first, then params, then places, then
transitions and arcs (which may interleave). The symbol N is reserved: inside
any expression it denotes the sum of all place markings.
"""
from __future__ import annotations

import itertools
import math
import re
from typing import NamedTuple

from .errors import NgmpnError
from .expr import (Expr, Constant, Add, Neg, add_, mul_, parse_expr,
                   free_symbols, eval_expr, simplify, to_text, EvalError,
                   ExprSyntaxError)

RESERVED_TOTAL = "N"


class ModelError(NgmpnError):
    """Structural problem in a model definition."""


class Place(NamedTuple):
    name: str
    init: float
    infected: bool = False


class Transition(NamedTuple):
    name: str
    rate: Expr | None = None          # spn only
    kind_override: str | None = None  # "infection" | "transfer", wins if set


class Arc(NamedTuple):
    source: str
    target: str
    weight: Expr | None = None  # vapn
    mult: int | None = None     # spn


_set = object.__setattr__


class PetriModel:
    """An immutable net. Equality is identity, so that a model can key caches
    (codegen.per_model keeps a model's generated code in a
    WeakKeyDictionary)."""

    __slots__ = ("name", "kind", "places", "transitions", "arcs", "params",
                 "_place_idx", "_trans_idx", "__weakref__")

    def __init__(self, name: str, kind: str, places: tuple, transitions: tuple,
                 arcs: tuple, params: dict):
        _set(self, "name", name)
        _set(self, "kind", kind)    # "vapn" | "spn"
        _set(self, "places", places)
        _set(self, "transitions", transitions)
        _set(self, "arcs", arcs)
        _set(self, "params", params)
        _set(self, "_place_idx", {p.name: i for i, p in enumerate(places)})
        _set(self, "_trans_idx", {t.name: i for i, t in enumerate(transitions)})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: PetriModel is immutable")

    def __reduce__(self):   # copy and pickle rebuild a model by its constructor
        return PetriModel, (self.name, self.kind, self.places, self.transitions,
                            self.arcs, self.params)

    # ---- lookups

    def place_names(self):
        return tuple(p.name for p in self.places)

    def place_index(self, name: str) -> int:
        try:
            return self._place_idx[name]
        except KeyError:
            raise ModelError(f"unknown place: {name}") from None

    def is_place(self, name: str) -> bool:
        return name in self._place_idx

    def transition(self, name: str):
        try:
            return self.transitions[self._trans_idx[name]]
        except KeyError:
            raise ModelError(f"unknown transition: {name}") from None

    def infected_places(self):
        return tuple(p.name for p in self.places if p.infected)

    def initial_marking(self):
        return tuple(p.init for p in self.places)

    def inputs_of(self, trans: str):
        return tuple(a for a in self.arcs if a.target == trans)

    def outputs_of(self, trans: str):
        return tuple(a for a in self.arcs if a.source == trans)

    def merged_params(self, params=None, error=ModelError) -> dict:
        """The model's parameters overridden by `params`, as floats.

        An unknown name, a place name, or a value that is not a finite
        number raises `error` naming the parameter.
        """
        merged = dict(self.params)
        for k, v in (params or {}).items():
            if k not in merged:
                if k in self._place_idx:
                    raise error(f"{k!r} is a place, not a parameter")
                raise error(f"unknown parameter: {k}")
            try:
                merged[k] = float(v)
            except (TypeError, ValueError):
                raise error(f"parameter {k} is not a number: {v!r}") from None
        for k, v in merged.items():
            if not math.isfinite(v):
                raise error(f"parameter {k} is not finite: {v}")
        return merged

    def bindings_at(self, marking, params=None) -> dict:
        """Symbol bindings at a marking: places, the model's params overridden
        by `params` (as merged_params merges them) and the reserved N."""
        b = self.merged_params(params)
        for p, v in zip(self.places, marking):
            b[p.name] = v
        b[RESERVED_TOTAL] = sum(marking)
        return b


# ------------------------------------------------------------ text format

# One token of a line: a NAME=VALUE attribute, its value quoted or bare up to
# a space, a quote or '#'; a bare word, with '->' always a word of its own;
# the comment that ends the line; or a stray character.
_TOKEN_RE = re.compile(r'''\s*(?:
    ([A-Za-z_]\w*)\s*=\s*(?:"([^"]*)("?)|([^\s"#]+))
  | (->|[^\s"#=>-]+)
  | \#.*
  | (\S))''', re.X)

# statement: (the section it opens, its bare words, {attribute: the kinds
# that need it}). Sections come in order, so every param and place is known
# by the first transition or arc. In the bare words NAME is a name and [WORD]
# is optional. An attribute some kind needs is refused by the other kind; one
# no kind needs is optional. A param line takes one NAME=REAL instead.
_GRAMMAR = {
    "model": (0, "NAME", {"kind": ()}),
    "param": (1, "", None),
    "place": (2, "NAME [infected]", {"init": ("vapn", "spn")}),
    "trans": (3, "NAME", {"rate": ("spn",), "class": ()}),
    "arc": (3, "NAME -> NAME", {"weight": ("vapn",), "mult": ("spn",)}),
}
_WORDS = {head: re.compile(re.sub(r" \[(\w+)\]", r"( \1)?", form)
                           .replace("NAME", r"([A-Za-z_][A-Za-z0-9_]*)"))
          for head, (_, form, _) in _GRAMMAR.items()}
_SECTIONS = ("the model line", "params", "places", "transitions and arcs")


def _tokens(line: str, lineno: int):
    """The bare words and the attributes of one line, the statement first."""
    words, attrs = [], {}
    for key, quoted, close, bare, word, stray in _TOKEN_RE.findall(line):
        if word:
            words.append(word)
        elif key:
            if not words:
                raise ModelError(f"line {lineno}: expected a statement, got {key}=")
            if not (bare or close):
                raise ModelError(f"line {lineno}: unterminated quote in {key}=")
            if key in attrs:
                raise ModelError(f"line {lineno}: duplicate attribute {key!r}")
            attrs[key] = bare or quoted
        elif stray:
            raise ModelError(f"line {lineno}: unexpected {stray!r}")
    return words, attrs


def _fresh(name: str, taken, lineno: int) -> str:
    if name in taken:
        why = "is reserved" if name == RESERVED_TOTAL else "already in use"
        raise ModelError(f"line {lineno}: name {name!r} {why}")
    return name


def _number(text: str, what: str, lineno: int, whole=False, least=-math.inf) -> float:
    """`text` as a finite float; a whole number if `whole`; at least `least`."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ModelError(f"line {lineno}: {what} is not a finite number: {text!r}")
    if whole and value != int(value):
        raise ModelError(f"line {lineno}: {what} must be a whole number")
    if value < least:
        raise ModelError(f"line {lineno}: {what} must be at least {least:g}")
    return value


def _expr(text: str, what: str, symbols, lineno: int) -> Expr:
    try:
        e = parse_expr(text)
    except ExprSyntaxError as ex:
        raise ModelError(f"line {lineno}: {what}: {ex}") from None
    loose = free_symbols(e) - symbols
    if loose:
        raise ModelError(f"line {lineno}: {what} uses unknown symbol {sorted(loose)[0]!r}")
    return e


def parse_model(text: str) -> PetriModel:
    """Parse model text into a validated PetriModel.

    Every check runs at the line it concerns and raises ModelError naming
    that line. Only an arc endpoint that is not a place waits for the end of
    the text, where it must be a transition, as transitions and arcs may
    interleave.
    """
    name = kind = None
    params: dict = {}
    places: dict = {}
    transitions: dict = {}
    arcs: list = []
    symbols = {RESERVED_TOTAL}      # names an expression may use
    endpoints = []                  # (lineno, name) that must be a transition
    section = -1

    for lineno, line in enumerate(text.splitlines(), start=1):
        words, attrs = _tokens(line, lineno)
        if not words:
            continue
        head = words[0]
        if head not in _GRAMMAR:
            raise ModelError(f"line {lineno}: unknown statement {head!r}")
        opens, form, allowed = _GRAMMAR[head]
        if head == "model" and section >= 0:
            raise ModelError(f"line {lineno}: duplicate model line")
        if section < 0 and head != "model":
            raise ModelError(f"line {lineno}: expected the model line first")
        if opens < section:
            raise ModelError(f"line {lineno}: {_SECTIONS[opens]} must precede "
                             f"{_SECTIONS[section]}")
        if opens == 3 and section < 2:
            raise ModelError(f"line {lineno}: {_SECTIONS[opens]} must follow places")
        section = opens
        rest = " ".join(words[1:])
        got = _WORDS[head].fullmatch(rest)
        if not got:
            raise ModelError(f"line {lineno}: {head} takes the words {form!r}, got {rest!r}"
                             if form else f"line {lineno}: {head} takes no words, got {rest!r}")
        for key, kinds in (allowed or {}).items():
            if key in attrs and kinds and kind not in kinds:
                raise ModelError(f"line {lineno}: {key}= is for {kinds[0]} models only")
            if key not in attrs and kind in kinds:
                raise ModelError(f"line {lineno}: {kind} {head} lines need {key}=")
        unknown = [key for key in attrs if allowed is not None and key not in allowed]
        if unknown:
            raise ModelError(f"line {lineno}: unknown attribute {unknown[0]!r}")

        if head == "model":
            name, kind = got[1], attrs.get("kind")
            if kind not in ("vapn", "spn"):
                raise ModelError(f"line {lineno}: kind must be vapn or spn")
        elif head == "param":
            if len(attrs) != 1:
                raise ModelError(f"line {lineno}: expected 'param NAME = REAL'")
            (pname, value), = attrs.items()
            symbols.add(_fresh(pname, symbols, lineno))
            params[pname] = _number(value, f"param {pname}", lineno)
        elif head == "place":
            pname = _fresh(got[1], symbols, lineno)
            init = _number(attrs["init"], f"init of place {pname!r}", lineno,
                           whole=kind == "spn", least=0)
            symbols.add(pname)
            places[pname] = Place(pname, init, got[2] is not None)
        elif head == "trans":
            tname = _fresh(got[1], places.keys() | transitions.keys(), lineno)
            rate = (_expr(attrs["rate"], f"rate of {tname!r}", symbols, lineno)
                    if "rate" in attrs else None)
            override = attrs.get("class")
            if override not in (None, "infection", "transfer"):
                raise ModelError(f"line {lineno}: class must be infection or transfer")
            transitions[tname] = Transition(tname, rate, override)
        else:
            src, dst = got.groups()
            if (src in places) == (dst in places):
                raise ModelError(f"line {lineno}: arc must join a place and a "
                                 f"transition, got {src!r} -> {dst!r}")
            endpoints.append((lineno, dst if src in places else src))
            weight = (_expr(attrs["weight"], "weight", symbols, lineno)
                      if "weight" in attrs else None)
            mult = (int(_number(attrs["mult"], "mult", lineno, whole=True, least=1))
                    if "mult" in attrs else None)
            arcs.append(Arc(src, dst, weight, mult))

    if name is None:
        raise ModelError("missing model line")
    if not places:
        raise ModelError("model has no places")
    for lineno, end in endpoints:
        if end not in transitions:
            raise ModelError(f"line {lineno}: arc endpoint {end!r} is not declared")
    return PetriModel(name, kind, tuple(places.values()), tuple(transitions.values()),
                      tuple(arcs), params)


def load_model(path) -> PetriModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ModelError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_model(text)


# --------------------------------------------------------------- net flow

def _arc_term(m: PetriModel, arc: Arc) -> Expr:
    """Unsigned flow expression carried by one arc."""
    if m.kind == "vapn":
        return arc.weight
    trans = arc.source if arc.target in m._place_idx else arc.target
    rate = m.transition(trans).rate
    if arc.mult == 1:
        return rate
    return mul_((Constant(float(arc.mult)), rate))


def net_flow(m: PetriModel, place: str) -> Expr:
    """Signed net flow expression for a place, terms in arc declaration order.

    Inflow arcs (transition -> place) contribute positively, outflow arcs
    negatively; the result is unsimplified.
    """
    m.place_index(place)
    terms = []
    for arc in m.arcs:
        if arc.target == place:
            terms.append(_arc_term(m, arc))
        elif arc.source == place:
            terms.append(Neg(_arc_term(m, arc)))
    return add_(terms)


# ----------------------------------------------------- flow classification

def classify_transitions(m: PetriModel) -> dict:
    """Transition name -> infection | transfer | source.

    A transition with no input arc is a source. Otherwise a class= override
    wins; without one, a transition that takes from a non-infected place and
    feeds an infected place is an infection, and any other is a transfer.
    """
    infected = set(m.infected_places())
    classes = {}
    for t in m.transitions:
        inputs = m.inputs_of(t.name)
        if not inputs:
            classes[t.name] = "source"
        elif t.kind_override is not None:
            classes[t.name] = t.kind_override
        elif (any(a.source not in infected for a in inputs)
              and any(a.target in infected for a in m.outputs_of(t.name))):
            classes[t.name] = "infection"
        else:
            classes[t.name] = "transfer"
    return classes


# ----------------------------------------------------- structural checks

class Finding(NamedTuple):
    code: str      # A1..A5 or "fatal"
    status: str    # satisfied | violated | skipped
    detail: str

    def as_dict(self):
        return {"code": self.code, "status": self.status, "detail": self.detail}


# the range of the values _sampled_sign gives each free place, and the most
# points it evaluates an expression at
SIGN_RANGE = (0.1, 10.0)
SIGN_POINTS = 729


def _sign_values(k: int) -> tuple:
    """n values log-spaced over SIGN_RANGE, for k free places: n the most
    with n**k within SIGN_POINTS (729 for one place, 27 for two, 9 for
    three), but never fewer than 3, so 1.0 is among them."""
    n = 3
    while k and (n + 1) ** k <= SIGN_POINTS:
        n += 1
    lo, hi = (math.log10(v) for v in SIGN_RANGE)
    return tuple(10.0 ** (lo + (hi - lo) * i / (n - 1)) for i in range(n))


def _sign_points(k: int) -> set:
    """Points of _sign_values(k)**k, for k free places: the full factorial
    where it fits within SIGN_POINTS, as it does up to six places.
    Otherwise those equal to a constant point but in at most r coordinates,
    for the largest r that keeps them within SIGN_POINTS. Every permutation
    of the coordinates maps the set onto itself, so no order of the places
    decides what it holds."""
    values = _sign_values(k)
    if len(values) ** k <= SIGN_POINTS:
        return set(itertools.product(values, repeat=k))
    points: set = set()
    for r in range(k + 1):
        grown = set(points)
        for base, changed in itertools.product(values,
                                               itertools.combinations(range(k), r)):
            for v in itertools.product(values, repeat=r):
                point = [base] * k
                for i, x in zip(changed, v):
                    point[i] = x
                grown.add(tuple(point))
                if len(grown) > SIGN_POINTS:
                    return points
        points = grown
    return points


def _sampled_sign(m: PetriModel, e: Expr) -> float:
    """Largest value of e over the points of _sign_points given to its free
    places (params fixed, N their total with 1.0 for every other place).
    Neither the names nor the declaration order of the places change it."""
    places = [n for n in free_symbols(e) if n not in m.params and n != RESERVED_TOTAL]
    others = len(m.places) - len(places)
    worst = -math.inf
    for point in _sign_points(len(places)):
        b = dict(m.params)
        b.update(zip(places, point))
        b[RESERVED_TOTAL] = math.fsum(point) + others
        try:
            worst = max(worst, eval_expr(e, b))
        except (EvalError, ArithmeticError):
            continue
    return worst


def validate_assumptions(m: PetriModel) -> list:
    """Check the structural assumptions behind the threshold computation.

    A1 and A2 hold by construction of the net types. A3 checks that
    infection transitions do not create tokens in non-infected places beyond
    what they consume from infected ones; A4 checks that source transitions
    do not feed infected places. A5 (stability of the transfer part) needs
    bound parameters and is checked numerically by the threshold computation;
    here it is reported as skipped.
    """
    findings = []
    infected = set(m.infected_places())
    if not infected:
        findings.append(Finding(
            "fatal", "violated",
            "no place is marked infected; threshold analysis is undefined"))

    classification = classify_transitions(m)

    findings.append(Finding(
        "A1", "satisfied",
        "arc weights and multiplicities are fixed by the net structure"))
    findings.append(Finding(
        "A2", "satisfied",
        "markings stay non-negative: vapn steps clip at zero, spn transitions "
        "fire only when enabled"))

    a3_bad = []
    for t in m.transitions:
        if classification[t.name] != "infection":
            continue
        gains = [_arc_term(m, a) for a in m.outputs_of(t.name) if a.target not in infected]
        takes = [_arc_term(m, a) for a in m.inputs_of(t.name) if a.source in infected]
        if not gains:
            continue
        surplus = simplify(Add((add_(gains), Neg(add_(takes)))) if takes else add_(gains))
        if isinstance(surplus, Constant) and surplus.value <= 0.0:
            continue
        if _sampled_sign(m, surplus) > 1e-9:
            a3_bad.append(f"{t.name} adds {to_text(surplus)} to non-infected places")
    findings.append(Finding(
        "A3", "violated" if a3_bad else "satisfied",
        "; ".join(a3_bad) if a3_bad else
        "infection transitions move tokens into infected places only"))

    a4_bad = []
    for t in m.transitions:
        if classification[t.name] != "source":
            continue
        for a in m.outputs_of(t.name):
            if a.target in infected:
                a4_bad.append(f"{t.name} feeds infected place {a.target}")
    findings.append(Finding(
        "A4", "violated" if a4_bad else "satisfied",
        "; ".join(a4_bad) if a4_bad else
        "source transitions feed non-infected places only"))

    findings.append(Finding(
        "A5", "skipped",
        "transfer stability depends on parameter values; the threshold "
        "computation checks eigenvalues of the transfer matrix numerically"))
    return findings
