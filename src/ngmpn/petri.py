"""Petri net representation of compartment models, plus the model text format.

Two net kinds share one structure. A variable-arc-weight net ("vapn") puts a
state-dependent expression on every arc and steps deterministically; a
stochastic net ("spn") puts integer multiplicities on arcs and a rate
expression on every transition and is executed event by event. Places carry
the compartments, transitions carry the flows.

Model text format, line oriented, '#' starts a comment:

    model NAME kind=vapn|spn
    param NAME = REAL
    place NAME init=REAL [infected]
    trans NAME [rate="EXPR"] [class=infection|transfer]
    arc SRC -> DST [weight="EXPR"] [mult=INT]

Statement order is: model line first, then params, then places, then
transitions and arcs (which may interleave). The symbol N is reserved: inside
any expression it denotes the sum of all place markings.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import NgmpnError
from .expr import (Expr, Constant, Add, Neg, add_, mul_, parse_expr,
                   free_symbols, eval_expr, simplify, to_text, EvalError,
                   ExprSyntaxError)

RESERVED_TOTAL = "N"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class ModelError(NgmpnError):
    """Structural problem in a model definition."""


@dataclass(frozen=True)
class Place:
    name: str
    init: float
    infected: bool = False


@dataclass(frozen=True)
class Transition:
    name: str
    rate: Expr | None = None          # spn only
    kind_override: str | None = None  # "infection" | "transfer", wins if set


@dataclass(frozen=True)
class Arc:
    source: str
    target: str
    weight: Expr | None = None  # vapn
    mult: int | None = None     # spn


@dataclass(frozen=True, eq=False)  # identity equality so models can key caches
class PetriModel:
    name: str
    kind: str  # "vapn" | "spn"
    places: tuple
    transitions: tuple
    arcs: tuple
    params: dict

    def __post_init__(self):
        object.__setattr__(self, "_place_idx",
                           {p.name: i for i, p in enumerate(self.places)})
        object.__setattr__(self, "_trans_idx",
                           {t.name: i for i, t in enumerate(self.transitions)})

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
        """Symbol bindings at a marking: places, params and the reserved N."""
        b = dict(self.params if params is None else params)
        for p, v in zip(self.places, marking):
            b[p.name] = v
        b[RESERVED_TOTAL] = sum(marking)
        return b


# ------------------------------------------------------------ text format

def _strip_comment(line: str) -> str:
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out).strip()


_KV_RE = re.compile(r'(\w+)\s*=\s*("(?:[^"]*)"|\S+)')


def _parse_kv(text: str, lineno: int) -> dict:
    out = {}
    rest = text
    for m in _KV_RE.finditer(text):
        key, val = m.group(1), m.group(2)
        if val.startswith('"'):
            val = val[1:-1]
        if key in out:
            raise ModelError(f"line {lineno}: duplicate attribute {key!r}")
        out[key] = val
        rest = rest.replace(m.group(0), "", 1)
    if rest.split() not in ([], ["infected"]):
        leftovers = [w for w in rest.split() if w != "infected"]
        raise ModelError(f"line {lineno}: unexpected token {leftovers[0]!r}")
    return out


def _check_name(name: str, what: str, lineno: int) -> str:
    if not _NAME_RE.match(name):
        raise ModelError(f"line {lineno}: invalid {what} name {name!r}")
    return name


def parse_model(text: str) -> PetriModel:
    """Parse model text into a validated PetriModel.

    Raises ModelError with a line number for structural problems and keeps
    expression syntax errors tied to their line.
    """
    name = None
    kind = None
    params: dict = {}
    places: list = []
    transitions: list = []
    arcs: list = []
    arc_lines: list = []
    section = 0  # 0 expect model, 1 params, 2 places, 3 trans/arcs

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()

        if head == "model":
            if section != 0:
                raise ModelError(f"line {lineno}: duplicate model line")
            words = rest.split()
            if not words:
                raise ModelError(f"line {lineno}: model needs a name")
            name = _check_name(words[0], "model", lineno)
            kv = _parse_kv(" ".join(words[1:]), lineno)
            kind = kv.pop("kind", None)
            if kind not in ("vapn", "spn"):
                raise ModelError(f"line {lineno}: kind must be vapn or spn")
            if kv:
                raise ModelError(f"line {lineno}: unknown attribute {next(iter(kv))!r}")
            section = 1
            continue
        if section == 0:
            raise ModelError(f"line {lineno}: expected the model line first")

        if head == "param":
            if section > 1:
                raise ModelError(f"line {lineno}: params must precede places")
            m = re.match(r"([A-Za-z_]\w*)\s*=\s*(\S+)$", rest)
            if not m:
                raise ModelError(f"line {lineno}: expected 'param NAME = REAL'")
            pname = m.group(1)
            if pname == RESERVED_TOTAL:
                raise ModelError(f"line {lineno}: {RESERVED_TOTAL} is reserved")
            if pname in params:
                raise ModelError(f"line {lineno}: duplicate param {pname!r}")
            try:
                params[pname] = float(m.group(2))
            except ValueError:
                raise ModelError(f"line {lineno}: bad value for param {pname!r}") from None
            continue

        if head == "place":
            if section > 2:
                raise ModelError(f"line {lineno}: places must precede transitions and arcs")
            section = 2
            words = rest.split()
            if not words:
                raise ModelError(f"line {lineno}: place needs a name")
            pname = _check_name(words[0], "place", lineno)
            if pname == RESERVED_TOTAL:
                raise ModelError(f"line {lineno}: {RESERVED_TOTAL} is reserved")
            if pname in params or any(p.name == pname for p in places):
                raise ModelError(f"line {lineno}: name {pname!r} already in use")
            attrs = " ".join(words[1:])
            infected = False
            if re.search(r"\binfected\b", attrs):
                infected = True
                attrs = re.sub(r"\binfected\b", "", attrs)
            kv = _parse_kv(attrs, lineno)
            if "init" not in kv:
                raise ModelError(f"line {lineno}: place {pname!r} needs init=")
            try:
                init = float(kv.pop("init"))
            except ValueError:
                raise ModelError(f"line {lineno}: bad init for place {pname!r}") from None
            if kv:
                raise ModelError(f"line {lineno}: unknown attribute {next(iter(kv))!r}")
            if init < 0:
                raise ModelError(f"line {lineno}: place {pname!r} has negative init")
            places.append(Place(pname, init, infected))
            continue

        if head == "trans":
            if section < 2:
                raise ModelError(f"line {lineno}: transitions must follow places")
            section = 3
            words = rest.split(None, 1)
            if not words:
                raise ModelError(f"line {lineno}: trans needs a name")
            tname = _check_name(words[0], "transition", lineno)
            if any(t.name == tname for t in transitions) or any(p.name == tname for p in places):
                raise ModelError(f"line {lineno}: name {tname!r} already in use")
            kv = _parse_kv(words[1] if len(words) > 1 else "", lineno)
            rate = None
            if "rate" in kv:
                try:
                    rate = parse_expr(kv.pop("rate"))
                except ExprSyntaxError as ex:
                    raise ModelError(f"line {lineno}: rate of {tname!r}: {ex}") from None
            override = kv.pop("class", None)
            if override is not None and override not in ("infection", "transfer"):
                raise ModelError(f"line {lineno}: class must be infection or transfer")
            if kv:
                raise ModelError(f"line {lineno}: unknown attribute {next(iter(kv))!r}")
            transitions.append(Transition(tname, rate, override))
            continue

        if head == "arc":
            if section < 2:
                raise ModelError(f"line {lineno}: arcs must follow places")
            section = 3
            m = re.match(r"([A-Za-z_]\w*)\s*->\s*([A-Za-z_]\w*)\s*(.*)$", rest)
            if not m:
                raise ModelError(f"line {lineno}: expected 'arc SRC -> DST'")
            src, dst, attrs = m.group(1), m.group(2), m.group(3)
            kv = _parse_kv(attrs, lineno)
            weight = None
            mult = None
            if "weight" in kv:
                try:
                    weight = parse_expr(kv.pop("weight"))
                except ExprSyntaxError as ex:
                    raise ModelError(f"line {lineno}: weight: {ex}") from None
            if "mult" in kv:
                try:
                    mult = int(kv.pop("mult"))
                except ValueError:
                    raise ModelError(f"line {lineno}: mult must be an integer") from None
                if mult < 1:
                    raise ModelError(f"line {lineno}: mult must be >= 1")
            if kv:
                raise ModelError(f"line {lineno}: unknown attribute {next(iter(kv))!r}")
            arcs.append(Arc(src, dst, weight, mult))
            arc_lines.append(lineno)
            continue

        raise ModelError(f"line {lineno}: unknown statement {head!r}")

    if name is None:
        raise ModelError("missing model line")
    if not places:
        raise ModelError("model has no places")

    model = PetriModel(name, kind, tuple(places), tuple(transitions), tuple(arcs), params)
    _validate_structure(model, arc_lines)
    return model


def _validate_structure(m: PetriModel, arc_lines):
    place_names = set(m.place_names())
    trans_names = {t.name for t in m.transitions}
    symbols = place_names | set(m.params) | {RESERVED_TOTAL}

    for a, lineno in zip(m.arcs, arc_lines):
        src_is_place = a.source in place_names
        dst_is_place = a.target in place_names
        if a.source not in place_names | trans_names:
            raise ModelError(f"line {lineno}: arc endpoint {a.source!r} is not declared")
        if a.target not in place_names | trans_names:
            raise ModelError(f"line {lineno}: arc endpoint {a.target!r} is not declared")
        if src_is_place == dst_is_place:
            raise ModelError(
                f"line {lineno}: arc must join a place and a transition, got "
                f"{a.source!r} -> {a.target!r}")
        if m.kind == "vapn":
            if a.weight is None:
                raise ModelError(f"line {lineno}: vapn arcs need weight=")
            if a.mult is not None:
                raise ModelError(f"line {lineno}: mult is an spn attribute")
            loose = free_symbols(a.weight) - symbols
            if loose:
                raise ModelError(
                    f"line {lineno}: weight uses unknown symbol {sorted(loose)[0]!r}")
        else:
            if a.mult is None:
                raise ModelError(f"line {lineno}: spn arcs need mult=")
            if a.weight is not None:
                raise ModelError(f"line {lineno}: weight is a vapn attribute")

    for t in m.transitions:
        if m.kind == "spn":
            if t.rate is None:
                raise ModelError(f"transition {t.name!r} needs rate= in an spn model")
            loose = free_symbols(t.rate) - symbols
            if loose:
                raise ModelError(
                    f"transition {t.name!r} rate uses unknown symbol {sorted(loose)[0]!r}")
        elif t.rate is not None:
            raise ModelError(f"transition {t.name!r}: rate is an spn attribute")

    if m.kind == "spn":
        for p in m.places:
            if p.init != int(p.init):
                raise ModelError(f"place {p.name!r}: spn markings are integer token counts")


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

@dataclass(frozen=True)
class Finding:
    code: str      # A1..A5 or "fatal"
    status: str    # satisfied | violated | skipped
    detail: str

    def as_dict(self):
        return {"code": self.code, "status": self.status, "detail": self.detail}


# how many random positive bindings _sampled_sign tries
SIGN_DRAWS = 50


def _sampled_sign(m: PetriModel, e: Expr) -> float:
    """Largest value of e over random positive bindings (params fixed)."""
    import random as _random
    rng = _random.Random(20260814)
    names = sorted(free_symbols(e))
    worst = -float("inf")
    for _ in range(SIGN_DRAWS):
        b = dict(m.params)
        for n in names:
            if n not in b:
                b[n] = rng.uniform(0.1, 10.0)
        b[RESERVED_TOTAL] = sum(b.get(p.name, 1.0) for p in m.places)
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
