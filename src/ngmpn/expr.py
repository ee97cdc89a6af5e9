"""Symbolic arithmetic expressions for arc weights and rate laws.

Expression trees are immutable and hashable; every operation here is a pure
function. The function set is deliberately small (rational arithmetic plus
real powers): that is all the bundled epidemic models need, and it keeps
differentiation and simplification fully testable. The name ``N`` is reserved
by the model layer, where it means the sum of all place markings; this module
treats it like any other symbol.

There is one node for sums: subtraction is an ``Add`` whose subtracted term
is a ``Neg``, so ``a - b - c`` parses to ``Add((a, Neg(b), Neg(c)))``.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import NgmpnError


class ExprError(NgmpnError):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class EvalError(ExprError):
    pass


class UnboundSymbolError(EvalError):
    def __init__(self, name: str):
        super().__init__(f"unbound symbol: {name}")
        self.name = name


class Expr:
    """Base class for expression nodes."""

    __match_args__ = ()

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True, repr=False)
class Constant(Expr):
    value: float

    def __repr__(self):
        return f"Constant({self.value!r})"


@dataclass(frozen=True, repr=False)
class Symbol(Expr):
    name: str

    def __repr__(self):
        return f"Symbol({self.name!r})"


@dataclass(frozen=True, repr=False)
class Add(Expr):
    terms: tuple

    def __repr__(self):
        return "Add(" + ", ".join(map(repr, self.terms)) + ")"


@dataclass(frozen=True, repr=False)
class Mul(Expr):
    factors: tuple

    def __repr__(self):
        return "Mul(" + ", ".join(map(repr, self.factors)) + ")"


@dataclass(frozen=True, repr=False)
class Div(Expr):
    num: Expr
    den: Expr

    def __repr__(self):
        return f"Div({self.num!r}, {self.den!r})"


@dataclass(frozen=True, repr=False)
class Pow(Expr):
    base: Expr
    exponent: float  # numeric only; general symbolic exponents are not needed

    def __repr__(self):
        return f"Pow({self.base!r}, {self.exponent!r})"


@dataclass(frozen=True, repr=False)
class Neg(Expr):
    arg: Expr

    def __repr__(self):
        return f"Neg({self.arg!r})"


def add_(terms) -> Expr:
    """Add with flattening; empty -> 0, singleton -> the term itself."""
    flat = []
    for t in terms:
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if not flat:
        return Constant(0.0)
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul_(factors) -> Expr:
    flat = []
    for f in factors:
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if not flat:
        return Constant(1.0)
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


# ---------------------------------------------------------------- parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip trailing whitespace before declaring an error
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*,
    term := unary (('*'|'/') unary)*, unary := '-' unary | power,
    power := atom ('^' unary)?, atom := number | symbol | '(' expr ')'.
    '^' is right-associative and its exponent must reduce to a number.
    Numbers and exponents must be finite. A sum is one Add of its terms, a
    term after '-' wrapped in a Neg."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        self.i += 1

    def parse(self) -> Expr:
        if not self.tokens:
            raise ExprSyntaxError("empty expression", 0)
        e = self.expr()
        kind, val, off = self.peek()
        if kind is not None:
            raise ExprSyntaxError(f"unexpected {val!r}", off)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in ("+", "-"):
                return e
            self.i += 1
            rhs = self.term() if val == "+" else Neg(self.term())
            e = Add(e.terms + (rhs,)) if isinstance(e, Add) else Add((e, rhs))

    def term(self) -> Expr:
        # a leading '-' negates the whole product, so "-b*S*I" round-trips
        kind, val, _ = self.peek()
        negate = kind == "op" and val == "-"
        if negate:
            self.i += 1
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.i += 1
                rhs = self.unary()
                e = Mul(e.factors + (rhs,)) if isinstance(e, Mul) else Mul((e, rhs))
            elif kind == "op" and val == "/":
                self.i += 1
                e = Div(e, self.unary())
            else:
                break
        if negate:
            if isinstance(e, Constant):
                return Constant(-e.value)
            return Neg(e)
        return e

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.i += 1
            inner = self.unary()
            if isinstance(inner, Constant):
                return Constant(-inner.value)
            return Neg(inner)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.i += 1
            exp_tree = self.unary()
            names = free_symbols(exp_tree)
            if names:
                raise ExprSyntaxError(
                    f"exponent must be numeric, contains symbol {sorted(names)[0]!r}", off)
            exponent = eval_expr(exp_tree, {})
            if not math.isfinite(exponent):
                raise ExprSyntaxError(f"exponent is not finite: {exponent!r}", off)
            return Pow(base, exponent)
        return base

    def atom(self) -> Expr:
        kind, val, off = self.take()
        if kind == "num":
            value = float(val)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {val!r} is not finite", off)
            return Constant(value)
        if kind == "name":
            return Symbol(val)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            # re-flatten so that parenthesised sums merge into sibling sums
            return e
        raise ExprSyntaxError("expected a number, symbol or '('", off)


def parse_expr(text: str) -> Expr:
    """Parse text into an expression tree. Raises ExprSyntaxError with a byte
    offset on malformed input."""
    if not text.isascii():
        bad = next(i for i, c in enumerate(text) if not c.isascii())
        raise ExprSyntaxError("non-ASCII input", bad)
    return _Parser(text).parse()


# ---------------------------------------------------------------- printing

def _prec(e: Expr) -> float:
    if isinstance(e, Add):
        return 1.0
    if isinstance(e, Neg):
        return 1.5
    if isinstance(e, (Mul, Div)):
        return 2.0
    if isinstance(e, Pow):
        return 3.0
    if isinstance(e, Constant) and e.value < 0:
        return 1.5  # prints with a leading '-', so binds like a negation
    return 4.0


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _wrap(e: Expr, needs: bool) -> str:
    s = to_text(e)
    return f"({s})" if needs else s


def to_text(e: Expr) -> str:
    """Printed form with explicit operators; reparses to an equal value and is
    a fixpoint of print-parse-print."""
    if isinstance(e, Constant):
        return _fmt_number(e.value)
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _prec(e.arg) < 1.5)
    if isinstance(e, Add):
        parts = [_wrap(e.terms[0], _prec(e.terms[0]) < 1.0)]
        for t in e.terms[1:]:
            if isinstance(t, Neg):
                parts.append("- " + _wrap(t.arg, _prec(t.arg) <= 1.0))
            elif isinstance(t, Constant) and t.value < 0:
                parts.append("- " + _fmt_number(-t.value))
            else:
                parts.append("+ " + _wrap(t, _prec(t) < 1.0))
        return " ".join(parts)
    if isinstance(e, Mul):
        return "*".join(_wrap(f, _prec(f) < 2.0) for f in e.factors)
    if isinstance(e, Div):
        return (_wrap(e.num, _prec(e.num) < 2.0) + "/"
                + _wrap(e.den, _prec(e.den) <= 2.0))
    if isinstance(e, Pow):
        return _wrap(e.base, _prec(e.base) <= 3.0) + "^" + _fmt_number(e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------- evaluation

def eval_expr(e: Expr, bindings: dict) -> float:
    """Evaluate with all free symbols bound. Unbound symbols, division by
    zero, and invalid powers raise EvalError subclasses."""
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Symbol):
        try:
            return float(bindings[e.name])
        except KeyError:
            raise UnboundSymbolError(e.name) from None
    if isinstance(e, Add):
        acc = 0.0
        for t in e.terms:
            acc += eval_expr(t, bindings)
        return acc
    if isinstance(e, Neg):
        return -eval_expr(e.arg, bindings)
    if isinstance(e, Mul):
        acc = 1.0
        for f in e.factors:
            acc *= eval_expr(f, bindings)
        return acc
    if isinstance(e, Div):
        den = eval_expr(e.den, bindings)
        if den == 0.0:
            raise EvalError("division by zero")
        return eval_expr(e.num, bindings) / den
    if isinstance(e, Pow):
        base = eval_expr(e.base, bindings)
        c = e.exponent
        if base == 0.0 and c < 0:
            raise EvalError("zero raised to a negative power")
        if base < 0.0 and c != int(c):
            raise EvalError("negative base with fractional exponent")
        try:
            return base ** c
        except OverflowError:
            raise EvalError(f"power {base:g}^{_fmt_number(c)} overflows") from None
    raise TypeError(f"not an expression node: {e!r}")


def free_symbols(e: Expr) -> set:
    if isinstance(e, Symbol):
        return {e.name}
    if isinstance(e, (Constant,)):
        return set()
    if isinstance(e, Add):
        out = set()
        for t in e.terms:
            out |= free_symbols(t)
        return out
    if isinstance(e, Mul):
        out = set()
        for f in e.factors:
            out |= free_symbols(f)
        return out
    if isinstance(e, Div):
        return free_symbols(e.num) | free_symbols(e.den)
    if isinstance(e, Neg):
        return free_symbols(e.arg)
    if isinstance(e, Pow):
        return free_symbols(e.base)
    raise TypeError(f"not an expression node: {e!r}")


def substitute(e: Expr, mapping: dict) -> Expr:
    """Replace symbols by expressions (no simplification)."""
    if isinstance(e, Symbol):
        return mapping.get(e.name, e)
    if isinstance(e, Constant):
        return e
    if isinstance(e, Add):
        return Add(tuple(substitute(t, mapping) for t in e.terms))
    if isinstance(e, Mul):
        return Mul(tuple(substitute(f, mapping) for f in e.factors))
    if isinstance(e, Div):
        return Div(substitute(e.num, mapping), substitute(e.den, mapping))
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, mapping))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, mapping), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------- calculus

def diff(e: Expr, wrt: str) -> Expr:
    """Exact partial derivative with respect to a symbol name, simplified."""
    return simplify(_d(e, wrt))


def _d(e: Expr, x: str) -> Expr:
    if isinstance(e, Constant):
        return Constant(0.0)
    if isinstance(e, Symbol):
        return Constant(1.0 if e.name == x else 0.0)
    if isinstance(e, Add):
        return Add(tuple(_d(t, x) for t in e.terms))
    if isinstance(e, Neg):
        return Neg(_d(e.arg, x))
    if isinstance(e, Mul):
        terms = []
        fs = e.factors
        for i in range(len(fs)):
            terms.append(mul_(fs[:i] + (_d(fs[i], x),) + fs[i + 1:]))
        return add_(terms)
    if isinstance(e, Div):
        u, v = e.num, e.den
        return Div(Add((mul_((_d(u, x), v)), Neg(mul_((u, _d(v, x)))))), Pow(v, 2.0))
    if isinstance(e, Pow):
        c = e.exponent
        return mul_((Constant(c), Pow(e.base, c - 1.0), _d(e.base, x)))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------- simplify

def _as_term(sign: float, e: Expr):
    # split a product into (numeric coefficient, non-constant factors)
    if isinstance(e, Constant):
        return sign * e.value, ()
    if isinstance(e, Neg):
        return _as_term(-sign, e.arg)
    if isinstance(e, Mul):
        coeff = sign
        factors = []
        for f in e.factors:
            if isinstance(f, Constant):
                coeff *= f.value
            else:
                factors.append(f)
        return coeff, tuple(factors)
    if isinstance(e, Div):
        # pull the numeric coefficient out of the numerator so 2*x/y and
        # x/y merge as like terms
        coeff, factors = _as_term(sign, e.num)
        body = mul_(factors) if factors else Constant(1.0)
        return coeff, (Div(body, e.den),)
    return sign, (e,)


def _collect_terms(e: Expr, sign: float, out: list):
    if isinstance(e, Add):
        for t in e.terms:
            _collect_terms(t, sign, out)
    elif isinstance(e, Neg):
        _collect_terms(e.arg, -sign, out)
    else:
        out.append((sign, e))


def _rebuild_term(coeff: float, factors: tuple) -> Expr:
    if not factors:
        return Constant(coeff)
    body = mul_(factors)
    if coeff == 1.0:
        return body
    if coeff == -1.0:
        return Neg(body)
    if coeff < 0.0:
        return Neg(mul_((Constant(-coeff),) + factors))
    return mul_((Constant(coeff),) + factors)


def simplify(e: Expr) -> Expr:
    """Constant folding, 0/1 identities and like-term merging. Idempotent and
    value-preserving (within float roundoff when coefficients combine)."""
    if isinstance(e, (Constant, Symbol)):
        return e
    if isinstance(e, Neg):
        a = simplify(e.arg)
        if isinstance(a, Constant):
            return Constant(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return Neg(a)
    if isinstance(e, Pow):
        b = simplify(e.base)
        if e.exponent == 0.0:
            return Constant(1.0)
        if e.exponent == 1.0:
            return b
        if isinstance(b, Constant):
            try:
                return Constant(eval_expr(Pow(b, e.exponent), {}))
            except EvalError:
                pass
        return Pow(b, e.exponent)
    if isinstance(e, Mul):
        coeff = 1.0
        out = []
        stack = [simplify(f) for f in e.factors]
        for f in stack:
            if isinstance(f, Constant):
                coeff *= f.value
            elif isinstance(f, Neg):
                coeff = -coeff
                if isinstance(f.arg, Mul):
                    for g in f.arg.factors:
                        if isinstance(g, Constant):
                            coeff *= g.value
                        else:
                            out.append(g)
                else:
                    out.append(f.arg)
            elif isinstance(f, Mul):
                for g in f.factors:
                    if isinstance(g, Constant):
                        coeff *= g.value
                    else:
                        out.append(g)
            else:
                out.append(f)
        if coeff == 0.0:
            return Constant(0.0)
        return _rebuild_term(coeff, tuple(out))
    if isinstance(e, Div):
        u = simplify(e.num)
        v = simplify(e.den)
        if isinstance(u, Constant) and u.value == 0.0:
            return Constant(0.0)
        if isinstance(v, Constant):
            if v.value == 1.0:
                return u
            if isinstance(u, Constant) and v.value != 0.0:
                return Constant(u.value / v.value)
        return Div(u, v)
    if isinstance(e, Add):
        raw = []
        for t in e.terms:
            _collect_terms(simplify(t), 1.0, raw)
        order = []           # canonical keys in first-seen order
        merged = {}          # key -> [coeff, representative factors]
        for sign, t in raw:
            coeff, factors = _as_term(sign, t)
            key = tuple(sorted(to_text(f) for f in factors))
            if key in merged:
                merged[key][0] += coeff
            else:
                merged[key] = [coeff, factors]
                order.append(key)
        terms = []
        for key in order:
            coeff, factors = merged[key]
            if coeff == 0.0:
                continue
            terms.append(_rebuild_term(coeff, factors))
        if not terms:
            return Constant(0.0)
        return add_(terms)
    raise TypeError(f"not an expression node: {e!r}")
