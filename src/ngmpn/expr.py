"""Symbolic arithmetic expressions for arc weights and rate laws.

Expression trees are immutable and hashable; every operation here is a pure
function. The function set is deliberately small (rational arithmetic plus
real powers): that is all the bundled epidemic models need, and it keeps
differentiation and simplification fully testable. The name ``N`` is reserved
by the model layer, where it means the sum of all place markings; this module
treats it like any other symbol.

Node identity is defined once, in the base class ``Expr``: a node is equal
to, and hashes like, a node of the same class whose fields compare equal as
a tuple, and its repr is its class name with its fields. Each node class
declares only its fields (``__slots__``) and its constructor.

Code that only traverses or maps subtrees (``free_symbols``, ``substitute``,
flattening, the linear rules of ``diff``, ``parse_expr``'s size bound) reads
them through ``_children`` and rebuilds a node through ``_rebuild``; walkers
whose rule differs per kind (``simplify``, ``eval_expr``, ``to_text``) read
the fields themselves.

There is one node for sums: subtraction is an ``Add`` whose subtracted term
is a ``Neg``, so ``a - b - c`` parses to ``Add((a, Neg(b), Neg(c)))``.

``simplify`` merges like terms: products whose non-constant factors are the
same multiset of nodes, compared by node equality. Printing plays no part, so
two different trees that print alike, such as ``a*(b/c)`` and ``a*b/c``, are
never merged.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from operator import attrgetter

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


_set = object.__setattr__


class Expr:
    """Base class for expression nodes. A node is immutable, and equal (with
    an equal hash) to a node of the same class whose fields are equal: each
    subclass names its fields in ``__slots__``, and ``__init_subclass__``
    gives it the key that equality, hash and repr read, the field itself
    for a one-field node and the tuple of fields otherwise."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self._key(self), self._key(other)
        return a is b or a == b     # identity first, as tuple items compare

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        key = self._key(self)       # a tuple of fields, terms or factors
        args = key if key.__class__ is tuple else (key,)
        return f"{type(self).__name__}({', '.join(map(repr, args))})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: "
                             f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        self.__setattr__(name, None)

    def __reduce__(self):   # copy and pickle rebuild a node by its constructor
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __str__(self) -> str:
        return to_text(self)


class Constant(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set(self, "value", value)


class Symbol(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        _set(self, "terms", terms)


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        _set(self, "factors", factors)


class Div(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        _set(self, "num", num)
        _set(self, "den", den)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: float):
        # numeric only; general symbolic exponents are not needed
        _set(self, "base", base)
        _set(self, "exponent", exponent)


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        _set(self, "arg", arg)


def _children(e: Expr) -> tuple:
    """The subtrees of a node in field order; () for a leaf."""
    kind = type(e)
    if kind is Add:
        return e.terms
    if kind is Mul:
        return e.factors
    if kind is Div:
        return e.num, e.den
    if kind is Neg:
        return (e.arg,)
    if kind is Pow:
        return (e.base,)
    if kind is Constant or kind is Symbol:
        return ()
    raise TypeError(f"not an expression node: {e!r}")


def _rebuild(e: Expr, children) -> Expr:
    """A node of e's class and non-subtree fields over the given subtrees,
    ordered as _children gives them; a leaf is returned as it is."""
    kind = type(e)
    if kind is Add or kind is Mul:
        return kind(tuple(children))
    if kind is Pow:
        return Pow(*children, e.exponent)
    return kind(*children) if children else e


def add_(terms) -> Expr:
    """Add with flattening; empty -> 0, singleton -> the term itself."""
    return _flat(Add, terms, 0.0)


def mul_(factors) -> Expr:
    """Mul with flattening; empty -> 1, singleton -> the factor itself."""
    return _flat(Mul, factors, 1.0)


def _flat(kind, items, empty: float) -> Expr:
    flat = []
    for t in items:
        if type(t) is kind:
            flat.extend(_children(t))
        else:
            flat.append(t)
    if not flat:
        return Constant(empty)
    return flat[0] if len(flat) == 1 else kind(tuple(flat))


# ---------------------------------------------------------------- parsing

# the largest tree parse_expr accepts, in levels and in nodes. The recursive
# walkers (simplify, diff, codegen's emitter) and Python's compiler of the
# generated code all survived trees about four times deeper on the default
# recursion limit; the zoo's deepest expression has 8 levels and its largest
# 37 nodes. The derivatives of a product cost about the square of its
# factors: r0 on a product of MAX_NODES nodes ends within about a second
# (0.6 s for factors of N on a 3-place net, one x86-64 core).
MAX_DEPTH = 32
MAX_NODES = 256

# one token: a number, a name, an operator or bracket, or a stray character;
# trailing whitespace makes no token
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<stray>\S))"
)


def _tokenize(text: str):
    """(kind, text, offset) of each token."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "stray":
            raise ExprSyntaxError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    return tokens


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*,
    term := unary (('*'|'/') unary)*, unary := '-' unary | power,
    power := atom ('^' unary)?, atom := number | symbol | '(' expr ')'.
    '^' is right-associative and its exponent must reduce to a number.
    Numbers and exponents must be finite. A sum is one Add of its terms, a
    term after '-' wrapped in a Neg. A bracketed sum before '+' or '-' is
    extended, as is a bracketed product before '*'; one on the right stays a
    single term."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0      # unary calls under way
        self.leaves = 0     # numbers and names in the tree so far

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
        return _negate(e) if negate else e

    def unary(self) -> Expr:
        # every recursion of the parser passes here: a bracket, a '-' or an
        # exponent nests one level deeper
        kind, val, off = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"nested deeper than {MAX_DEPTH} levels", off)
        if kind == "op" and val == "-":
            self.i += 1
            e = _negate(self.unary())
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self) -> Expr:
        base = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.i += 1
            leaves = self.leaves    # the exponent becomes a float, not nodes
            exp_tree = self.unary()
            self.leaves = leaves
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
        if kind in ("num", "name"):
            # a leaf; stop a long product or sum here, before extending it
            # factor by factor (each extension copies the tuple) costs more
            # than a tree within the bound
            self.leaves += 1
            if self.leaves > MAX_NODES:
                raise ExprSyntaxError(f"more than {MAX_NODES} nodes", off)
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
            return e
        raise ExprSyntaxError("expected a number, symbol or '('", off)


def _negate(e: Expr) -> Expr:
    return Constant(-e.value) if isinstance(e, Constant) else Neg(e)


def parse_expr(text: str) -> Expr:
    """Parse text into an expression tree. Raises ExprSyntaxError with a byte
    offset on malformed input, and on a tree of more than MAX_DEPTH levels or
    MAX_NODES nodes."""
    if not text.isascii():
        bad = next(i for i, c in enumerate(text) if not c.isascii())
        raise ExprSyntaxError("non-ASCII input", bad)
    e = _Parser(text).parse()
    # the tree level by level: a left-nested quotient chain, a/b/c/..., is
    # deep without any bracket
    level, depth, nodes = [e], 0, 0
    while level:
        depth += 1
        nodes += len(level)
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"nested deeper than {MAX_DEPTH} levels", 0)
        if nodes > MAX_NODES:
            raise ExprSyntaxError(f"more than {MAX_NODES} nodes", 0)
        level = [c for n in level for c in _children(n)]
    return e


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
        # a '-' after a '-' negates only the next power, so "--a*b" would
        # reparse as -((-a)*b): a negation keeps its brackets here
        return "-" + _wrap(e.arg, _prec(e.arg) <= 1.5)
    if isinstance(e, Add):
        parts = [_wrap(e.terms[0], _prec(e.terms[0]) < 1.0)]
        # a later term that is a sum keeps its brackets, so that it reparses
        # as one term: the parser extends only a sum on the left. A negative
        # constant prints as "+ -3", since "- 3" reparses as a Neg of 3
        for t in e.terms[1:]:
            if isinstance(t, Neg):
                parts.append("- " + _wrap(t.arg, _prec(t.arg) <= 1.0))
            else:
                parts.append("+ " + _wrap(t, _prec(t) <= 1.0))
        return " ".join(parts)
    if isinstance(e, Mul):
        # likewise a later factor that is a product or a quotient
        return "*".join(_wrap(f, _prec(f) < 2.0 or (i > 0 and isinstance(f, (Mul, Div))))
                        for i, f in enumerate(e.factors))
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
    """The names of the symbols in e."""
    names, stack = set(), [e]
    while stack:
        e = stack.pop()
        if type(e) is Symbol:
            names.add(e.name)
        else:
            stack.extend(_children(e))
    return names


def substitute(e: Expr, mapping: dict) -> Expr:
    """Replace symbols by expressions (no simplification)."""
    if type(e) is Symbol:
        return mapping.get(e.name, e)
    return _rebuild(e, [substitute(c, mapping) for c in _children(e)])


# ---------------------------------------------------------------- calculus

def diff(e: Expr, wrt: str) -> Expr:
    """Exact partial derivative with respect to a symbol name, simplified."""
    return simplify(_d(e, wrt))


def _d(e: Expr, x: str) -> Expr:
    if isinstance(e, Constant):
        return Constant(0.0)
    if isinstance(e, Symbol):
        return Constant(1.0 if e.name == x else 0.0)
    if isinstance(e, (Add, Neg)):     # linear: the derivative of each subtree
        return _rebuild(e, [_d(c, x) for c in _children(e)])
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

def _split_term(coeff: float, e: Expr, in_sum: bool):
    """(coefficient, non-constant factors) of coeff times the simplified node
    e; its constants are multiplied into coeff in factor order. In a sum a
    quotient also gives up its numerator's coefficient, so that 2*x/y and x/y
    are like terms."""
    if isinstance(e, Constant):
        return coeff * e.value, ()
    if isinstance(e, Neg):
        return _split_term(-coeff, e.arg, in_sum)
    if isinstance(e, Mul):
        factors = []
        for f in e.factors:
            if isinstance(f, Constant):
                coeff *= f.value
            else:
                factors.append(f)
        return coeff, tuple(factors)
    if in_sum and isinstance(e, Div):
        coeff, factors = _split_term(coeff, e.num, True)
        return coeff, (Div(mul_(factors), e.den),)
    return coeff, (e,)


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
    value-preserving (within float roundoff when coefficients combine).

    Like terms are products with the same multiset of non-constant factor
    nodes, in any order; in a sum a quotient counts as one factor once its
    numerator's coefficient is pulled out. Nodes are compared by equality,
    never by their printed form. Merged terms keep the position and factors
    of their first occurrence."""
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
        coeff, factors = 1.0, ()
        for f in e.factors:
            coeff, more = _split_term(coeff, simplify(f), False)
            factors += more
        if coeff == 0.0:
            return Constant(0.0)
        return _rebuild_term(coeff, factors)
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
        merged = {}          # like-term key -> [coeff, first-seen factors]
        for sign, t in raw:
            coeff, factors = _split_term(sign, t, True)
            # the factors as a multiset of nodes; none or one need no count
            key = factors if len(factors) < 2 else frozenset(Counter(factors).items())
            if key in merged:
                merged[key][0] += coeff
            else:
                merged[key] = [coeff, factors]
        terms = []
        for coeff, factors in merged.values():
            if coeff != 0.0:
                terms.append(_rebuild_term(coeff, factors))
        return add_(terms)
    raise TypeError(f"not an expression node: {e!r}")
