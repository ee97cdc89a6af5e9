"""Python source for expression trees, compiled once per model.

The R0 pipeline (ngm) and both simulators (sim) evaluate the same few
expressions at many points, so each turns a model's expressions into Python
source once and compiles it. `emit` transcribes a tree in one walk (renaming
its symbols, printing it and routing fractional powers through `_pow`) so
that, given float inputs, the compiled code computes what `eval_expr`
computes, bit for bit (eval_expr applies float() to every symbol, and every
generated function converts its markings to floats on entry and gets
float parameter values):

- constants print as float literals;
- a sum starts from 0.0 and adds its terms left to right, as eval_expr's
  accumulator does, so a leading -0.0 term gives the same signed zero;
- a product multiplies its factors left to right (1.0*x is x for every
  float x, so eval_expr's leading 1.0 needs no counterpart);
- a power with an integral exponent is `**` on the float exponent; a
  fractional one calls `_pow`, which raises where eval_expr does, on a
  negative base.

Where eval_expr raises EvalError, the compiled code raises an ArithmeticError
or ValueError instead (division by zero, an overflowing or invalid power).
Callers run generated functions through `call`, which raises those as the
caller's package error naming the model, and keep what they build from a
model with `per_model`, so every generated function is compiled once per
model.
"""
from __future__ import annotations

import builtins
import keyword
import math
import re
import weakref

from .expr import Add, Constant, Div, Mul, Neg, Pow, Symbol
from .petri import PetriModel, RESERVED_TOTAL

# names the generated code uses itself: its locals and helpers all look like
# `_abc12`, and it may call any builtin; a model name that matches either
# gets a trailing underscore
_INTERNAL = re.compile(r"_[a-z]*[0-9]*")


def _pyname(name: str, taken: set) -> str:
    """A Python name for a model symbol: not a keyword, not a builtin, not
    one the generated code uses itself, and not taken by another symbol."""
    out = name
    while (keyword.iskeyword(out) or hasattr(builtins, out) or out in taken
           or _INTERNAL.fullmatch(out)):
        out += "_"
    return out


def symbol_table(m: PetriModel) -> dict:
    """Python names for places, parameters and the total N."""
    taken: set = set()
    names = {}
    for name in [p.name for p in m.places] + list(m.params) + [RESERVED_TOTAL]:
        names[name] = _pyname(name, taken)
        taken.add(names[name])
    return names


def targets(names) -> str:
    """Tuple-unpacking target list; a single name keeps its trailing comma."""
    return ", ".join(names) + ("," if len(names) == 1 else "")


# binding strength of an emitted form, as Python parses it
_SUM, _PRODUCT, _UNARY, _POWER, _ATOM = range(5)


def emit(e, names: dict, sums: dict | None = None) -> str:
    """Python source of expression `e`, its symbols renamed by `names`.

    With `sums`, a dict shared by the expressions of one function body, each
    sum is computed once: its source becomes a key of `sums` whose value is a
    local name `_s<k>`, and the expression reads that name. Keys are added
    inner sums first, so assigning them in the dict's order (`assignments`)
    defines every name before its use. Share `sums` only among expressions
    that are all evaluated, unconditionally: hoisting then changes neither a
    value nor whether the code raises.
    """
    return _emit(e, names, sums)[0]


def assignments(sums: dict) -> list:
    """Source lines defining the sums collected by `emit`, in order."""
    return [f"{name} = {text}" for text, name in sums.items()]


def _wrap(part, below: int) -> str:
    """The emitted part, parenthesised when it binds looser than `below`."""
    text, strength = part
    return f"({text})" if strength < below else text


def _emit(e, names, sums):
    kind = type(e)
    if kind is Symbol:
        return names[e.name], _ATOM
    if kind is Constant:
        v = float(e.value)
        if math.isfinite(v):
            text = repr(v)
        else:   # no literal spells these
            text = "_nan" if v != v else "-_inf" if v < 0 else "_inf"
        return text, _UNARY if text[0] == "-" else _ATOM
    if kind is Mul:
        # left to right: a product or quotient on the right needs brackets
        return "*".join(_wrap(_emit(f, names, sums), _PRODUCT + (i > 0))
                        for i, f in enumerate(e.factors)), _PRODUCT
    if kind is Add:
        text = " + ".join(["0.0"] + [_wrap(_emit(t, names, sums), _PRODUCT)
                                     for t in e.terms])
        if sums is None:
            return text, _SUM
        return sums.setdefault(text, f"_s{len(sums)}"), _ATOM
    if kind is Div:
        return (_wrap(_emit(e.num, names, sums), _PRODUCT) + "/"
                + _wrap(_emit(e.den, names, sums), _UNARY)), _PRODUCT
    if kind is Neg:
        return "-" + _wrap(_emit(e.arg, names, sums), _POWER), _UNARY
    if kind is Pow:
        c = float(e.exponent)
        base = _emit(e.base, names, sums)
        if c.is_integer():
            return _wrap(base, _ATOM) + "**" + repr(c), _POWER
        return f"_pow({base[0]}, {c!r})", _ATOM
    raise TypeError(f"not an expression node: {e!r}")


def _pow(base, exponent):
    """base ** exponent for a fractional exponent, as eval_expr computes it:
    a negative base raises instead of giving a complex number."""
    if base < 0.0:
        raise ValueError("negative base with fractional exponent")
    return base ** exponent


def generated(src: str, what: str, **helpers) -> dict:
    """The names the generated source defines, compiled under the file name
    `<what>`; helpers are its globals."""
    ns: dict = {"_pow": _pow, "_inf": math.inf, "_nan": math.nan, **helpers}
    exec(compile(src, f"<{what}>", "exec"), ns)
    return ns


_built: "weakref.WeakKeyDictionary[PetriModel, dict]" = weakref.WeakKeyDictionary()


def per_model(m: PetriModel, build):
    """build(m), built on the model's first use and kept for the model's
    lifetime. What build returns must not refer to the model."""
    built = _built.setdefault(m, {})
    if build not in built:
        built[build] = build(m)
    return built[build]


def call(m: PetriModel, error, fn, *args):
    """fn(*args), for a function generated from model m; an arithmetic
    failure there is raised as `error` naming the model."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        raise error(f"model {m.name}: {type(exc).__name__} while evaluating "
                    f"its weights or rates: {exc}") from None
