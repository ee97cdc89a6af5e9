"""Hypothesis strategies for model text, shared by the property tests.

`nets(kind)` builds small nets of either kind with arbitrary weights or
rates, `chains()` nets that satisfy A1-A5 with a known DFE together with
their spn twins. `renamed` and `permuted` rewrite a net's text without
changing the net, and `reads_as_renamed` compares texts up to a renaming.
"""
import re

from hypothesis import strategies as st

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


# names a net may be renamed to: builtins, keywords and the names of the
# generated code's own locals and helpers, which codegen must rename
CLASHING = ["int", "float", "map", "min", "max", "abs", "range", "_s0", "_w1",
            "_r0", "_acc", "if", "lambda", "while", "def", "class", "return",
            "True", "None", "print", "sum", "len", "id", "type", "list", "round",
            "pow", "iter", "next", "zip", "int_", "_p", "_dt", "_t", "_tn", "_u",
            "_mk", "_pick", "_log", "_ns", "_sdt", "_tapp", "_mapp", "_a0",
            "_every", "_clips", "_isfinite", "_stalled"]

_WORD = re.compile(r"([A-Za-z_]\w*)")


def declared(text: str) -> list:
    """The names a model text declares: its own, then those of its params,
    places and transitions, in order."""
    return [_WORD.match(line.split(None, 1)[1])[0] for line in text.splitlines()
            if line.split()[0] in ("model", "param", "place", "trans")]


def renamed(text: str, names: dict) -> str:
    """The text with every word that is a key of `names` replaced by its
    value; keywords of the format that are not keys stay as they are."""
    return _WORD.sub(lambda m: names.get(m[0], m[0]), text)


def reads_as_renamed(new: str, old: str, names: dict) -> bool:
    """Whether text `new` is text `old` with some of its words renamed by
    `names` (Python's own messages, such as "float division by zero", keep
    their words whatever the net's names are)."""
    a, b = _WORD.split(new), _WORD.split(old)
    return len(a) == len(b) and all(x == y or names.get(y) == x for x, y in zip(a, b))


def renamings(text: str):
    """A map from each name `text` declares to a distinct name from CLASHING."""
    return st.permutations(CLASHING).map(lambda new: dict(zip(declared(text), new)))


# the order of the sections of a model file, by the first word of a line
_SECTIONS = ("model", "param", "place", "trans", "arc")


@st.composite
def permuted(draw, text):
    """The same net with its params, places, transitions and arcs each
    declared in another order."""
    lines = text.splitlines()
    out = []
    for head in _SECTIONS:
        out += draw(st.permutations([ln for ln in lines if ln.split()[0] == head]))
    return "\n".join(out) + "\n"


@st.composite
def chains(draw):
    """(vapn text, spn text) of one chain S -> I1 -> ... -> Ik -> R.

    Every stage infects S into I1, with mass-action (b*S*I) or
    frequency-dependent (b*S*I/N) incidence; births Pi into S and deaths mu
    from every place are optional. The spn twin moves tokens: an infection
    takes one S and one token of the infecting stage, and gives that token
    back with one new I1. Both start from the same marking, so they share
    their DFE.
    """
    k = draw(st.integers(1, 4))
    s0 = draw(st.integers(50, 5000))
    mass_action = draw(st.booleans())
    mu = draw(st.none() | st.floats(0.001, 0.05))
    stages = [f"I{j}" for j in range(1, k + 1)]
    places = ["S", *stages, "R"]
    rates = {f"g{j}": draw(st.floats(0.05, 1.0)) for j in range(1, k + 1)}
    # mass-action rates are per susceptible, so R0 straddles 1 either way
    scale = 1.0 / s0 if mass_action else 1.0
    betas = {f"b{j}": draw(st.floats(0.01, 0.6)) * scale for j in range(1, k + 1)}
    params = {**betas, **rates}
    if mu is not None:
        params.update(Pi=mu * s0, mu=mu)
    head = [f"param {name}={value!r}" for name, value in params.items()]
    head += [f"place S init={s0}"] + [f"place {p} init=1 infected" for p in stages]
    head += ["place R init=0"]
    # (name, rate, input places, output places, the infecting stage)
    flows = []
    for j, stage in enumerate(stages, start=1):
        contact = f"b{j}*S*{stage}" + ("" if mass_action else "/N")
        flows.append((f"infect{j}", contact, ["S"], ["I1"], stage))
        nxt = stages[j] if j < k else "R"
        flows.append((f"progress{j}", f"g{j}*{stage}", [stage], [nxt], None))
    if mu is not None:
        flows.append(("birth", "Pi", [], ["S"], None))
        flows += [(f"die_{p}", f"mu*{p}", [p], [], None) for p in places]

    vapn = ["model chain kind=vapn", *head]
    spn = ["model chain_spn kind=spn", *head]
    for name, rate, ins, outs, infector in flows:
        vapn.append(f"trans {name}")
        vapn += [f'arc {p} -> {name} weight="{rate}"' for p in ins]
        vapn += [f'arc {name} -> {p} weight="{rate}"' for p in outs]
        if infector:
            ins, outs = ins + [infector], outs + [infector]
        spn.append(f'trans {name} rate="{rate}"')
        spn += [f"arc {p} -> {name} mult={ins.count(p)}" for p in dict.fromkeys(ins)]
        spn += [f"arc {name} -> {p} mult={outs.count(p)}" for p in dict.fromkeys(outs)]
    return "\n".join(vapn) + "\n", "\n".join(spn) + "\n"
