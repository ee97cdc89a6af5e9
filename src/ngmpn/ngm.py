"""Basic reproduction number of a Petri net model via the next-generation
matrix.

The pipeline is: find the disease-free equilibrium (DFE), split the flows
touching infected places into new-infection terms (script F) and transfer
terms (script V), differentiate both with respect to the infected places at
the DFE, and take the spectral radius of F V^-1.

The split is one pass over the transitions, each classified by
petri.classify_transitions: an infection transition contributes its signed
net flow into each infected place to script F, and every other transition
fills the cells of script V. Script F_i minus the sum of row i of script V
is the net flow of infected place i, apart from transfer inflows that carry
no infected input.

Script F and script V are kept symbolic so they can be printed and inspected;
the Jacobians are exact derivatives of those expressions, not finite
differences. Parameters enter only when these expressions are evaluated, so
everything symbolic (classification, script F and V, their Jacobians, the
DFE flow system and its Jacobian, the structural findings) is derived once
per model and reused at every parameter point.

The evaluation is compiled: once per model (codegen.per_model), the
Jacobians of script F and script V and the DFE flows with their Jacobian are
written as Python source by the code generator in codegen and compiled
together, so a parameter point walks no expression tree (a DFE constraint
given as text is still parsed and evaluated). The compiled functions give
the bits eval_expr gives on the same values; where eval_expr would raise,
they raise too, and codegen.call raises the error as NgmError naming the
model.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import linalg
from .errors import NgmpnError
from .codegen import (assignments, call, emit, generated, per_model, symbol_table,
                      targets)
from .expr import (Expr, ExprError, Symbol, Constant, Add, Neg, add_, simplify,
                   substitute, diff, eval_expr, parse_expr)
from .petri import (PetriModel, Finding, RESERVED_TOTAL, _arc_term, net_flow,
                    classify_transitions, validate_assumptions)


# the DFE solve: the largest net flow relative to the flow scale that counts
# as an equilibrium, and the most Newton iterations
DFE_TOL = 1e-10
DFE_MAX_ITER = 100


class NgmError(NgmpnError):
    pass


class DfeError(NgmError):
    pass


@dataclass(frozen=True)
class DfeResult:
    marking: tuple   # aligned with model places; infected entries are 0.0
    method: str      # annotated | newton | conservation-augmented
    residual: float  # largest remaining net flow relative to the flow scale
    notes: tuple = ()


@dataclass(frozen=True, eq=False)
class NgmResult:
    dfe: DfeResult
    script_f: tuple    # symbolic new-infection inflow per infected place
    script_v: tuple    # symbolic transfer matrix (rows x cols of Expr)
    F: tuple           # numeric Jacobians at the DFE
    V: tuple
    Vinv: tuple
    K: tuple           # F V^-1
    r0: float
    diagnostics: dict
    findings: tuple

    def as_dict(self) -> dict:
        return {
            "dfe": {
                "marking": dict(zip(self.diagnostics["places"], self.dfe.marking)),
                "method": self.dfe.method,
                "residual": self.dfe.residual,
            },
            "F": [list(r) for r in self.F],
            "V": [list(r) for r in self.V],
            "Vinv": [list(r) for r in self.Vinv],
            "K": [list(r) for r in self.K],
            "r0": self.r0,
            "diagnostics": {k: v for k, v in self.diagnostics.items() if k != "places"},
            "findings": [f.as_dict() for f in self.findings],
        }


class _ModelWork(NamedTuple):
    """What the R0 pipeline needs from a model before any parameter value is
    known."""
    script_f: tuple
    script_v: tuple
    findings: tuple    # A1-A4; A5 needs parameter values
    dfe_places: tuple  # non-infected places
    fv: Callable       # generated _fv, see _r0_functions
    dfe: Callable      # generated _dfe


def _expand_total(m: PetriModel, e: Expr) -> Expr:
    """Replace the reserved total-population symbol by the sum of places."""
    total = Add(tuple(Symbol(p.name) for p in m.places))
    return substitute(e, {RESERVED_TOTAL: total})


def _jacobian(rows, names) -> tuple:
    return tuple(tuple(diff(row, x) for x in names) for row in rows)


def _derive(m: PetriModel) -> _ModelWork:
    """The model's parameter-free work; per_model(m, _derive) does it once
    per model."""
    script_f, script_v = _split(m, classify_transitions(m))
    infected = m.infected_places()
    f_rows = [_expand_total(m, e) for e in script_f]
    v_rows = [_expand_total(m, add_(list(row))) for row in script_v]
    findings = tuple(f for f in validate_assumptions(m) if f.code != "A5")
    zero = {name: Constant(0.0) for name in infected}
    dfe_places = tuple(p.name for p in m.places if not p.infected)
    dfe_flows = tuple(simplify(substitute(_expand_total(m, net_flow(m, p)), zero))
                      for p in dfe_places)
    fns = _r0_functions(m, _jacobian(f_rows, infected), _jacobian(v_rows, infected),
                        dfe_places, dfe_flows, _jacobian(dfe_flows, dfe_places))
    return _ModelWork(script_f, script_v, findings, dfe_places, fns["_fv"], fns["_dfe"])


def _r0_functions(m: PetriModel, jf, jv, dfe_places, dfe_flows, dfe_jac) -> dict:
    """Both functions the R0 path evaluates, compiled from one source.

    `_fv(marking, params)` gives F and V, the Jacobians jf and jv at the
    marking. `_dfe(values, params)`, given the value of every non-infected
    place, pinned or not, gives the DFE flows, the flow scale (the largest
    magnitude of a single flow term, or 1.0 when every term is zero) and the
    flows' Jacobian dfe_jac. Each flow term is computed once, into a local
    that both its flow and the scale read. Parameters come in declaration
    order.
    """
    names = symbol_table(m)
    params = targets([names[k] for k in m.params])

    def matrix(rows, sums):
        return "[" + ", ".join("[" + ", ".join(emit(c, names, sums) for c in row) + "]"
                               for row in rows) + "]"

    fv_sums: dict = {}
    fv = f"{matrix(jf, fv_sums)}, {matrix(jv, fv_sums)}"
    dfe_sums: dict = {}
    terms, flows, scale = [], [], []
    for eq in dfe_flows:
        refs = []
        for t in (eq.terms if isinstance(eq, Add) else (eq,)):
            refs.append(f"_t{len(scale)}")
            terms.append(f"{refs[-1]} = {emit(t, names, dfe_sums)}")
            scale.append(f"abs({refs[-1]})")
        flows.append(" + ".join(["0.0"] + refs) if isinstance(eq, Add) else refs[0])
    jac = matrix(dfe_jac, dfe_sums)
    sep = "\n    "
    src = f"""
def _fv(_mk, _p):
    ({targets([names[p.name] for p in m.places])}) = map(float, _mk)
    ({params}) = map(float, _p)
    {sep.join(assignments(fv_sums))}
    return {fv}

def _dfe(_x, _p):
    ({targets([names[p] for p in dfe_places])}) = map(float, _x)
    ({params}) = map(float, _p)
    {sep.join(assignments(dfe_sums) + terms)}
    return [{", ".join(flows)}], max([{", ".join(["0.0"] + scale)}]) or 1.0, {jac}
"""
    return generated(src, f"R0 functions {m.name}")


# --------------------------------------------------------------------- DFE

def compute_dfe(m: PetriModel, constraints=None, params=None) -> DfeResult:
    """Disease-free equilibrium: infected places at zero, remaining places at
    a stationary point of their net flows.

    The flow system is solved by damped Newton iteration. If its Jacobian at
    the initial marking is rank deficient, a token-conservation row (sum of
    places equals sum of initial markings) is appended; free places keep the
    basic solution favouring earlier declarations. Annotated values given in
    ``constraints`` (a mapping or pair list, values numeric or expression
    text) pin their places; a pin must be a finite, non-negative number. Fails
    loudly when the residual will not converge or a component turns
    negative.
    """
    bound = m.merged_params(params, NgmError)
    w = per_model(m, _derive)
    notes = []

    pinned: dict = {}
    if constraints:
        items = constraints.items() if hasattr(constraints, "items") else constraints
        for place, value in items:
            if not m.is_place(place):
                raise DfeError(f"constraint names unknown place {place!r}")
            if place not in w.dfe_places:
                raise DfeError(f"cannot constrain infected place {place!r}")
            if isinstance(value, str):
                try:
                    value = eval_expr(parse_expr(value), bound)
                except ExprError as exc:
                    raise DfeError(f"constraint on {place!r}: {exc}") from None
            if not (isinstance(value, numbers.Real) and 0.0 <= value < math.inf):
                raise DfeError(f"constraint on {place!r} must be a finite, "
                               f"non-negative number, not {value!r}")
            pinned[place] = float(value)

    cols = [j for j, name in enumerate(w.dfe_places) if name not in pinned]
    unknowns = [w.dfe_places[j] for j in cols]
    init = dict(zip(m.place_names(), m.initial_marking()))
    values = [pinned.get(name, init[name]) for name in w.dfe_places]
    pv = tuple(bound.values())

    def flows_at(u):
        """Flows, flow scale and the Jacobian's unknown columns at u."""
        for j, v in zip(cols, u):
            values[j] = v
        f, scale, jac = call(m, NgmError, w.dfe, values, pv)
        if pinned:
            jac = [[row[j] for j in cols] for row in jac]
        return f, scale, jac

    def assemble(u, method, residual):
        marking = {**dict(zip(unknowns, u)), **pinned}
        return DfeResult(tuple(marking.get(p.name, 0.0) for p in m.places),
                         method, residual, tuple(notes))

    u = [init[name] for name in unknowns]

    if not unknowns:
        f, scale, _ = flows_at(u)
        residual = max(map(abs, f), default=0.0) / scale
        if residual > DFE_TOL:
            raise DfeError(f"annotated point is not an equilibrium (residual {residual:.3g})")
        return assemble(u, "annotated", residual)

    f, scale, jac = flows_at(u)
    _, rank, _ = linalg.basic_solution(jac, [0.0] * len(f))

    augmented = rank < len(unknowns)
    target = sum(p.init for p in m.places) - sum(pinned.values())
    method = ("annotated" if pinned else
              "conservation-augmented" if augmented else "newton")
    if augmented:
        notes.append("flow Jacobian is rank deficient; added token conservation")

    def system(u, f, scale, jac):
        """The Newton system at u, given the flows there."""
        if augmented:
            f.append(sum(u) - target)
            jac.append([1.0] * len(unknowns))
        return f, scale, jac

    f, scale, jac = system(u, f, scale, jac)
    res = max(map(abs, f), default=0.0)
    for _ in range(DFE_MAX_ITER):
        if res <= DFE_TOL * scale:
            break
        step, _, _ = linalg.basic_solution(jac, [-v for v in f])
        alpha = 1.0
        while alpha > 2.0 ** -30:
            u_try = [ui + alpha * si for ui, si in zip(u, step)]
            f_try, scale_try, jac_try = system(u_try, *flows_at(u_try))
            res_try = max(map(abs, f_try), default=0.0)
            if res_try < res or res_try <= DFE_TOL * scale:
                u, f, scale, jac, res = u_try, f_try, scale_try, jac_try, res_try
                break
            alpha /= 2.0
        else:
            raise DfeError(f"Newton stalled at residual {res:.3g}")
    else:
        raise DfeError(f"did not converge within {DFE_MAX_ITER} iterations "
                       f"(residual {res:.3g})")

    value_scale = max([abs(v) for v in u] + [abs(v) for v in pinned.values()] + [1.0])
    for j, v in enumerate(u):
        if v < -1e-9 * value_scale:
            raise DfeError(f"negative equilibrium value for {unknowns[j]}: {v:.6g}")
        if v < 0.0:
            notes.append(f"snapped tiny negative {unknowns[j]} to zero")
            u[j] = 0.0

    fl, scale, _ = flows_at(u)
    residual = max(map(abs, fl), default=0.0) / scale
    if residual > DFE_TOL:
        raise DfeError(f"equilibrium residual {residual:.3g} exceeds tolerance")
    return assemble(u, method, residual)


# --------------------------------------------------- script F and script V

def _split(m: PetriModel, classes: dict):
    """Script F and script V, in one pass over the transitions.

    An infection transition adds to script F, for each infected place it
    touches, its signed net contribution there: inflow minus outflow, in arc
    order. Every other transition fills script V, a matrix over the infected
    places: a transfer puts its outflow from infected place i at (i, i) and
    its inflow into infected place k, negated, at (k, j), where j is its
    first infected input (so a self-loop nets out on the diagonal); a
    source's inflow into k goes negated at (k, k). Transfer inflows with no
    infected input fall outside the split and are ignored.
    """
    infected = m.infected_places()
    pos = {name: i for i, name in enumerate(infected)}
    f_terms = [[] for _ in infected]
    cells = [[[] for _ in infected] for _ in infected]

    for t in m.transitions:
        ins, outs = m.inputs_of(t.name), m.outputs_of(t.name)
        if classes[t.name] == "infection":
            for place, i in pos.items():
                gain = [_arc_term(m, a) for a in outs if a.target == place]
                loss = [_arc_term(m, a) for a in ins if a.source == place]
                if gain and loss:
                    f_terms[i].append(Add((add_(gain), Neg(add_(loss)))))
                elif gain:
                    f_terms[i].append(add_(gain))
                elif loss:
                    f_terms[i].append(Neg(add_(loss)))
            continue
        if classes[t.name] == "source":
            for a in outs:
                if a.target in pos:
                    k = pos[a.target]
                    cells[k][k].append(Neg(_arc_term(m, a)))
            continue
        taken = [a for a in ins if a.source in pos]
        for a in taken:
            i = pos[a.source]
            cells[i][i].append(_arc_term(m, a))
        if taken:
            col = pos[taken[0].source]
            for a in outs:
                if a.target in pos:
                    cells[pos[a.target]][col].append(Neg(_arc_term(m, a)))
    return (tuple(add_(terms) for terms in f_terms),
            tuple(tuple(add_(cell) for cell in row) for row in cells))


# ----------------------------------------------------------------- driver

def ngm_r0(m: PetriModel, params=None, constraints=None) -> NgmResult:
    """Full next-generation-matrix computation for a model.

    Returns the DFE, symbolic and numeric matrices, the spectral radius and
    the assumption findings (with the transfer-stability check resolved
    numerically).
    """
    if not m.infected_places():
        raise NgmError("model declares no infected places")
    bound = m.merged_params(params, NgmError)
    w = per_model(m, _derive)
    dfe = compute_dfe(m, constraints=constraints, params=bound)

    F, V = call(m, NgmError, w.fv, dfe.marking, tuple(bound.values()))

    try:
        Vinv, cond = linalg.invert(V)
    except linalg.SingularMatrixError as ex:
        raise NgmError(f"transfer matrix is singular: {ex}") from None
    if cond > 1e14:
        raise NgmError(f"transfer matrix is ill-conditioned (condition {cond:.3g})")

    K = linalg.mat_mul(F, Vinv)
    r0, dominant, eigs, tie = linalg.spectral_radius_of(K)
    diagnostics = {
        "dominant_real": dominant.real,
        "dominant_imag": dominant.imag,
        "eigenvalues": [[ev.real, ev.imag] for ev in eigs],
        "modulus_tie": tie,
        "condition_V": cond,
        "places": m.place_names(),
    }

    neg_v = linalg.eigenvalues([[-v for v in row] for row in V])
    stable = all(ev.real < 0.0 for ev in neg_v)
    findings = list(w.findings)
    findings.append(Finding(
        "A5", "satisfied" if stable else "violated",
        "transfer flows decay at the DFE" if stable else
        "the negated transfer matrix has an eigenvalue with non-negative "
        "real part: " + ", ".join(f"{ev.real:.6g}{ev.imag:+.6g}j" for ev in neg_v)))

    fmax = max((abs(v) for row in F for v in row), default=0.0)
    neg_entries = [(i, j) for i, row in enumerate(F) for j, v in enumerate(row)
                   if v < -1e-12 * (1.0 + fmax)]
    if neg_entries:
        diagnostics["negative_F_entries"] = neg_entries

    return NgmResult(dfe, w.script_f, w.script_v,
                     tuple(map(tuple, F)), tuple(map(tuple, V)),
                     tuple(map(tuple, Vinv)), tuple(map(tuple, K)),
                     r0, diagnostics, tuple(findings))
