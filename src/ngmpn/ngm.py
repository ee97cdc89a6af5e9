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

Finding A5, that every eigenvalue of -V has a negative real part, needs the
numbers. Under the model assumptions V is a Z-matrix, with no positive entry
off the diagonal (van den Driessche & Watmough 2002, Lemma 1). A Z-matrix
whose inverse has no negative entry is a non-singular M-matrix, and its
eigenvalues all have positive real parts (Berman & Plemmons, ch. 6). So A5
is decided from the V^-1 that K needs anyway. Only when V is not a Z-matrix,
or V^-1 has a negative entry, do the eigenvalues of -V decide it.
"""
from __future__ import annotations

import math
import numbers
from typing import Callable, NamedTuple

from . import linalg
from .errors import NgmpnError
from .codegen import (assignments, call, emit, generated, per_model, symbol_table,
                      targets)
from .expr import (Expr, ExprError, Symbol, Constant, Add, Neg, add_, simplify,
                   substitute, diff, eval_expr, free_symbols, parse_expr)
from .petri import (PetriModel, Finding, RESERVED_TOTAL, _arc_term, net_flow,
                    classify_transitions, validate_assumptions)


# the DFE solve: the largest net flow relative to the flow scale that counts
# as an equilibrium, the most Newton iterations, and the step lengths the line
# search tries, 1, 1/2, ..., 2**-29
DFE_TOL = 1e-10
DFE_MAX_ITER = 100
_STEP_LENGTHS = tuple(0.5 ** k for k in range(30))


class NgmError(NgmpnError):
    pass


class Drift(NamedTuple):
    """Why a DFE solve stalled where no equilibrium exists: y^T J = 0 for
    the flow Jacobian J there, so no step changes y^T f, while y^T f is not
    zero. Where J is constant, as with linear flows, the weighted sum of the
    places' values with weights y changes at `rate` everywhere."""
    places: dict    # each drifting place and its weight; the largest is 1
    rate: float     # y^T f, tokens per unit time


class DfeError(NgmError):
    drift = None    # a Drift when Newton stalled because no DFE exists


class DfeResult(NamedTuple):
    marking: tuple   # aligned with model places; infected entries are 0.0
    method: str      # annotated | newton | conservation-augmented
    residual: float  # largest remaining net flow relative to the flow scale
    notes: tuple = ()
    params: tuple = ()  # the parameter values solved at, in declaration order


class NgmResult(NamedTuple):
    """The R0 of a model at one parameter point and how it was found."""
    dfe: DfeResult
    script_f: tuple     # symbolic new-infection inflow per infected place
    script_v: tuple     # symbolic transfer matrix (rows x cols of Expr)
    F: tuple            # numeric Jacobians at the DFE
    V: tuple
    Vinv: tuple
    K: tuple            # F V^-1
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
    dfe_init: tuple    # their initial values
    susceptible: tuple  # non-infected inputs of infections, in declaration order
    total: float       # sum of every place's initial value
    fv: Callable       # generated _fv, see _r0_functions
    dfe: Callable      # generated _dfe


def _expand_total(m: PetriModel, e: Expr) -> Expr:
    """Replace the reserved total-population symbol by the sum of places."""
    total = Add(tuple(Symbol(p.name) for p in m.places))
    return substitute(e, {RESERVED_TOTAL: total})


def _jacobian(rows, names) -> tuple:
    """The derivative of each row by each name. A row is differentiated once
    for all the names it lacks: expr._d reads the name only to compare it
    with a Symbol's, so each of those derivatives is the same tree."""
    jac = []
    for row in rows:
        present, lacking = free_symbols(row), None
        cells = []
        for x in names:
            if x in present:
                cells.append(diff(row, x))
            else:
                if lacking is None:
                    lacking = diff(row, x)
                cells.append(lacking)
        jac.append(tuple(cells))
    return tuple(jac)


def _derive(m: PetriModel) -> _ModelWork:
    """The model's parameter-free work; per_model(m, _derive) does it once
    per model."""
    classes = classify_transitions(m)
    script_f, script_v = _split(m, classes)
    infected = m.infected_places()
    f_rows = [_expand_total(m, e) for e in script_f]
    v_rows = [_expand_total(m, add_([c for c in row if c != Constant(0.0)]))
              for row in script_v]
    findings = tuple(f for f in validate_assumptions(m) if f.code != "A5")
    zero = {name: Constant(0.0) for name in infected}
    dfe_places = tuple(p.name for p in m.places if not p.infected)
    dfe_init = tuple(p.init for p in m.places if not p.infected)
    inputs = {a.source for t in m.transitions if classes[t.name] == "infection"
              for a in m.inputs_of(t.name)}
    dfe_flows = tuple(simplify(substitute(_expand_total(m, net_flow(m, p)), zero))
                      for p in dfe_places)
    fns = _r0_functions(m, _jacobian(f_rows, infected), _jacobian(v_rows, infected),
                        dfe_places, dfe_flows, _jacobian(dfe_flows, dfe_places))
    return _ModelWork(script_f, script_v, findings, dfe_places, dfe_init,
                      tuple(p for p in dfe_places if p in inputs),
                      sum(p.init for p in m.places), fns["_fv"], fns["_dfe"])


def susceptible_places(m: PetriModel) -> tuple:
    """The model's susceptible places, the non-infected inputs of its
    infection transitions, in declaration order: the places that hold the
    infected tokens at a DFE of a continuum, and whose depletion the final
    size of an outbreak measures."""
    return per_model(m, _derive).susceptible


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

    Annotated values given in ``constraints`` (a mapping or pair list, values
    numeric or expression text) pin their places; a pin must be a finite,
    non-negative number. The other non-infected places are the unknowns,
    solved for by one damped-Newton path that starts from the initial
    marking. If the flow Jacobian there is rank deficient, the equilibria form
    a continuum: the tokens the unknowns lack (the initial total less the
    pins and the unknowns' values) go to the free susceptible places (the
    non-infected inputs of infection transitions) in proportion to their
    marking, or to every unknown alike where no susceptible place is free,
    as R0 counts infections in a wholly susceptible population. Where the
    flows there are not at an equilibrium, one token-conservation row per
    total they conserve (a left null vector y of their Jacobian over the
    unknowns) joins the system and holds y.u where the move left it.
    Declaration order matters only where the flows and their conserved
    totals still leave a continuum at a Newton iterate: its steps are basic
    solutions favouring earlier declarations. With every place pinned there
    are no unknowns and no steps.
    A value below zero by at most 1e-9 of the largest value is snapped to
    zero, with a note. Fails loudly when Newton stalls or does not converge,
    when a component turns negative, or when the final net flows, relative to
    the flow scale, exceed DFE_TOL.
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
    values = [pinned.get(name, v) for name, v in zip(w.dfe_places, w.dfe_init)]
    weight = 0.0    # of the conservation rows; 0.0 unless jac is rank deficient
    held = []       # the conservation rows: a weighted y over u and the y.u it holds

    def system(u):
        """Residuals, flow scale and Jacobian over the unknowns at u: the
        flows, then the conservation rows once they have been added."""
        for j, v in zip(cols, u):
            values[j] = v
        f, scale, jac = call(m, NgmError, w.dfe, values, bound.values())
        if pinned:
            jac = [[row[j] for j in cols] for row in jac]
        for row, held_at in held:
            f.append(sum(a * b for a, b in zip(row, u)) - held_at)
            jac.append(row)
        return f, scale, jac

    u = [values[j] for j in cols]
    f, scale, jac = system(u)
    # the pivots depend on jac alone, so one elimination gives both the rank
    # and, unless a conservation row joins jac, the first Newton step
    step, rank, _ = linalg.basic_solution(jac, [-v for v in f])
    if rank < len(u):
        notes.append("flow Jacobian is rank deficient; added token conservation")
        # weighted by a power of two (which rounds nothing) at least as large
        # as jac's entries, up to 2**1023, the largest a float holds: at any
        # time scale of the rates, its pivots are then not counted as zero
        weight = max(1.0, 2.0 ** min(math.frexp(linalg.max_abs(jac))[1], 1023))
        # the tokens the unknowns lack go to the free susceptible places (to
        # every unknown where none is free), in proportion to their values or
        # in equal shares where those are all 0
        free = [k for k, p in enumerate(unknowns) if p in w.susceptible] or range(len(u))
        lack, have = w.total - sum(values), sum(u[k] for k in free)
        for k in free:
            u[k] += lack * u[k] / have if have else lack / len(free)
        f, scale, jac = system(u)
        step = None
        # where the moved marking is not yet an equilibrium, Newton must
        # move; each total the flows conserve is held where the move left
        # it, so that no basic solution picks a free direction by the order
        if max(map(abs, f)) > DFE_TOL * scale:
            for y in linalg.left_null_vectors([jac[j] for j in cols]):
                row = [weight * v for v in y]
                held.append((row, sum(a * b for a, b in zip(row, u))))
            f, scale, jac = system(u)
    method = ("annotated" if pinned or not unknowns else
              "conservation-augmented" if weight else "newton")

    res = max(map(abs, f), default=0.0)
    for _ in range(DFE_MAX_ITER):
        if res <= DFE_TOL * scale or not unknowns:
            break
        if step is None:
            step, _, _ = linalg.basic_solution(jac, [-v for v in f])
        for alpha in _STEP_LENGTHS:
            u_try = [ui + alpha * si for ui, si in zip(u, step)]
            f_try, scale_try, jac_try = system(u_try)
            res_try = max(map(abs, f_try), default=0.0)
            if res_try < res or res_try <= DFE_TOL * scale:
                u, f, scale, jac, res = u_try, f_try, scale_try, jac_try, res_try
                step = None
                break
        else:
            err = DfeError(f"Newton stalled at residual {res:.3g}")
            n = len(w.dfe_places)
            err.drift = _drift(w.dfe_places, f[:n], scale, jac[:n])
            raise err
    else:
        raise DfeError(f"did not converge within {DFE_MAX_ITER} iterations "
                       f"(residual {res:.3g})")

    value_scale = max([*map(abs, u), *map(abs, pinned.values()), 1.0])
    negative = [j for j, v in enumerate(u) if v < 0.0]
    for j in negative:
        if u[j] < -1e-9 * value_scale:
            raise DfeError(f"negative equilibrium value for {unknowns[j]}: {u[j]:.6g}")
        notes.append(f"snapped tiny negative {unknowns[j]} to zero")
        u[j] = 0.0
    if negative:
        f, scale, _ = system(u)

    # the flows alone: the conservation row, if any, comes after them
    residual = max(map(abs, f[:len(w.dfe_places)]), default=0.0) / scale
    if residual > DFE_TOL:
        raise DfeError(f"equilibrium residual {residual:.3g} exceeds tolerance" if unknowns
                       else f"annotated point is not an equilibrium (residual {residual:.3g})")
    marking = {**dict(zip(unknowns, u)), **pinned}
    return DfeResult(tuple(marking.get(p.name, 0.0) for p in m.places),
                     method, residual, tuple(notes), tuple(bound.values()))


def _drift(places, f, scale, jac):
    """A Drift from the flows f, their scale and their Jacobian jac over the
    unknowns, or None: the first left null vector y of jac whose y^T f
    exceeds DFE_TOL times the flow scale is the drift."""
    for y in linalg.left_null_vectors(jac):
        rate = sum(a * b for a, b in zip(y, f))
        if abs(rate) > DFE_TOL * scale:
            return Drift({p: v for p, v in zip(places, y) if v != 0.0}, rate)
    return None


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

def _transfer_stability(V, Vinv) -> Finding:
    """Finding A5: every eigenvalue of -V has a negative real part.

    Satisfied without an eigen solve when V is a Z-matrix and V^-1 has no
    negative entry (the M-matrix criterion, see the module docstring);
    otherwise the eigenvalues of -V decide, and a violation lists them.
    """
    if (all(v <= 0.0 for i, row in enumerate(V) for j, v in enumerate(row) if i != j)
            and all(v >= 0.0 for row in Vinv for v in row)):
        stable = True
    else:
        neg_v = linalg.eigenvalues([[-v for v in row] for row in V])
        stable = all(ev.real < 0.0 for ev in neg_v)
    return Finding(
        "A5", "satisfied" if stable else "violated",
        "transfer flows decay at the DFE" if stable else
        "the negated transfer matrix has an eigenvalue with non-negative "
        "real part: " + ", ".join(f"{ev.real:.6g}{ev.imag:+.6g}j" for ev in neg_v))


def ngm_r0(m: PetriModel, params=None, constraints=None) -> NgmResult:
    """Full next-generation-matrix computation for a model.

    Returns the DFE, symbolic and numeric matrices, the spectral radius and
    the assumption findings (with the transfer-stability check resolved
    numerically).
    """
    if not m.infected_places():
        raise NgmError("model declares no infected places")
    dfe = compute_dfe(m, constraints=constraints, params=params)
    w = per_model(m, _derive)

    F, V = call(m, NgmError, w.fv, dfe.marking, dfe.params)

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

    findings = list(w.findings)
    findings.append(_transfer_stability(V, Vinv))

    fmax = linalg.max_abs(F)
    neg_entries = [(i, j) for i, row in enumerate(F) for j, v in enumerate(row)
                   if v < -1e-12 * (1.0 + fmax)]
    if neg_entries:
        diagnostics["negative_F_entries"] = neg_entries

    return NgmResult(dfe, w.script_f, w.script_v,
                     tuple(map(tuple, F)), tuple(map(tuple, V)),
                     tuple(map(tuple, Vinv)), tuple(map(tuple, K)),
                     r0, diagnostics, tuple(findings))
