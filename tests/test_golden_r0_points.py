"""Byte-stability guard for the warm R0 path: one sha256 over `ngm_r0` at
1,080 seeded draws, 120 for each bundled model.

Every parameter is drawn uniformly from its manifest range; every tenth draw
also sets one parameter, chosen by the same generator, to 0, which reaches
the error paths (a singular V, a degenerate DFE) as well. Each result
contributes the exact bits of R0, the DFE marking, method, residual and
notes, every finding's code, status and text, the diagnostics (condition of
V, the eigenvalues of K, the modulus tie and the negative entries of F), and
the matrices Vinv and K. An error contributes its type and message. A change
to any of these, down to the last bit of one float, changes the hash.
"""
import hashlib
import random

from ngmpn.modelzoo import builtin, zoo_entries
from ngmpn.ngm import ngm_r0

DRAWS_PER_MODEL = 120
POINTS_SHA256 = "86b179181f11b54f378b8b12b81886df736558f024e20025f29bb63c8a3802b2"


def point_record(model, params) -> str:
    try:
        res = ngm_r0(model, params=params)
    except Exception as exc:   # the error's type and text are pinned too
        return f"{type(exc).__name__}: {exc}"
    return repr((
        res.r0.hex(),
        [v.hex() for v in res.dfe.marking], res.dfe.method, res.dfe.residual.hex(),
        res.dfe.notes,
        [(f.code, f.status, f.detail) for f in res.findings],
        sorted(res.diagnostics.items()),
        [[v.hex() for v in row] for row in res.Vinv],
        [[v.hex() for v in row] for row in res.K],
    ))


def draws():
    rng = random.Random("golden-r0-points")
    for entry in zoo_entries():
        for k in range(DRAWS_PER_MODEL):
            params = {name: rng.uniform(spec.lo, spec.hi)
                      for name, spec in entry.params.items()}
            if k % 10 == 9:
                params[rng.choice(sorted(params))] = 0.0
            yield entry.id, params


def test_r0_points_are_byte_stable():
    h = hashlib.sha256()
    for model_id, params in draws():
        h.update(f"{model_id} {sorted(params.items())}\n".encode())
        h.update(point_record(builtin(model_id), params).encode() + b"\n")
    assert h.hexdigest() == POINTS_SHA256
