"""Print the reproduction number of every built-in model at its defaults.

Columns: matrix-pipeline R0, the closed-form reference where one exists,
their relative difference, and how the disease-free equilibrium was found.
It exits 1 if a matrix R0 misses its closed form by more than 1e-9 relative.

Run: python scripts/r0_table.py
"""

import sys

from ngmpn.modelzoo import builtin, oracle_r0, zoo_entries
from ngmpn.ngm import ngm_r0


def main() -> int:
    ok = True
    print(f"{'model':12s} {'kind':5s} {'r0 (matrix)':>18s} {'closed form':>18s} "
          f"{'rel diff':>10s} {'dfe':>26s}")
    for entry in zoo_entries():
        res = ngm_r0(builtin(entry.id))
        if entry.closed_form is not None:
            ref = oracle_r0(entry)
            rel = abs(res.r0 - ref) / abs(ref)
            ok = ok and rel <= 1e-9
            ref_s, rel_s = f"{ref:.12g}", f"{rel:.1e}"
        else:
            ref_s, rel_s = "-", "-"
        dfe = f"{res.dfe.method} ({res.dfe.residual:.0e})"
        print(f"{entry.id:12s} {entry.kind:5s} {res.r0:>18.12g} {ref_s:>18s} "
              f"{rel_s:>10s} {dfe:>26s}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
