"""Time ngm_r0 on a chain of k infected stages, for growing k.

The net is S, then I1..Ik, then R. Frequency-dependent incidence
beta*S*(I1+...+Ik)/N flows from S into I1, and each stage leaves at rate g
into the next (Ik into R), so R0 = beta*k/g exactly. For each k the script
parses a fresh net, times the first ngm_r0 (derivation, code generation and
one evaluation) and the median of WARM further calls, and prints one JSON line.
It exits 1 if an R0 is off by more than 1e-12 relative.

Run: PYTHONPATH=src python scripts/scaling.py [--quick]   (--quick: k = 20, 50)
"""

import argparse
import json
import statistics
import sys
import time

from ngmpn.ngm import ngm_r0
from ngmpn.petri import parse_model

BETA, G = 0.5, 1.0
WARM = 5


def chain(k: int) -> str:
    stages = [f"I{j}" for j in range(1, k + 1)]
    lines = ["model chain kind=vapn", f"param beta={BETA}", f"param g={G}",
             "place S init=1000"]
    lines += [f"place {x} init={1 if j == 0 else 0} infected"
              for j, x in enumerate(stages)]
    lines += ["place R init=0", "trans infect"]
    incidence = f"beta*S*({' + '.join(stages)})/N"
    lines += [f'arc S -> infect weight="{incidence}"',
              f'arc infect -> I1 weight="{incidence}"']
    for x, nxt in zip(stages, stages[1:] + ["R"]):
        lines += [f"trans leave_{x}", f'arc {x} -> leave_{x} weight="g*{x}"',
                  f'arc leave_{x} -> {nxt} weight="g*{x}"']
    return "\n".join(lines) + "\n"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true", help="k = 20 and 50 only")
    args = ap.parse_args()
    ok = True
    for k in (20, 50) if args.quick else (20, 50, 100, 200):
        m = parse_model(chain(k))
        start = time.perf_counter()
        r0 = ngm_r0(m).r0
        first = time.perf_counter() - start
        warm = []
        for _ in range(WARM):
            start = time.perf_counter()
            ngm_r0(m)
            warm.append(time.perf_counter() - start)
        expected = BETA * k / G
        rel_err = abs(r0 - expected) / expected
        ok = ok and rel_err <= 1e-12
        print(json.dumps({"k": k, "r0": r0, "rel_err": rel_err,
                          "first_s": round(first, 4),
                          "warm_s": round(statistics.median(warm), 5)},
                         sort_keys=True), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
