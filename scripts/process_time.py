"""Wall time of one-shot `ngmpn` processes, the way the paper's use case runs
them: one command, one model, one fresh interpreter.

Each command runs as `python -m ngmpn.cli ARGS` with the checkout's src on
PYTHONPATH, and must exit 0. The commands take turns, so a burst of host load
touches all of them alike. Prints one JSON object: the median wall time in
seconds of each command over the repetitions, the repetition count, and
whether the processes write bytecode (with PYTHONDONTWRITEBYTECODE set, every
process compiles the package from source).

Run: python scripts/process_time.py [--quick]   (--quick: 3 repetitions)
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = {
    "r0 sirs": ["r0", "--builtin", "sirs"],
    "r0 patch2": ["r0", "--builtin", "patch2"],
    "sweep one point": ["sweep", "--builtin", "sirs", "--grid", "beta=0.3:0.3:1",
                        "-p", "delta=0"],
    "simulate vapn": ["simulate", "--builtin", "sirs", "--t-end", "100"],
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true", help="3 repetitions instead of 9")
    args = ap.parse_args()
    repetitions = 3 if args.quick else 9

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    times = {name: [] for name in COMMANDS}
    for _ in range(repetitions):
        for name, argv in COMMANDS.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "ngmpn.cli", *argv], env=env,
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                           check=True)
            times[name].append(time.perf_counter() - start)
    print(json.dumps({
        "median_s": {name: round(statistics.median(ts), 4) for name, ts in times.items()},
        "repetitions": repetitions,
        "writes_bytecode": not env.get("PYTHONDONTWRITEBYTECODE"),
    }, sort_keys=True))


if __name__ == "__main__":
    main()
