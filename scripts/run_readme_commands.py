"""Run every command of README.md's "Command line" block, then its Python
example, and fail on the first one that exits non-zero, so the README cannot
keep a flag or a name that is gone.

Each `ngmpn ARGS` line runs as `python -m ngmpn.cli ARGS`, and the
```python block as `python -c BLOCK`, with the checkout's src on PYTHONPATH,
inside DIR (a new temporary directory by default), so output files land
there. An argument naming a file of the checkout, such as a bundled model,
is resolved against the checkout root.

Run: python scripts/run_readme_commands.py [--dir DIR]
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_commands(text: str) -> list:
    """The argument lists of the first code block under "## Command line",
    with backslash-continued lines joined."""
    block = text.split("\n## Command line\n", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [line.split() for line in lines if line.strip()]


def readme_python(text: str) -> str:
    """The source of README.md's first ```python block."""
    return text.split("\n```python\n", 1)[1].split("\n```", 1)[0]


def run(argv, label, workdir, env) -> bool:
    """Run argv in workdir, report its exit code and time; True on success."""
    start = time.perf_counter()
    code = subprocess.run(argv, cwd=workdir, env=env,
                          stdout=subprocess.DEVNULL).returncode
    print(f"exit {code} in {time.perf_counter() - start:5.1f} s: {label}")
    return code == 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", help="directory to run in (default: a new temporary one)")
    args = ap.parse_args()
    workdir = Path(args.dir) if args.dir else Path(tempfile.mkdtemp(prefix="ngmpn-readme-"))
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    readme = (ROOT / "README.md").read_text()
    for argv in readme_commands(readme):
        if argv[0] != "ngmpn":
            print(f"not an ngmpn command: {' '.join(argv)}", file=sys.stderr)
            return 1
        cli_args = [str(ROOT / a) if (ROOT / a).is_file() else a for a in argv[1:]]
        if not run([sys.executable, "-m", "ngmpn.cli", *cli_args], " ".join(argv),
                   workdir, env):
            return 1
    if not run([sys.executable, "-c", readme_python(readme)], "the Python example",
               workdir, env):
        return 1
    print(f"outputs in {workdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
