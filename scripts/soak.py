"""Run every derandomized hypothesis property of tests/ on random examples.

tests/ runs each property on a fixed set of examples (derandomize=True), so
a defect those examples miss stays hidden. This script runs each property's
inner test (`.hypothesis.inner_test`) again under derandomize=False, the
given seed and no practical cap on max_examples, each for an equal share of
the time left, and prints every falsifying example hypothesis reports. No
test's settings change in tests/, and CI does not run this script: what it
finds depends on the seed and on the host's speed.

Run: PYTHONPATH=src python scripts/soak.py --minutes 10 --seed 1
Exits 1 if any property failed.
"""

import argparse
import sys
import time
from pathlib import Path

import pytest
from hypothesis import seed as use_seed
from hypothesis import settings
from hypothesis.errors import UnsatisfiedAssumption

TESTS = Path(__file__).resolve().parent.parent / "tests"
# max_examples for an uncapped run: the share of the time ends it first
UNCAPPED = 10**9


class TimeUp(BaseException):
    """Raised from a property's inner test, after a passing example, once
    its share of the time is spent. Hypothesis lets a BaseException through
    instead of shrinking it, and the run counts as passed."""


def derandomized(fn) -> bool:
    return (getattr(fn, "hypothesis", None) is not None
            and fn._hypothesis_internal_use_settings.derandomize)


class Soak:
    """A pytest plugin: keeps the derandomized properties, runs each on
    random examples until its share of the time is spent, and prints the
    falsifying examples."""

    def __init__(self, seconds: float, seed: int):
        self.end = time.monotonic() + seconds
        self.seed = seed
        self.deadline = 0.0
        self.calls = 0
        self.failing = False
        self.failed = []

    def pytest_collection_modifyitems(self, config, items):
        keep = [item for item in items if derandomized(getattr(item, "obj", None))]
        config.hook.pytest_deselected(items=[i for i in items if i not in keep])
        items[:] = keep
        self.left = len(keep)
        # parametrized items share one function, and so one inner test
        for fn in {id(item.obj): item.obj for item in keep}.values():
            fn._hypothesis_internal_use_settings = settings(
                fn._hypothesis_internal_use_settings, derandomize=False,
                max_examples=UNCAPPED)
            use_seed(self.seed)(fn)
            fn.hypothesis.inner_test = self.timed(fn.hypothesis.inner_test)

    def timed(self, inner):
        def run(*args, **kwargs):
            self.calls += 1
            try:
                result = inner(*args, **kwargs)
            except UnsatisfiedAssumption:
                raise
            except Exception:
                self.failing = True
                raise
            # after the example has drawn all it draws, which hypothesis
            # checks, and never while it shrinks a failure
            if not self.failing and time.monotonic() > self.deadline:
                raise TimeUp
            return result
        return run

    @pytest.hookimpl(hookwrapper=True)
    def pytest_pyfunc_call(self, pyfuncitem):
        self.deadline = time.monotonic() + max(0.0, self.end - time.monotonic()) / self.left
        self.left -= 1
        self.calls = 0
        self.failing = False
        outcome = yield
        if isinstance(outcome.excinfo and outcome.excinfo[1], TimeUp):
            outcome.force_result(True)
        print(f"{pyfuncitem.nodeid}: {self.calls} calls", flush=True)

    def pytest_runtest_logreport(self, report):
        if report.when == "call" and report.failed:
            self.failed.append(report.nodeid)
            text = report.longreprtext
            start = text.find("Falsifying")
            print(f"FAILED {report.nodeid}\n{text[start:] if start >= 0 else text}",
                  flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--minutes", type=float, required=True,
                    help="total time, shared equally among the properties")
    ap.add_argument("--seed", type=int, required=True, help="hypothesis seed")
    args = ap.parse_args()
    soak = Soak(args.minutes * 60.0, args.seed)
    # the plugin does the printing, so pytest's own terminal report is off
    argv = [str(TESTS), "-s", "-p", "no:cacheprovider", "-p", "no:terminal"]
    code = pytest.main(argv, plugins=[soak])
    print(f"seed {args.seed}: {len(soak.failed)} failed" + "".join(
        f"\n  {nodeid}" for nodeid in soak.failed))
    return 1 if soak.failed or code not in (0, 5) else 0


if __name__ == "__main__":
    sys.exit(main())
