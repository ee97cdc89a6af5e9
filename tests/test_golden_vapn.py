"""Byte-stability guard for the vapn stepper on the models without `N`.

tests/test_golden.py pins `simulate` only on sirs, whose weights read the
total N. These hashes pin nonlinear at a fine dt, and patch2 sampled every
7th step with a trailing partial step; neither model reads N. They were
recorded before the Euler loop ran in blocks of sample_every steps, so they
hold that rewrite to the same bits.
Like tests/test_golden.py they are specific to the CPython build they were
recorded on (CPython 3.11.7, x86-64 Linux).
"""
import hashlib

import pytest

from ngmpn.cli import main

RUN_SHA256 = [
    (["simulate", "--builtin", "nonlinear", "--t-end", "150", "--dt", "0.02"],
     "175db547e4f3199e3e9901a08d79e9dfd951dd76735e315079a988baefbbeece"),
    (["simulate", "--builtin", "patch2", "--t-end", "100.05", "--sample-every", "7"],
     "0f8c82dba7d26982666ac890a34aae21bcd4c31e03b89f9899553f71b94c7c58"),
]


@pytest.mark.parametrize("argv,digest", RUN_SHA256, ids=["nonlinear", "patch2"])
def test_vapn_output_is_byte_stable(argv, digest, capsys):
    assert main(argv) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
