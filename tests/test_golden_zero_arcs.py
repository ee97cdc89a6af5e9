"""Byte-stability guard for runs whose zero-valued parameters switch arcs off.

`sim.run_vapn` steps such a run with a stepper compiled without the arcs
whose weights the zero parameters make zero, and must give the bits the
general stepper gives. These hashes were recorded with the general stepper
alone, before the specialised ones existed, on CPython 3.11.7 (x86-64 Linux);
another build may round differently and fail here without anything being
wrong. The commands cover a birth inflow and deaths switched off (nonlinear
at mu = 0), a net whose every demographic arc is off, so that places lose
all their inflow or all their outflow (patch2 closed, with a trailing
partial step and sparse samples), and a sweep.
"""
import hashlib

import pytest

from ngmpn.cli import main

RUN_SHA256 = [
    (["simulate", "--builtin", "nonlinear", "--t-end", "150", "--dt", "0.02",
      "-p", "mu=0"],
     "bc036235627fb455933334e81499f560a6f5078c2add34d39f2b7bf47863b106"),
    (["simulate", "--builtin", "patch2", "--t-end", "100.05", "--sample-every", "7",
      "-p", "Pi1=0", "-p", "Pi2=0", "-p", "mu1=0", "-p", "mu2=0", "-p", "delta1=0",
      "-p", "delta2=0", "-p", "eta1=0", "-p", "eta2=0"],
     "23dc3c949b1384323d78b2f40310d30a6e011943a3d4115d286517e008f7b4af"),
    (["sweep", "--builtin", "nonlinear", "--grid", "beta=0.3:0.6:2",
      "--grid", "sigma=0.15:0.5:2", "-p", "mu=0", "--dt", "0.02"],
     "f74848f0999a292954c9ed4f1c75a7943f972956eee8e18f4070085b3f61989c"),
]


@pytest.mark.parametrize("argv,digest", RUN_SHA256,
                         ids=["nonlinear", "patch2-closed", "sweep"])
def test_zero_arc_runs_are_byte_stable(argv, digest, capsys):
    assert main(argv) == 0
    out, _ = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
