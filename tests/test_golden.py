"""Byte-stability guard: sha256 of command-line output at fixed inputs.

The hashes were recorded before the per-model compile caches replaced
per-call rebuilding, and every refactor since must reproduce them. They pin
exact floating-point results, so they are specific to the CPython/numpy build
they were recorded on (CPython 3.11.7, numpy 2.4.6, x86-64 Linux); another
build may round differently or draw different PCG64 streams and fail here
without anything being wrong.
"""
import hashlib
from pathlib import Path

import pytest

import ngmpn
from ngmpn.cli import main

MODELS = Path(ngmpn.__file__).parent / "models"

R0_SHA256 = {
    "covid": "6a996e2781c61dc8da7de70a5e823f09a4adc4b4a0a709200f7e1dd29710fb3f",
    "nonlinear": "30c5c036390dac87d9ed4a58acba8c9463a6ffc7ccadee5a6f731773e006223b",
    "patch2": "1e31a4a3d6b605955dfa4a6ab37baccf5dd25ac7abe4e2af6942ad35e7d75455",
    "seeir": "5177bc70084a8872bf9237a4d19356b0f3a4547a84900a3df502f8a2b5906fe7",
    "seir": "d44436642434ae5f22eb03faf179a7a6423feda9b4ebdaae00dc3036a9e805f8",
    "seir_spn": "d44436642434ae5f22eb03faf179a7a6423feda9b4ebdaae00dc3036a9e805f8",
    "sirs": "4eaa2a6fa19dbead4a388a1ebbe04cf2c55c9a74a7d993c24dffff5e92aaf393",
    "sirs_spn": "63119e5d381a5bf455165de5b1e5e172d7154a64b77a8d28f9ffeefa0979c51b",
    "vectorborne": "6e446f2c2acc16a6dc29ec6b4e2c8ead16653732c1461def862ed49db906c49f",
}

RUN_SHA256 = [
    (["simulate", "--builtin", "sirs", "--t-end", "200", "--dt", "0.05"],
     "a7166ac42410b9decd077c56d798562502de82190f56cb18613732b0386fcc9e"),
    (["simulate", "--builtin", "sirs_spn", "--t-end", "100", "--seed", "42",
      "--replicates", "3"],
     "6b6ca07630f553b29d134a2576cd1194c87ec52e5543336674bb7f0dbb77b2e4"),
    (["sweep", "--builtin", "sirs", "--grid", "beta=0.3:0.4:2", "-p", "delta=0"],
     "29e411696c33c53e67b627f517a04794c2591eddc0fbbda4a100f69e16806a59"),
]


def stdout_sha256(capsys, argv):
    assert main(argv) == 0
    out, _ = capsys.readouterr()
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("model_id", sorted(R0_SHA256))
def test_r0_json_is_byte_stable(model_id, capsys):
    path = MODELS / f"{model_id}.pnet"
    assert stdout_sha256(capsys, ["r0", str(path)]) == R0_SHA256[model_id]


@pytest.mark.parametrize("argv,digest", RUN_SHA256, ids=["vapn", "spn", "sweep"])
def test_run_output_is_byte_stable(argv, digest, capsys):
    assert stdout_sha256(capsys, argv) == digest
