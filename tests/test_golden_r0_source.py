"""Byte-stability guard for the symbolic layer: sha256 of the `_fv`/`_dfe`
source that `ngm._r0_functions` generates for each bundled model file.

tests/test_golden.py pins R0 only through 12-digit JSON, which would not see
a change in the last bits of a Jacobian entry. The generated source is the
printed form of every simplified Jacobian and DFE flow, so these hashes pin
`expr.diff` and `expr.simplify` on the zoo exactly. sirs/sirs_spn and
seir/seir_spn share a source, so nine files give seven hashes. They were
recorded before like terms were merged by node instead of by printed text.
"""
import hashlib
from pathlib import Path

import pytest

import ngmpn
from ngmpn import ngm
from ngmpn.petri import load_model

MODELS = Path(ngmpn.__file__).parent / "models"

SOURCE_SHA256 = {
    "covid": "4ba03aa7d6c4caa426e955428602982d643806568465615b16bcd920f4f15fd7",
    "nonlinear": "0485f4f246e30b925079e2fc8c4b636cfb26d993180b0842f456c65c7d58e23d",
    "patch2": "a3d3d1ec5299bfe325306572bce54977f00a2274a6a73a133cc021c82e7a65a1",
    "seeir": "28d9f1aa6fa96c8eb322af00711a76d606161def1259e6520a68251f68c30a12",
    "seir": "bdd375ea7e81ab29c459a5194fd08d528c598f1bb654e476bc7ce873c06c757f",
    "seir_spn": "bdd375ea7e81ab29c459a5194fd08d528c598f1bb654e476bc7ce873c06c757f",
    "sirs": "4050089240b9f16aa3e8930f83968c19f9de5c8685ad8e3ff40fef2a2f0ca1c1",
    "sirs_spn": "4050089240b9f16aa3e8930f83968c19f9de5c8685ad8e3ff40fef2a2f0ca1c1",
    "vectorborne": "1b3616785ca2aa9de52585857dc47f468b7755fa164cb0b6aaf60833b83e2725",
}


def r0_source(monkeypatch, model_id):
    sources = []
    real = ngm.generated

    def capture(src, what, **helpers):
        sources.append(src)
        return real(src, what, **helpers)

    monkeypatch.setattr(ngm, "generated", capture)
    # a freshly parsed model, so per_model cannot hand back an earlier build
    ngm.ngm_r0(load_model(MODELS / f"{model_id}.pnet"))
    (src,) = sources
    return src


@pytest.mark.parametrize("model_id", sorted(SOURCE_SHA256))
def test_r0_source_is_byte_stable(model_id, monkeypatch):
    src = r0_source(monkeypatch, model_id)
    assert hashlib.sha256(src.encode()).hexdigest() == SOURCE_SHA256[model_id]
