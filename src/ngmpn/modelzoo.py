"""Bundled example models with reference reproduction numbers.

Each entry ships a model definition, parameter defaults with plausible
ranges, and (for the deterministic nets) a closed-form reproduction number
evaluated directly from parameter values. The closed forms are independent
of the matrix pipeline, which makes them usable as oracles against it.
"""
from __future__ import annotations

import json
import math
import os
from functools import cache
from typing import NamedTuple

from .errors import NgmpnError
from .expr import parse_expr, eval_expr
from .petri import PetriModel, parse_model


class ZooError(NgmpnError):
    pass


# the bundled model files sit next to this module
_MODELS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "models")


def _read(name: str) -> str:
    with open(os.path.join(_MODELS, name), encoding="utf-8") as fh:
        return fh.read()


class ParamSpec(NamedTuple):
    default: float
    lo: float
    hi: float


class ZooEntry(NamedTuple):
    """One bundled model: its manifest record."""
    id: str
    kind: str
    description: str
    params: dict                # name -> ParamSpec
    closed_form: str | None
    file: str

    def defaults(self) -> dict:
        return {name: spec.default for name, spec in self.params.items()}


@cache
def _load() -> dict:
    manifest = json.loads(_read("manifest.json"))
    entries = {}
    for raw in manifest["models"]:
        params = {name: ParamSpec(spec["default"], spec["range"][0], spec["range"][1])
                  for name, spec in raw["params"].items()}
        entries[raw["id"]] = ZooEntry(
            raw["id"], raw["kind"], raw["description"], params,
            raw["closed_form"], raw["file"])
    return entries


def zoo_ids() -> tuple:
    return tuple(_load())


def zoo_entry(model_id: str) -> ZooEntry:
    entries = _load()
    try:
        return entries[model_id]
    except KeyError:
        raise ZooError(f"unknown builtin model: {model_id} "
                       f"(have: {', '.join(entries)})") from None


def zoo_entries() -> tuple:
    return tuple(_load().values())


@cache
def builtin(model_id: str) -> PetriModel:
    """The parsed model for a zoo id, the same object on every call (models
    are immutable, and per-model code is keyed by model identity)."""
    entry = zoo_entry(model_id)
    model = parse_model(_read(entry.file))
    if model.params != entry.defaults():
        raise ZooError(f"manifest and model file disagree on {model_id} params")
    return model


def _two_patch_block(p: dict) -> float:
    """Dominant eigenvalue of the 2x2 exposed-stage block of the two-patch
    next-generation matrix, written out by hand."""
    s1 = p["Pi1"] / p["mu1"]
    s2 = p["Pi2"] / p["mu2"]
    d1 = p["m11"] * s1 + p["m21"] * s2
    d2 = p["m12"] * s1 + p["m22"] * s2
    # force-of-infection derivatives wrt I1 and I2 for each patch's exposed
    f13 = p["beta1"] * p["m11"] * s1 * p["p11"] / d1 + p["beta2"] * p["m12"] * s1 * p["p12"] / d2
    f14 = p["beta1"] * p["m11"] * s1 * p["p21"] / d1 + p["beta2"] * p["m12"] * s1 * p["p22"] / d2
    f23 = p["beta1"] * p["m21"] * s2 * p["p11"] / d1 + p["beta2"] * p["m22"] * s2 * p["p12"] / d2
    f24 = p["beta1"] * p["m21"] * s2 * p["p21"] / d1 + p["beta2"] * p["m22"] * s2 * p["p22"] / d2
    w1 = p["nu1"] / ((p["gamma1"] + p["delta1"] + p["mu1"]) * (p["nu1"] + p["mu1"]))
    w2 = p["nu2"] / ((p["gamma2"] + p["delta2"] + p["mu2"]) * (p["nu2"] + p["mu2"]))
    a11, a12 = f13 * w1, f14 * w2
    a21, a22 = f23 * w1, f24 * w2
    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    return (tr + math.sqrt(tr * tr - 4.0 * det)) / 2.0


def oracle_r0(entry: ZooEntry, params: dict | None = None) -> float:
    """Reference reproduction number from the entry's closed form.

    Evaluates parameter expressions directly, never the matrix pipeline;
    params are merged over the defaults as the model merges them. Raises
    ZooError for entries without a closed form and for params the model
    refuses.
    """
    if entry.closed_form is None:
        raise ZooError(f"{entry.id} has no closed-form reproduction number")
    values = builtin(entry.id).merged_params(params, ZooError)
    if entry.closed_form == "@two_patch_block":
        return _two_patch_block(values)
    return eval_expr(parse_expr(entry.closed_form), values)
