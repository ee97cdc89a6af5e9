"""Bundled example models with reference reproduction numbers.

Each entry ships a model definition, parameter defaults with plausible
ranges, and (for the deterministic nets) a closed-form reproduction number
evaluated directly from parameter values. The closed forms are independent
of the matrix pipeline, which makes them usable as oracles against it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from .errors import NgmpnError
from .expr import parse_expr, eval_expr
from .petri import PetriModel, parse_model


class ZooError(NgmpnError):
    pass


@dataclass(frozen=True)
class ParamSpec:
    default: float
    lo: float
    hi: float


@dataclass(frozen=True, eq=False)
class ZooEntry:
    id: str
    kind: str
    description: str
    susceptible: str
    params: dict          # name -> ParamSpec
    closed_form: str | None
    file: str

    def defaults(self) -> dict:
        return {name: spec.default for name, spec in self.params.items()}


_entries: dict | None = None
_models: dict = {}


def _load():
    global _entries
    if _entries is None:
        root = resources.files(__package__) / "models"
        manifest = json.loads((root / "manifest.json").read_text())
        _entries = {}
        for raw in manifest["models"]:
            params = {name: ParamSpec(spec["default"], spec["range"][0], spec["range"][1])
                      for name, spec in raw["params"].items()}
            _entries[raw["id"]] = ZooEntry(
                raw["id"], raw["kind"], raw["description"], raw["susceptible"],
                params, raw["closed_form"], raw["file"])
    return _entries


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


def builtin(model_id: str) -> PetriModel:
    """The parsed model for a zoo id (cached; models are immutable)."""
    if model_id not in _models:
        entry = zoo_entry(model_id)
        text = (resources.files(__package__) / "models" / entry.file).read_text()
        model = parse_model(text)
        declared = entry.defaults()
        if model.params != declared:
            raise ZooError(f"manifest and model file disagree on {model_id} params")
        _models[model_id] = model
    return _models[model_id]


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

    Evaluates parameter expressions directly; never touches the net or the
    matrix pipeline. Raises ZooError for entries without a closed form.
    """
    if entry.closed_form is None:
        raise ZooError(f"{entry.id} has no closed-form reproduction number")
    values = entry.defaults()
    if params:
        for k, v in params.items():
            if k not in values:
                raise ZooError(f"unknown parameter {k!r} for {entry.id}")
            values[k] = float(v)
    if entry.closed_form == "@two_patch_block":
        return _two_patch_block(values)
    return eval_expr(parse_expr(entry.closed_form), values)
