import copy
import math
import pickle
import random

import pytest

from ngmpn.modelzoo import (ZooError, builtin, oracle_r0, zoo_entries,
                            zoo_entry, zoo_ids)
from ngmpn import ngm
from ngmpn.ngm import ngm_r0

FROZEN_ORACLE = {
    "sirs": 3.0,
    "seir": 2.411265432098765,
    "seeir": 1.7815517815517814,
    "covid": 2.080769230769231,
    "nonlinear": 2.747252747252747,
    "vectorborne": 0.8164965809277259,
    "patch2": 2.373533009068967,
}

CLOSED_FORM_IDS = tuple(FROZEN_ORACLE)


def test_catalog_ids():
    assert zoo_ids() == ("sirs", "sirs_spn", "seir", "seir_spn", "seeir",
                         "covid", "nonlinear", "patch2", "vectorborne")


@pytest.mark.parametrize("record", ["NgmResult", "ZooEntry"])
def test_records_are_immutable_and_copy(record):
    rec = ngm_r0(builtin("sirs")) if record == "NgmResult" else zoo_entry("sirs")
    assert type(rec).__name__ == record
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    for again in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(again) is type(rec) and again == rec


def test_entries_are_well_formed():
    for e in zoo_entries():
        assert e.kind in ("vapn", "spn")
        assert e.description
        m = builtin(e.id)
        assert m.kind == e.kind
        assert ngm.susceptible_places(m)
        for name, spec in e.params.items():
            assert spec.lo <= spec.default <= spec.hi, (e.id, name)


def test_builtin_params_match_manifest_defaults():
    for e in zoo_entries():
        assert builtin(e.id).params == e.defaults(), e.id


def test_builtin_is_cached():
    assert builtin("sirs") is builtin("sirs")


@pytest.mark.parametrize("mid,expected", sorted(FROZEN_ORACLE.items()))
def test_oracle_defaults_frozen(mid, expected):
    got = oracle_r0(zoo_entry(mid))
    assert abs(got - expected) <= 1e-12 * (1 + abs(expected))


@pytest.mark.parametrize("mid", CLOSED_FORM_IDS)
def test_matrix_pipeline_matches_closed_form_at_defaults(mid):
    entry = zoo_entry(mid)
    alg = ngm_r0(builtin(mid)).r0
    ref = oracle_r0(entry)
    assert abs(alg - ref) <= 1e-9 * (1 + abs(ref)), mid


@pytest.mark.parametrize("mid", CLOSED_FORM_IDS)
def test_matrix_pipeline_matches_closed_form_random_draws(mid):
    entry = zoo_entry(mid)
    rng = random.Random(hash(mid) & 0xFFFF)
    for _ in range(5):
        draw = {name: rng.uniform(spec.lo, spec.hi)
                for name, spec in entry.params.items()}
        alg = ngm_r0(builtin(mid), params=draw).r0
        ref = oracle_r0(entry, draw)
        assert abs(alg - ref) <= 1e-9 * (1 + abs(ref)), (mid, draw)


def test_spn_twins_share_the_reproduction_number():
    assert ngm_r0(builtin("sirs_spn")).r0 == pytest.approx(3.0, rel=1e-12)
    assert ngm_r0(builtin("seir_spn")).r0 == \
        pytest.approx(2.411265432098765, rel=1e-12)


def test_unknown_id_rejected():
    with pytest.raises(ZooError) as err:
        zoo_entry("measles")
    assert "measles" in str(err.value)


def test_oracle_validates_params():
    with pytest.raises(ZooError):
        oracle_r0(zoo_entry("sirs"), {"zeta": 1.0})
    with pytest.raises(ZooError):
        oracle_r0(zoo_entry("sirs_spn"))   # no closed form on the spn twin
    # a value that is not a finite number is refused, as the model refuses it
    for value in ["abc", None, math.nan]:
        with pytest.raises(ZooError, match="parameter beta"):
            oracle_r0(zoo_entry("sirs"), {"beta": value})
