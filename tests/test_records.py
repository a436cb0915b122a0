"""The one JSON rule for result records: plain values, cell flattening,
omitted None fields, and the record that adds a field of its own."""

import json
from dataclasses import dataclass

import numpy as np

from covcon.experiments import SandwichCheck
from covcon.records import Record, plain
from covcon.statistics import SparseNormProfile, SphereNet, TruncationSplit


@dataclass(frozen=True)
class _Inner(Record):
    value: float


@dataclass(frozen=True)
class _Optional(Record):
    value: float
    note: str | None = None


@dataclass(frozen=True)
class _Outer(Record):
    cell: tuple[str, int, int]
    inner: _Inner
    items: tuple[_Inner, ...]


def test_plain_numpy_scalars_become_python_scalars():
    for value, kind in ((np.bool_(True), bool), (np.int64(7), int), (np.float64(0.1), float)):
        out = plain(value)
        assert type(out) is kind
        assert out == value.item()


def test_plain_containers():
    assert plain(np.arange(6, dtype=np.float64).reshape(2, 3)) == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
    assert plain(((1, np.int64(2)), (np.float64(0.5),), ())) == [[1, 2], [0.5], []]
    assert plain({"a": (np.bool_(False), [np.arange(2)]), "b": None}) == {"a": [False, [[0, 1]]], "b": None}
    assert plain("text") == "text"


def test_nested_records_and_cell_flattening():
    rec = _Outer(cell=("gaussian", 4, 16), inner=_Inner(np.float64(1.5)), items=(_Inner(2.0),))
    d = rec.to_json_dict()
    assert d == {
        "family": "gaussian",
        "n": 4,
        "N": 16,
        "inner": {"value": 1.5},
        "items": [{"value": 2.0}],
    }
    assert list(d) == ["family", "n", "N", "inner", "items"]


def test_none_fields_are_omitted():
    # No schema allows null, so a field whose value is None is left out.
    assert _Optional(1.0).to_json_dict() == {"value": 1.0}
    assert _Optional(1.0, "kept").to_json_dict() == {"value": 1.0, "note": "kept"}


def test_sparse_norm_profile_omits_missing_certificates():
    ms, a_m = np.array([1, 2], dtype=np.int64), np.array([1.0, 1.5])
    greedy = SparseNormProfile(m_values=ms, a_m=a_m, mode="greedy").to_json_dict()
    assert greedy == {"m_values": [1, 2], "a_m": [1.0, 1.5], "mode": "greedy"}
    exact = SparseNormProfile(m_values=ms, a_m=a_m, mode="exact", certificates=((0,), (0, 1)))
    assert exact.to_json_dict()["certificates"] == [[0], [0, 1]]


def test_sphere_net_adds_its_size():
    d = SphereNet(n=2, epsilon=0.5, points=np.eye(2)).to_json_dict()
    assert d == {"n": 2, "epsilon": 0.5, "points": [[1.0, 0.0], [0.0, 1.0]], "size": 2}


def test_numpy_valued_records_dump_without_a_default_hook():
    split = TruncationSplit(
        B=np.float64(1.0),
        x=np.array([0.6, 0.8]),
        s1=np.float64(0.1),
        s2=np.float64(0.2),
        s3=np.float64(0.3),
        e_b_indices=np.array([0, 3], dtype=np.int64),
        m_observed=np.int64(2),
        big_m=np.float64(4.0),
        expectation="analytic_isotropic",
    )
    sandwich = SandwichCheck(
        cell=("gaussian", np.int64(4), np.int64(16)),
        trial_outcomes=tuple(np.array([True, False])),
        fraction_holding=np.float64(0.5),
        budget=np.float64(0.25),
        passed=np.bool_(False),
    )
    for rec in (split, sandwich):
        text = json.dumps(rec.to_json_dict(), allow_nan=False)
        assert json.loads(text) == rec.to_json_dict()
    assert json.loads(json.dumps(sandwich.to_json_dict()))["passed"] is False
