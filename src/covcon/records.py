"""One JSON rule for every result record.

A record is a frozen dataclass that mixes in Record; its JSON object is its
fields in declaration order, each made plain:

    numpy array          -> nested list (ndarray.tolist)
    tuple or list        -> list, elementwise
    dict                 -> dict, valuewise
    numpy scalar         -> the Python scalar (.item())
    nested Record        -> its own to_json_dict
    field named `cell`   -> the keys family, n, N

Python floats keep their repr through json, so a record's JSON is a pure
function of its field values.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any

import numpy as np

__all__ = ["Record", "plain"]


def plain(value: Any) -> Any:
    """value as JSON-ready Python data, by the rule in the module docstring."""
    if isinstance(value, Record):
        return value.to_json_dict()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


class Record:
    """Mixin giving a dataclass the JSON object of its own fields."""

    def to_json_dict(self) -> dict:
        d: dict[str, Any] = {}
        for f in fields(self):
            value = plain(getattr(self, f.name))
            if f.name == "cell":
                d["family"], d["n"], d["N"] = value
            else:
                d[f.name] = value
        return d
