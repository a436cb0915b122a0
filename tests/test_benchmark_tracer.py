"""The benchmark's tracer wraps covcon functions by name; keep those names.

perfbench/tracing.py replaces module attributes such as ``rng.words_at`` with
timing wrappers.  Installing it here makes a rename or deletion of any
wrapped name fail the test suite instead of the traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from covcon import rng

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    original = rng.normal_columns
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rng.normal_columns is not original
        rng.normal_columns(1, np.arange(3), rng.TAG_COLUMNS, 4)
    finally:
        tracer.uninstall()
    assert rng.normal_columns is original
    names = [span.name for span in tracer.spans]
    assert names == ["rng.normal_columns", "rng.raw_words"]
