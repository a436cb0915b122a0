"""The benchmark's tracer wraps covcon functions by name; keep those names.

perfbench/tracing.py replaces module attributes such as ``rng.words_at`` with
timing wrappers.  Installing it here makes a rename or deletion of any
wrapped name fail the test suite instead of the traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from covcon import rng, statistics
from covcon.sampler import EnsembleSpec, sample_ensemble

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
        rng.normal_columns(1, range(3), rng.TAG_COLUMNS, 4)
    finally:
        tracer.uninstall()
    assert rng.normal_columns is original
    names = [span.name for span in tracer.spans]
    assert names == ["rng.normal_columns", "rng.raw_words"]


def test_psi1_steps_are_logsumexp_spans(monkeypatch):
    # The benchmark's statistics.psi1_iterations counts the logsumexp spans
    # under psi1_ensemble: one per Newton step, a handful per call.
    tracing = _load_tracing(monkeypatch)
    A = sample_ensemble(EnsembleSpec("gaussian", 16, 4096, 5))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        statistics.psi1_ensemble(A, 16)
    finally:
        tracer.uninstall()
    by_id = {span.id: span for span in tracer.spans}

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span.name

    steps = [span for span in tracer.spans if span.name == "statistics.logsumexp"]
    assert 1 <= len(steps) <= 10
    assert all("statistics.psi1_ensemble" in ancestors(span) for span in steps)
