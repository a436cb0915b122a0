"""In-memory spans around the calls into covcon's layers, recorded from the
benchmark's side only.

A span is recorded by replacing a module attribute that callers resolve at
call time (``covcon.linalg.sym_eigen``, ``covcon.experiments.sample_ensemble``
and so on) with a wrapper; the program's source is not touched.  Spans carry
a name, a layer, start and end (``perf_counter``), the id of the enclosing
span and a small ``key`` (for example the matrix dimension) used to split a
metric.  They stay in memory until ``Tracer.spans`` is read at the end.

Only calls made in the tracing process are seen: trials that run inside the
``experiments`` process pool are invisible.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float
    key: str
    work: int


def _no_key(args, kwargs) -> str:
    return ""


def _no_work(result) -> int:
    return 0


def _spec_key(args, kwargs) -> str:
    spec = args[0] if args else kwargs["spec"]
    return f"{spec.family}:{spec.N}"


def _dim_key(args, kwargs) -> str:
    matrix = args[0] if args else kwargs["M"]
    return f"n{matrix.dim}"


def _mode_key(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs.get("mode", "greedy")


def _size(result) -> int:
    return int(result.size)


def _first_size(result) -> int:
    return int(result[0].size)


#: (module, attribute, layer, span name, key function, work function).  A
#: function imported by name into another module is wrapped at each module
#: that calls it, because that module resolves its own attribute.
WRAP_POINTS = (
    ("covcon.rng", "normal_columns", "rng", "rng.normal_columns", _no_key, _first_size),
    ("covcon.rng", "raw_words", "rng", "rng.raw_words", _no_key, _size),
    ("covcon.rng", "words_at", "rng", "rng.words_at", _no_key, _size),
    ("covcon.sampler", "sample_ensemble", "sampler", "sampler.sample_ensemble", _spec_key, _no_work),
    ("covcon.experiments", "sample_ensemble", "sampler", "sampler.sample_ensemble", _spec_key, _no_work),
    ("covcon.statistics", "sample_ensemble", "sampler", "sampler.sample_ensemble", _spec_key, _no_work),
    ("covcon.linalg", "operator_deviation", "linalg", "linalg.operator_deviation", _no_key, _no_work),
    ("covcon.experiments", "operator_deviation", "linalg", "linalg.operator_deviation", _no_key, _no_work),
    ("covcon.linalg", "gram_covariance", "linalg", "linalg.gram_covariance", _no_key, _no_work),
    ("covcon.linalg", "sym_eigen", "linalg", "linalg.sym_eigen", _dim_key, _no_work),
    ("covcon.linalg", "matrix_norm", "linalg", "linalg.matrix_norm", _no_key, _no_work),
    ("covcon.statistics", "matrix_norm", "linalg", "linalg.matrix_norm", _no_key, _no_work),
    ("covcon.statistics", "psi1_ensemble", "statistics", "statistics.psi1_ensemble", _no_key, _no_work),
    ("covcon.statistics", "logsumexp", "statistics", "statistics.logsumexp", _no_key, _no_work),
    ("covcon.statistics", "sparse_norm_profile", "statistics", "statistics.sparse_norm_profile", _mode_key, _no_work),
    ("covcon.statistics", "truncation_split", "statistics", "statistics.truncation_split", _no_key, _no_work),
    ("covcon.statistics", "build_net", "statistics", "statistics.build_net", _no_key, _no_work),
    ("covcon.statistics", "net_sup_deviation", "statistics", "statistics.net_sup_deviation", _no_key, _no_work),
    ("covcon.experiments", "run_grid", "experiments", "experiments.run_grid", _no_key, _no_work),
    ("covcon.experiments", "scaling_fit", "experiments", "experiments.scaling_fit", _no_key, _no_work),
    ("covcon.experiments", "failure_rate", "experiments", "experiments.failure_rate", _no_key, _no_work),
    ("covcon.experiments", "bai_yin_sandwich", "experiments", "experiments.bai_yin_sandwich", _no_key, _no_work),
    ("covcon.cli", "run_bundle", "cli", "cli.run_bundle", _no_key, _no_work),
    ("covcon.cli", "write_bundle", "cli", "cli.write_bundle", _no_key, _no_work),
)


def _bounds_points() -> list[tuple]:
    """Every public function of covcon.bounds, wrapped where the module's own
    code and its callers resolve it."""
    bounds = importlib.import_module("covcon.bounds")
    return [
        ("covcon.bounds", name, "bounds", f"bounds.{name}", _no_key, _no_work)
        for name, func in inspect.getmembers(bounds, inspect.isfunction)
        if func.__module__ == bounds.__name__ and not name.startswith("_")
    ]


class Tracer:
    """Records spans for the wrapped attributes between install() and
    uninstall(); not thread-safe, which matches the single-threaded parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, func, layer: str, name: str, key_fn, work_fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            span = Span(span_id, parent, name, layer, 0.0, 0.0, key_fn(args, kwargs), 0)
            spans.append(span)
            stack.append(span_id)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.work = work_fn(result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, layer, name, key_fn, work_fn in WRAP_POINTS + tuple(_bounds_points()):
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, name, key_fn, work_fn))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children
    (children of one span are sequential, so their durations add)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    return [span.end - span.start - child_time[span.id] for span in spans]
