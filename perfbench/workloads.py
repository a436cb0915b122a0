"""One run of one covcon benchmark workload, in a process of its own.

    python perfbench/workloads.py --workload NAME --seed S --seconds T --trace 0|1 [--smoke]

The harness (run.py) starts this file with BLAS pinned to one thread and
``PYTHONPATH`` set to the checkout's ``src``.  Against covcon's public API it
runs the workload's fixed job once untimed (warm-up: lazy imports and caches),
then repeats it, timing each repetition and the reference computation
(reference.py) before, between and after them, while another fits in T
seconds, and with ``--trace 1`` runs one more repetition with the tracer
installed.  Every
timed repetition's output must equal the warm-up's, operation by operation;
the warm-up's output is then checked against independent oracles.  It prints
one JSON line: the repetition and reference times, peak RSS, the checks and comparisons,
and with ``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics as stats
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np

import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

import covcon  # noqa: E402

if Path(covcon.__file__).resolve().parent != SRC / "covcon":
    raise SystemExit(f"covcon was imported from {covcon.__file__}, not from {SRC}")

from covcon import cli, experiments, linalg, sampler, statistics  # noqa: E402
from covcon.bounds import DEFAULT_CONFIG  # noqa: E402
from covcon.sampler import EnsembleSpec  # noqa: E402

WORKLOADS = ("verify_grid", "tall_sample", "estimators")
TALL_FAMILIES = ("gaussian", "euclidean_ball", "exponential_product")
#: Truncation levels scanned per family, as in calibrate_constants().
B_GRID = tuple(0.25 * k for k in range(17))
#: Relative tolerance of the eigenvalue oracle, as a share of ||A A^T||.
EIGEN_RTOL = 1e-12
#: Absolute slack of inequalities that hold exactly in real arithmetic.
ROUNDING = 1e-12


@dataclass(frozen=True)
class Shapes:
    grid_n: tuple[int, ...]
    grid_N: tuple[int, ...]
    grid_trials: int
    tall_n: int
    tall_N: int
    tall_trials: int
    psi_shape: tuple[int, int]
    greedy_shape: tuple[int, int]
    exact_shape: tuple[int, int]
    net_n: int
    net_trials: int
    net_N: int
    fresh_T: int


#: The measured sizes, chosen so that one repetition takes a few seconds and a
#: run's median is taken over several.  The grid is the n <= 32, N <= 1024
#: corner of the paper's gaussian verification grid, at the 10 trials per
#: cell that scaling_fit needs; the estimator shapes are smaller than the
#: ones calibrate_constants() uses.
FULL = Shapes(
    grid_n=(16, 32),
    grid_N=(256, 1024),
    grid_trials=10,
    tall_n=16,
    tall_N=8192,
    tall_trials=3,
    psi_shape=(16, 4096),
    greedy_shape=(8, 32),
    exact_shape=(8, 16),
    net_n=3,
    net_trials=20,
    net_N=4096,
    fresh_T=100_000,
)

#: Tiny shapes for the benchmark's own tests: every code path, seconds total.
SMOKE = Shapes(
    grid_n=(2, 3, 4),
    grid_N=(8, 16, 32),
    grid_trials=10,
    tall_n=4,
    tall_N=512,
    tall_trials=2,
    psi_shape=(4, 256),
    greedy_shape=(4, 16),
    exact_shape=(4, 8),
    net_n=3,
    net_trials=3,
    net_N=64,
    fresh_T=2000,
)


@dataclass
class Job:
    """A workload's fixed job.  ``run`` is the timed part; ``check`` returns
    one pass/fail per operation of its output; ``digest`` returns one
    comparable item per operation, so later repetitions can be checked
    against the first."""

    run: Callable[[], object]
    check: Callable[[object], list[bool]]
    digest: Callable[[object], list]
    ops: int
    trials: int


# --- oracles -------------------------------------------------------------------


def eigen_matches(A, report) -> bool:
    """lambda_min, lambda_max and the deviation of `report` against LAPACK
    eigvalsh of the unnormalised Gram matrix A A^T (requires n <= N)."""
    e = A.entries
    w = np.linalg.eigvalsh(e @ e.T)
    tol = EIGEN_RTOL * max(abs(w[0]), abs(w[-1]))
    N = A.N
    deviation = max(abs(w[-1] / N - 1.0), abs(w[0] / N - 1.0))
    return (
        abs(report.lambda_min - w[0]) <= tol
        and abs(report.lambda_max - w[-1]) <= tol
        and abs(report.deviation - deviation) <= tol / N + ROUNDING
    )


def _resample(family: str, n: int, N: int, seed: int):
    fam, p = sampler.parse_family_token(family)
    return sampler.sample_ensemble(EnsembleSpec(fam, n, N, seed, p))


def reports_match(cell, reports, master: int, cell_index: int, trials: int) -> bool:
    """A cell's trial reports: right count, seeds derived from the master
    seed, and eigenvalues confirmed on a fresh draw of each trial's matrix."""
    family, n, N = cell
    if len(reports) != trials:
        return False
    for ti, report in enumerate(reports):
        if report.seed != experiments.derive_seed(master, cell_index, ti):
            return False
        if not eigen_matches(_resample(family, n, N, report.seed), report):
            return False
    return True


def _load_schema(name: str) -> dict:
    with open(SRC / "covcon" / "schemas" / f"{name}.json") as fh:
        return json.load(fh)


def _schema_valid(text: str, name: str) -> bool:
    try:
        jsonschema.validate(json.loads(text), _load_schema(name))
    except jsonschema.ValidationError:
        return False
    return True


def psi1_is_root(A, psi: float) -> bool:
    """psi is the largest per-direction root of mean exp(|<X_i, y>|/C) = 2
    over the basis plus the probe directions: every direction's mean at C =
    psi is at most 2, and the largest equals 2."""
    if not (math.isfinite(psi) and psi > 0.0):
        return False
    probes = np.vstack([np.eye(A.n), statistics.probe_directions(A.n, experiments.PSI_PROBE_DIRECTIONS, A.seed)])
    means = np.exp(np.abs(probes @ A.entries) / psi).mean(axis=1)
    return bool(means.max() <= 2.0 * (1.0 + 1e-9) and means.max() >= 2.0 * (1.0 - 1e-9))


def split_recombines(A, x, split) -> bool:
    """S(x) <= s1 + s2 + s3, with S(x) recomputed from the matrix."""
    s = abs(float(np.mean((x @ A.entries) ** 2)) - 1.0)
    return s <= split.s1 + split.s2 + split.s3 + ROUNDING


def profile_sound(A, profile) -> bool:
    """A_m nondecreasing, A_1 the largest column norm, A_N the operator norm."""
    a = profile.a_m
    top = math.sqrt(max(float(np.linalg.eigvalsh(A.entries @ A.entries.T)[-1]), 0.0))
    col = float(np.linalg.norm(A.entries, axis=0).max())
    return bool(
        np.all(np.diff(a) >= 0.0)
        and abs(a[0] - col) <= ROUNDING * max(1.0, col)
        and abs(a[-1] - top) <= 1e-10 * max(1.0, top)
    )


def net_sound(net, epsilon: float) -> bool:
    """Unit points, pairwise separation > epsilon, |net| <= (1 + 2/epsilon)^n."""
    pts = net.points
    d2 = 2.0 - 2.0 * pts @ pts.T
    np.fill_diagonal(d2, np.inf)
    return bool(
        np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=ROUNDING)
        and d2.min() > epsilon * epsilon
        and len(pts) <= (1.0 + 2.0 / epsilon) ** net.n
    )


# --- jobs ----------------------------------------------------------------------

#: Marks an estimator call that raised.
FAILED = object()
#: Net radius, as in the proof's (1/3)-net argument.
EPSILON = 1.0 / 3.0


def _attempt(func, *args, **kwargs):
    if any(a is FAILED for a in args) or any(v is FAILED for v in kwargs.values()):
        return FAILED
    try:
        return func(*args, **kwargs)
    except Exception:
        traceback.print_exc()
        return FAILED


def grid_config(shapes: Shapes, master: int, workers: int, out_dir: str) -> cli.RunConfig:
    cells = tuple(("gaussian", n, N) for n in shapes.grid_n for N in shapes.grid_N)
    grid = experiments.ExperimentGrid(cells, shapes.grid_trials, master, DEFAULT_CONFIG)
    return cli.RunConfig(grid=grid, output_dir=out_dir, emit=frozenset({"csv", "json", "svg"}), parallelism=workers)


def bundle_texts(bundle) -> tuple[str, ...]:
    return (bundle.config_text, bundle.csv_text, bundle.scaling_text, bundle.bounds_check_text, bundle.svg_text or "")


def _without_parallelism(config_text: str) -> str:
    return "\n".join(line for line in config_text.splitlines() if not line.startswith("parallelism ="))


def grid_job(shapes: Shapes, master: int) -> Job:
    """verify_grid: run_bundle then write_bundle, on 1 worker.  Operations:
    one per cell, plus one for the bundle as a whole, which must also equal
    the bundle of the same grid run on one pool worker per core."""
    config = grid_config(shapes, master, 1, str(Path(".perfbench_out") / "bundle-verify_grid"))
    cells = config.grid.cells

    def run():
        bundle = cli.run_bundle(config, workers=1)
        cli.write_bundle(bundle, config)
        return bundle

    def check(bundle) -> list[bool]:
        by_cell = {res.cell: res.reports for res in cli.read_results_csv(Path(config.output_dir) / "results.csv")}
        ok = [
            reports_match(cell, by_cell.get(cell, ()), master, ci, shapes.grid_trials)
            for ci, cell in enumerate(cells)
        ]
        out = Path(config.output_dir)
        written = {p: (out / p).read_text() for p in ("config.ini", "results.csv", "scaling.json", "bounds_check.json", "plot.svg")}
        bundle_ok = (
            tuple(written.values()) == bundle_texts(bundle)
            and cli.parse_config(bundle.config_text) == config
            and _schema_valid(bundle.scaling_text, "scaling")
            and _schema_valid(bundle.bounds_check_text, "bounds_check")
        )
        # The trial pool must not change a byte, apart from config.ini's
        # parallelism line.
        workers = len(os.sched_getaffinity(0))
        par_config = dataclasses.replace(config, parallelism=workers)
        par = bundle_texts(cli.run_bundle(par_config, workers=workers))
        bundle_ok = bundle_ok and (
            _without_parallelism(par[0]) == _without_parallelism(bundle.config_text)
            and f"parallelism = {workers}" in par[0].splitlines()
            and par[1:] == bundle_texts(bundle)[1:]
        )
        return ok + [bundle_ok]

    def digest(bundle) -> list:
        rows = bundle.csv_text.splitlines()[1:]
        per_cell = [tuple(r for r in rows if r.startswith(f"{f},{n},{N},")) for f, n, N in cells]
        return per_cell + [bundle_texts(bundle)]

    return Job(run, check, digest, len(cells) + 1, len(cells) * shapes.grid_trials)


def tall_job(shapes: Shapes, master: int) -> Job:
    """tall_sample: run_grid over three families at N >> n.  One operation
    per cell."""
    cells = tuple((family, shapes.tall_n, shapes.tall_N) for family in TALL_FAMILIES)
    grid = experiments.ExperimentGrid(cells, shapes.tall_trials, master, DEFAULT_CONFIG)

    def run():
        return experiments.run_grid(grid, workers=1)

    def check(results) -> list[bool]:
        ok = []
        for ci, (cell, res) in enumerate(zip(cells, results)):
            family, n, N = cell
            good = res.cell == cell and reports_match(cell, res.reports, master, ci, shapes.tall_trials)
            # Every column is its own stream: a prefix of the matrix is the
            # matrix drawn at the prefix width.
            seed = res.reports[0].seed if res.reports else 0
            full = _resample(family, n, N, seed).entries[:, :64]
            head = _resample(family, n, 64, seed).entries
            good = good and full.tobytes() == head.tobytes()
            good = good and math.isfinite(res.summary.psi_hat) and res.summary.psi_hat > 0.0
            ok.append(good)
        return ok

    def digest(results) -> list:
        return [json.dumps(res.to_json_dict(), sort_keys=True) for res in results]

    return Job(run, check, digest, len(cells), len(cells) * shapes.tall_trials)


def estimators_job(shapes: Shapes, master: int) -> Job:
    """estimators: the proof-machinery estimators of calibrate_constants() per
    family, a (1/3)-net with net-sandwich trials, and one fresh-sample split.
    One operation per estimator call; a call that raises is a failed
    operation and the job goes on."""

    def run():
        ops = []
        for fi, family in enumerate(TALL_FAMILIES):
            n, N = shapes.psi_shape
            A = sampler.sample_ensemble(EnsembleSpec(family, n, N, experiments.derive_seed(master, 1000 + fi, 0)))
            psi = _attempt(statistics.psi1_ensemble, A, experiments.PSI_PROBE_DIRECTIONS)
            ops.append(("psi1", A, psi))
            e1 = np.eye(n)[0]
            for B in B_GRID:
                ops.append(("split", A, e1, _attempt(statistics.truncation_split, A, e1, B, psi=psi)))
            n_s, N_s = shapes.greedy_shape
            A_s = sampler.sample_ensemble(EnsembleSpec(family, n_s, N_s, experiments.derive_seed(master, 2000 + fi, n_s)))
            ops.append(("greedy", A_s, _attempt(statistics.sparse_norm_profile, A_s, mode="greedy")))
            n_e, N_e = shapes.exact_shape
            A_e = sampler.sample_ensemble(EnsembleSpec(family, n_e, N_e, experiments.derive_seed(master, 3000 + fi, 0)))
            ops.append(("exact", A_e, _attempt(statistics.sparse_norm_profile, A_e, mode="exact")))
        net = _attempt(statistics.build_net, shapes.net_n, EPSILON)
        ops.append(("net", net))
        for t in range(shapes.net_trials):
            A3 = sampler.sample_ensemble(
                EnsembleSpec("gaussian", shapes.net_n, shapes.net_N, experiments.derive_seed(master, 4000, t))
            )
            report = _attempt(linalg.operator_deviation, A3)
            sup_net = _attempt(statistics.net_sup_deviation, A3, net)
            ops.append(("net_trial", A3, report, sup_net))
        A0, psi0 = ops[0][1], ops[0][2]
        x = statistics.probe_directions(A0.n, 1, A0.seed)[0]
        split = _attempt(
            statistics.truncation_split, A0, x, 1.0, expectation="fresh_sample", fresh_T=shapes.fresh_T, psi=psi0
        )
        ops.append(("fresh_split", A0, x, split))
        return ops

    def check(ops) -> list[bool]:
        ok = []
        for op in ops:
            kind = op[0]
            if any(v is FAILED for v in op[1:]):
                ok.append(False)
            elif kind == "psi1":
                ok.append(psi1_is_root(op[1], op[2]))
            elif kind in ("split", "fresh_split"):
                ok.append(split_recombines(op[1], op[2], op[3]))
            elif kind == "greedy":
                ok.append(profile_sound(op[1], op[2]))
            elif kind == "exact":
                A_e, exact = op[1], op[2]
                greedy = statistics.sparse_norm_profile(A_e, mode="greedy")
                ok.append(profile_sound(A_e, exact) and bool(np.all(greedy.a_m <= exact.a_m + 1e-9)))
            elif kind == "net":
                ok.append(net_sound(op[1], EPSILON))
            else:
                A3, report, sup_net = op[1], op[2], op[3]
                ok.append(eigen_matches(A3, report) and sup_net <= report.deviation + ROUNDING)
        return ok

    def digest(ops) -> list:
        def plain(value):
            if value is FAILED:
                return "failed"
            if hasattr(value, "to_json_dict"):
                return json.dumps(value.to_json_dict(), sort_keys=True)
            if isinstance(value, np.ndarray):
                return value.tobytes()
            return repr(value)

        return [tuple(plain(v) for v in op[2:]) for op in ops]

    ops = len(TALL_FAMILIES) * (3 + len(B_GRID)) + 1 + shapes.net_trials + 1
    return Job(run, check, digest, ops, shapes.net_trials)


def make_job(workload: str, shapes: Shapes, master: int) -> Job:
    if workload == "verify_grid":
        return grid_job(shapes, master)
    if workload == "tall_sample":
        return tall_job(shapes, master)
    return estimators_job(shapes, master)


# --- per-layer metrics from spans ---------------------------------------------------------------

LAYERS = ("rng", "sampler", "linalg", "statistics", "bounds", "experiments", "cli")
SYM_EIGEN_DIMS = (16, 32)


def layer_metrics(spans: list[tracing.Span], job: Job, output) -> dict[str, float]:
    """The per-layer metrics of one traced repetition.  A rate or a ratio
    whose denominator is zero (the layer was idle) reads 0."""
    own = tracing.self_times(spans)

    def select(name, key=None):
        return [s for s in spans if s.name == name and (key is None or s.key.startswith(key))]

    def seconds(name, key=None):
        return sum(s.end - s.start for s in select(name, key))

    def ratio(a, b):
        return a / b if b else 0.0

    def ancestors(span):
        while span.parent is not None:
            span = spans[span.parent]
            yield span

    m: dict[str, float] = {}
    normals = select("rng.normal_columns")
    m["rng.normal_columns.s"] = seconds("rng.normal_columns")
    m["rng.normals_per_s"] = ratio(sum(s.work for s in normals), m["rng.normal_columns.s"])
    words = select("rng.raw_words")
    m["rng.raw_words.s"] = seconds("rng.raw_words")
    m["rng.words_per_s"] = ratio(sum(s.work for s in words), m["rng.raw_words.s"])
    m["rng.words_at.s"] = seconds("rng.words_at")

    samples = select("sampler.sample_ensemble")
    m["sampler.sample_ensemble.s"] = seconds("sampler.sample_ensemble")
    m["sampler.sample_ensemble.calls"] = len(samples)
    for family in TALL_FAMILIES:
        fam = select("sampler.sample_ensemble", family + ":")
        columns = sum(int(s.key.split(":")[1]) for s in fam)
        m[f"sampler.columns_per_s.{family}"] = ratio(columns, sum(s.end - s.start for s in fam))
    in_grid = [s for s in samples if any(a.name == "experiments.run_grid" for a in ancestors(s))]
    m["sampler.samples_per_trial"] = ratio(len(in_grid), job.trials if select("experiments.run_grid") else 0)

    m["linalg.operator_deviation.s"] = seconds("linalg.operator_deviation")
    m["linalg.gram_covariance.s"] = seconds("linalg.gram_covariance")
    m["linalg.sym_eigen.s"] = seconds("linalg.sym_eigen")
    m["linalg.sym_eigen.calls"] = len(select("linalg.sym_eigen"))
    for n in SYM_EIGEN_DIMS:
        calls = [s for s in select("linalg.sym_eigen") if s.key == f"n{n}"]
        m[f"linalg.sym_eigen.ms_per_call.n{n}"] = 1e3 * ratio(sum(s.end - s.start for s in calls), len(calls))
    m["linalg.matrix_norm.s"] = seconds("linalg.matrix_norm")

    psi_calls = select("statistics.psi1_ensemble")
    m["statistics.psi1_ensemble.s"] = seconds("statistics.psi1_ensemble")
    m["statistics.psi1_ensemble.calls"] = len(psi_calls)
    lse = [s for s in select("statistics.logsumexp") if any(a.name == "statistics.psi1_ensemble" for a in ancestors(s))]
    m["statistics.psi1_iterations"] = ratio(len(lse), len(psi_calls))
    m["statistics.sparse_norm_profile.greedy.s"] = seconds("statistics.sparse_norm_profile", "greedy")
    m["statistics.sparse_norm_profile.exact.s"] = seconds("statistics.sparse_norm_profile", "exact")
    m["statistics.truncation_split.s"] = seconds("statistics.truncation_split")
    m["statistics.build_net.s"] = seconds("statistics.build_net")

    m["bounds.s"] = sum(
        s.end - s.start for s in spans if s.layer == "bounds" and (s.parent is None or spans[s.parent].layer != "bounds")
    )
    m["bounds.calls"] = sum(1 for s in spans if s.layer == "bounds")

    # The parent's serial tail: sampler and statistics work inside run_grid
    # after its last trial, or all of it when the trials ran in workers.
    tail = 0.0
    for grid_span in select("experiments.run_grid"):
        inside = [s for s in spans if any(a.id == grid_span.id for a in ancestors(s))]
        trial_end = max((s.end for s in inside if s.name == "linalg.operator_deviation"), default=grid_span.start)
        tail += sum(
            s.end - s.start
            for s in inside
            if s.name in ("sampler.sample_ensemble", "statistics.psi1_ensemble") and s.start >= trial_end
        )
    m["experiments.parent_tail_s"] = tail

    m["cli.bundle_self_s"] = sum(t for s, t in zip(spans, own) if s.name == "cli.run_bundle")
    m["cli.write_bundle.s"] = seconds("cli.write_bundle")
    m["cli.bundle_bytes"] = (
        sum(len(t.encode()) for t in bundle_texts(output)) if isinstance(output, cli.ResultBundle) else 0
    )

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own) if s.layer == layer)
    return m


# --- measurement ---------------------------------------------------------------


def _versions() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def timed(job: Job, tracer: tracing.Tracer | None = None) -> tuple[object, float]:
    """One repetition: its output (FAILED when it raised) and its seconds."""
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        out = job.run()
    except Exception:
        traceback.print_exc()
        out = FAILED
    finally:
        rep_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return out, rep_s


def digests(job: Job, out) -> list[str]:
    if out is FAILED:
        return []
    return [hashlib.sha256(repr(item).encode()).hexdigest() for item in job.digest(out)]


def measure(job: Job, seconds: float, trace: bool, spans_path: Path) -> dict:
    """A warm-up repetition, then timed repetitions while another fits in
    `seconds`, with the reference timed before, between and after them, then
    with `trace` one traced repetition (its spans go to `spans_path`).  Each later repetition is compared with the warm-up, one
    item per operation, and the warm-up's output is checked by the oracles
    last.  A repetition that raises fails every operation it had."""
    first, warmup_s = timed(job)
    expected = digests(job, first)

    def same(out) -> list[bool]:
        now = digests(job, out)
        if out is FAILED or first is FAILED or len(now) != len(expected):
            return [False] * job.ops
        return [a == b for a, b in zip(expected, now)]

    rep_s: list[float] = []
    ref_s = [reference.seconds()]
    matches: list[list[bool]] = []
    started = time.perf_counter()
    while first is not FAILED:
        out, t = timed(job)
        ref_s.append(reference.seconds())
        rep_s.append(t)
        matches.append(same(out))
        if out is FAILED or time.perf_counter() - started + stats.median(rep_s) > seconds:
            break
    result = {
        "warmup_s": warmup_s,
        "rep_s": rep_s,
        "ref_s": ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trials": job.trials,
        "matches": matches,
    }
    if trace and rep_s and all(all(m) for m in matches):
        tracer = tracing.Tracer()
        out, traced_s = timed(job, tracer)
        matches.append(same(out))
        if out is not FAILED:
            m = layer_metrics(tracer.spans, job, out)
            m["trace.run_s"] = traced_s
            m["trace.unattributed_s"] = traced_s - sum(m[f"{layer}.self_s"] for layer in LAYERS)
            result["metrics"] = m
            spans_path.write_text(json.dumps([dataclasses.asdict(s) for s in tracer.spans]) + "\n")
    if first is FAILED:
        result["checks"] = [False] * job.ops
        return result
    try:
        result["checks"] = [bool(ok) for ok in job.check(first)]
    except Exception:
        traceback.print_exc()
        result["checks"] = [False] * job.ops
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    job = make_job(args.workload, SMOKE if args.smoke else FULL, args.seed)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    result = measure(job, args.seconds, bool(args.trace), spans_path)
    result["versions"] = _versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
