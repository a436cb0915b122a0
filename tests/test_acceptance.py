"""End-to-end acceptance: one test per release criterion.

Each test prints a single `ACCEPTANCE NN PASS` line on success; under
`pytest -v` the per-test PASSED/FAILED status doubles as the criterion
verdict.  The heavyweight verification runs are shared session fixtures
(see conftest) so the whole module stays within its runtime budgets.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from conftest import run_cli, write_verification_config
from covcon.cli import read_results_csv
from covcon.experiments import scaling_fit
from covcon.linalg import (
    boundedness_ratio,
    operator_deviation,
    matrix_norm,
    sym_eigen,
)
from covcon.sampler import EnsembleSpec, sample_ensemble
from covcon.statistics import (
    boundedness_check,
    build_net,
    net_sup_deviation,
    probe_directions,
    psi1_estimate,
    sparse_norm,
    truncation_split,
)

EXPONENT_BAND = (0.4, 0.6)


_CAPTURE = None


@pytest.fixture(scope="module", autouse=True)
def _capture_control(request):
    """Stash the capture plugin so verdict lines reach the terminal."""
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")


def _announce(num: int, message: str) -> None:
    line = f"ACCEPTANCE {num:02d} PASS: {message}"
    if _CAPTURE is not None:
        with _CAPTURE.global_and_fixture_disabled():
            print("\n" + line, flush=True)
    else:
        print(line)


def _fit_from_csv(path):
    return scaling_fit(read_results_csv(path))


def test_01_scaling_law_gaussian(verification_run):
    doc = json.loads((verification_run["dir"] / "scaling.json").read_text())
    assert EXPONENT_BAND[0] <= doc["exponent"] <= EXPONENT_BAND[1]
    assert doc["r_squared"] >= 0.95
    assert len(doc["beta_values"]) == 9
    _announce(1, f"exponent {doc['exponent']:.3f}, r^2 {doc['r_squared']:.4f}")


def test_02_family_uniformity(verification_run, family_results):
    results_by_family, elapsed = family_results
    assert elapsed < 600.0, f"family runs took {elapsed:.0f} s"
    fits = {"gaussian": _fit_from_csv(verification_run["dir"] / "results.csv")}
    for family, results in results_by_family.items():
        fits[family] = scaling_fit(results)
        assert EXPONENT_BAND[0] <= fits[family].exponent <= EXPONENT_BAND[1], family
    constants = {fam: fit.log_constant for fam, fit in fits.items()}
    for a, b in itertools.combinations(constants, 2):
        assert abs(constants[a] - constants[b]) <= math.log(2.0), (a, b, constants)
    _announce(2, ", ".join(f"{fam} slope {fit.exponent:.3f}" for fam, fit in fits.items()))


def test_03_sandwich_within_budget(verification_run):
    doc = json.loads((verification_run["dir"] / "bounds_check.json").read_text())
    assert len(doc["sandwich"]) == 9 and len(doc["exceedance"]) == 9
    for check in doc["sandwich"]:
        assert 1.0 - check["fraction_holding"] <= check["budget"], check
        assert check["passed"] is True
    for check in doc["exceedance"]:
        assert check["exceedance_fraction"] <= check["budget"], check
        assert check["passed"] is True
    _announce(3, "eigenvalue sandwich held within budget in all 9 cells")


def test_04_deviation_magnitude_anchor(verification_run):
    results = read_results_csv(verification_run["dir"] / "results.csv")
    cell = next(res for res in results if res.cell == ("gaussian", 64, 4096))
    median = cell.summary.median_deviation
    root_beta = math.sqrt(64.0 / 4096.0)
    assert 1.5 * root_beta <= median <= 3.5 * root_beta
    _announce(4, f"median deviation {median:.4f} vs sqrt(beta) {root_beta:.4f}")


def test_05_eigensolver_suite():
    start = time.monotonic()
    spec = sym_eigen(np.eye(4))
    assert np.array_equal(spec.eigenvalues, np.ones(4))
    spec = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-12)
    spec = sym_eigen(np.eye(3) + np.ones((3, 3)))
    assert np.allclose(spec.eigenvalues, [1.0, 1.0, 4.0], atol=1e-12)

    rng = np.random.default_rng(17)
    five = rng.standard_normal((5, 5))
    five = 0.5 * (five + five.T)
    scale = max(1.0, float(np.linalg.norm(five)) ** 5)
    for lam in sym_eigen(five).eigenvalues:
        assert abs(np.linalg.det(five - lam * np.eye(5))) <= 1e-8 * scale

    dims = [int(d) for d in np.linspace(2, 32, 85)] + list(range(36, 65, 2))
    assert len(dims) == 100
    for d in dims:
        full = rng.standard_normal((d, d))
        sym = 0.5 * (full + full.T)
        spectrum = sym_eigen(sym)
        v, lam = spectrum.basis, spectrum.eigenvalues
        norm = max(1.0, float(np.linalg.norm(sym)))
        assert np.all(np.diff(lam) >= 0.0)
        assert np.linalg.norm(v @ v.T - np.eye(d)) <= 1e-10
        assert np.linalg.norm((v * lam) @ v.T - sym) <= 1e-10 * norm
        assert abs(float(lam.sum()) - float(np.trace(sym))) <= 1e-10 * norm * d
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"eigensolver suite took {elapsed:.1f} s"
    _announce(5, f"identity/analytic/char-poly/invariant checks in {elapsed:.1f} s")


def _polished_random_search(entries, m, rng, restarts=8, steps=3):
    """Independent lower-bound search for A_m: every support, a few random
    starts, each polished by a handful of multiply-normalize steps."""
    _, N = entries.shape
    best = 0.0
    for support in itertools.combinations(range(N), m):
        sub = entries[:, list(support)]
        z = rng.standard_normal((m, restarts))
        z /= np.linalg.norm(z, axis=0)
        for _ in range(steps):
            w = sub.T @ (sub @ z)
            norms = np.linalg.norm(w, axis=0)
            norms[norms == 0.0] = 1.0
            z = w / norms
        best = max(best, float(np.linalg.norm(sub @ z, axis=0).max()))
    return best


def test_06_sparse_norm_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    checked = 0
    for n in (2, 3, 4):
        for N in (4, 6, 8):
            A = sample_ensemble(EnsembleSpec("gaussian", n, N, 100 + 10 * n + N))
            assert abs(sparse_norm(A, 1, "exact") - A.max_column_norm()) <= 1e-12
            assert abs(sparse_norm(A, N, "exact") - matrix_norm(A)) <= 1e-9
            for m in range(1, N + 1):
                exact = sparse_norm(A, m, "exact")
                assert sparse_norm(A, m, "greedy") <= exact + 1e-9
                search = _polished_random_search(A.entries, m, rng)
                assert search <= exact + 1e-9
                assert exact <= search * 1.01
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"sparse-norm suite took {elapsed:.1f} s"
    _announce(6, f"{checked} (instance, m) pairs equivalent in {elapsed:.1f} s")


def test_07_proof_machinery_diagnostics():
    nets = {n: build_net(n, 1.0 / 3.0) for n in (2, 3, 4, 5, 6)}
    b_grid = (0.5, 1.0, 2.0, 4.0)
    sandwich_checks = recombination_checks = pigeonhole_checks = 0
    for k in range(100):
        n = 2 + (k % 5)
        N = 12 if k % 2 == 0 else 16
        A = sample_ensemble(EnsembleSpec("gaussian", n, N, 5000 + k))
        deviation = operator_deviation(A).deviation
        sup_net = net_sup_deviation(A, nets[n])
        assert sup_net <= deviation + 1e-12
        assert deviation <= 4.5 * sup_net
        sandwich_checks += 1
        sparse_cache = {}
        for x in probe_directions(n, 20, 9000 + k):
            proj = x @ A.entries
            direction_dev = abs(float(np.mean(proj**2)) - 1.0)
            for B in b_grid:
                split = truncation_split(A, x, B, psi=1.0)
                assert direction_dev <= split.s1 + split.s2 + split.s3 + 1e-12
                recombination_checks += 1
                m = split.m_observed
                if m == 0:
                    continue
                if m not in sparse_cache:
                    sparse_cache[m] = sparse_norm(A, m, "exact")
                assert B * B * m <= sparse_cache[m] ** 2 * (1.0 + 1e-9), (k, B, m)
                pigeonhole_checks += 1
    assert recombination_checks == 100 * 20 * len(b_grid)
    _announce(
        7,
        f"{sandwich_checks} net sandwiches, {recombination_checks} recombinations, "
        f"{pigeonhole_checks} pigeonhole checks, zero violations",
    )


def test_08_psi1_estimator():
    closed_form = psi1_estimate(np.full(64, math.log(4.0)))
    assert abs(closed_form.value - 2.0) <= 1e-9
    samples = np.random.default_rng(10).exponential(1.0, 100_000)
    empirical = psi1_estimate(samples).value
    assert abs(empirical - 2.0) <= 0.2
    scaled = psi1_estimate(2.5 * samples).value
    assert abs(scaled - 2.5 * empirical) <= 1e-9 * scaled
    _announce(8, f"closed form exact, Exp(1) estimate {empirical:.3f}, homogeneity exact")


def test_09_boundedness_condition():
    worst = 0.0
    for i in range(10_000):
        n = (2, 4, 8)[i % 3]
        A = sample_ensemble(EnsembleSpec("euclidean_ball", n, 8 if n <= 4 else 16, i))
        worst = max(worst, float(boundedness_ratio(n, A.N, A.max_column_norm())))
    assert worst <= math.sqrt(3.0)
    holds = sum(
        boundedness_check(sample_ensemble(EnsembleSpec("gaussian", 32, 512, 70_000 + t)), 4.0)[1]
        for t in range(100)
    )
    assert holds >= 99
    _announce(9, f"ball worst ratio {worst:.3f} <= sqrt(3); gaussian K=4 held in {holds}/100")


def test_10_thread_count_determinism(verification_run, tmp_path_factory):
    base = tmp_path_factory.mktemp("single_thread")
    config_path = base / "run.ini"
    out_dir = base / "out"
    write_verification_config(config_path, out_dir)
    start = time.monotonic()
    proc = run_cli(["experiment", "--config", str(config_path)])
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 180.0, f"single-threaded verification run took {elapsed:.0f} s"
    for name in ("results.csv", "scaling.json", "bounds_check.json", "plot.svg"):
        assert (out_dir / name).read_bytes() == (verification_run["dir"] / name).read_bytes(), name
    _announce(10, f"1-thread and 8-thread bundles byte-identical; single-thread run {elapsed:.0f} s")
