"""Closed-form envelopes: exact arithmetic, monotonicity, and regime guards."""

import math

import numpy as np
import pytest

from covcon import bounds
from covcon.bounds import (
    DEFAULT_CONFIG,
    BoundConfig,
    BoundReport,
    bernstein_tail,
    choose_B,
    choose_theta,
    cond3_holds,
    corollary_interval,
    evaluate_all,
    main_probability_budget,
    net_cardinality_log,
    pigeonhole_consistent,
    remark2_bounds,
    s3_envelope,
    theorem1_rhs,
    thmold_bound,
)
from covcon.errors import ContractError, RegimeError
from covcon.statistics import build_net

UNIT = BoundConfig(psi=1.0, K=1.0, C_main=1.0, c_prob=1.0, C1=1.0, C2=1.0, C3=1.0, C_old=1.0)


# --- config / report objects -------------------------------------------------


def test_config_validation():
    with pytest.raises(ContractError):
        BoundConfig(psi=-0.1, K=1.0, C_main=1.0, c_prob=1.0, C1=1.0, C2=1.0, C3=1.0, C_old=1.0)
    with pytest.raises(ContractError):
        BoundConfig(psi=1.0, K=0.9, C_main=1.0, c_prob=1.0, C1=1.0, C2=1.0, C3=1.0, C_old=1.0)
    for field in ("C_main", "c_prob", "C1", "C2", "C3", "C_old"):
        with pytest.raises(ContractError):
            BoundConfig(**{**UNIT.to_json_dict(), field: 0.0})
    with pytest.raises(ContractError):
        BoundConfig(psi=1.0, K=1.0, C_main=1.0, c_prob=1.0, C1=1.0, C2=2.0, C3=1.0, C_old=1.0)
    with pytest.raises(ContractError):
        BoundConfig(**{**UNIT.to_json_dict(), "t": 0.5})


def test_config_rejects_non_finite_constants():
    for field in UNIT.to_json_dict():
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ContractError, match=f"^{field} must be finite"):
                BoundConfig(**{**UNIT.to_json_dict(), field: value})
    with pytest.raises(ContractError, match="^psi must be finite, got inf"):
        UNIT.with_hypothesis(math.inf, 1.0)
    # The K clamp must not swallow NaN (max(1.0, nan) is 1.0).
    with pytest.raises(ContractError, match="^K must be finite, got nan"):
        UNIT.with_hypothesis(1.0, math.nan)


def test_config_round_trip_and_hypothesis():
    assert BoundConfig(**UNIT.to_json_dict()) == UNIT
    swapped = UNIT.with_hypothesis(2.5, 0.3)
    assert swapped.psi == 2.5
    assert swapped.K == 1.0  # clamped up to the envelope's domain
    assert swapped.C_main == UNIT.C_main


def test_report_validation():
    BoundReport(name="x", inputs={}, value=0.0, probability_budget=1.0)
    with pytest.raises(ContractError):
        BoundReport(name="x", inputs={}, value=-1e-16, probability_budget=0.5)
    with pytest.raises(ContractError):
        BoundReport(name="x", inputs={}, value=1.0, probability_budget=1.5)
    with pytest.raises(ContractError):
        BoundReport(name="x", inputs={}, value=1.0, probability_budget=-0.1)


def test_probability_budget():
    assert main_probability_budget(UNIT, 4) == 2.0 * math.exp(-2.0)
    tiny = BoundConfig(**{**UNIT.to_json_dict(), "c_prob": 0.01})
    assert main_probability_budget(tiny, 1) == 1.0  # clamped


# --- main deviation envelope -------------------------------------------------


def test_theorem1_exact_values():
    assert theorem1_rhs(UNIT, 7, 7) == 4.0
    assert theorem1_rhs(UNIT, 1, 100) == 0.4
    assert math.isclose(theorem1_rhs(UNIT, 3, 4 * 48), theorem1_rhs(UNIT, 3, 48) / 2.0, rel_tol=1e-12)


def test_theorem1_regime_guard():
    with pytest.raises(RegimeError, match="remark2"):
        theorem1_rhs(UNIT, 5, 4)
    with pytest.raises(ContractError):
        theorem1_rhs(UNIT, 0, 4)


def test_corollary_interval():
    assert corollary_interval(UNIT, 1, 100) == (0.6, 1.4)
    lo, hi = corollary_interval(UNIT, 7, 7)
    assert (lo, hi) == (-3.0, 5.0)  # the lower end is reported unclamped
    assert math.isclose(hi - 1.0, 1.0 - lo, rel_tol=1e-12)


# --- sparse-norm envelope ----------------------------------------------------


def test_thmold_sqrt_n_branch():
    # At m = 1, sqrt(m) ln(2N/m) = ln(2N) < sqrt(n) once n is large enough.
    n, N = 64, 8
    assert math.log(2 * N) < math.sqrt(n)
    assert thmold_bound(UNIT, 1, n, N, 0.0) == math.sqrt(n)


def test_thmold_column_term_is_linear():
    base = thmold_bound(UNIT, 2, 4, 10, 0.0)
    assert thmold_bound(UNIT, 2, 4, 10, 1.5) == base + 9.0


def test_thmold_core_monotone_below_shoulder():
    # sqrt(m) ln(2N/m) increases up to m = 2N/e^2 (= 27.06 at N = 100).
    values = [thmold_bound(UNIT, m, 1, 100, 0.0) for m in range(1, 28)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_thmold_validation():
    with pytest.raises(ContractError):
        thmold_bound(UNIT, 0, 2, 4, 0.0)
    with pytest.raises(ContractError):
        thmold_bound(UNIT, 5, 2, 4, 0.0)


@pytest.mark.parametrize("bad", [4.5, True, np.int64(4)], ids=["float", "bool", "int64"])
def test_bounds_refuse_non_int_counts(bad):
    # n, N and m follow the package's integer rule: a float, a bool or a
    # numpy integer is refused, not evaluated.
    calls = [
        lambda: theorem1_rhs(UNIT, bad, 16),
        lambda: theorem1_rhs(UNIT, 4, bad),
        lambda: choose_B(UNIT, bad, 16),
        lambda: choose_theta(UNIT, 4, bad),
        lambda: remark2_bounds(UNIT, bad, 16),
        lambda: thmold_bound(UNIT, bad, 4, 16, 0.0),
        lambda: pigeonhole_consistent(UNIT, 1.0, bad, 1.0, 4, 16),
        lambda: net_cardinality_log(bad),
        lambda: evaluate_all(UNIT, 4, 16, m=bad),
    ]
    for call in calls:
        with pytest.raises(ContractError):
            call()


# --- Bernstein tail and the net comparison -----------------------------------


def test_bernstein_exact_value():
    # theta = 1, N = 2, C1 psi^4 = 1, B = 0: exponent -2/(2*1) = -1.
    assert bernstein_tail(1.0, 2, UNIT, 0.0) == math.exp(-1.0)
    # Splitting the variance between the two terms keeps the same exponent.
    half = BoundConfig(**{**UNIT.to_json_dict(), "C1": 0.5})
    assert math.isclose(
        bernstein_tail(1.0, 2, half, math.sqrt(1.5)), math.exp(-1.0), rel_tol=1e-12
    )


def test_bernstein_monotonicities():
    assert bernstein_tail(2.0, 10, UNIT, 1.0) < bernstein_tail(1.0, 10, UNIT, 1.0)
    assert bernstein_tail(1.0, 20, UNIT, 1.0) < bernstein_tail(1.0, 10, UNIT, 1.0)
    assert bernstein_tail(1.0, 10, UNIT, 2.0) > bernstein_tail(1.0, 10, UNIT, 1.0)
    with pytest.raises(ContractError):
        bernstein_tail(0.0, 10, UNIT, 1.0)
    with pytest.raises(ContractError):
        bernstein_tail(1.0, 10, UNIT, -1.0)


def test_cond3_zero_theta_fails_both():
    assert cond3_holds(0.0, 100, 1.0, UNIT, 4) == (False, False)


def test_cond3_first_is_strict_at_equality():
    # Nudge C1 by ulps until the rhs equals theta^2 N = 2.5 exactly; the
    # condition must report False there and True one ulp below.
    theta, N, n = 0.5, 10, 1
    lhs = theta * theta * N
    assert lhs == 2.5
    c1 = 2.5 / (8.0 * math.log(7.0))
    hit = None
    for _ in range(64):
        rhs = 8.0 * c1 * n * math.log(7.0)
        if rhs == lhs:
            hit = c1
            break
        c1 = np.nextafter(c1, math.inf if rhs < lhs else -math.inf)
    assert hit is not None, "no representable C1 put the threshold exactly on the boundary"
    cfg = BoundConfig(**{**UNIT.to_json_dict(), "C1": hit})
    assert cond3_holds(theta, N, 0.0, cfg, n) == (False, True)
    below = BoundConfig(**{**UNIT.to_json_dict(), "C1": np.nextafter(hit, 0.0)})
    assert cond3_holds(theta, N, 0.0, below, n) == (True, True)


def test_cond3_second_is_strict_at_equality():
    # With B = 1, n = 1, N = 1 the rhs is the float r = (8/3) ln 7; taking
    # theta = r makes the two sides identical, so strictness must fail.
    r = (8.0 / 3.0) * 1.0 * 1.0 * 1.0 * math.log(7.0)
    assert cond3_holds(r, 1, 1.0, UNIT, 1)[1] is False
    assert cond3_holds(float(np.nextafter(r, math.inf)), 1, 1.0, UNIT, 1)[1] is True


# --- truncation level and theta ----------------------------------------------


def test_choose_B_closed_form():
    eighth = BoundConfig(**{**UNIT.to_json_dict(), "C_old": 0.125, "C2": 0.125})
    assert choose_B(eighth, 1, 1) == math.log(5.0)
    two_psi = BoundConfig(**{**eighth.to_json_dict(), "psi": 2.0})
    assert choose_B(two_psi, 1, 1) == 2.0 * math.log(5.0)
    assert math.isclose(
        choose_B(eighth, 1, 5) - choose_B(eighth, 1, 1), math.log(5.0), rel_tol=1e-12
    )


def test_choose_B_domain():
    assert choose_B(UNIT, 5, 1) == 0.0  # n = 5N sits exactly on the boundary
    with pytest.raises(RegimeError):
        choose_B(UNIT, 6, 1)


def test_choose_theta_closed_form():
    cfg = BoundConfig(**{**UNIT.to_json_dict(), "C3": 2.0, "psi": 3.0})
    assert choose_theta(cfg, 4, 16) == 2.0 * 9.0 * 0.5
    assert math.isclose(choose_theta(UNIT, 8, 100), 2.0 * choose_theta(UNIT, 2, 100), rel_tol=1e-12)


def test_s3_envelope():
    assert s3_envelope(UNIT, 0.0) == 1.0  # C2 psi^2 at B = 0
    assert s3_envelope(UNIT, 2.0) < s3_envelope(UNIT, 1.0)
    target = 0.01
    B = -math.log(target)  # inversion at C2 = psi = 1
    assert math.isclose(s3_envelope(UNIT, B), target, rel_tol=1e-12)
    degenerate = BoundConfig(**{**UNIT.to_json_dict(), "psi": 0.0})
    assert s3_envelope(degenerate, 1.0) == 0.0
    with pytest.raises(ContractError):
        s3_envelope(UNIT, -1.0)


# --- wide-regime bounds ------------------------------------------------------


def test_remark2_exact_values():
    assert remark2_bounds(UNIT, 4, 2) == (4.0, 8.0)
    norm_n, _ = remark2_bounds(UNIT, 5, 2)
    norm_4n, _ = remark2_bounds(UNIT, 20, 2)
    assert math.isclose(norm_4n, 2.0 * norm_n, rel_tol=1e-12)


def test_remark2_regime_flag():
    _, dev = remark2_bounds(UNIT, 4, 16)
    # In the tall regime the wide deviation formula is the main envelope
    # times another sqrt(n/N).
    assert math.isclose(dev, theorem1_rhs(UNIT, 4, 16) * 0.5, rel_tol=1e-12)


# --- net cardinality and pigeonhole ------------------------------------------


def test_net_cardinality_log():
    assert net_cardinality_log(1) == math.log(7.0)
    assert net_cardinality_log(2) == 2.0 * math.log(7.0)
    assert math.exp(net_cardinality_log(2)) >= len(build_net(2, 1.0 / 3.0).points)
    with pytest.raises(ContractError):
        net_cardinality_log(0)


def test_pigeonhole_arithmetic():
    # C_old = psi = 1: the threshold is big_m + m ln^2(2N/m).
    rhs = 3.0 + 2.0 * math.log(10.0) ** 2
    assert pigeonhole_consistent(UNIT, math.sqrt(rhs / 2.0), 2, 3.0, 4, 10)
    assert not pigeonhole_consistent(UNIT, math.sqrt(rhs / 2.0) * 1.001, 2, 3.0, 4, 10)
    with pytest.raises(ContractError):
        pigeonhole_consistent(UNIT, 1.0, 0, 3.0, 4, 10)


# --- evaluate_all ------------------------------------------------------------

TALL_NAMES = {
    "theorem1_rhs",
    "corollary_interval",
    "remark2_norm",
    "remark2_dev",
    "thmold_bound",
    "choose_B",
    "s3_envelope",
    "bernstein_tail",
    "cond3_first",
    "cond3_second",
    "choose_theta",
    "net_cardinality_log",
}


def test_evaluate_all_tall():
    reports = evaluate_all(DEFAULT_CONFIG, 4, 16)
    assert {r.name for r in reports} == TALL_NAMES
    assert len(reports) == 12
    for r in reports:
        assert r.value >= 0.0
        assert 0.0 <= r.probability_budget <= 1.0
    by_name = {r.name: r for r in reports}
    assert by_name["corollary_interval"].inputs["lo"] <= 1.0 <= by_name["corollary_interval"].inputs["hi"]
    assert by_name["theorem1_rhs"].value == theorem1_rhs(DEFAULT_CONFIG, 4, 16)


def test_evaluate_all_wide():
    names = {r.name for r in evaluate_all(DEFAULT_CONFIG, 8, 4)}
    assert names == TALL_NAMES - {"theorem1_rhs", "corollary_interval"}
    # Deep wide regime (5N < n): no admissible truncation level either.
    deep = {r.name for r in evaluate_all(DEFAULT_CONFIG, 16, 2)}
    assert deep == {"remark2_norm", "remark2_dev", "thmold_bound", "choose_theta", "net_cardinality_log"}


def test_evaluate_all_explicit_overrides():
    reports = {r.name: r for r in evaluate_all(DEFAULT_CONFIG, 4, 16, m=2, B=1.25, theta=0.5)}
    assert reports["choose_B"].value == 1.25
    assert reports["choose_theta"].value == 0.5
    assert reports["thmold_bound"].inputs["m"] == 2
    assert reports["bernstein_tail"].inputs["B"] == 1.25


# --- the frozen defaults -----------------------------------------------------


def test_default_config_frozen_values():
    assert DEFAULT_CONFIG.psi == 1.0 and DEFAULT_CONFIG.K == 1.0 and DEFAULT_CONFIG.t == 1.0
    assert DEFAULT_CONFIG.C_main == 0.5430897976748112
    assert DEFAULT_CONFIG.c_prob == 0.35
    assert DEFAULT_CONFIG.C1 == 1.746519898641664
    assert DEFAULT_CONFIG.C2 == 0.6578493393141283
    assert DEFAULT_CONFIG.C3 == 138.83957173769883
    assert DEFAULT_CONFIG.C_old == 0.6578493393141283


def test_default_config_internal_consistency():
    # On every tall verification shape the chosen theta must satisfy both
    # strict comparison conditions and the expected-excess envelope at the
    # chosen truncation level must fit under the deviation scale.
    for n in (16, 32, 64):
        for N in (256, 1024, 4096):
            B = choose_B(DEFAULT_CONFIG, n, N)
            theta = choose_theta(DEFAULT_CONFIG, n, N)
            assert cond3_holds(theta, N, B, DEFAULT_CONFIG, n) == (True, True)
            assert s3_envelope(DEFAULT_CONFIG, B) <= DEFAULT_CONFIG.C_old * n / N
