"""Sample-size and correctness-bound formulas against scan oracles."""

import math

import pytest

from linkverify import (MarginSpec, bernstein_sample_size, correctness_bound,
                        hoeffding_sample_size, low_variance_regime)


def spec_for(q, rho, delta):
    return MarginSpec(q, 1.0 - 1.0 / (rho * rho), delta)


def bernstein_holds(spec, n):
    log_inv = math.log(1.0 / spec.delta)
    eps = spec.margin - log_inv / n
    if eps <= 0.0:
        return False
    return n * eps * eps / 2.0 / (spec.q * (1.0 - spec.q) + eps / 3.0) >= log_inv


def bernstein_scan(spec, cap=10**7):
    for n in range(1, cap):
        if bernstein_holds(spec, n):
            return n
    raise AssertionError("scan cap reached")


def test_margin_spec_validation():
    spec = spec_for(0.9, 2.0, 0.01)
    assert spec.margin == pytest.approx(0.15)
    with pytest.raises(ValueError):
        MarginSpec(0.75, 0.75, 0.01)
    with pytest.raises(ValueError):
        MarginSpec(1.2, 0.5, 0.01)
    with pytest.raises(ValueError):
        MarginSpec(0.9, 0.75, 1.5)


def test_margin_spec_rejects_nan_threshold():
    with pytest.raises(ValueError, match="margin"):
        MarginSpec(0.9, math.nan, 0.01)


def test_correctness_bound_frozen():
    assert correctness_bound(spec_for(0.9, 2.0, 1e-3), 500) == pytest.approx(
        0.9885970505680715, abs=1e-9)
    assert correctness_bound(spec_for(0.9, 2.0, 1e-3), 2000) >= 1.0 - 1e-20


def test_correctness_bound_clamps_to_zero():
    spec = spec_for(0.9, 2.0, 1e-3)
    # Below log(1/d)/(2 margin^2) the half-width exceeds the margin.
    n_zero = int(math.log(1.0 / spec.delta) / (2.0 * spec.margin ** 2))
    assert correctness_bound(spec, n_zero) == 0.0
    assert correctness_bound(spec, 1) == 0.0


def test_correctness_bound_monotone():
    spec = spec_for(0.9, 2.0, 1e-3)
    values = [correctness_bound(spec, n) for n in (100, 200, 400, 800, 1600)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    wide = MarginSpec(0.95, 0.75, 1e-3)
    assert correctness_bound(wide, 400) >= correctness_bound(spec, 400)


def test_hoeffding_sample_size_frozen():
    assert hoeffding_sample_size(spec_for(0.9, 2.0, 0.01)) == 410
    # Unit margin: threshold 0 at rho=1 is excluded, so build it directly.
    assert hoeffding_sample_size(MarginSpec(1.0, 0.0, math.exp(-1.0))) == 2
    # ceil(2 ln(1000)/0.15^2) = ceil(614.02) = 615.
    assert hoeffding_sample_size(spec_for(0.9, 2.0, 1e-3)) == 615


def test_hoeffding_sample_size_is_minimal():
    for q, rho, delta in ((0.9, 2.0, 0.01), (0.8, 1.5, 1e-3), (0.3, 1.1, 0.05)):
        spec = spec_for(q, rho, delta)
        n = hoeffding_sample_size(spec)
        half_width = lambda m: math.sqrt(math.log(1.0 / delta) / (2.0 * m))
        assert spec.margin >= 2.0 * half_width(n)
        if n > 1:
            assert spec.margin < 2.0 * half_width(n - 1)
        assert correctness_bound(spec, n) >= 1.0 - delta


def test_sample_size_margin_scaling():
    # Halving the margin quadruples the requirement, up to ceiling effects.
    for delta in (0.01, 1e-3):
        for margin in (0.3, 0.11, 0.042):
            n = hoeffding_sample_size(MarginSpec(0.5, 0.5 - margin, delta))
            n_half = hoeffding_sample_size(MarginSpec(0.5, 0.5 - margin / 2, delta))
            assert 4 * n - 3 <= n_half <= 4 * n


def test_bernstein_sample_size_minimal_random():
    import numpy as np
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = float(rng.uniform(0.0, 1.0))
        threshold = float(rng.uniform(0.05, 0.95))
        if abs(q - threshold) < 0.02:
            continue
        spec = MarginSpec(q, threshold, float(rng.uniform(1e-4, 0.5)))
        n = bernstein_sample_size(spec)
        assert bernstein_holds(spec, n)
        assert n == 1 or not bernstein_holds(spec, n - 1)
        assert n == bernstein_scan(spec)


def test_bernstein_beats_hoeffding_for_reliable_links():
    previous = 0.0
    for q in (0.99, 0.999, 0.9999):
        spec = spec_for(q, 2.0, 0.01)
        ratio = hoeffding_sample_size(spec) / bernstein_sample_size(spec)
        assert ratio >= 2.0
        assert ratio > previous
        previous = ratio


def test_bernstein_large_delta_small_n():
    spec = MarginSpec(1.0, 0.75, 0.5)
    n = bernstein_sample_size(spec)
    assert n == bernstein_scan(spec)
    assert n <= 25


def test_low_variance_regime():
    assert low_variance_regime(spec_for(0.999, 2.0, 0.01), 1.0)
    assert not low_variance_regime(spec_for(0.5, 2.0, 0.01), 0.5)
    assert low_variance_regime(MarginSpec(1.0, 0.3, 0.01), 1e-9)
    with pytest.raises(ValueError):
        low_variance_regime(spec_for(0.9, 2.0, 0.01), 0.0)
