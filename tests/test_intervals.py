"""Interval constructions: frozen values, invariants, coverage."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from linkverify import (ChannelTrace, Method, bernstein_tail, build_interval,
                        hoeffding_tail)
from linkverify.intervals import (_mass_sum, binom_tail_upper,
                                  interval_from_counts)


def trace_of(successes, n):
    return ChannelTrace(np.r_[np.ones(successes), np.zeros(n - successes)])


# Raw tail bounds

def test_hoeffding_tail_values():
    assert hoeffding_tail(100, 0.1) == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert hoeffding_tail(1, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert hoeffding_tail(5, 1e-12) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        hoeffding_tail(5, 0.0)
    with pytest.raises(ValueError):
        hoeffding_tail(0, 0.1)


def test_bernstein_tail_values():
    assert bernstein_tail(100, 0.1, 0.5) == pytest.approx(
        math.exp(-0.5 / (0.25 + 0.1 / 3.0)), rel=1e-12)
    assert bernstein_tail(100, 0.1, 1.0) == pytest.approx(math.exp(-15.0), rel=1e-12)
    # q(1-q) is symmetric, so the zero-variance ends agree.
    assert bernstein_tail(100, 0.1, 0.0) == bernstein_tail(100, 0.1, 1.0)
    with pytest.raises(ValueError):
        bernstein_tail(100, -0.1, 0.5)
    with pytest.raises(ValueError):
        bernstein_tail(100, 0.1, 1.5)


@pytest.mark.parametrize("tail", [
    lambda n, eps: hoeffding_tail(n, eps),
    lambda n, eps: bernstein_tail(n, eps, 0.3),
])
def test_tails_strictly_decreasing(tail):
    for n in (1, 10, 100):
        assert tail(n + 1, 0.05) < tail(n, 0.05)
    for eps in (0.01, 0.05, 0.2):
        assert tail(50, eps + 0.01) < tail(50, eps)


# Hoeffding interval

def test_hoeffding_interval_frozen():
    iv = build_interval(trace_of(1800, 2000), 1e-3, Method.HOEFFDING)
    assert iv.lo == pytest.approx(0.9 - 0.0415564534067, abs=1e-10)
    assert iv.hi == pytest.approx(0.9 + 0.0415564534067, abs=1e-10)
    iv = build_interval(trace_of(450, 500), 1e-3, Method.HOEFFDING)
    assert iv.lo == pytest.approx(0.9 - 0.0831129068135, abs=1e-10)


def test_hoeffding_interval_clips():
    iv = build_interval(trace_of(50, 50), 0.01, Method.HOEFFDING)
    assert iv.hi == 1.0
    assert iv.lo < 1.0


# Fast-shrinking interval

def test_bernstein_fast_frozen():
    iv = build_interval(trace_of(1800, 2000), 1e-3, Method.BERNSTEIN_FAST)
    assert iv.lo == pytest.approx(0.9 - 0.00345387763949, abs=1e-10)
    iv = build_interval(trace_of(90, 100), 0.01, Method.BERNSTEIN_FAST)
    assert iv.hi - iv.q_hat == pytest.approx(0.0460517018599, abs=1e-10)


def test_bernstein_fast_full_clip():
    # Half-width log(1/delta)/N = 3/6 = 0.5 swallows the whole range.
    iv = build_interval(trace_of(3, 6), math.exp(-3.0), Method.BERNSTEIN_FAST)
    assert (iv.lo, iv.hi) == (0.0, 1.0)


# Exact (binomial inversion) interval

def test_exact_interval_boundary_counts():
    iv = build_interval(trace_of(10, 10), 0.05, Method.EXACT_BINOMIAL)
    assert iv.lo == pytest.approx(0.05 ** 0.1, abs=1e-8)
    assert iv.hi == 1.0
    iv = build_interval(trace_of(0, 10), 0.05, Method.EXACT_BINOMIAL)
    assert iv.lo == 0.0
    assert iv.hi == pytest.approx(1.0 - 0.05 ** 0.1, abs=1e-8)
    iv = build_interval(trace_of(1, 1), 0.5, Method.EXACT_BINOMIAL)
    assert iv.lo == pytest.approx(0.5, abs=1e-10)


def test_exact_interval_matches_binomial_oracle():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 501))
        k = int(rng.integers(0, n + 1))
        delta = float(rng.uniform(0.001, 0.5))
        iv = interval_from_counts(Method.EXACT_BINOMIAL, k, n, delta)
        if k > 0:
            assert scipy.stats.binom.sf(k - 1, n, iv.lo) == pytest.approx(delta, abs=1e-8)
        if k < n:
            assert scipy.stats.binom.cdf(k, n, iv.hi) == pytest.approx(delta, abs=1e-8)


def test_binom_tail_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 2001))
        k = int(rng.integers(0, n + 2))
        q = float(rng.uniform(0.0, 1.0))
        assert binom_tail_upper(n, k, q) == pytest.approx(
            float(scipy.stats.binom.sf(k - 1, n, q)), abs=1e-11)


def test_binom_tails_match_scipy_at_large_n():
    # Counts come from scipy's quantiles, so that one tail is near a
    # target between 0.5 and 1e-13 (where a sum over the heavy side loses
    # it) and the other near 1; n up to 2e6, rates 1e-7 from 0 and 1.
    rng = np.random.default_rng(23)
    for case in range(300):
        n = int(rng.integers(1, 2_000_001)) if case % 4 else int(rng.integers(1, 300))
        q = (1e-7, 1.0 - 1e-7, float(rng.uniform(0.0, 1.0)))[min(case % 5, 2)]
        target = 10.0 ** rng.uniform(-13.0, -0.3)
        k_up = int(scipy.stats.binom.isf(target, n, q)) + 1
        k_lo = int(scipy.stats.binom.ppf(target, n, q)) - 1
        p = 1.0 - q  # the mirrored tail, P(Bin(n, p) >= n - k) = P(Bin(n, q) <= k)
        for k in (k_up, k_lo):
            for tail, ref in ((binom_tail_upper(n, k, q), scipy.stats.binom.sf(k - 1, n, q)),
                              (binom_tail_upper(n, n - k, p),
                               scipy.stats.binom.sf(n - k - 1, n, p))):
                assert tail == pytest.approx(float(ref), abs=1e-11)
                if ref > 1e-12:
                    assert tail == pytest.approx(float(ref), rel=1e-9, abs=0.0)


def exact_ends_oracle(k, n, delta):
    lo = 0.0 if k == 0 else scipy.stats.beta.ppf(delta, k, n - k + 1)
    hi = 1.0 if k == n else scipy.stats.beta.isf(delta, k + 1, n - k)
    return float(lo), float(hi)


def test_exact_interval_matches_beta_ppf_at_large_n():
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(100_000, 2_000_001))
        k = int(rng.integers(0, n + 1))
        delta = float(10.0 ** rng.uniform(-8.0, -3.0))
        iv = interval_from_counts(Method.EXACT_BINOMIAL, k, n, delta)
        lo, hi = exact_ends_oracle(k, n, delta)
        assert iv.lo == pytest.approx(lo, abs=1e-9)
        assert iv.hi == pytest.approx(hi, abs=1e-9)


@pytest.mark.parametrize("k,n,delta", [
    (602_626, 1_131_927, 1.8468055849478157e-08),
    # A tail summed as 1 minus a sum near 1 put hi 3e-7 too low here.
    (1_438_809, 1_937_465, 9.16e-7),
])
def test_exact_interval_large_n_regressions(k, n, delta):
    iv = interval_from_counts(Method.EXACT_BINOMIAL, k, n, delta)
    lo, hi = exact_ends_oracle(k, n, delta)
    assert iv.lo == pytest.approx(lo, abs=1e-9)
    assert iv.hi == pytest.approx(hi, abs=1e-9)
    assert iv.hi >= hi - 1e-12


@pytest.mark.parametrize("n,a,b,q", [
    (1_000, 0, 1_000, 0.3),        # the whole support: no edge is cut
    (1_000, 290, 310, 0.3),        # window wider than the range: edges at a, b
    (1_000, 330, 1_000, 0.3),      # peak at a, right edge cut
    (1_000, 0, 260, 0.3),          # peak at b, left edge cut
    (100_000, 0, 29_900, 0.3),     # left edge cut far from a
    (100_000, 30_000, 30_040, 0.3),
    (2_000_000, 0, 3, 1e-7),       # Poisson-like: peak at the edge a = 0
    (2_000_000, 1, 200_000, 1e-6),
    (2_000_000, 1_999_990, 2_000_000, 1.0 - 2e-6),
    (50, 7, 7, 0.5),               # a single term
])
def test_windowed_mass_sum_matches_full_range(n, a, b, q):
    masses = scipy.stats.binom.pmf(np.arange(a, b + 1), n, q)
    assert _mass_sum(n, a, b, q) == pytest.approx(math.fsum(masses), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("a", [0, 12_500_000_000 - 474_342, 12_500_000_010])
def test_mass_sum_window_grows_past_its_first_width(a):
    # At sd = 79,057 the first window (16 + 10 sd each side) leaves a
    # geometric bound above 1e-18 of the peak, so the window doubles. The
    # float64 cumsum over its ~3e6 log ratios drifts by about 1e-12 here.
    n = 25_000_000_000
    ref = float(scipy.stats.binom.sf(a - 1, n, 0.5))
    assert _mass_sum(n, a, n, 0.5) == pytest.approx(ref, rel=1e-10, abs=0.0)


def test_exact_rejects_crossing_delta():
    # Above 0.5 the one-sided Clopper-Pearson bounds cross.
    with pytest.raises(ValueError, match=r"'exact'.*0\.5"):
        interval_from_counts(Method.EXACT_BINOMIAL, 12, 20, 0.6)
    iv = interval_from_counts(Method.EXACT_BINOMIAL, 12, 20, 0.5)
    assert iv.lo <= iv.q_hat <= iv.hi
    assert interval_from_counts(Method.HOEFFDING, 12, 20, 0.6).delta == 0.6


# Normal (Wald) interval

def test_normal_interval_frozen():
    iv = build_interval(trace_of(1800, 2000), 1e-3, Method.NORMAL_APPROX)
    assert iv.lo == pytest.approx(0.9 - 0.0207299085086, abs=1e-9)
    iv = build_interval(trace_of(50, 100), 0.05, Method.NORMAL_APPROX)
    assert iv.hi - 0.5 == pytest.approx(0.0822426813476, abs=1e-9)


def test_normal_interval_degenerate_at_extremes():
    for k, n in ((0, 20), (20, 20)):
        iv = build_interval(trace_of(k, n), 0.01, Method.NORMAL_APPROX)
        assert iv.lo == iv.hi == k / n


def test_normal_quantile_accuracy():
    from statistics import NormalDist
    for delta in (0.5, 0.05, 0.01, 1e-3):
        assert NormalDist().inv_cdf(1 - delta) == pytest.approx(
            float(ndtri(1 - delta)), abs=1e-8)


# Shared invariants

ALL_METHODS = list(Method)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), frac=st.floats(0.0, 1.0),
       delta=st.floats(1e-6, 0.5), method=st.sampled_from(ALL_METHODS))
def test_interval_brackets_the_mean(n, frac, delta, method):
    k = round(frac * n)
    iv = interval_from_counts(method, k, n, delta)
    assert 0.0 <= iv.lo <= iv.q_hat <= iv.hi <= 1.0


@pytest.mark.parametrize("method,hw", [
    (Method.HOEFFDING, math.sqrt(math.log(20.0) / 400.0)),
    (Method.BERNSTEIN_FAST, math.log(20.0) / 200.0),
])
def test_symmetry_before_clipping(method, hw):
    iv = interval_from_counts(method, 100, 200, 0.05)
    assert iv.q_hat - iv.lo == pytest.approx(hw, rel=1e-12)
    assert iv.hi - iv.q_hat == pytest.approx(hw, rel=1e-12)


def test_delta_validation():
    for bad in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(ValueError):
            build_interval(trace_of(5, 10), bad, Method.HOEFFDING)


def coverage_violations(method, q, n, delta, trials, seed):
    """Fraction of simulated traces whose lo overshoots / hi undershoots q."""
    rng = np.random.default_rng(seed)
    counts = rng.binomial(n, q, size=trials)
    uniq, reps = np.unique(counts, return_counts=True)
    lo_bad = hi_bad = 0
    for k, rep in zip(uniq, reps):
        iv = interval_from_counts(method, int(k), n, delta)
        if iv.lo > q:
            lo_bad += rep
        if iv.hi < q:
            hi_bad += rep
    return lo_bad / trials, hi_bad / trials


@pytest.mark.parametrize("method", [Method.HOEFFDING, Method.EXACT_BINOMIAL])
@pytest.mark.parametrize("q,n", [(0.3, 150), (0.9, 60)])
def test_one_sided_coverage(method, q, n):
    delta, trials = 0.05, 10_000
    slack = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    lo_rate, hi_rate = coverage_violations(method, q, n, delta, trials, seed=71)
    assert lo_rate <= slack
    assert hi_rate <= slack


def test_exact_contained_in_hoeffding():
    # Exact inversion beats the distribution-free width away from the edges.
    for delta in (0.05, 1e-3):
        for n in (30, 100, 400):
            for k in range(math.ceil(0.2 * n), math.floor(0.8 * n) + 1,
                           max(1, n // 20)):
                exact = interval_from_counts(Method.EXACT_BINOMIAL, k, n, delta)
                hoeff = interval_from_counts(Method.HOEFFDING, k, n, delta)
                assert exact.lo >= hoeff.lo - 1e-12
                assert exact.hi <= hoeff.hi + 1e-12
