"""High-confidence intervals for an unknown packet success rate.

Four constructions are supported, all producing a [lo, hi] interval
clipped to [0, 1] whose endpoints are one-sided 1-delta bounds:

* ``hoeffding``: distribution-free, half-width sqrt(log(1/d)/(2N)).
  Wrong-side escapes are bounded by delta at every fixed N.
* ``bernstein-fast``: half-width log(1/d)/N. Shrinks faster than the
  Hoeffding width but forfeits the wrong-answer guarantee at every
  fixed N; advantageous only for low-variance (very reliable or very
  unreliable) links.
* ``exact``: inverts the binomial tail (one-sided Clopper-Pearson) for
  delta <= 0.5, where the two bounds do not cross. Keeps the per-side
  delta guarantee; less conservative than Hoeffding away from the extremes.
* ``normal``: Wald interval from the CLT, half-width
  z(d) * sqrt(m(1-m)/N). No finite-sample guarantee; least conservative.

The exact method inverts one tail, P(Bin(N, q) >= k), by 40 halvings
of [0, 1]; the upper end for k successes is 1 minus the lower end for
N - k, as P(Bin(N, q) <= k) = P(Bin(N, 1 - q) >= N - k). The tail is
summed on its light side, never as 1 minus a sum near 1, over an
O(sqrt(N)) window around its largest mass that grows until a geometric
bound on the dropped mass is below 1e-18 of that peak. It keeps about
1e-11 relative accuracy up to N = 2e6.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .channel import ChannelTrace

_NORMAL = NormalDist()


class Method(enum.Enum):
    """Interval construction methods."""

    HOEFFDING = "hoeffding"
    BERNSTEIN_FAST = "bernstein-fast"
    EXACT_BINOMIAL = "exact"
    NORMAL_APPROX = "normal"

    @classmethod
    def parse(cls, name: str) -> "Method":
        for m in cls:
            if m.value == name:
                return m
        raise ValueError(f"unknown interval method {name!r}; "
                         f"expected one of {[m.value for m in cls]}")


@dataclass(frozen=True)
class RateInterval:
    """A [lo, hi] confidence interval on the success rate.

    ``lo`` and ``hi`` are each one-sided 1-delta bounds under the
    method's guarantee; ``q_hat`` is the sample mean the interval was
    built around.
    """

    lo: float
    hi: float
    method: Method
    delta: float
    n: int
    q_hat: float

    def __post_init__(self):
        if not 0.0 <= self.lo <= self.hi <= 1.0:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")


def hoeffding_tail(n: int, eps: float) -> float:
    """Bound on P(mean deviates from q by at least eps), one side."""
    if n < 1:
        raise ValueError("need at least one sample")
    if eps <= 0:
        raise ValueError("deviation eps must be positive")
    return math.exp(-2.0 * n * eps * eps)


def bernstein_tail(n: int, eps: float, q: float) -> float:
    """Variance-aware one-sided deviation bound for Bernoulli(q) means."""
    if n < 1:
        raise ValueError("need at least one sample")
    if eps <= 0:
        raise ValueError("deviation eps must be positive")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [0, 1]")
    return math.exp(-(n * eps * eps / 2.0) / (q * (1.0 - q) + eps / 3.0))


def _check_delta(delta: float, method: Method) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta={delta} outside (0, 1)")
    if method is Method.EXACT_BINOMIAL and delta > 0.5:
        raise ValueError(f"method 'exact' needs delta <= 0.5, got {delta}")


def interval_from_counts(method: Method, successes: int, n: int,
                         delta: float) -> RateInterval:
    """Build an interval directly from (success count, sample count).

    This is the computational core of ``build_interval`` and is what
    Monte Carlo drivers call, since a verdict depends on the trace only
    through these sufficient statistics.
    """
    _check_delta(delta, method)
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0 <= successes <= n:
        raise ValueError(f"success count {successes} outside [0, {n}]")
    q_hat = successes / n

    if method is Method.EXACT_BINOMIAL:
        # P(Bin(n, q) <= k) = P(Bin(n, 1 - q) >= n - k), so hi mirrors lo.
        lo = 0.0 if successes == 0 else _lower_end(successes, n, delta)
        hi = 1.0 if successes == n else 1.0 - _lower_end(n - successes, n, delta)
    else:
        if method is Method.HOEFFDING:
            hw = math.sqrt(math.log(1.0 / delta) / (2.0 * n))
        elif method is Method.BERNSTEIN_FAST:
            hw = math.log(1.0 / delta) / n
        else:
            # 1-delta standard normal quantile; for delta >= 0.5 the quantile
            # is nonpositive and the interval degenerates to the mean.
            z = max(_NORMAL.inv_cdf(1.0 - delta), 0.0)
            hw = z * math.sqrt(q_hat * (1.0 - q_hat) / n)
        lo, hi = q_hat - hw, q_hat + hw

    return RateInterval(lo=min(max(lo, 0.0), 1.0), hi=min(max(hi, 0.0), 1.0),
                        method=method, delta=delta, n=n, q_hat=q_hat)


def build_interval(trace: ChannelTrace, delta: float,
                   method: Method) -> RateInterval:
    """Interval from a trace's (success count, length); see interval_from_counts."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    return interval_from_counts(method, trace.successes, len(trace), delta)


# Binomial tail machinery for the exact method.

def binom_tail_upper(n: int, k: int, q: float) -> float:
    """P(Bin(n, q) >= k), summed on the light side."""
    if k <= 0 or k > n or not 0.0 < q < 1.0:  # a sure or an impossible event
        return float(k <= 0 or (k <= n and q >= 1.0))
    if k > n * q:
        return min(1.0, _mass_sum(n, k, n, q))
    return max(0.0, 1.0 - _mass_sum(n, 0, k - 1, q))


def _mass_sum(n: int, a: int, b: int, q: float) -> float:
    """Sum of the binomial masses t(i) = P(X = i), a <= i <= b, 0 < q < 1.

    Sums a window around the largest mass in range. t(i+1)/t(i) falls
    with i, so past a cut edge the masses shrink faster than a geometric
    series of the edge's ratio; the window doubles until those series
    bound the dropped mass by 1e-18 of the peak."""
    peak = min(max(int((n + 1) * q), a), b)
    log_odds = math.log(q) - math.log1p(-q)
    width = 16 + int(10.0 * math.sqrt(n * q * (1.0 - q)))
    while True:
        lo, hi = max(a, peak - width), min(b, peak + width)
        i = np.arange(lo, hi, dtype=np.float64)
        steps = np.log((n - i) / (i + 1.0)) + log_odds  # log t(i+1)/t(i)
        logt = np.concatenate(([0.0], np.cumsum(steps)))
        logt -= logt[peak - lo]
        dropped = ((math.exp(logt[-1]) / math.expm1(-steps[-1]) if hi < b else 0.0)
                   + (math.exp(logt[0]) / math.expm1(steps[0]) if lo > a else 0.0))
        if dropped < 1e-18:
            return math.exp(_log_mass(n, peak, q)) * float(np.exp(logt).sum())
        width *= 2


def _log_mass(n: int, k: int, q: float) -> float:
    # log P(X = k) as Stirling error terms minus two deviances (Loader
    # 2000, "Fast and accurate computation of binomial probabilities"):
    # no term is large, where the lgamma form cancels ~1e7-sized logs.
    if k == 0 or k == n:
        return n * (math.log1p(-q) if k == 0 else math.log(q))
    return (_stirling_error(n) - _stirling_error(k) - _stirling_error(n - k)
            - _deviance(k, n * q) - _deviance(n - k, n * (1.0 - q))
            + 0.5 * math.log(n / (2.0 * math.pi * k * (n - k))))


def _stirling_error(m: int) -> float:
    # log(m!) - log(sqrt(2 pi m) (m/e)^m); its asymptotic series is exact
    # to double precision from m = 16 on.
    if m < 16:
        return (math.lgamma(m + 1.0) - (m + 0.5) * math.log(m) + m
                - 0.5 * math.log(2.0 * math.pi))
    s = 1.0 / (m * m)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - s / 1188) * s) * s) * s) / m


def _deviance(x: int, mean: float) -> float:
    # x log(x/mean) + mean - x, written so that its error is a few ulp of
    # |x - mean| rather than of x and mean.
    u = (x - mean) / mean
    return mean * ((1.0 + u) * math.log1p(u) - u)


def _lower_end(k: int, n: int, delta: float) -> float:
    """The q with P(Bin(n, q) >= k) = delta, 1 <= k <= n, to 2^-41."""
    # The tail rises with q. Every midpoint is a multiple of 2^-41, so
    # 1 minus the result is exact.
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if binom_tail_upper(n, k, mid) > delta:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
