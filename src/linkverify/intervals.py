"""High-confidence intervals for an unknown packet success rate.

Four constructions are supported, all producing a [lo, hi] interval
clipped to [0, 1] whose endpoints are one-sided 1-delta bounds:

* ``hoeffding``: distribution-free, half-width sqrt(log(1/d)/(2N)).
  Wrong-side escapes are bounded by delta for every N.
* ``bernstein-fast``: half-width log(1/d)/N. Shrinks faster than the
  Hoeffding width but forfeits the for-all-N wrong-answer guarantee;
  advantageous only for low-variance (very reliable or very unreliable)
  links.
* ``exact``: inverts the binomial tail (one-sided Clopper-Pearson).
  Keeps the per-side delta guarantee and is less conservative than
  Hoeffding away from the extremes.
* ``normal``: Wald interval from the CLT, half-width
  z(d) * sqrt(m(1-m)/N). No finite-sample guarantee; least conservative.

The exact method evaluates binomial tails by direct summation in the
shorter tail with log-space terms (no special functions), and inverts
them by bisection. Accuracy is full double precision for the sample
sizes this library targets (N up to about 1e6).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .channel import ChannelTrace

_BISECT_WIDTH = 1e-12  # comfortably inside the 1e-10 contract
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


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta={delta} outside (0, 1)")


def interval_from_counts(method: Method, successes: int, n: int,
                         delta: float) -> RateInterval:
    """Build an interval directly from (success count, sample count).

    This is the computational core of ``build_interval`` and is what
    Monte Carlo drivers call, since a verdict depends on the trace only
    through these sufficient statistics.
    """
    _check_delta(delta)
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0 <= successes <= n:
        raise ValueError(f"success count {successes} outside [0, {n}]")
    q_hat = successes / n

    if method is Method.HOEFFDING:
        hw = math.sqrt(math.log(1.0 / delta) / (2.0 * n))
        lo, hi = q_hat - hw, q_hat + hw
    elif method is Method.BERNSTEIN_FAST:
        hw = math.log(1.0 / delta) / n
        lo, hi = q_hat - hw, q_hat + hw
    elif method is Method.NORMAL_APPROX:
        # 1-delta standard normal quantile; for delta >= 0.5 the quantile
        # is nonpositive and the interval degenerates to the mean.
        z = max(_NORMAL.inv_cdf(1.0 - delta), 0.0)
        hw = z * math.sqrt(q_hat * (1.0 - q_hat) / n)
        lo, hi = q_hat - hw, q_hat + hw
    elif method is Method.EXACT_BINOMIAL:
        lo = 0.0 if successes == 0 else _solve_lower(successes, n, delta)
        hi = 1.0 if successes == n else _solve_upper(successes, n, delta)
    else:  # pragma: no cover - exhaustive over Method
        raise ValueError(f"unhandled method {method}")

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
    """P(Bin(n, q) >= k), evaluated in the shorter tail."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if q <= 0.0:
        return 0.0
    if q >= 1.0:
        return 1.0
    if n - k + 1 <= k:
        return min(1.0, _mass_sum(n, k, n, q))
    return max(0.0, 1.0 - _mass_sum(n, 0, k - 1, q))


def binom_tail_lower(n: int, k: int, q: float) -> float:
    """P(Bin(n, q) <= k)."""
    return 1.0 - binom_tail_upper(n, k + 1, q)


def _mass_sum(n: int, a: int, b: int, q: float) -> float:
    """Sum of binomial point masses for counts a..b, log-space.

    log C(n, i) is carried along the range by the ratio recurrence from
    a single lgamma evaluation at i=a, then the shifted exponentials are
    summed. Requires 0 < q < 1.
    """
    i = np.arange(a, b + 1, dtype=np.float64)
    logc0 = (math.lgamma(n + 1) - math.lgamma(a + 1) - math.lgamma(n - a + 1))
    if b > a:
        # Extended-precision cumsum: plain float64 accumulation drifts to
        # ~1e-10 over the thousands of terms a large-n tail can need.
        ratios = np.log((n - i[:-1]) / (i[:-1] + 1.0)).astype(np.longdouble)
        logc = logc0 + np.concatenate(
            ([0.0], np.cumsum(ratios).astype(np.float64)))
    else:
        logc = np.array([logc0])
    logterms = logc + i * math.log(q) + (n - i) * math.log1p(-q)
    m = float(logterms.max())
    return math.exp(m) * float(np.exp(logterms - m).sum())


def _bisect(f, lo: float, hi: float) -> float:
    """Root of a sign-changing monotone function on [lo, hi]."""
    flo = f(lo)
    for _ in range(100):
        if hi - lo <= _BISECT_WIDTH:
            break
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _solve_lower(k: int, n: int, delta: float) -> float:
    # P(Bin(n, q) >= k) is increasing in q: 0 at q=0 (k >= 1), 1 at q=1.
    return _bisect(lambda q: binom_tail_upper(n, k, q) - delta, 0.0, 1.0)


def _solve_upper(k: int, n: int, delta: float) -> float:
    # P(Bin(n, q) <= k) is decreasing in q: 1 at q=0, 0 at q=1 (k < n).
    return _bisect(lambda q: binom_tail_lower(n, k, q) - delta, 0.0, 1.0)
