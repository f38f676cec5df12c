"""Closed-form correctness and sample-size curves for the decision tests.

Everything here is driven by the margin |q - threshold|: the distance
of the true success rate from the critical rate being tested (the
stability boundary, or the smallest rate meeting a cost target). The
margin sets how many samples the interval tests need, and the required
count blows up quadratically as the margin vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .intervals import hoeffding_tail


@dataclass(frozen=True)
class MarginSpec:
    """A (true rate, critical rate, confidence) configuration.

    ``threshold`` is the critical rate the test compares against; the
    margin is the absolute gap and must be nonzero (the critical case
    has no finite-sample guarantee).
    """

    q: float
    threshold: float
    delta: float
    margin: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q={self.q} outside [0, 1]")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta={self.delta} outside (0, 1)")
        margin = abs(self.q - self.threshold)
        if not margin > 0.0:
            raise ValueError(f"margin is {margin}, not positive; the guarantees "
                             "exclude a rate on the critical value")
        object.__setattr__(self, "margin", margin)


def correctness_bound(spec: MarginSpec, n: int) -> float:
    """Lower bound on the probability the interval test answers correctly.

    1 - exp(-2n [margin - sqrt(log(1/d)/(2n))]_+^2); exactly zero while
    the interval half-width still exceeds the margin.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    inner = spec.margin - math.sqrt(math.log(1.0 / spec.delta) / (2.0 * n))
    if inner <= 0.0:
        return 0.0
    return 1.0 - hoeffding_tail(n, inner)


def hoeffding_sample_size(spec: MarginSpec) -> int:
    """Samples sufficient for a 1-delta correct verdict: ceil(2 log(1/d)/margin^2)."""
    # ** overflows past a margin of 1.3e154, and from 1e150 up (inf too)
    # one sample suffices. margin * margin would not overflow, but it rounds
    # some squares differently from **, which would change huge sizes.
    margin = min(spec.margin, 1e150)
    return max(1, math.ceil(2.0 * math.log(1.0 / spec.delta) / margin ** 2))


def _first(holds, lo: int, hi: int, guess: int | None = None) -> int:
    """Smallest k in [lo, hi) where the monotone predicate holds, else hi.

    From a guess it gallops (steps 1, 2, 4, ...; Bentley & Yao 1976) to a
    bracket, then bisects."""
    # The guess changes only the number of calls. Each probe lies further
    # from it than the last, so the search ends on any predicate.
    if guess is not None and lo < hi:
        g, step = min(max(guess, lo), hi - 1), 1
        if holds(g):
            hi = g
            while g - step >= lo and holds(g - step):
                hi, step = g - step, 2 * step
            lo = max(lo, g - step + 1)
        else:
            lo = g + 1
            while g + step < hi and not holds(g + step):
                lo, step = g + step + 1, 2 * step
            hi = min(hi, g + step)
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _bernstein_ok(spec: MarginSpec, n: int) -> bool:
    log_inv = math.log(1.0 / spec.delta)
    eps = spec.margin - log_inv / n
    # An infinite margin (threshold -inf) makes the exponent inf/inf =
    # nan, whose limit is inf: it holds there.
    return eps > 0.0 and not (n * eps * eps / 2.0
                              / (spec.q * (1.0 - spec.q) + eps / 3.0)) < log_inv


def bernstein_sample_size(spec: MarginSpec) -> int:
    """Smallest sample count certified by the variance-aware bound.

    Finds the least n with eps = margin - log(1/d)/n positive such that
    n eps^2/2 / (q(1-q) + eps/3) >= log(1/d). The predicate is false up
    to a single crossing and true beyond it, so a gallop plus bisection
    returns the exact minimum.
    """
    log_inv = math.log(1.0 / spec.delta)
    start = hi = max(1, math.floor(log_inv / spec.margin) + 1)  # first n with eps > 0
    while not _bernstein_ok(spec, hi):
        hi *= 2
    return _first(lambda n: _bernstein_ok(spec, n), start, hi)
