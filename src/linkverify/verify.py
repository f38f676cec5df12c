"""Three-valued decision procedures driven by channel samples.

Each test builds a high-confidence interval for the unknown success
rate and answers only when the whole interval lands on one side of the
question. Affirm means the queried property (stability, or cost within
target) is certified at the pessimistic end of the interval; Deny
certifies its negation at the optimistic end; anything else is
Undetermined, and the remedy is more samples. Wrong answers inherit the
interval's per-side delta guarantee (for the methods that have one).
A general plant has no single threshold: point tests at its finitely
many stability crossings and between them decide the whole interval.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelTrace
from .intervals import Method, RateInterval, build_interval
from .sysmodel import PlantModel, kronecker_stable, lyapunov_cost, stability_threshold


class Decision(enum.Enum):
    AFFIRM = "Affirm"
    DENY = "Deny"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one decision procedure.

    ``kind`` names the query ("stability", "cost", "general");
    ``threshold_or_target`` holds the stability threshold or the cost
    target, and is None for the general test where no single scalar
    separates the answers.
    """

    decision: Decision
    interval: RateInterval
    threshold_or_target: float | None
    method: Method
    kind: str
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        key = "j_req" if self.kind == "cost" else "threshold"
        return {
            "decision": self.decision.value,
            "method": self.method.value,
            "delta": self.interval.delta,
            "n": self.interval.n,
            "q_hat": self.interval.q_hat,
            "lo": self.interval.lo,
            "hi": self.interval.hi,
            key: self.threshold_or_target,
            "flags": list(self.flags),
        }


def decide_stability(threshold: float, interval: RateInterval) -> Decision:
    """Strict interval-vs-threshold comparison; ties are Undetermined."""
    if threshold < interval.lo:
        return Decision.AFFIRM
    if threshold > interval.hi:
        return Decision.DENY
    return Decision.UNDETERMINED


def stability_test(plant: PlantModel, trace: ChannelTrace, delta: float,
                   method: Method = Method.HOEFFDING) -> Verdict:
    """Decide mean-square stability of the simple model from samples.

    A contractive open loop (negative threshold) is affirmed outright:
    every success rate stabilizes it, and the clipped interval could
    not express that comparison.
    """
    interval = build_interval(trace, delta, method)
    threshold = stability_threshold(plant)
    if threshold < 0.0:
        return Verdict(Decision.AFFIRM, interval, threshold, method,
                       kind="stability", flags=("trivially stable",))
    return Verdict(decide_stability(threshold, interval), interval, threshold,
                   method, kind="stability")


def decide_cost(plant: PlantModel, j_req: float,
                interval: RateInterval) -> Decision:
    """Cost comparison at the interval ends, cheapest-first.

    The cost is strictly decreasing in the rate, so certifying
    J(lo) <= target certifies it for every rate in the interval, and an
    infinite or excessive J(hi) denies it everywhere.
    """
    j_lo = lyapunov_cost(plant, interval.lo)
    if j_lo <= j_req:  # finite by comparison
        return Decision.AFFIRM
    j_hi = lyapunov_cost(plant, interval.hi)
    if math.isinf(j_hi) or j_hi >= j_req:
        return Decision.DENY
    return Decision.UNDETERMINED


def cost_test(plant: PlantModel, trace: ChannelTrace, delta: float,
              j_req: float, method: Method = Method.HOEFFDING) -> Verdict:
    """Decide whether the average quadratic cost meets the target."""
    if not j_req > 0.0:
        raise ValueError(f"cost target must be positive, got {j_req}")
    interval = build_interval(trace, delta, method)
    return Verdict(decide_cost(plant, j_req, interval), interval, j_req,
                   method, kind="cost")


def general_test(plant: PlantModel, trace: ChannelTrace, delta: float,
                 method: Method = Method.HOEFFDING) -> Verdict:
    """Mean-square stability of a general plant, certified over the whole interval.

    rho(L_q), L_q = q Ac(x)Ac + (1-q) Ao(x)Ao, stays on one side of the
    guard-banded threshold between two of the plant's crossings, so one
    point test at each crossing inside the interval and one in each gap
    between them decide every rate: Affirm if all are stable, Deny if none
    is, Undetermined otherwise.
    """
    interval = build_interval(trace, delta, method)
    crossings = plant._crossings
    inside = crossings[(crossings > interval.lo) & (crossings < interval.hi)]
    ends = np.r_[interval.lo, inside, interval.hi]
    points = np.r_[inside, (ends[:-1] + ends[1:]) / 2]
    found = {kronecker_stable(plant, float(q)) for q in points}
    decision = (Decision.UNDETERMINED if len(found) == 2
                else Decision.AFFIRM if found.pop() else Decision.DENY)
    return Verdict(decision, interval, None, method, kind="general")
