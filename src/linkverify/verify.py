"""Three-valued decision procedures driven by channel samples.

Each test builds a high-confidence interval for the unknown success
rate and answers only when the whole interval lands on one side of the
question. Affirm means the queried property (stability, or cost within
target) is certified at the pessimistic end of the interval; Deny
certifies its negation at the optimistic end; anything else is
Undetermined, and the remedy is more samples. Wrong answers inherit the
interval's per-side delta guarantee (for the methods that have one).
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

from .channel import ChannelTrace
from .intervals import Method, RateInterval, build_interval
from .sysmodel import PlantModel, kronecker_stable, lyapunov_cost, stability_threshold

_PIECE_FLOOR = 1e-4  # general_test halves no rate piece narrower than this


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
    if j_req <= 0.0:
        raise ValueError("cost target must be positive")
    interval = build_interval(trace, delta, method)
    return Verdict(decide_cost(plant, j_req, interval), interval, j_req,
                   method, kind="cost")


def general_test(plant: PlantModel, trace: ChannelTrace, delta: float,
                 method: Method = Method.HOEFFDING) -> Verdict:
    """Mean-square stability of a general plant, certified over the whole interval.

    With C = Ac(x)Ac and O = Ao(x)Ao, the second-moment operator is
    L_q = qC + (1-q)O (Costa, Fragoso & Marques 2005). C and O keep the
    PSD cone, where the spectral radius is monotone (Berman & Plemmons
    1994, ch. 1), so on a rate piece [a, b] rho(aC + (1-b)O) <= rho(L_q)
    <= rho(bC + (1-a)O). A piece whose upper bound is stable is
    affirmed, one whose lower bound is not is denied, and others are
    halved breadth-first, so both sides of a crossing are reached. Two
    disagreeing pieces answer Undetermined, and so does an open piece
    narrower than 1e-4, flagged "unresolved below 1e-4".
    """
    interval = build_interval(trace, delta, method)
    pieces, found = deque([(interval.lo, interval.hi)]), set()
    while pieces and len(found) < 2:
        a, b = pieces.popleft()
        if kronecker_stable(plant, b, open_weight=1.0 - a):
            found.add(Decision.AFFIRM)
        elif not kronecker_stable(plant, a, open_weight=1.0 - b):
            found.add(Decision.DENY)
        elif b - a < _PIECE_FLOOR:
            return Verdict(Decision.UNDETERMINED, interval, None, method,
                           kind="general", flags=("unresolved below 1e-4",))
        else:
            pieces.extend(((a, (a + b) / 2), ((a + b) / 2, b)))
    decision = found.pop() if len(found) == 1 else Decision.UNDETERMINED
    return Verdict(decision, interval, None, method, kind="general")
