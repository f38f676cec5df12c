"""Packet-outcome traces from a Bernoulli link.

A trace is an ordered record of binary packet outcomes (1 = delivered,
0 = dropped). Synthetic traces come from a counter-based generator
(Philox) keyed directly by a 64-bit seed, which makes the stream a pure
function of (q, n, seed) and prefix-stable: the first n outcomes of a
longer draw with the same seed are identical to a shorter draw. Sample
size sweeps can therefore reuse a single stream per trial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SEED_MAX = 2**64


@dataclass(frozen=True)
class ChannelTrace:
    """An immutable record of binary packet outcomes.

    ``true_rate`` is recorded only for synthetic traces; it is ``None``
    for traces loaded from measurements of an unknown link.
    """

    outcomes: np.ndarray
    seed: int = 0
    true_rate: float | None = None

    def __post_init__(self):
        # Validate before the uint8 cast, which would truncate 0.5 to 0.
        arr = np.asarray(self.outcomes)
        if arr.ndim != 1:
            raise ValueError("outcomes must be a one-dimensional sequence")
        if arr.size and not np.all((arr == 0) | (arr == 1)):
            raise ValueError("outcomes must contain only 0 and 1")
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "outcomes", arr)
        if not 0 <= int(self.seed) < _SEED_MAX:
            raise ValueError("seed must be a 64-bit unsigned integer")

    def __len__(self) -> int:
        return int(self.outcomes.size)

    @property
    def successes(self) -> int:
        return int(self.outcomes.sum())

    def prefix(self, n: int) -> "ChannelTrace":
        """First ``n`` outcomes as a new trace (same seed metadata)."""
        if not 1 <= n <= len(self):
            raise ValueError(f"prefix length {n} outside [1, {len(self)}]")
        return ChannelTrace(self.outcomes[:n], seed=self.seed, true_rate=self.true_rate)


def draw_trace(q: float, n: int, seed: int) -> ChannelTrace:
    """Draw ``n`` i.i.d. Bernoulli(q) packet outcomes.

    Deterministic in (q, n, seed). An outcome is 1 iff the stream's
    uniform [0,1) draw is strictly below q, so q=0 and q=1 are exact.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"success rate q={q} outside [0, 1]")
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0 <= int(seed) < _SEED_MAX:
        raise ValueError("seed must be a 64-bit unsigned integer")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    outcomes = (rng.random(int(n)) < q).astype(np.uint8)
    return ChannelTrace(outcomes, seed=int(seed), true_rate=float(q))


def sample_mean(trace: ChannelTrace) -> float:
    """Fraction of delivered packets, the MLE of the success rate."""
    if len(trace) == 0:
        raise ValueError("empty trace has no sample mean")
    return trace.successes / len(trace)


def save_trace(trace: ChannelTrace, path) -> None:
    """Write a trace in the plain-text format (80-column wrapped)."""
    rate = "unknown" if trace.true_rate is None else repr(float(trace.true_rate))
    lines = [f"n={len(trace)} q={rate} seed={trace.seed}"]
    digits = (trace.outcomes + ord("0")).tobytes().decode("ascii")
    lines.extend(digits[i : i + 80] for i in range(0, len(digits), 80))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_trace(path) -> ChannelTrace:
    """Read a trace file: header line, then '0'/'1' characters.

    Whitespace between outcome characters is ignored, so any wrapping
    is accepted.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        body = fh.read()
    fields = dict(item.split("=", 1) for item in header.split())
    try:
        n = int(fields["n"])
        seed = int(fields["seed"])
        rate = None if fields["q"] == "unknown" else float(fields["q"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed trace header: {header!r}") from exc
    digits = "".join(body.split())
    if len(digits) != n:
        raise ValueError(f"trace body has {len(digits)} outcomes, header says {n}")
    if n < 1:
        raise ValueError("trace must contain at least one outcome")
    if set(digits) - {"0", "1"}:
        raise ValueError("trace body may contain only '0' and '1'")
    outcomes = np.frombuffer(digits.encode("ascii"), dtype=np.uint8) - ord("0")
    return ChannelTrace(outcomes, seed=seed, true_rate=rate)
