"""Packet-outcome traces from a Bernoulli link.

A trace is an ordered record of binary packet outcomes (1 = delivered,
0 = dropped). Synthetic traces come from a counter-based generator
(Philox) keyed directly by a 64-bit seed, which makes the stream a pure
function of (q, n, seed) and prefix-stable: the first n outcomes of a
longer draw with the same seed are identical to a shorter draw. Sample
size sweeps can therefore reuse a single stream per trial.

Philox is counter-based (Salmon, Moraes, Dror & Shaw 2011, "Parallel
random numbers: as easy as 1, 2, 3"), so each thread keeps one instance
and re-keys it per draw instead of building a new generator. An outcome
is 1 iff the stream's raw 64-bit word is below ceil(q * 2^53) * 2^11,
which is bit for bit the comparison ``Generator.random() < q``, since
``random()`` is ``(word >> 11) * 2^-53``.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass

import numpy as np

_SEED_MAX = 2**64
# The ASCII characters str.split() treats as whitespace.
_WHITESPACE = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
_HEADER = re.compile(rb"[^\r\n]*")
_local = threading.local()


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
        if arr.dtype == np.bool_:
            # Frozen like uint8 input and read as its bytes, which are 0/1
            # unless memory was reinterpreted as bool: scanned all the same.
            arr.setflags(write=False)
            arr = arr.view(np.uint8)
        if arr.size and not np.all((arr == 0) | (arr == 1)):
            raise ValueError("outcomes must contain only 0 and 1")
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "outcomes", arr)
        _check_seed(self.seed)

    @classmethod
    def _of_bits(cls, bits: np.ndarray, seed: int,
                 true_rate: float | None) -> "ChannelTrace":
        """A trace over a fresh 1-D array of bytes the caller knows are 0/1.

        A comparison result or a file body already checked is not scanned
        again; ``seed`` is checked by the caller too.
        """
        trace = object.__new__(cls)
        bits = bits.view(np.uint8)
        bits.setflags(write=False)
        for name, value in (("outcomes", bits), ("seed", seed),
                            ("true_rate", true_rate)):
            object.__setattr__(trace, name, value)
        return trace

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
    seed = _check_seed(seed)
    if q == 1.0:
        # The cut below would be 2^64; every uniform draw is below 1.
        outcomes = np.ones(int(n), dtype=np.bool_)
    else:
        cut = np.uint64(math.ceil(q * 2.0**53) << 11)
        outcomes = _philox(seed).random_raw(int(n)) < cut
    return ChannelTrace._of_bits(outcomes, seed, float(q))


def _check_seed(seed) -> int:
    if not 0 <= int(seed) < _SEED_MAX:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return int(seed)


def _philox(seed: int) -> np.random.Philox:
    """This thread's Philox, re-keyed to the stream of ``Philox(key=seed)``."""
    bit_gen = getattr(_local, "philox", None)
    if bit_gen is None:
        bit_gen = _local.philox = np.random.Philox(key=0)
    # Key word 0 = seed, counter 0, buffer empty: the state Philox(key=seed)
    # starts in.
    bit_gen.state = {"bit_generator": "Philox",
                     "state": {"counter": (0, 0, 0, 0), "key": (seed, 0)},
                     "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                     "has_uint32": 0, "uinteger": 0}
    return bit_gen


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
    and any line ending is accepted.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    head = _HEADER.match(data).group()
    header = head.decode("ascii")
    fields = dict(item.split("=", 1) for item in header.split())
    try:
        n = int(fields["n"])
        seed = int(fields["seed"])
        rate = None if fields["q"] == "unknown" else float(fields["q"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed trace header: {header!r}") from exc
    digits = data[len(head):].translate(None, _WHITESPACE)
    if len(digits) != n:
        raise ValueError(f"trace body has {len(digits)} outcomes, header says {n}")
    if n < 1:
        raise ValueError("trace must contain at least one outcome")
    # Any byte other than '0' or '1' lands above 1 (uint8 wraps below '0').
    outcomes = np.frombuffer(digits, dtype=np.uint8) - ord("0")
    if outcomes.max() > 1:
        raise ValueError("trace body may contain only '0' and '1'")
    return ChannelTrace._of_bits(outcomes, _check_seed(seed), rate)
