"""Trace generation: determinism, prefix stability, file format."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkverify import ChannelTrace, draw_trace, load_trace, sample_mean, save_trace


def test_degenerate_rates():
    assert draw_trace(1.0, 5, 123).outcomes.tolist() == [1, 1, 1, 1, 1]
    assert draw_trace(0.0, 5, 123).outcomes.tolist() == [0, 0, 0, 0, 0]


def test_determinism_and_seed_sensitivity():
    a = draw_trace(0.5, 1000, 42)
    b = draw_trace(0.5, 1000, 42)
    c = draw_trace(0.5, 1000, 43)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert not np.array_equal(a.outcomes, c.outcomes)


def test_large_draw_concentrates():
    # Hoeffding at eps=0.004 leaves ample room at this n.
    trace = draw_trace(0.9, 10**5, 7)
    assert 0.896 <= sample_mean(trace) <= 0.904


def test_mean_tracks_rate_on_grid():
    # Deviation beyond 0.002 at n=1e6 has probability < 3.4e-4 per point.
    for i, q in enumerate(np.arange(0.1, 0.95, 0.1)):
        trace = draw_trace(float(q), 10**6, 1000 + i)
        assert abs(sample_mean(trace) - q) < 0.002


@settings(max_examples=25, deadline=None)
@given(q=st.floats(0.0, 1.0), n1=st.integers(1, 200), extra=st.integers(1, 200),
       seed=st.integers(0, 2**64 - 1))
def test_prefix_stability(q, n1, extra, seed):
    short = draw_trace(q, n1, seed)
    long = draw_trace(q, n1 + extra, seed)
    assert np.array_equal(short.outcomes, long.outcomes[:n1])


def test_prefix_stability_large():
    assert np.array_equal(draw_trace(0.37, 50_000, 9).outcomes,
                          draw_trace(0.37, 75_000, 9).outcomes[:50_000])


def test_prefix_method():
    trace = draw_trace(0.5, 100, 5)
    head = trace.prefix(10)
    assert len(head) == 10
    assert np.array_equal(head.outcomes, trace.outcomes[:10])
    with pytest.raises(ValueError):
        trace.prefix(0)
    with pytest.raises(ValueError):
        trace.prefix(101)


@pytest.mark.parametrize("outcomes,expected", [
    ([1, 1, 1, 1], 1.0),
    ([1, 0, 1, 0], 0.5),
    ([1] * 1800 + [0] * 200, 0.9),
])
def test_sample_mean_exact(outcomes, expected):
    assert sample_mean(ChannelTrace(np.array(outcomes))) == expected


def test_sample_mean_rejects_empty():
    with pytest.raises(ValueError):
        sample_mean(ChannelTrace(np.array([], dtype=np.uint8)))


def test_draw_trace_rejects_bad_inputs():
    with pytest.raises(ValueError):
        draw_trace(-0.1, 10, 0)
    with pytest.raises(ValueError):
        draw_trace(1.1, 10, 0)
    with pytest.raises(ValueError):
        draw_trace(0.5, 0, 0)
    with pytest.raises(ValueError):
        draw_trace(0.5, 10, -1)
    with pytest.raises(ValueError):
        draw_trace(0.5, 10, 2**64)


def test_trace_rejects_non_binary():
    # Checked before the uint8 cast, which would truncate or overflow.
    for outcomes in (np.array([0, 1, 2]), [0.5, 1.0], [257, 1], [-1, 1],
                     [math.nan]):
        with pytest.raises(ValueError):
            ChannelTrace(outcomes)


def test_trace_rejects_bool_array_over_non_binary_bytes():
    # A bool view of the bytes 2, 1 would otherwise count 3 successes in 2.
    with pytest.raises(ValueError):
        ChannelTrace(np.array([2, 1], np.uint8).view(bool))


@pytest.mark.parametrize("outcomes", [[True, False, True], [1, 0, 1],
                                      np.array([1.0, 0.0, 1.0])])
def test_trace_accepts_binary_input(outcomes):
    trace = ChannelTrace(outcomes)
    assert trace.outcomes.dtype == np.uint8
    assert trace.outcomes.tolist() == [1, 0, 1]


def test_uint8_outcomes_are_not_copied():
    outcomes = np.array([1, 0, 1], dtype=np.uint8)
    assert ChannelTrace(outcomes).outcomes is outcomes


def test_outcomes_are_immutable():
    trace = draw_trace(0.5, 10, 1)
    with pytest.raises(ValueError):
        trace.outcomes[0] = 0


def test_file_round_trip(tmp_path):
    trace = draw_trace(0.73, 250, 31415)
    path = tmp_path / "trace.txt"
    save_trace(trace, path)
    text = path.read_text()
    header = text.splitlines()[0]
    assert header.startswith("n=250 ")
    assert "seed=31415" in header
    assert max(len(line) for line in text.splitlines()) <= 80
    loaded = load_trace(path)
    assert np.array_equal(loaded.outcomes, trace.outcomes)
    assert loaded.seed == trace.seed
    assert loaded.true_rate == trace.true_rate


@pytest.mark.parametrize("n", [1, 80, 81, 250, 2000])
def test_save_trace_bytes_match_per_outcome_writer(tmp_path, n):
    trace = draw_trace(0.61, n, 2718)
    digits = "".join("1" if o else "0" for o in trace.outcomes)
    expected = "\n".join([f"n={n} q=0.61 seed=2718"]
                         + [digits[i : i + 80] for i in range(0, n, 80)]) + "\n"
    path = tmp_path / "trace.txt"
    save_trace(trace, path)
    assert path.read_bytes() == expected.encode("ascii")


def test_load_ignores_whitespace(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("n=6 q=unknown seed=9\n10 1\n\t0 11\n")
    loaded = load_trace(path)
    assert loaded.outcomes.tolist() == [1, 0, 1, 0, 1, 1]
    assert loaded.true_rate is None


@pytest.mark.parametrize("body", [
    "n=3 q=0.5 seed=1\n10\n",          # count mismatch
    "n=2 q=0.5 seed=1\n1x\n",          # bad character
    "q=0.5 seed=1\n10\n",              # missing n
    "n=0 q=0.5 seed=1\n\n",            # empty trace
])
def test_load_rejects_malformed(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ValueError):
        load_trace(path)


ORACLE_RATES = (0.0, 2.0**-60, 0.5, 1.0 - 2.0**-53, 1.0)
ORACLE_SEEDS = (0, 2**63 + 5, 2**64 - 1)


def _oracle_mismatches():
    """(q, n, seed) where draw_trace differs from a fresh Philox stream."""
    bad = []
    for q in ORACLE_RATES:
        for seed in ORACLE_SEEDS:
            for n in (1, 3, 4, 5, 2000):
                rng = np.random.Generator(np.random.Philox(key=seed))
                expected = (rng.random(n) < q).astype(np.uint8)
                if not np.array_equal(draw_trace(q, n, seed).outcomes, expected):
                    bad.append((q, n, seed))
    return bad


def test_draw_matches_fresh_generator_stream():
    assert _oracle_mismatches() == []


def test_draw_threshold_at_the_first_uniform():
    # Rates on and just beside the first uniform u = (word >> 11) * 2^-53:
    # the outcome is 1 iff u < q, exactly.
    for seed in ORACLE_SEEDS + (12345, 2**64 - 7):
        u = float(np.random.Philox(key=seed).random_raw(1)[0] >> np.uint64(11)) * 2.0**-53
        for q, expected in ((np.nextafter(u, 0.0), 0), (u, 0),
                            (np.nextafter(u, 1.0), 1)):
            rng = np.random.Generator(np.random.Philox(key=seed))
            assert draw_trace(float(q), 1, seed).outcomes.tolist() == [expected]
            assert int(rng.random() < q) == expected


def test_draw_matches_fresh_generator_stream_across_threads():
    results = [None, None]

    def worker(slot):
        results[slot] = [_oracle_mismatches() for _ in range(20)]

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[[]] * 20, [[]] * 20]


def test_load_crlf_matches_lf(tmp_path):
    trace = draw_trace(0.4, 250, 77)
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    save_trace(trace, lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    for path in (lf, crlf):
        loaded = load_trace(path)
        assert np.array_equal(loaded.outcomes, trace.outcomes)
        assert (loaded.seed, loaded.true_rate) == (trace.seed, trace.true_rate)


def test_load_skips_exactly_the_whitespace_split_skips(tmp_path):
    path = tmp_path / "trace.txt"
    spaces = [chr(c) for c in range(128) if chr(c).isspace()]
    assert "".join(spaces) == "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
    path.write_bytes(b"n=3 q=unknown seed=4\n1" + "".join(spaces).encode() + b"01\n")
    assert load_trace(path).outcomes.tolist() == [1, 0, 1]
    for other in (b"\x00", b"\x1b", b"\x7f", b"\x85", b"\xa0"):
        path.write_bytes(b"n=4 q=unknown seed=4\n10" + other + b"1\n")
        with pytest.raises(ValueError):
            load_trace(path)


@pytest.mark.parametrize("data", [b"n=5 q=0.5 seed=1\n10\xc3\xa91\n",
                                  b"n=3 q=0.5 seed=1\n1\xff0\n",
                                  b"n=3 q=0.5 seed=1\n\x8010\n",
                                  b"n=3 q=0.5 seed=1 \xe9\n101\n"])
def test_load_rejects_non_ascii_bytes(tmp_path, data):
    path = tmp_path / "trace.txt"
    path.write_bytes(data)
    with pytest.raises(ValueError):
        load_trace(path)
