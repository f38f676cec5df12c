"""Trace generation: determinism, prefix stability, file format."""

import math

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
