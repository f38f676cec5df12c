"""Decision procedures: frozen verdicts, reduction, serialization."""

import json
import math

import numpy as np
import pytest

from linkverify import (ChannelTrace, Decision, Method, PlantModel, cost_test,
                        general_test, kronecker_stable, lyapunov_cost,
                        spectral_radius, stability_test, stability_threshold)
from linkverify import verify


def trace_of(successes, n):
    return ChannelTrace(np.r_[np.ones(successes), np.zeros(n - successes)])


SCALAR_2 = PlantModel.simple([[2.0]])


def test_stability_affirm():
    verdict = stability_test(SCALAR_2, trace_of(1800, 2000), 1e-3)
    assert verdict.decision is Decision.AFFIRM
    assert verdict.interval.lo == pytest.approx(0.858443546593, abs=1e-9)
    assert verdict.threshold_or_target == 0.75


def test_stability_undetermined_small_sample():
    # Half-width sqrt(ln(1000)/20) = 0.588 swallows the threshold.
    verdict = stability_test(SCALAR_2, trace_of(9, 10), 1e-3)
    assert verdict.decision is Decision.UNDETERMINED


def test_stability_deny():
    plant = PlantModel.simple([[4.0]])  # threshold 0.9375
    verdict = stability_test(plant, trace_of(1000, 2000), 1e-3)
    assert verdict.decision is Decision.DENY
    assert verdict.interval.hi == pytest.approx(0.541556453407, abs=1e-9)


def test_stability_trivial_when_contractive():
    plant = PlantModel.simple([[0.5]])
    verdict = stability_test(plant, trace_of(0, 10), 1e-3)
    assert verdict.decision is Decision.AFFIRM
    assert "trivially stable" in verdict.flags


def test_stability_threshold_tie_is_undetermined():
    # Engineer an interval whose lower end sits exactly on the threshold.
    plant = PlantModel.simple([[2.0]])
    # q_hat=0.85, half-width 0.1 -> lo = 0.75 exactly with delta = e^{-2n*hw^2}.
    n = 200
    delta = math.exp(-2 * n * 0.1 ** 2)
    verdict = stability_test(plant, trace_of(170, n), delta)
    assert verdict.interval.lo == pytest.approx(0.75, abs=1e-12)
    assert verdict.decision is Decision.UNDETERMINED


def test_stability_rejects_general_plant():
    plant = PlantModel(a_open=[[2.0]], a_closed=[[0.5]],
                       q_weight=[[1.0]], w_cov=[[1.0]])
    with pytest.raises(ValueError):
        stability_test(plant, trace_of(5, 10), 1e-3)


@pytest.mark.parametrize("successes,expected", [
    (1900, Decision.AFFIRM),        # lo=0.908, J(lo)=1.58 <= 2
    (1500, Decision.DENY),          # hi=0.792, J(hi)=6.02 >= 2
    (1750, Decision.UNDETERMINED),  # interval straddles q*=0.875
])
def test_cost_verdicts(successes, expected):
    verdict = cost_test(SCALAR_2, trace_of(successes, 2000), 1e-3, j_req=2.0)
    assert verdict.decision is expected
    assert verdict.threshold_or_target == 2.0


@pytest.mark.parametrize("j_req", [math.nan, 0.0, -1.0])
def test_cost_test_rejects_a_target_that_is_not_positive(j_req):
    with pytest.raises(ValueError, match="cost target"):
        cost_test(SCALAR_2, trace_of(1800, 2000), 1e-3, j_req=j_req)


def test_cost_deny_on_unstable_interval_end():
    # hi below the stability threshold: the cost there is infinite.
    verdict = cost_test(SCALAR_2, trace_of(600, 2000), 1e-3, j_req=100.0)
    assert verdict.decision is Decision.DENY


def test_cost_branches_respect_monotonicity():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(10, 2000))
        k = int(rng.integers(0, n + 1))
        j_req = float(rng.uniform(1.1, 10.0))
        verdict = cost_test(SCALAR_2, trace_of(k, n), 1e-3, j_req=j_req)
        j_lo = lyapunov_cost(SCALAR_2, verdict.interval.lo)
        j_hi = lyapunov_cost(SCALAR_2, verdict.interval.hi)
        if verdict.decision is Decision.AFFIRM:
            assert j_lo <= j_req
        elif verdict.decision is Decision.DENY:
            assert j_hi >= j_req or math.isinf(j_hi)
        else:
            assert j_lo > j_req > j_hi


def test_cost_rejects_nonpositive_target():
    with pytest.raises(ValueError):
        cost_test(SCALAR_2, trace_of(5, 10), 1e-3, j_req=0.0)


def test_general_matches_stability_when_closed_loop_zero():
    rng = np.random.default_rng(41)
    for _ in range(15):
        rho = float(rng.uniform(1.05, 3.0))
        plant = PlantModel.simple([[rho]])
        n = int(rng.integers(20, 800))
        k = int(rng.integers(0, n + 1))
        trace = trace_of(k, n)
        direct = stability_test(plant, trace, 1e-3)
        swept = general_test(plant, trace, 1e-3)
        assert swept.decision is direct.decision


def test_general_both_modes_contractive():
    plant = PlantModel(a_open=0.5 * np.eye(2), a_closed=0.5 * np.eye(2),
                       q_weight=np.eye(2), w_cov=np.eye(2))
    verdict = general_test(plant, trace_of(3, 10), 1e-3)
    assert verdict.decision is Decision.AFFIRM
    assert verdict.flags == ()


def test_general_mixed_interval():
    plant = PlantModel(a_open=[[2.0]], a_closed=[[0.5]],
                       q_weight=[[1.0]], w_cov=[[1.0]])
    # Hoeffding interval [0.7, 0.9] straddles the scalar boundary q=0.8.
    n = 200
    delta = math.exp(-2 * n * 0.1 ** 2)
    verdict = general_test(plant, trace_of(160, n), delta)
    assert verdict.interval.lo == pytest.approx(0.7, abs=1e-12)
    assert verdict.interval.hi == pytest.approx(0.9, abs=1e-12)
    assert verdict.decision is Decision.UNDETERMINED
    assert verdict.flags == ()


def count_point_tests(monkeypatch) -> list:
    calls = []
    point_test = verify.kronecker_stable

    def counted(*args, **kwargs):
        calls.append(args)
        return point_test(*args, **kwargs)

    monkeypatch.setattr(verify, "kronecker_stable", counted)
    return calls


def test_general_one_bound_test_per_decisive_piece(monkeypatch):
    # With the crossing 0.75 outside both intervals, a stable simple plant
    # is affirmed and an unstable one denied by one eigensolve each.
    calls = count_point_tests(monkeypatch)
    plant = PlantModel.simple([[2.0]])
    assert general_test(plant, trace_of(1800, 2000), 1e-3).decision is Decision.AFFIRM
    assert len(calls) == 1
    assert general_test(plant, trace_of(1000, 2000), 1e-3).decision is Decision.DENY
    assert len(calls) == 2


def test_general_finds_unstable_pocket_between_grid_points():
    # rho(L_q) = 2(1+1e-10) sqrt(q(1-q)) reaches 1 only for |q - 0.5| below
    # about 7e-6, a pocket that rates 1e-4 apart step over.
    s = math.sqrt(2.0 * (1.0 + 1e-10))
    plant = PlantModel(a_open=s * np.array([[0.0, 0.0], [1.0, 0.0]]),
                       a_closed=s * np.array([[0.0, 1.0], [0.0, 0.0]]),
                       q_weight=np.eye(2), w_cov=np.eye(2))
    assert not kronecker_stable(plant, 0.5)
    assert kronecker_stable(plant, 0.5 - 1e-5) and kronecker_stable(plant, 0.5 + 1e-5)
    verdict = general_test(plant, trace_of(101, 200), 1e-3)
    assert verdict.interval.lo < 0.5 < verdict.interval.hi
    assert verdict.decision is Decision.UNDETERMINED
    assert verdict.flags == ()
    below, above = plant._crossings
    assert 0.5 - 1e-5 < below < 0.5 < above < 0.5 + 1e-5


def test_general_near_marginal_plant_takes_one_point_test(monkeypatch):
    # Ac = Ao gives L_q = O for every q: no crossing, so one eigensolve
    # decides all of [0, 1].
    calls = count_point_tests(monkeypatch)
    a = math.sqrt(0.9999) * np.eye(2)
    plant = PlantModel(a_open=a, a_closed=a, q_weight=np.eye(2), w_cov=np.eye(2))
    verdict = general_test(plant, trace_of(1, 2), 1e-3)
    assert (verdict.interval.lo, verdict.interval.hi) == (0.0, 1.0)
    assert verdict.decision is Decision.AFFIRM
    assert len(calls) <= 2


def test_general_orthogonal_plant_is_denied():
    # rho(L_q) = 1 at every rate, never certified stable.
    t = 0.3
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    plant = PlantModel(a_open=rot, a_closed=rot, q_weight=np.eye(2), w_cov=np.eye(2))
    assert general_test(plant, trace_of(120, 200), 1e-3).decision is Decision.DENY


def test_general_verdict_when_shift_matrix_is_singular():
    # An ulp search finds a scalar plant whose K = 0.5 c^2 + 0.5 a^2 - s is
    # exactly 0, so that the rate 0.5 tried first is itself the crossing.
    c, s = 0.7, 1.0 - 1e-12
    a0 = math.sqrt(2.0 * s - c * c)
    a = next(x for x in a0 + np.arange(-8, 9) * np.spacing(a0)
             if 0.5 * (c * c) + 0.5 * (x * x) - s == 0.0)
    plant = PlantModel(a_open=[[a]], a_closed=[[c]], q_weight=[[1.0]],
                       w_cov=[[1.0]])
    (crossing,) = plant._crossings
    assert crossing == pytest.approx(0.5, abs=1e-12)
    assert general_test(plant, trace_of(100, 200), 1e-3).decision is Decision.UNDETERMINED
    assert general_test(plant, trace_of(1800, 2000), 1e-3).decision is Decision.AFFIRM


def test_general_denies_an_eigenvalue_at_the_threshold_for_every_rate():
    # Ao(x)Ao and Ac(x)Ac share the eigenvalue s = 1 - 1e-12, so
    # det(L_q - sI) vanishes at every q and no rate is stable.
    s = 1.0 - 1e-12
    plant = PlantModel(a_open=np.diag([s, 1.0]), a_closed=np.diag([1.0, s]),
                       q_weight=np.eye(2), w_cov=np.eye(2))
    for k in (20, 100, 190):
        assert general_test(plant, trace_of(k, 200), 1e-3).decision is Decision.DENY


def test_general_decisive_answers_hold_on_a_dense_grid():
    # Random plants scaled so that rho(L_q) = 1 at a rate q0 near the
    # interval: decisive answers come close to a stability crossing.
    rng = np.random.default_rng(2024)
    decided = {Decision.AFFIRM: 0, Decision.DENY: 0, Decision.UNDETERMINED: 0}
    for _ in range(40):
        dim = int(rng.integers(2, 5))
        a_open, a_closed = rng.standard_normal((2, dim, dim))
        a_closed *= rng.uniform(0.1, 1.0) * spectral_radius(a_open) / spectral_radius(a_closed)
        n = int(rng.integers(500, 20000))
        k = int(rng.integers(n // 10, n - n // 10))
        half_width = math.sqrt(math.log(1e3) / (2 * n))
        q0 = min(max(k / n + rng.uniform(-2.5, 2.5) * half_width, 0.01), 0.99)
        scale = spectral_radius(q0 * np.kron(a_closed, a_closed)
                                + (1.0 - q0) * np.kron(a_open, a_open)) ** -0.5
        a_open, a_closed = scale * a_open, scale * a_closed
        plant = PlantModel(a_open=a_open, a_closed=a_closed,
                           q_weight=np.eye(dim), w_cov=np.eye(dim))
        verdict = general_test(plant, trace_of(k, n), 1e-3)
        decided[verdict.decision] += 1
        if verdict.decision is Decision.UNDETERMINED:
            continue
        # Both ends, then midpoints of 2.5e-5-wide cells.
        lo, hi = verdict.interval.lo, verdict.interval.hi
        m = max(1, math.ceil((hi - lo) / 2.5e-5))
        q = np.r_[lo, hi, lo + (np.arange(m) + 0.5) * (hi - lo) / m][:, None, None]
        mixed = q * np.kron(a_closed, a_closed) + (1.0 - q) * np.kron(a_open, a_open)
        stable = np.abs(np.linalg.eigvals(mixed)).max(axis=1) < 1.0 - 1e-12
        assert stable.all() if verdict.decision is Decision.AFFIRM else not stable.any()
    assert min(decided.values()) >= 5


def test_verdict_json_shape():
    verdict = stability_test(SCALAR_2, trace_of(1800, 2000), 1e-3,
                             Method.EXACT_BINOMIAL)
    doc = json.loads(json.dumps(verdict.to_dict()))
    assert set(doc) == {"decision", "method", "delta", "n", "q_hat", "lo",
                        "hi", "threshold", "flags"}
    assert doc["method"] == "exact"
    assert doc["n"] == 2000

    cost_doc = cost_test(SCALAR_2, trace_of(1900, 2000), 1e-3, 2.0).to_dict()
    assert "j_req" in cost_doc and "threshold" not in cost_doc


def test_verdicts_are_pure():
    trace = trace_of(1234, 1500)
    a = stability_test(SCALAR_2, trace, 1e-3)
    b = stability_test(SCALAR_2, trace, 1e-3)
    assert a == b
