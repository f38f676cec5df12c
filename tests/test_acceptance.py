"""Acceptance suite: one check per shipped guarantee, printed pass/fail.

 1. Critical-rate formula at spectral radius 2 (exact 0.75)
 2. Monte Carlo correctness curve dominates the theoretical bound
 3. Wrong-answer safety near the critical rate, per interval method
 4. Sample-size formula end-to-end (410 samples at 1% confidence)
 5. Lyapunov cost: fixed point vs series vs linear solve vs simulation
 6. Cost monotonicity and critical-rate inversion
 7. Kronecker condition reduces to the threshold rule
 8. Exact binomial interval inverts the tail to 1e-8
 9. Cost-verdict Monte Carlo matches its theory
10. Conservativeness ordering of the three practical methods
11. Variance-aware sample size: minimality and the reliable-link gain

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from linkverify import (ChannelTrace, Decision, ExperimentConfig, MarginSpec,
                        Method, PlantModel, bernstein_sample_size,
                        correctness_bound, critical_rate, draw_trace,
                        hoeffding_sample_size, kronecker_stable, lyapunov_cost,
                        run_cost_experiment, run_stability_experiment,
                        simulate, spectral_radius, stability_threshold,
                        write_ledger_csvs)
from linkverify.intervals import interval_from_counts

SCALAR_2 = PlantModel.simple([[2.0]])
THREE = (Method.HOEFFDING, Method.EXACT_BINOMIAL, Method.NORMAL_APPROX)


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num:2d}: {description}")
        raise
    print(f"PASS criterion {num:2d}: {description}")


def three_sigma(rate, trials):
    return 3.0 * math.sqrt(rate * (1.0 - rate) / trials)


# Shared Monte Carlo runs (module scoped: each is tallied once).

@pytest.fixture(scope="module")
def figure_run():
    cfg = ExperimentConfig(plant=SCALAR_2, true_rate=0.9, delta=1e-3,
                           trials=1000, methods=(Method.HOEFFDING,), seed=2024)
    start = time.perf_counter()
    ledger = run_stability_experiment(cfg)
    return cfg, ledger, time.perf_counter() - start


@pytest.fixture(scope="module")
def ordering_run():
    cfg = ExperimentConfig(plant=SCALAR_2, true_rate=0.9, delta=1e-3,
                           trials=1000, methods=THREE, seed=2024)
    return cfg, run_stability_experiment(cfg)


@pytest.fixture(scope="module")
def near_critical_run():
    rho = 1.0 / math.sqrt(0.51)  # threshold 1 - 1/rho^2 = 0.49
    cfg = ExperimentConfig(plant=PlantModel.simple([[rho]]), true_rate=0.5,
                           delta=1e-3, trials=10_000, methods=THREE, seed=555)
    start = time.perf_counter()
    ledger = run_stability_experiment(cfg)
    return cfg, ledger, time.perf_counter() - start


@pytest.fixture(scope="module")
def cost_run():
    cfg = ExperimentConfig(
        plant=SCALAR_2, true_rate=0.95, delta=0.01, j_req=2.0,
        n_grid=(10, 20, 50, 100, 200, 300, 500, 1000, 1500, 1638, 2000),
        trials=1000, methods=(Method.HOEFFDING,), seed=909)
    return cfg, run_cost_experiment(cfg)


@pytest.fixture(scope="module")
def random_instances():
    rng = np.random.default_rng(90210)
    instances = []
    while len(instances) < 20:
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n)) * rng.uniform(0.3, 1.2)
        b = rng.normal(size=(n, n))
        c = rng.normal(size=(n, n))
        plant = PlantModel.simple(a, q_weight=b @ b.T + np.eye(n),
                                  w_cov=c @ c.T + np.eye(n))
        low = max(stability_threshold(plant), 0.0)
        q = float(rng.uniform(low + 0.3 * (1.0 - low), 1.0))
        instances.append((plant, q))
    return instances


def series_cost(plant, q):
    power = np.eye(plant.dim)
    total, factor = 0.0, 1.0
    for i in range(10_000):
        term = factor * float(np.trace(power.T @ plant.q_weight @ power
                                       @ plant.w_cov))
        total += term
        if i > 10 and term < 1e-15 * total:
            return total
        power = plant.a_open @ power
        factor *= 1.0 - q
    raise AssertionError("series oracle did not converge")


def linear_solve_cost(plant, q):
    n = plant.dim
    a_t = plant.a_open.T
    system = np.eye(n * n) - (1.0 - q) * np.kron(a_t, a_t)
    p = np.linalg.solve(system, plant.q_weight.flatten(order="F"))
    return float(np.trace(p.reshape((n, n), order="F") @ plant.w_cov))


def binom_sf_oracle(n, k, q):
    """P(Bin(n,q) >= k) by a full direct log-space sum (no complement)."""
    if k <= 0:
        return 1.0
    if q <= 0.0:
        return 0.0
    if q >= 1.0:
        return 1.0
    logs = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * math.log(q) + (n - i) * math.log1p(-q)
            for i in range(k, n + 1)]
    peak = max(logs)
    return math.exp(peak) * sum(math.exp(v - peak) for v in logs)


def test_criterion_01_threshold_value():
    with criterion(1, "stability threshold at spectral radius 2 is 0.75 exactly"):
        assert stability_threshold(SCALAR_2) == 0.75
        assert stability_threshold(PlantModel.simple([[2.0, 0.0], [0.0, 1.0]])) == 0.75


def test_criterion_02_correctness_curve(figure_run):
    cfg, ledger, elapsed = figure_run
    with criterion(2, "empirical correct-rate dominates the bound; "
                      "0.999 reached by n=2000; run under 10 s"):
        for n in cfg.n_grid:
            rate = ledger.correct_rate(Method.HOEFFDING, n)
            assert rate >= ledger.bound[n] - three_sigma(rate, cfg.trials)
        assert ledger.correct_rate(Method.HOEFFDING, 2000) >= 0.999
        assert elapsed < 10.0


def test_criterion_03_wrong_answer_safety(near_critical_run):
    cfg, ledger, elapsed = near_critical_run
    with criterion(3, "near-critical wrong rates within delta for the "
                      "guaranteed methods; Wald exceeds it; run under 60 s"):
        slack = 1e-3 + 3.0 * math.sqrt(1e-3 / 10_000)
        for method in (Method.HOEFFDING, Method.EXACT_BINOMIAL):
            for n in cfg.n_grid:
                assert ledger.wrong_rate(method, n) <= slack
        assert any(ledger.wrong_rate(Method.NORMAL_APPROX, n) > 1e-3
                   for n in cfg.n_grid if n <= 100)
        assert elapsed < 60.0


def test_criterion_04_sample_size_end_to_end():
    with criterion(4, "410 samples certify (q=0.9, rho=2) at 1% error"):
        spec = MarginSpec(0.9, 0.75, 0.01)
        assert hoeffding_sample_size(spec) == 410
        assert correctness_bound(spec, 410) >= 0.99
        cfg = ExperimentConfig(plant=SCALAR_2, true_rate=0.9, delta=0.01,
                               n_grid=(410,), trials=1000,
                               methods=(Method.HOEFFDING,), seed=604)
        ledger = run_stability_experiment(cfg)
        rate = ledger.correct_rate(Method.HOEFFDING, 410)
        assert rate >= 0.99 - three_sigma(rate, cfg.trials)


def test_criterion_05_lyapunov_triple_agreement(random_instances):
    with criterion(5, "fixed point = series = linear solve (1e-9); "
                      "million-step simulation within 2%"):
        cases = random_instances + [(SCALAR_2, 0.9)]
        for plant, q in cases:
            fixed = lyapunov_cost(plant, q)
            assert fixed == pytest.approx(series_cost(plant, q), rel=1e-9)
            assert fixed == pytest.approx(linear_solve_cost(plant, q), rel=1e-9)
        assert lyapunov_cost(SCALAR_2, 0.9) == pytest.approx(5.0 / 3.0, rel=1e-9)
        traj = simulate(SCALAR_2, draw_trace(0.9, 10**6, 1), 2)
        assert traj.running_cost == pytest.approx(5.0 / 3.0, rel=0.02)


def test_criterion_06_monotonicity_and_critical_rate(random_instances):
    with criterion(6, "cost strictly decreasing; critical rate 0.875 "
                      "recovered and inverted to 1e-6"):
        for plant, _ in random_instances:
            start = max(stability_threshold(plant), 0.0) + 0.05
            costs = [lyapunov_cost(plant, float(q))
                     for q in np.linspace(start, 1.0, 50)]
            assert all(a > b for a, b in zip(costs, costs[1:]))
        q_star = critical_rate(SCALAR_2, 2.0)
        assert q_star == pytest.approx(0.875, abs=1e-8)
        assert abs(lyapunov_cost(SCALAR_2, q_star) - 2.0) <= 1e-6 * 2.0


def test_criterion_07_kronecker_reduction():
    with criterion(7, "Kronecker condition matches the threshold rule; "
                      "eigenvalue product law to 1e-8"):
        rng = np.random.default_rng(777)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n))
            plant = PlantModel.simple(a)
            threshold = stability_threshold(plant)
            for q in np.linspace(0.0, 1.0, 41):
                if abs(q - threshold) <= 1e-9:
                    continue
                assert kronecker_stable(plant, float(q)) == (q > threshold)
            assert spectral_radius(np.kron(a, a)) == pytest.approx(
                spectral_radius(a) ** 2, rel=1e-8)


def test_criterion_08_exact_interval_inversion():
    with criterion(8, "exact interval inverts the binomial tail to 1e-8"):
        iv = interval_from_counts(Method.EXACT_BINOMIAL, 10, 10, 0.05)
        assert iv.lo == pytest.approx(0.05 ** 0.1, abs=1e-8)
        rng = np.random.default_rng(808)
        checked = 0
        while checked < 100:
            n = int(rng.integers(1, 501))
            k = int(rng.integers(1, n + 1))
            delta = float(rng.uniform(1e-4, 0.5))
            iv = interval_from_counts(Method.EXACT_BINOMIAL, k, n, delta)
            assert abs(binom_sf_oracle(n, k, iv.lo) - delta) <= 1e-8
            checked += 1


def test_criterion_09_cost_monte_carlo(cost_run):
    cfg, ledger = cost_run
    with criterion(9, "cost verdicts: wrong rate within 1%; correct by the "
                      "predicted 1638 samples"):
        assert ledger.extras["thm_sample_size"] == 1638
        for n in cfg.n_grid:
            rate = ledger.wrong_rate(Method.HOEFFDING, n)
            assert rate <= 0.01 + three_sigma(rate, cfg.trials)
        rate = ledger.correct_rate(Method.HOEFFDING, 1638)
        assert rate >= 0.99 - three_sigma(rate, cfg.trials)


def test_criterion_10_conservativeness_ordering(ordering_run):
    cfg, ledger = ordering_run
    with criterion(10, "Wald affirms at least as often as exact, exact at "
                       "least as often as the distribution-free method"):
        for n in cfg.n_grid:
            normal = ledger.affirm_rate(Method.NORMAL_APPROX, n)
            exact = ledger.affirm_rate(Method.EXACT_BINOMIAL, n)
            hoeff = ledger.affirm_rate(Method.HOEFFDING, n)
            sig_ne = math.sqrt((normal * (1 - normal) + exact * (1 - exact))
                               / cfg.trials)
            sig_eh = math.sqrt((exact * (1 - exact) + hoeff * (1 - hoeff))
                               / cfg.trials)
            assert normal >= exact - 3.0 * sig_ne
            assert exact >= hoeff - 3.0 * sig_eh


def test_criterion_11_variance_aware_sample_size():
    with criterion(11, "variance-aware sample size is minimal and at least "
                       "halves the requirement for reliable links"):
        def holds(spec, n):
            eps = spec.margin - math.log(1.0 / spec.delta) / n
            return eps > 0 and (n * eps * eps / 2.0
                                / (spec.q * (1 - spec.q) + eps / 3.0)
                                >= math.log(1.0 / spec.delta))

        rng = np.random.default_rng(1111)
        tested = 0
        while tested < 50:
            q = float(rng.uniform(0.0, 1.0))
            threshold = float(rng.uniform(0.05, 0.95))
            if abs(q - threshold) < 0.02:
                continue
            spec = MarginSpec(q, threshold, float(rng.uniform(1e-4, 0.5)))
            n = bernstein_sample_size(spec)
            assert holds(spec, n)
            assert n == 1 or not holds(spec, n - 1)
            scan = next(m for m in range(1, n + 1) if holds(spec, m))
            assert scan == n
            tested += 1

        previous = 0.0
        for q in (0.99, 0.999, 0.9999):
            spec = MarginSpec(q, 0.75, 0.01)
            ratio = hoeffding_sample_size(spec) / bernstein_sample_size(spec)
            assert ratio >= 2.0
            assert ratio > previous
            previous = ratio


# SHA-256 of correct_rate.csv, wrong_rate.csv and bound.csv for the
# near-critical experiment (seeds 555, 99, 7) and the criterion-9 cost
# experiment (seeds 909, 12345). Any change to a draw, a verdict or the
# CSV format shows here.
_NEAR_BOUND = "c6dfcd1a16d750564a811dbb933d0ed5396e3bade069fe16f0ab72653dc52022"
_COST_BOUND = "8175c97baecb1128a62aa6d4586ad9d7392e016260eba9863bf862bd22713ce9"
_COST_WRONG = "ae18110b121db195b530873c2a995d22c4e885bc79c7a15552afaa2d669b4cd0"
PINNED_CSVS = {
    555: ("418789de2435b98863609cf928cb2f8f00dc75024ee08cfdc6e58f2ba1b6b275",
          "68f127ede16caded0216533aece4ca032be87e0c028ad28c8d6e4bfac1b193bc",
          _NEAR_BOUND),
    99: ("df9503f6aa40866069cc42925fe57f63b705d56367419a7836f75774f067c833",
         "6aa44834280ae3a10d4ceaaf9c3586ad1c6481296e63377d0319aed0c53ef082",
         _NEAR_BOUND),
    7: ("23e2b6148b9632ab49080f64b0f29da6ebd66f73edd9c274b80693402076dbf3",
        "3bf517a245155c2be87477ee54a316432a4aa95e3b9f3bf7c9f420d85c5b446d",
        _NEAR_BOUND),
    909: ("daee35124c687ae30cf6f0715588a7aec67c71d0a556955762bb536ffc728d49",
          _COST_WRONG, _COST_BOUND),
    12345: ("a05aca976c10ffcc1475d32171ba2b9c980959ce21f1802810c6586cffe84c0c",
            _COST_WRONG, _COST_BOUND),
}


def test_acceptance_csvs_are_byte_identical(near_critical_run, cost_run, tmp_path):
    near_cfg, near_ledger, _ = near_critical_run
    cost_cfg, cost_ledger = cost_run
    ledgers = {555: near_ledger, 909: cost_ledger,
               12345: run_cost_experiment(replace(cost_cfg, seed=12345))}
    for seed in (99, 7):
        ledgers[seed] = run_stability_experiment(replace(near_cfg, seed=seed))
    for seed, ledger in ledgers.items():
        out = tmp_path / str(seed)
        write_ledger_csvs(ledger, out)
        digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in ("correct_rate.csv", "wrong_rate.csv", "bound.csv"))
        assert digests == PINNED_CSVS[seed], f"seed {seed}"
