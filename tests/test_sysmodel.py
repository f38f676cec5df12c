"""Plant analysis: spectra, thresholds, Lyapunov cost, simulation."""

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from linkverify import (ChannelTrace, PlantModel, critical_rate, draw_trace,
                        kronecker_stable, load_plant, lyapunov_cost, save_plant,
                        simulate, spectral_radius, stability_threshold)
from linkverify.sysmodel import plant_from_dict


def random_stable_instance(rng, max_dim=4):
    """A random plant and a rate comfortably above its threshold."""
    n = int(rng.integers(1, max_dim + 1))
    a = rng.normal(size=(n, n)) * rng.uniform(0.3, 1.2)
    b = rng.normal(size=(n, n))
    q_weight = b @ b.T + np.eye(n)
    c = rng.normal(size=(n, n))
    w_cov = c @ c.T + np.eye(n)
    plant = PlantModel.simple(a, q_weight=q_weight, w_cov=w_cov)
    threshold = stability_threshold(plant)
    lo = max(threshold, 0.0)
    q = float(rng.uniform(lo + 0.3 * (1.0 - lo), 1.0))
    return plant, q


def series_cost(plant, q, terms=4000):
    """Cost by explicitly summing (1-q)^i tr((A^i)' Q A^i W)."""
    a, q_w, w = plant.a_open, plant.q_weight, plant.w_cov
    power = np.eye(plant.dim)
    total = 0.0
    factor = 1.0
    for i in range(terms):
        term = factor * float(np.trace(power.T @ q_w @ power @ w))
        total += term
        if i > 10 and term < 1e-15 * total:
            return total
        power = a @ power
        factor *= 1.0 - q
    raise AssertionError("series did not converge; pick a larger margin")


def linear_solve_cost(plant, q):
    """Cost from the vectorized linear system, the exact reference."""
    n = plant.dim
    a_t = plant.a_open.T
    system = np.eye(n * n) - (1.0 - q) * np.kron(a_t, a_t)
    vec_p = np.linalg.solve(system, plant.q_weight.flatten(order="F"))
    p = vec_p.reshape((n, n), order="F")
    return float(np.trace(p @ plant.w_cov))


# Spectral radius

def test_spectral_radius_basics():
    assert spectral_radius(np.eye(3)) == pytest.approx(1.0, rel=1e-12)
    assert spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(0.0, abs=1e-12)
    assert spectral_radius([[2.0, 0.0], [0.0, 1.0]]) == pytest.approx(2.0, rel=1e-12)


def test_spectral_radius_complex_pair():
    # Dominant complex-conjugate pair; modulus is the rotation scale.
    s, theta = 1.3, 0.7
    rot = s * np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
    assert spectral_radius(rot) == pytest.approx(s, rel=1e-10)


def test_spectral_radius_rejects_bad_input():
    with pytest.raises(ValueError):
        spectral_radius(np.ones((2, 3)))
    with pytest.raises(ValueError):
        spectral_radius([[math.nan]])


def test_kron_eigenvalue_product_law():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        assert spectral_radius(np.kron(a, a)) == pytest.approx(
            spectral_radius(a) ** 2, rel=1e-8)


# Stability threshold

def test_threshold_values():
    assert stability_threshold(PlantModel.simple([[2.0]])) == 0.75
    assert stability_threshold(PlantModel.simple([[1.0]])) == 0.0
    assert stability_threshold(PlantModel.simple([[4.0]])) == pytest.approx(0.9375)
    assert stability_threshold(PlantModel.simple([[0.5]])) < 0.0
    assert stability_threshold(
        PlantModel.simple([[0.0, 1.0], [0.0, 0.0]])) == -math.inf
    # rho^2 underflows to zero; the threshold is -inf, not a division error.
    assert stability_threshold(PlantModel.simple([[1e-170]])) == -math.inf


def test_threshold_requires_simple_model():
    plant = PlantModel(a_open=[[2.0]], a_closed=[[0.5]],
                       q_weight=[[1.0]], w_cov=[[1.0]])
    with pytest.raises(ValueError):
        stability_threshold(plant)


# Kronecker condition

def test_kronecker_scalar_modes():
    plant = PlantModel(a_open=[[2.0]], a_closed=[[0.5]],
                       q_weight=[[1.0]], w_cov=[[1.0]])
    # 0.25 q + 4 (1-q) < 1 exactly when q > 0.8.
    assert kronecker_stable(plant, 0.9)
    assert not kronecker_stable(plant, 0.79)
    assert not kronecker_stable(plant, 0.8)  # marginal, not certified


def test_kronecker_identity_marginal():
    plant = PlantModel(a_open=np.eye(2), a_closed=np.eye(2),
                       q_weight=np.eye(2), w_cov=np.eye(2))
    for q in (0.0, 0.3, 1.0):
        assert not kronecker_stable(plant, q)


def test_kronecker_reduces_to_threshold():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        plant = PlantModel.simple(rng.normal(size=(n, n)))
        threshold = stability_threshold(plant)
        for q in np.linspace(0.0, 1.0, 21):
            if abs(q - threshold) <= 1e-9:
                continue
            assert kronecker_stable(plant, float(q)) == (q > threshold)


def test_kronecker_dimension_cap():
    plant = PlantModel.simple(np.eye(33) * 0.5)
    with pytest.raises(ValueError):
        kronecker_stable(plant, 0.5)


# Stability crossings of general plants

S = 1.0 - 1e-12  # the guard-banded threshold the crossings are found for


def test_crossings_scalar_closed_form():
    # L_q = q c^2 + (1-q) a^2 meets s at q = (a^2 - s) / (a^2 - c^2).
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, c = float(rng.uniform(1.05, 3.0)), float(rng.uniform(0.0, 0.95))
        plant = PlantModel(a_open=[[a]], a_closed=[[c]], q_weight=[[1.0]],
                           w_cov=[[1.0]])
        (crossing,) = plant._crossings
        assert crossing == pytest.approx((a * a - S) / (a * a - c * c), abs=1e-12)


def test_crossings_of_simple_plant_end_at_threshold():
    rng = np.random.default_rng(8)
    for _ in range(10):
        plant = PlantModel.simple(rng.normal(size=(3, 3)))
        threshold = stability_threshold(plant)
        if not 0.0 < threshold < 1.0:
            continue
        assert plant._crossings.max() == pytest.approx(threshold, abs=1e-11)


def test_crossings_respect_dimension_cap_before_any_solve(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("d^2-sized work before the dimension check")

    monkeypatch.setattr(np, "kron", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    plant = PlantModel(a_open=np.eye(33), a_closed=0.5 * np.eye(33),
                       q_weight=np.eye(33), w_cov=np.eye(33))
    with pytest.raises(ValueError, match="Kronecker cap"):
        plant._crossings


# Lyapunov cost

def test_lyapunov_scalar_cases():
    plant = PlantModel.simple([[2.0]])
    assert lyapunov_cost(plant, 0.9) == pytest.approx(5.0 / 3.0, rel=1e-10)
    assert lyapunov_cost(plant, 0.7) == math.inf
    plant2 = PlantModel.simple(np.diag([2.0, 0.5]))
    assert lyapunov_cost(plant2, 1.0) == pytest.approx(2.0, rel=1e-12)


def test_lyapunov_triple_agreement():
    rng = np.random.default_rng(23)
    for _ in range(10):
        plant, q = random_stable_instance(rng)
        fixed = lyapunov_cost(plant, q)
        assert fixed == pytest.approx(series_cost(plant, q), rel=1e-9)
        assert fixed == pytest.approx(linear_solve_cost(plant, q), rel=1e-9)


def test_lyapunov_strictly_decreasing():
    rng = np.random.default_rng(29)
    for _ in range(5):
        plant, _ = random_stable_instance(rng)
        start = max(stability_threshold(plant), 0.0) + 0.05
        grid = np.linspace(start, 1.0, 50)
        costs = [lyapunov_cost(plant, float(q)) for q in grid]
        assert all(a > b for a, b in zip(costs, costs[1:]))


@pytest.mark.parametrize("margin", [1e-2, 1e-4, 1e-6, 5e-7])
def test_lyapunov_near_threshold_closed_form(margin):
    # rho = 2, Q = W = 1: J(q) = 1/(1 - 4(1-q)), finite down to the band.
    q = 0.75 + margin
    expected = 1.0 / (1.0 - 4.0 * (1.0 - q))
    assert lyapunov_cost(PlantModel.simple([[2.0]]), q) == pytest.approx(
        expected, rel=1e-9)


def test_lyapunov_matches_scipy_stein_solver():
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        plant = PlantModel.simple(rng.normal(size=(n, n)),
                                  q_weight=np.diag(rng.uniform(0.5, 2.0, n)),
                                  w_cov=np.diag(rng.uniform(0.5, 2.0, n)))
        low = max(stability_threshold(plant), 0.0)
        q = float(rng.uniform(low + 0.01 * (1.0 - low), 1.0))
        p = scipy.linalg.solve_discrete_lyapunov(
            math.sqrt(1.0 - q) * plant.a_open.T, plant.q_weight)
        assert lyapunov_cost(plant, q) == pytest.approx(
            float(np.trace(p @ plant.w_cov)), rel=1e-9)


# Critical rate

def test_critical_rate_scalar():
    plant = PlantModel.simple([[2.0]])
    q_star = critical_rate(plant, 2.0)
    assert q_star == pytest.approx(0.875, abs=1e-8)
    assert abs(lyapunov_cost(plant, q_star) - 2.0) <= 1e-6 * 2.0


def test_critical_rate_edges():
    plant = PlantModel.simple([[2.0]])
    assert critical_rate(plant, 1.0) == 1.0  # target equals the perfect-link cost
    assert critical_rate(plant, 0.5) is None
    with pytest.raises(ValueError):
        critical_rate(plant, 0.0)


def test_critical_rate_rejects_nan_target():
    for j_req in (math.nan, math.inf):
        with pytest.raises(ValueError, match="cost target"):
            critical_rate(PlantModel.simple([[2.0]]), j_req)


def test_critical_rate_contractive_plant():
    # A contractive open loop may meet a loose target at rate zero.
    plant = PlantModel.simple([[0.5]])
    assert critical_rate(plant, 2.0) == 0.0
    q_star = critical_rate(plant, 1.1)  # J(0) = 1/(1-0.25) = 4/3 > 1.1
    assert q_star is not None and 0.0 < q_star < 1.0
    assert abs(lyapunov_cost(plant, q_star) - 1.1) <= 1e-6 * 1.1


def test_critical_rate_roundtrip_random():
    # Targets are interior cost values, so the constraint binds exactly
    # at a known rate and the bisection must recover it.
    rng = np.random.default_rng(31)
    for _ in range(8):
        plant, _ = random_stable_instance(rng)
        low = max(stability_threshold(plant), 0.0)
        q_mid = float(rng.uniform(low + 0.2 * (1.0 - low), 0.95))
        target = lyapunov_cost(plant, q_mid)
        q_star = critical_rate(plant, target)
        assert q_star == pytest.approx(q_mid, abs=1e-8)
        assert abs(lyapunov_cost(plant, q_star) - target) <= 1e-6 * target


# Simulation

def test_simulate_reset_on_every_delivery():
    plant = PlantModel.simple([[2.0]])
    trace = draw_trace(1.0, 200_000, 3)
    traj = simulate(plant, trace, 99)
    # Every delivered packet resets the state, so the cost is the noise power.
    assert traj.running_cost == pytest.approx(1.0, rel=0.03)
    assert traj.states[0] == pytest.approx(0.0)


def test_simulate_vanishing_noise():
    plant = PlantModel.simple([[2.0]], w_cov=[[1e-12]])
    traj = simulate(plant, draw_trace(0.9, 5000, 4), 8)
    assert traj.running_cost < 1e-9


def test_simulate_matches_lyapunov():
    plant = PlantModel.simple([[2.0]])
    traj = simulate(plant, draw_trace(0.9, 300_000, 12), 34)
    assert traj.running_cost == pytest.approx(5.0 / 3.0, rel=0.05)


def reference_simulate(plant, trace, seed):
    """Per-step loop over the trace, the reference for the lockstep path."""
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    noise = (rng.standard_normal((len(trace), plant.dim))
             @ np.linalg.cholesky(plant.w_cov).T)
    states = np.zeros((len(trace), plant.dim))
    x = np.zeros(plant.dim)
    for k, delivered in enumerate(trace.outcomes):
        states[k] = x
        x = (plant.a_closed if delivered else plant.a_open) @ x + noise[k]
    return states


def test_simulate_scalar_bit_identical_to_loop():
    plant = PlantModel.simple([[1.25]], q_weight=[[1.5]], w_cov=[[0.8]])
    traces = [draw_trace(q, 1000, 41) for q in (0.0, 0.5, 0.95, 1.0)]
    traces += [draw_trace(0.5, 1, 42), draw_trace(0.0, 1, 42),
               ChannelTrace([1, 0, 0, 1, 1, 0, 1, 0, 0, 0])]  # ends in a drop run
    for trace in traces:
        got = simulate(plant, trace, 43)
        ref = reference_simulate(plant, trace, 43)
        assert np.array_equal(got.states, ref)
        per_step = np.einsum("ki,ij,kj->k", ref, plant.q_weight, ref)
        assert got.running_cost == float(per_step.mean())


def test_simulate_multidim_matches_loop():
    # Batched and per-row products may round differently in the last bits.
    rng = np.random.default_rng(47)
    for dim in (2, 3):
        a = rng.normal(size=(dim, dim))
        plant = PlantModel.simple(a / spectral_radius(a) * 1.1)
        for q in (0.0, 0.5, 0.9):
            trace = draw_trace(q, 3000, dim)
            got = simulate(plant, trace, 53).states
            ref = reference_simulate(plant, trace, 53)
            err = np.abs(got - ref).max(axis=1)
            assert np.all(err <= 1e-12 * np.abs(ref).max(axis=1))



def test_simulate_general_matches_loop():
    # A row differs from the loop's only through its chunk's stitched start
    # state. The loop forms row k from row k-1, and a scalar state can cancel
    # to near zero, so each row is scaled by its own max or its predecessor's.
    rng = np.random.default_rng(47)
    for dim in (1, 2, 3, 4):
        a = rng.normal(size=(dim, dim))
        c = rng.normal(size=(dim, dim))
        plant = PlantModel(a_open=a / spectral_radius(a) * 1.1,
                           a_closed=c / np.linalg.norm(c, 2) * 0.5,
                           q_weight=np.eye(dim), w_cov=np.eye(dim))
        for q in (0.0, 0.5, 0.9, 1.0):
            # Perfect squares, one off a square, a prime, shorter than a chunk.
            for horizon in (1, 2, 3, 48, 49, 50, 2501, 3000):
                trace = draw_trace(q, horizon, dim)
                got = simulate(plant, trace, 53).states
                ref = reference_simulate(plant, trace, 53)
                scale = np.abs(ref).max(axis=1)
                scale[1:] = np.maximum(scale[1:], scale[:-1])
                err = np.abs(got - ref).max(axis=1)
                finite = np.isfinite(ref).all(axis=1)
                assert np.all(err[finite] <= 1e-12 * scale[finite])


def test_simulate_general_diverges_with_loop():
    plant = PlantModel(a_open=[[3.0, 0.5], [0.0, 0.5]],
                       a_closed=[[0.5, 0.0], [0.2, 0.3]],
                       q_weight=np.eye(2), w_cov=np.eye(2))
    for horizon, diverged in ((300, False), (2000, True)):
        trace = draw_trace(0.0, horizon, 5)
        got = simulate(plant, trace, 6).running_cost
        with np.errstate(over="ignore", invalid="ignore"):
            ref = reference_simulate(plant, trace, 6)
            ref_cost = float(np.einsum("ki,ki->k", ref, ref).mean())
        assert math.isfinite(got) == math.isfinite(ref_cost) != diverged


def test_simulate_general_memory_linear_in_horizon():
    # Pass 1 keeps one transition per chunk, never one per step.
    plant = PlantModel(a_open=[[1.2, 0.3], [0.0, -0.5]],
                       a_closed=[[0.3, 0.0], [0.1, 0.2]],
                       q_weight=np.eye(2), w_cov=np.eye(2))
    trace = draw_trace(0.9, 100_000, 8)
    tracemalloc.start()
    try:
        traj = simulate(plant, trace, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * traj.states.nbytes

def test_simulate_deterministic_and_consistent():
    plant = PlantModel.simple(np.array([[0.4, 1.0], [0.0, 1.6]]))
    trace = draw_trace(0.8, 500, 21)
    a = simulate(plant, trace, 77)
    b = simulate(plant, trace, 77)
    assert np.array_equal(a.states, b.states)
    per_step = np.einsum("ki,ij,kj->k", a.states, plant.q_weight, a.states)
    assert a.running_cost == pytest.approx(float(per_step.mean()), rel=1e-9)
    assert a.horizon == 500 == a.states.shape[0]


# Model validation and file format

def test_plant_validation():
    with pytest.raises(ValueError):
        PlantModel.simple([[1.0]], q_weight=[[-1.0]])  # not PD
    with pytest.raises(ValueError):
        PlantModel.simple([[1.0, 0.0], [0.0, 1.0]], q_weight=[[1.0]])  # dim mismatch
    with pytest.raises(ValueError):
        PlantModel.simple([[1.0, 2.0]])  # not square
    with pytest.raises(ValueError):
        PlantModel(a_open=[[1.0]], a_closed=[[0.0]],
                   q_weight=[[1.0]], w_cov=[[math.inf]])


def test_plant_file_round_trip(tmp_path):
    plant = PlantModel(a_open=[[0.0, 1.0], [2.0, 0.3]],
                       a_closed=[[0.1, 0.0], [0.0, 0.2]],
                       q_weight=np.diag([1.0, 2.0]), w_cov=np.eye(2))
    path = tmp_path / "plant.json"
    save_plant(plant, path)
    loaded = load_plant(path)
    for name in ("a_open", "a_closed", "q_weight", "w_cov"):
        assert np.array_equal(getattr(loaded, name), getattr(plant, name))


def test_plant_file_defaults_and_flat_layout(tmp_path):
    path = tmp_path / "plant.json"
    path.write_text(json.dumps({"n": 2, "a_open": [0.0, 1.0, 2.0, 0.3]}))
    plant = load_plant(path)
    assert plant.a_open[1, 0] == 2.0
    assert not plant.a_closed.any()
    assert np.array_equal(plant.q_weight, np.eye(2))
    assert np.array_equal(plant.w_cov, np.eye(2))


@pytest.mark.parametrize("n", [2.7, True, "2", 0, -1])
def test_plant_dimension_must_be_a_positive_integer(n):
    with pytest.raises(ValueError, match="'n'"):
        plant_from_dict({"n": n, "a_open": [[1.0, 0.0], [0.0, 1.0]]})


def test_plant_dimension_may_be_an_integral_float():
    assert plant_from_dict({"n": 2.0, "a_open": [[1.0, 0.0], [0.0, 1.0]]}).dim == 2


def test_plant_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "plant.json"
    path.write_text(json.dumps({"n": 1, "a_open": [[1.0]], "gain": 2}))
    with pytest.raises(ValueError):
        load_plant(path)
