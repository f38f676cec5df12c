"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``linkverify``: every value the program prints is
recomputed from first principles so that a wrong output is caught.

* Exact (Clopper & Pearson 1934) bounds come from ``scipy.stats.beta``;
  Hoeffding, Bernstein-fast and Wald bounds from their closed forms.
* Thresholds come from ``1 - 1/rho^2`` with ``rho`` from
  ``numpy.linalg.eigvals``; general plants from the spectral radius of
  ``q*Ac(x)Ac + (1-q)*Ao(x)Ao``.
* Costs come from ``J = Q W / (1 - (1-q) a^2)`` for scalar plants and
  from a vectorised linear solve otherwise.
* Monte Carlo ledgers are recounted from a separate Philox draw keyed
  ``seed XOR trial``, read straight from the bit generator.
* A simulated running cost is compared with the stationary cost
  ``Tr(Q Sigma)``, ``Sigma = q Ac Sigma Ac' + (1-q) Ao Sigma Ao' + W``,
  within a tolerance derived from the horizon and the process's
  asymptotic variance (a fourth-moment computation, below).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, stats

GUARANTEED = ("hoeffding", "exact")
EXEMPT = 1e-8  # interval ends this close to a threshold may go either way


def spectral_radius(m) -> float:
    return float(np.abs(np.linalg.eigvals(np.atleast_2d(m))).max())


def stability_threshold(a_open) -> float:
    rho = spectral_radius(a_open)
    return -math.inf if rho == 0.0 else 1.0 - 1.0 / (rho * rho)


def intervals(method: str, k, n: int, delta: float):
    """Arrays (lo, hi) of 1-delta interval ends for success counts ``k``."""
    k = np.asarray(k, dtype=np.float64)
    q_hat = k / n
    if method == "hoeffding":
        hw = math.sqrt(math.log(1.0 / delta) / (2.0 * n))
        lo, hi = q_hat - hw, q_hat + hw
    elif method == "bernstein-fast":
        hw = math.log(1.0 / delta) / n
        lo, hi = q_hat - hw, q_hat + hw
    elif method == "normal":
        z = max(float(stats.norm.ppf(1.0 - delta)), 0.0)
        hw = z * np.sqrt(q_hat * (1.0 - q_hat) / n)
        lo, hi = q_hat - hw, q_hat + hw
    elif method == "exact":
        with np.errstate(invalid="ignore", divide="ignore"):
            lo = np.where(k > 0, stats.beta.ppf(delta, k, n - k + 1), 0.0)
            hi = np.where(k < n, stats.beta.ppf(1.0 - delta, k + 1, n - k), 1.0)
    else:
        raise ValueError(f"unknown method {method!r}")
    return np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)


def interval(method: str, k: int, n: int, delta: float) -> tuple[float, float]:
    lo, hi = intervals(method, [k], n, delta)
    return float(lo[0]), float(hi[0])


def lyapunov_cost(a_open, q_weight, w_cov, q: float) -> float:
    """J(q) = Tr(P W) with P = Q + (1-q) A'PA; inf when unstable."""
    a = np.atleast_2d(np.asarray(a_open, dtype=np.float64))
    q_w = np.atleast_2d(np.asarray(q_weight, dtype=np.float64))
    w = np.atleast_2d(np.asarray(w_cov, dtype=np.float64))
    rho = spectral_radius(a)
    if (1.0 - q) * rho * rho >= 1.0:
        return math.inf
    if a.shape == (1, 1):
        return float(q_w[0, 0] * w[0, 0] / (1.0 - (1.0 - q) * a[0, 0] ** 2))
    n = a.shape[0]
    system = np.eye(n * n) - (1.0 - q) * np.kron(a.T, a.T)
    p = np.linalg.solve(system, q_w.reshape(-1, order="F")).reshape((n, n), order="F")
    return float(np.trace(p @ w))


def scalar_critical_rate(rho: float, j_req: float) -> float:
    """Smallest q with 1/(1-(1-q) rho^2) <= j_req (scalar, Q = W = 1)."""
    return 1.0 - (1.0 - 1.0 / j_req) / (rho * rho)


def cost_critical_rate(a_open, q_weight, w_cov, j_req: float) -> float:
    """Rate q* with J(q*) = j_req, by root finding on the decreasing J.

    inf when even q = 1 misses the target; the stability threshold (or 0)
    when every stabilising rate meets it.
    """
    cost = lambda q: lyapunov_cost(a_open, q_weight, w_cov, q) - j_req
    if cost(1.0) > 0.0:
        return math.inf
    low = max(stability_threshold(a_open), 0.0) + 1e-12
    if cost(low) <= 0.0:
        return low
    return float(optimize.brentq(cost, low, 1.0, xtol=1e-15, rtol=1e-15))


def general_stable(a_open, a_closed, q: float) -> bool:
    ao, ac = np.atleast_2d(a_open), np.atleast_2d(a_closed)
    return spectral_radius(q * np.kron(ac, ac) + (1.0 - q) * np.kron(ao, ao)) < 1.0


def general_decision(a_open, a_closed, lo: float, hi: float,
                     step: float = 1e-4) -> str | None:
    """Expected grid verdict, from both ends and offset grid midpoints.

    Returns None when a stability crossing sits within EXEMPT of an end.
    """
    for end in (lo, hi):
        if (general_stable(a_open, a_closed, max(end - EXEMPT, 0.0))
                != general_stable(a_open, a_closed, min(end + EXEMPT, 1.0))):
            return None
    m = max(1, math.ceil((hi - lo) / step))
    points = [lo, hi] + [lo + (i + 0.5) * (hi - lo) / m for i in range(m)]
    stable = [general_stable(a_open, a_closed, q) for q in points]
    if all(stable):
        return "Affirm"
    if not any(stable):
        return "Deny"
    return "Undetermined"


def threshold_decision(threshold: float, lo: float, hi: float) -> str | None:
    """Affirm above, Deny below, Undetermined across; None if exempt."""
    if abs(lo - threshold) <= EXEMPT or abs(hi - threshold) <= EXEMPT:
        return None
    if threshold < lo:
        return "Affirm"
    if threshold > hi:
        return "Deny"
    return "Undetermined"


def correctness_bound(q: float, threshold: float, delta: float, n: int) -> float:
    inner = abs(q - threshold) - math.sqrt(math.log(1.0 / delta) / (2.0 * n))
    return 0.0 if inner <= 0.0 else 1.0 - math.exp(-2.0 * n * inner * inner)


def hoeffding_sample_size(q: float, threshold: float, delta: float) -> int:
    return math.ceil(2.0 * math.log(1.0 / delta) / (q - threshold) ** 2)


def success_counts(seed: int, trials: int, q: float, n_grid) -> np.ndarray:
    """(trials, len(n_grid)) prefix success counts, Philox keyed seed^trial.

    A uniform is the top 53 bits of one 64-bit Philox output times 2^-53,
    and an outcome is 1 iff that uniform is below q.
    """
    idx = np.asarray(n_grid, dtype=np.int64) - 1
    counts = np.empty((trials, len(idx)), dtype=np.int64)
    for trial in range(trials):
        raw = np.random.Philox(key=seed ^ trial).random_raw(int(idx[-1]) + 1)
        u = (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        counts[trial] = np.cumsum(u < q)[idx]
    return counts


def _vec(m) -> np.ndarray:
    return np.asarray(m, dtype=np.float64).reshape(-1, order="F")


def running_cost_tolerance(a_open, a_closed, q_weight, w_cov, q: float,
                           horizon: int, sigmas: float = 8.0):
    """(stationary cost, tolerance) for the average of x_k'Q x_k, k < horizon.

    With V_k the covariance of x_k given the packet history, v = vec V
    follows v' = (A(x)A) v + vec W. Its second moment G gives
    E[(x'Xx)(x'Yx)] = vec(X)' G vec(Y) + 2 Tr((Y(x)X) G), and the
    asymptotic variance of the time average is 2 Cov(x'Qx, x'Px) -
    Var(x'Qx) with P = sum_l L*^l(Q). Starting from x_0 = 0 biases the
    average by at most Tr(P Sigma)/horizon.
    """
    ao = np.atleast_2d(np.asarray(a_open, dtype=np.float64))
    ac = np.atleast_2d(np.asarray(a_closed, dtype=np.float64))
    qw = np.atleast_2d(np.asarray(q_weight, dtype=np.float64))
    w = np.atleast_2d(np.asarray(w_cov, dtype=np.float64))
    n = ao.shape[0]
    kc, ko = np.kron(ac, ac), np.kron(ao, ao)
    second = q * kc + (1.0 - q) * ko
    fourth = q * np.kron(kc, kc) + (1.0 - q) * np.kron(ko, ko)
    if spectral_radius(fourth) >= 1.0:
        raise ValueError("the running cost has no finite variance here")
    eye2 = np.eye(n * n)
    mu = np.linalg.solve(eye2 - second, _vec(w))            # vec Sigma
    p = np.linalg.solve(eye2 - second.T, _vec(qw))          # vec P
    wv = _vec(w)
    rhs = np.outer(mu, wv) + np.outer(wv, mu) - np.outer(wv, wv)
    g = np.linalg.solve(np.eye(n ** 4) - fourth, rhs.reshape(-1, order="F"))
    g = g.reshape((n * n, n * n), order="F")
    g = 0.5 * (g + g.T)

    p_mat = p.reshape((n, n), order="F")

    def cov(x, y):
        second_moment = _vec(x) @ g @ _vec(y) + 2.0 * np.trace(np.kron(y, x) @ g)
        return second_moment - (_vec(x) @ mu) * (_vec(y) @ mu)

    variance = max(2.0 * cov(qw, p_mat) - cov(qw, qw), 0.0)
    cost = float(_vec(qw) @ mu)
    bias = float(p @ mu) / horizon
    return cost, sigmas * math.sqrt(variance / horizon) + bias
