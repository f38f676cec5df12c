"""Switched linear plant over a packet-drop link: exact analysis.

The simple model resets the state on every delivered packet (closed
loop identically zero) and runs the open-loop matrix A on drops. Its
mean-square stability boundary is the critical success rate
1 - 1/rho(A)^2. The steady quadratic cost J(q) = Tr(P W), strictly
decreasing in q on the stable range, takes P from the Stein equation
P = Q + (1-q) A' P A, solved by Smith's squaring iteration (Smith 1968,
SIAM J. Appl. Math. 16:198-201) in log(1/margin) steps. Its simulation
advances all drop runs of a trace in lockstep between resets.

The general model with a nonzero closed loop is handled through the
spectral radius of q*Ac(x)Ac + (1-q)*Ao(x)Ao, where (x) is the
Kronecker product.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelTrace

_SYM_TOL = 1e-12
_MARGINAL_BAND = 1e-12
_KRON_DIM_CAP = 32
# Squarings sum 2^k terms of the series; the guard band keeps the decay
# rate at most 1 - 1e-12, whose terms fall below 1e-17 before 2^46.
_SMITH_SQUARINGS = 64


def _as_square(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_spd(m: np.ndarray, name: str) -> None:
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > _SYM_TOL * scale:
        raise ValueError(f"{name} is not symmetric")
    if float(np.linalg.eigvalsh(m).min()) <= 0.0:
        raise ValueError(f"{name} is not positive definite")


@dataclass(frozen=True)
class PlantModel:
    """Plant matrices: open/closed loop dynamics, cost weight, noise covariance."""

    a_open: np.ndarray
    a_closed: np.ndarray
    q_weight: np.ndarray
    w_cov: np.ndarray

    def __post_init__(self):
        a_open = _as_square(self.a_open, "a_open")
        n = a_open.shape[0]
        a_closed = _as_square(self.a_closed, "a_closed")
        q_weight = _as_square(self.q_weight, "q_weight")
        w_cov = _as_square(self.w_cov, "w_cov")
        for name, m in (("a_closed", a_closed), ("q_weight", q_weight),
                        ("w_cov", w_cov)):
            if m.shape[0] != n:
                raise ValueError(f"{name} dimension {m.shape[0]} != a_open dimension {n}")
        _check_spd(q_weight, "q_weight")
        _check_spd(w_cov, "w_cov")
        for name, m in (("a_open", a_open), ("a_closed", a_closed),
                        ("q_weight", q_weight), ("w_cov", w_cov)):
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    @classmethod
    def simple(cls, a_open, q_weight=None, w_cov=None) -> "PlantModel":
        """Simple model: closed loop zero, Q/W default to identity."""
        a = _as_square(a_open, "a_open")
        n = a.shape[0]
        eye = np.eye(n)
        return cls(a_open=a,
                   a_closed=np.zeros((n, n)),
                   q_weight=eye if q_weight is None else q_weight,
                   w_cov=eye if w_cov is None else w_cov)

    @property
    def dim(self) -> int:
        return self.a_open.shape[0]

    @property
    def is_simple(self) -> bool:
        return not self.a_closed.any()


@dataclass(frozen=True)
class Trajectory:
    """A simulated state path with its average quadratic cost."""

    states: np.ndarray  # shape (horizon, dim); row k is x_k
    running_cost: float
    horizon: int


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a square real matrix."""
    arr = _as_square(m, "matrix")
    return float(np.abs(np.linalg.eigvals(arr)).max())


def _require_simple(plant: PlantModel, op: str) -> None:
    if not plant.is_simple:
        raise ValueError(f"{op} requires the simple model (a_closed = 0); "
                         "use kronecker_stable/general_test for general plants")


def stability_threshold(plant: PlantModel) -> float:
    """Critical success rate 1 - 1/rho(A)^2 for the simple model.

    Negative when the open loop is already contractive; -inf when the
    open loop is nilpotent (stable at any rate).
    """
    _require_simple(plant, "stability_threshold")
    rho = spectral_radius(plant.a_open)
    if rho == 0.0:
        return -math.inf
    return 1.0 - 1.0 / (rho * rho)


def kronecker_stable(plant: PlantModel, q: float) -> bool:
    """Mean-square stability of the general model at success rate q.

    True iff rho(q*Ac(x)Ac + (1-q)*Ao(x)Ao) < 1, with a 1e-12 guard
    band so marginal spectra are never certified stable.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [0, 1]")
    if plant.dim > _KRON_DIM_CAP:
        raise ValueError(f"dimension {plant.dim} exceeds the Kronecker cap "
                         f"{_KRON_DIM_CAP}")
    mixed = (q * np.kron(plant.a_closed, plant.a_closed)
             + (1.0 - q) * np.kron(plant.a_open, plant.a_open))
    return spectral_radius(mixed) < 1.0 - _MARGINAL_BAND


def lyapunov_cost(plant: PlantModel, q: float) -> float:
    """Long-run average quadratic cost J(q) = Tr(P W) for the simple model.

    Returns inf when (1-q) rho(A)^2 reaches 1 (within the guard band).
    Otherwise Smith's squaring iteration (Smith 1968) sums the series
    P = sum_i (1-q)^i (A^i)' Q A^i: from P = Q and M = sqrt(1-q) A, each
    step P <- P + M' P M, M <- M M doubles the terms summed, until the
    added term falls below 1e-17 of P.
    """
    _require_simple(plant, "lyapunov_cost")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [0, 1]")
    rho = spectral_radius(plant.a_open)
    if (1.0 - q) * rho * rho >= 1.0 - _MARGINAL_BAND:
        return math.inf
    m = math.sqrt(1.0 - q) * plant.a_open
    p = plant.q_weight
    for _ in range(_SMITH_SQUARINGS):
        added = m.T @ p @ m
        p = p + added
        if float(np.abs(added).max()) <= 1e-17 * float(np.abs(p).max()):
            break
        m = m @ m
    return float(np.trace(p @ plant.w_cov))


def critical_rate(plant: PlantModel, j_req: float) -> float | None:
    """Smallest success rate whose cost meets the target, or None.

    None means infeasible: even the perfect link costs Tr(QW) > j_req.
    Otherwise bisects on the strictly decreasing J over
    (stability threshold, 1] to within 1e-9 of the true rate. The cost
    diverges at the threshold, so the bracket's low end always exceeds
    the target and is never evaluated.
    """
    _require_simple(plant, "critical_rate")
    if j_req <= 0.0:
        raise ValueError("cost target must be positive")
    j_perfect = float(np.trace(plant.q_weight @ plant.w_cov))
    if j_perfect > j_req:
        return None
    if j_perfect == j_req:
        return 1.0
    lo = max(stability_threshold(plant) + 1e-9, 0.0)
    if lo == 0.0 and lyapunov_cost(plant, 0.0) <= j_req:
        return 0.0
    hi = 1.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if lyapunov_cost(plant, mid) <= j_req:
            hi = mid
        else:
            lo = mid
    return hi


# A diverging run (an unstable loop) is an expected outcome: its states and
# running cost overflow to inf or nan without a RuntimeWarning.
@np.errstate(over="ignore", invalid="ignore")
def simulate(plant: PlantModel, trace: ChannelTrace, seed: int) -> Trajectory:
    """Run the switched dynamics along a packet trace from x_0 = 0.

    Disturbances are zero-mean Gaussian with covariance W, drawn from a
    Philox stream keyed by ``seed`` (independent of the trace stream).
    The running cost averages x_k' Q x_k over the stored states
    x_0 .. x_{N-1}.

    Simple model: each delivery at step k resets the state, x_{k+1} = w_k,
    and the drop runs after x_0 and the resets advance in lockstep, one
    run offset per numpy step; general plants step one outcome at a time.
    """
    n_steps = len(trace)
    if n_steps < 1:
        raise ValueError("trace must contain at least one outcome")
    dim = plant.dim
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    chol = np.linalg.cholesky(plant.w_cov)
    noise = rng.standard_normal((n_steps, dim)) @ chol.T

    states = np.zeros((n_steps, dim))
    delivered = trace.outcomes
    if plant.is_simple:
        np.copyto(states[1:], noise[:-1], where=delivered[:-1, None].view(bool))
        # dropped[k]: row k+1 follows from row k by A (x_N is not stored);
        # a run starts at a drop that follows x_0 or a reset.
        dropped = delivered == 0
        dropped[-1] = False
        run = np.flatnonzero(dropped & np.diff(dropped, prepend=False))
        while run.size:
            nxt = run + 1
            states[nxt] = states[run] @ plant.a_open.T + noise[run]
            run = nxt[dropped[nxt]]
    else:
        a_c, a_o = plant.a_closed, plant.a_open
        x = np.zeros(dim)
        for k in range(n_steps):
            states[k] = x
            gain = a_c if delivered[k] else a_o
            x = gain @ x + noise[k]

    per_step = np.einsum("ki,ij,kj->k", states, plant.q_weight, states)
    return Trajectory(states=states, running_cost=float(per_step.mean()),
                      horizon=n_steps)


# Plant file format: JSON with keys n, a_open, a_closed, q_weight, w_cov.
# Matrices may be nested rows or flat row-major lists; a_closed defaults
# to zero and q_weight/w_cov default to identity.

def _matrix_from_json(value, n: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape == (n * n,):
        arr = arr.reshape(n, n)
    if arr.shape != (n, n):
        raise ValueError(f"{name} must be {n}x{n} (nested rows or flat row-major)")
    return arr


def plant_from_dict(doc: dict) -> PlantModel:
    if not isinstance(doc, dict):
        raise ValueError("plant description must be a JSON object")
    allowed = {"n", "a_open", "a_closed", "q_weight", "w_cov"}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown plant keys: {sorted(unknown)}")
    try:
        n = int(doc["n"])
        a_open = _matrix_from_json(doc["a_open"], n, "a_open")
    except KeyError as exc:
        raise ValueError(f"plant description missing required key {exc}") from exc
    a_closed = (_matrix_from_json(doc["a_closed"], n, "a_closed")
                if "a_closed" in doc else np.zeros((n, n)))
    q_weight = (_matrix_from_json(doc["q_weight"], n, "q_weight")
                if "q_weight" in doc else np.eye(n))
    w_cov = (_matrix_from_json(doc["w_cov"], n, "w_cov")
             if "w_cov" in doc else np.eye(n))
    return PlantModel(a_open=a_open, a_closed=a_closed,
                      q_weight=q_weight, w_cov=w_cov)


def load_plant(path) -> PlantModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return plant_from_dict(doc)


def save_plant(plant: PlantModel, path) -> None:
    doc = {
        "n": plant.dim,
        "a_open": plant.a_open.tolist(),
        "a_closed": plant.a_closed.tolist(),
        "q_weight": plant.q_weight.tolist(),
        "w_cov": plant.w_cov.tolist(),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
