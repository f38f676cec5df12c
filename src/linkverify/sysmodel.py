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
Kronecker product; it crosses 1 only at the roots of one eigenproblem.
Its state never resets, but each step is affine in the state, so its
simulation is a blocked two-pass scan (Blelloch 1990, "Prefix sums and
their applications"): about sqrt(N) chunks of about sqrt(N) steps
advance together, first from zero to get each chunk's transition, then
from the stitched true start states.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

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
        mats = {name: _as_square(getattr(self, name), name)
                for name in ("a_open", "a_closed", "q_weight", "w_cov")}
        n = mats["a_open"].shape[0]
        for name, m in mats.items():
            if m.shape[0] != n:
                raise ValueError(f"{name} dimension {m.shape[0]} != a_open dimension {n}")
        _check_spd(mats["q_weight"], "q_weight")
        _check_spd(mats["w_cov"], "w_cov")
        for name, m in mats.items():
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    @classmethod
    def simple(cls, a_open, q_weight=None, w_cov=None) -> "PlantModel":
        """Simple model: closed loop zero, Q/W default to identity."""
        a = _as_square(a_open, "a_open")
        eye = np.eye(len(a))
        return cls(a_open=a, a_closed=np.zeros_like(a),
                   q_weight=eye if q_weight is None else q_weight,
                   w_cov=eye if w_cov is None else w_cov)

    @property
    def dim(self) -> int:
        return self.a_open.shape[0]

    @property
    def is_simple(self) -> bool:
        return not self.a_closed.any()

    @cached_property
    def _kron_squares(self) -> tuple[np.ndarray, np.ndarray]:
        """C = Ac(x)Ac and O = Ao(x)Ao, built once per plant."""
        if self.dim > _KRON_DIM_CAP:
            raise ValueError(f"dimension {self.dim} exceeds the Kronecker cap "
                             f"{_KRON_DIM_CAP}")
        return (np.kron(self.a_closed, self.a_closed),
                np.kron(self.a_open, self.a_open))

    @cached_property
    def _crossings(self) -> np.ndarray:
        """Sorted rates in [0, 1] where rho(L_q), L_q = qC + (1-q)O, may meet s.

        L_q keeps the PSD cone, so rho(L_q) is an eigenvalue (Krein-Rutman)
        and meets s = 1 - 1e-12 only where det(L_q - sI) = 0: at q = q0 - 1/mu
        for the real (or nearly real) eigenvalues mu of K^-1 (C - O), with
        K = L_q0 - sI. A singular K makes q0 a root, found from the next q0;
        K singular at both means an eigenvalue s at every q: none is stable.
        """
        closed_sq, open_sq = self._kron_squares
        shift = (1.0 - _MARGINAL_BAND) * np.eye(len(open_sq))
        for q0 in (0.5, 0.25):
            try:
                mu = np.linalg.eigvals(np.linalg.solve(
                    q0 * closed_sq + (1.0 - q0) * open_sq - shift,
                    closed_sq - open_sq))
            except np.linalg.LinAlgError:
                continue
            mu = mu[(np.abs(mu.imag) <= 1e-6 * np.abs(mu)) & (mu != 0.0)].real
            rates = q0 - 1.0 / mu
            return np.sort(rates[(rates >= 0.0) & (rates <= 1.0)])
        return np.empty(0)

    @cached_property
    def _open_radius(self) -> float:
        """rho(Ao), computed once per plant."""
        return spectral_radius(self.a_open)


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
    rho = plant._open_radius
    return -math.inf if rho == 0.0 else _radius_threshold(rho)


def _radius_threshold(rho: float) -> float:
    """1 - 1/rho^2 for a spectral radius rho > 0; -inf once rho^2 underflows."""
    if not rho > 0.0:
        raise ValueError(f"spectral radius must be positive, got {rho}")
    return 1.0 - 1.0 / (rho * rho) if rho * rho > 0.0 else -math.inf


def kronecker_stable(plant: PlantModel, q: float) -> bool:
    """Mean-square stability of the general model at success rate q.

    True iff rho(q*Ac(x)Ac + (1-q)*Ao(x)Ao) < 1, with a 1e-12 guard band
    so marginal spectra are never certified stable.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q={q} outside [0, 1]")
    closed_sq, open_sq = plant._kron_squares
    return spectral_radius(q * closed_sq + (1.0 - q) * open_sq) < 1.0 - _MARGINAL_BAND


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
    rho = plant._open_radius
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
    _check_target(j_req)
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


def _check_target(j_req: float) -> None:
    if not 0.0 < j_req < math.inf:
        raise ValueError(f"cost target j_req must be positive and finite, got {j_req}")


def _scan_general(states: np.ndarray, gains: np.ndarray,
                  delivered: np.ndarray, noise: np.ndarray) -> None:
    """Fill ``states`` with x_{k+1} = G_k x_k + w_k from x_0 = 0, in chunks.

    ``gains[outcome]`` is G_k. Chunk c holds rows cL .. cL+L-1 for
    L = ceil(sqrt(N)), and one numpy step advances every chunk by one
    offset j, reading the rows j, j+L, j+2L, ... as one strided view.
    Pass 1 runs the full chunks from zero, keeping only each chunk's end
    value z_c and transition Phi_c, O(C d^2) memory. The start states
    follow from x <- Phi_c x + z_c, chunk 0 at exactly 0 and chunk 1 at
    exactly z_0, so an overflowed Phi_0 meets no 0 * inf. Pass 2 reruns
    every chunk from its true start; the last, shorter chunk drops out
    of the offsets past its end. The transitions cost O(N d^3) against a
    per-step loop's O(N d^2), so the scan pays off while the loop's
    per-step interpreter overhead outweighs d^3, that is for small d.
    """
    n_steps, dim = states.shape
    span = math.isqrt(n_steps - 1) + 1
    heads = -(-n_steps // span) - 1  # chunks with a successor, all full
    z = np.zeros((heads, dim))
    phi = np.broadcast_to(np.eye(dim), (heads, dim, dim))
    for j in range(span):
        g = gains[delivered[j::span][:heads]]
        z = np.einsum("cij,cj->ci", g, z) + noise[j::span][:heads]
        phi = g @ phi
    starts = states[::span]
    if heads:
        starts[1] = z[0]
    for c in range(1, heads):
        starts[c + 1] = phi[c] @ starts[c] + z[c]
    for j in range(span - 1):
        rows = states[j + 1::span]
        m = len(rows)
        rows[...] = (np.einsum("cij,cj->ci", gains[delivered[j::span][:m]],
                               states[j::span][:m])
                     + noise[j::span][:m])


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
    run offset per numpy step; the states equal a per-step loop's bit for
    bit. General plants run a two-pass chunked scan of about sqrt(N)
    numpy steps per pass, whose rows agree with a per-step loop's to
    rounding: the stitched chunk start states sum in another order.
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
        _scan_general(states, np.stack((plant.a_open, plant.a_closed)),
                      delivered, noise)

    per_step = np.einsum("ki,ij,kj->k", states, plant.q_weight, states)
    return Trajectory(states=states, running_cost=float(per_step.mean()),
                      horizon=n_steps)


# Plant file format: JSON with keys n, a_open, a_closed, q_weight, w_cov.
# Matrices may be nested rows or flat row-major lists; a_closed defaults
# to zero and q_weight/w_cov default to identity.

def _integer(value, key: str) -> int:
    """An int or an integral float such as 2e3; no bool, string or fraction."""
    if isinstance(value, bool) or not (
            isinstance(value, (int, np.integer))
            or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _real(value, key: str) -> float:
    """An int or a float; no bool or string."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{key!r} must be a number, got {value!r}")
    return float(value)


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
        n = _integer(doc["n"], "n")
        if n < 1:
            raise ValueError(f"'n' must be positive, got {n}")
        a_open = _matrix_from_json(doc["a_open"], n, "a_open")
    except KeyError as exc:
        raise ValueError(f"plant description missing required key {exc}") from exc
    defaults = {"a_closed": np.zeros((n, n)), "q_weight": np.eye(n), "w_cov": np.eye(n)}
    return PlantModel(a_open=a_open, **{
        name: _matrix_from_json(doc[name], n, name) if name in doc else default
        for name, default in defaults.items()})


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
