"""Inputs and request lists of the three workloads.

Every input is generated from the benchmark seed and written with the
program's own writers (``save_trace``, ``save_plant``) or as JSON
config files; the program then sees only those files. Each request is
one ``linkverify`` command line plus a ``spec`` that holds the ground
truth the output checks need (plant matrices, success counts, targets),
so the checks never read the program's answer to learn the question.

The request mixes are arranged so that the median per-request latency
falls in the middle of one class of requests of similar cost (see the
README); the seed changes the inputs but not the amount of work.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("verdicts", "montecarlo", "cost")


MAX_PASSES = 200  # experiment configs are written for this many passes


@dataclass
class Request:
    """One command line, repeated once per pass, and its output check."""

    name: str
    argv: Callable[[int], list[str]]   # pass index -> argv
    check: Callable[..., str | None]   # (outcome, pass index) -> failure or None
    units: int = 1                     # work units one call completes
    spec: dict = field(default_factory=dict)
    varies: bool = False               # output differs between passes


def _checks():
    import checks  # imports scipy: kept out of set-up time and peak memory
    return checks


def _fixed(argv: list[str]) -> Callable[[int], list[str]]:
    return lambda _pass: argv


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _symmetric(rng, eigenvalues) -> np.ndarray:
    u = _orthogonal(rng, len(eigenvalues))
    return u @ np.diag(eigenvalues) @ u.T


class _Inputs:
    """Writes plant and trace files once each, under one work directory."""

    def __init__(self, lv, work_dir: str, rng):
        self.lv, self.dir, self.rng = lv, work_dir, rng
        self.traces: dict[tuple, tuple[str, int]] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def plant(self, name: str, a_open, a_closed=None, q_weight=None,
              w_cov=None) -> tuple[str, dict]:
        n = np.atleast_2d(a_open).shape[0]
        mats = {
            "a_open": np.atleast_2d(np.asarray(a_open, dtype=np.float64)),
            "a_closed": np.zeros((n, n)) if a_closed is None else np.atleast_2d(a_closed),
            "q_weight": np.eye(n) if q_weight is None else np.atleast_2d(q_weight),
            "w_cov": np.eye(n) if w_cov is None else np.atleast_2d(w_cov),
        }
        path = self.path(f"{name}.json")
        self.lv.sysmodel.save_plant(self.lv.PlantModel(**mats), path)
        return path, mats

    def trace(self, n: int, rate: float) -> tuple[str, int]:
        """A trace of n outcomes with about rate*n successes in seeded order.

        The success count is jittered by at most n/1000 so that the seed
        changes the verdict inputs without changing the work they need.
        """
        key = (n, rate)
        if key not in self.traces:
            jitter = int(self.rng.integers(-(n // 1000), n // 1000 + 1))
            k = int(round(rate * n)) + jitter
            outcomes = np.zeros(n, dtype=np.uint8)
            outcomes[self.rng.permutation(n)[:k]] = 1
            path = self.path(f"trace-{n}-{rate}.txt")
            self.lv.channel.save_trace(self.lv.ChannelTrace(outcomes), path)
            self.traces[key] = (path, k)
        return self.traces[key]


def _verdict_request(inputs: _Inputs, plant: tuple[str, dict], label: str,
                     kind: str, n: int, rate: float, method: str,
                     delta: float = 1e-3, j_req: float | None = None) -> Request:
    path, k = inputs.trace(n, rate)
    plant_path, mats = plant
    argv = [f"verify-{kind}", "--plant", plant_path, "--trace", path,
            "--delta", repr(delta), "--method", method]
    if kind == "cost":
        argv += ["--jreq", repr(j_req)]
    spec = dict(kind=kind, k=k, n=n, delta=delta, method=method, j_req=j_req,
                **mats)
    return Request(name=f"{kind} {label} n={n} {method}", argv=_fixed(argv),
                   check=lambda out, _p, spec=spec: _checks().verdict(spec, out),
                   spec=spec)


def _symmetric_cost(eigenvalues, q: float) -> float:
    """J(q) of A = U diag(eigenvalues) U' with Q = W = I (builds targets)."""
    return sum(1.0 / (1.0 - (1.0 - q) * lam * lam) for lam in eigenvalues)


def build_verdicts(lv, seed: int, work_dir: str) -> list[Request]:
    """40 single-link verdicts: 12 cheap, 16 of median cost, 12 heavy.

    Cheap and median requests are simple plants with the closed-form
    methods on 2e3 and 2e4 outcomes; the heavy ones use the exact method,
    2e5 outcomes or general plants (Kronecker grid).
    """
    rng = np.random.default_rng([seed, 1])
    inputs = _Inputs(lv, work_dir, rng)
    s3_eigs = (2.0, 1.25, -0.6)
    plants = {"S1": (inputs.plant("S1", [[2.0]]), (2.0,)),
              "S3": (inputs.plant("S3", _symmetric(rng, s3_eigs)), s3_eigs)}
    # General plants: symmetric Ao with rho = 2 and symmetric Ac of norm
    # 0.3, so the stability crossing lies in [3/4.09, 3/3.91] and rates
    # 0.85 / 0.65 / 0.75 give Affirm / Deny / a straddling interval.
    general = {}
    for dim, eigs in ((2, (2.0, 0.8)), (3, (2.0, 1.3, -0.5)),
                      (4, (2.0, -1.5, 0.9, 0.3))):
        mu = rng.uniform(-1.0, 1.0, dim)
        a_closed = _symmetric(rng, 0.3 * mu / np.abs(mu).max())
        general[f"G{dim}"] = inputs.plant(f"G{dim}", _symmetric(rng, eigs),
                                          a_closed=a_closed)

    stab_rates = (0.9, 0.62, 0.76)
    cost_cases = ((0.9, -0.08), (0.85, 0.04), (0.95, 0.0))
    closed_form = ("hoeffding", "bernstein-fast", "normal")

    def simple(name, kind, n, method, case):
        plant, eigs = plants[name]
        if kind == "stability":
            return _verdict_request(inputs, plant, name, kind, n,
                                    stab_rates[case % 3], method)
        rate, offset = cost_cases[case % 3]
        return _verdict_request(inputs, plant, name, kind, n, rate, method,
                                j_req=_symmetric_cost(eigs, rate + offset))

    requests = []
    for n, extra in ((2000, ()), (20000, (("S1", "stability", "hoeffding", 1),
                                          ("S3", "stability", "normal", 1),
                                          ("S1", "cost", "normal", 1),
                                          ("S3", "cost", "hoeffding", 2)))):
        case = 0
        for name in ("S1", "S3"):
            for kind in ("stability", "cost"):
                for method in closed_form:
                    requests.append(simple(name, kind, n, method, case))
                    case += 1
        requests += [simple(name, kind, n, method, c)
                     for name, kind, method, c in extra]
    requests += [simple("S1", "stability", 2000, "exact", 0),
                 simple("S3", "cost", 20000, "exact", 1),
                 simple("S1", "stability", 200000, "exact", 2),
                 simple("S3", "cost", 200000, "exact", 0),
                 simple("S3", "stability", 200000, "hoeffding", 1),
                 simple("S1", "cost", 200000, "normal", 2)]
    for name, n, method, rate in (("G2", 2000, "hoeffding", 0.85),
                                  ("G2", 20000, "exact", 0.65),
                                  ("G3", 20000, "normal", 0.75),
                                  ("G3", 200000, "hoeffding", 0.85),
                                  ("G4", 2000, "bernstein-fast", 0.65),
                                  ("G4", 200000, "exact", 0.75)):
        requests.append(_verdict_request(inputs, general[name], name,
                                         "stability", n, rate, method))
    return requests


def _experiment_config(path: str, plant_path: str, **fields) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"plant": os.path.basename(plant_path), **fields}, fh)


def build_montecarlo(lv, seed: int, work_dir: str) -> list[Request]:
    """The near-critical wrong-answer experiment (acceptance criterion 3).

    10k trials x 3 methods at q = 0.5 against threshold 0.49. Each pass
    uses its own experiment seed; seeds are 2^20 apart so that no two
    passes share a trial key seed ^ trial.
    """
    rng = np.random.default_rng([seed, 2])
    inputs = _Inputs(lv, work_dir, rng)
    plant_path, mats = inputs.plant("near_critical", [[1.0 / math.sqrt(0.51)]])
    base = int(rng.integers(0, 2**40)) << 20
    fields = dict(true_rate=0.5, delta=1e-3, trials=10_000,
                  methods=["hoeffding", "exact", "normal"],
                  n_grid=[10, 20, 50, 100, 200, 300, 500, 1000, 1500, 2000])
    seeds = [base + (p << 20) for p in range(MAX_PASSES)]
    for p, exp_seed in enumerate(seeds):
        _experiment_config(inputs.path(f"mc-{p}.json"), plant_path,
                           seed=exp_seed, **fields)
    spec = dict(fields, seeds=seeds, j_req=None, **mats)
    units = fields["trials"] * len(fields["n_grid"]) * len(fields["methods"])
    return [Request(
        name="experiment near-critical 10k x 3",
        argv=lambda p: ["experiment", "--config", inputs.path(f"mc-{p}.json"),
                        "--out", inputs.path(f"mc-out-{p}")],
        check=lambda out, p: _checks().experiment(
            dict(spec, seed=seeds[p]), out, inputs.path(f"mc-out-{p}")),
        units=units, spec=spec, varies=True)]


def build_cost(lv, seed: int, work_dir: str) -> list[Request]:
    """Cost-side requests: 6 cheaper than, 5 like and 6 dearer than a
    critical-rate request at J = 20, which therefore holds the median."""
    rng = np.random.default_rng([seed, 3])
    inputs = _Inputs(lv, work_dir, rng)
    jitter = lambda: 1.0 + 0.01 * float(rng.uniform(-1.0, 1.0))
    rho2_path, rho2 = inputs.plant("rho2", [[2.0]])

    def critical(j_req):
        spec = dict(j_req=j_req, rho=2.0)
        return Request(f"critical-rate J={j_req:.3g}",
                       _fixed(["critical-rate", "--plant", rho2_path,
                               "--jreq", repr(j_req)]),
                       lambda out, _p: _checks().critical_rate(spec, out), spec=spec)

    def near_threshold(margin, affirm):
        # 2000 outcomes, about 78% delivered; delta places the Hoeffding
        # lower end exactly `margin` above the threshold 0.75, where the
        # fixed point needs about 7/margin iterations.
        path, k = inputs.trace(2000, 0.78)
        half_width = k / 2000 - 0.75 - margin
        delta = math.exp(-2.0 * 2000 * half_width ** 2)
        j_lo = 1.0 / (4.0 * margin)
        j_hi = 1.0 / (1.0 - 4.0 * (1.0 - (k / 2000 + half_width)))
        j_req = 1.5 * j_lo if affirm else 0.9 * j_hi
        spec = dict(kind="cost", k=k, n=2000, delta=delta, method="hoeffding",
                    j_req=j_req, **rho2)
        return Request(f"cost near-threshold margin={margin:g}",
                       _fixed(["verify-cost", "--plant", rho2_path, "--trace",
                               path, "--delta", repr(delta), "--jreq",
                               repr(j_req)]),
                       lambda out, _p: _checks().verdict(spec, out), spec=spec)

    # Simulated plants keep (1-q) rho^10 < 1, so the per-step cost has five
    # finite moments and the 8-sigma running-cost check cannot trip on a
    # heavy tail; rho = 2 would leave it barely a finite variance.
    scalar_path, scalar = inputs.plant("sim_scalar", [[1.25]], q_weight=[[1.5]],
                                       w_cov=[[0.8]])
    b = rng.standard_normal((2, 2))
    general_path, general = inputs.plant(
        "sim_general", _symmetric(rng, (1.2, -0.5)),
        a_closed=0.3 * _orthogonal(rng, 2),
        q_weight=b @ b.T + np.eye(2), w_cov=np.diag([1.0, 0.5]))

    def sim(path, mats, label, q, horizon):
        sim_seed = int(rng.integers(0, 2**62))
        spec = dict(q=q, horizon=horizon, seed=sim_seed, **mats)
        return Request(f"simulate {label} q={q} horizon={horizon:.0e}",
                       _fixed(["simulate", "--plant", path, "--q", repr(q),
                               "--horizon", str(horizon), "--seed", str(sim_seed)]),
                       lambda out, _p: _checks().simulate(spec, out), spec=spec)

    c9_path = inputs.path("criterion9.json")
    c9 = dict(true_rate=0.95, delta=0.01, j_req=2.0, trials=1000,
              methods=["hoeffding"], seed=int(rng.integers(0, 2**40)) << 20,
              n_grid=[10, 20, 50, 100, 200, 300, 500, 1000, 1500, 1638, 2000])
    _experiment_config(c9_path, rho2_path, **c9)
    c9_spec = dict(c9, **rho2)
    c9_out = lambda p: inputs.path(f"c9-out-{p}")

    cheaper = [critical(2.0 * jitter()), critical(10.0 * jitter()),
               near_threshold(1e-2 * jitter(), True),
               near_threshold(3e-3 * jitter(), False),
               near_threshold(1e-3 * jitter(), True),
               sim(scalar_path, scalar, "scalar", 0.9, 10_000)]
    median_class = [critical(20.0 * jitter()) for _ in range(5)]
    dearer = [Request("experiment criterion-9 cost",
                      lambda p: ["experiment", "--config", c9_path, "--out", c9_out(p)],
                      lambda out, p: _checks().experiment(c9_spec, out, c9_out(p)),
                      spec=c9_spec, varies=True),
              critical(50.0 * jitter()), critical(100.0 * jitter()),
              near_threshold(1e-4 * jitter(), False),
              sim(general_path, general, "general", 0.9, 300_000),
              sim(scalar_path, scalar, "scalar", 0.95, 1_000_000)]
    return cheaper + median_class + dearer


def build(workload: str, lv, seed: int, work_dir: str) -> list[Request]:
    return {"verdicts": build_verdicts, "montecarlo": build_montecarlo,
            "cost": build_cost}[workload](lv, seed, work_dir)
