"""Monte Carlo experiment engine for the decision procedures.

An experiment repeats the same question over many independently drawn
channel traces and tallies how often each interval method answers
correctly, wrongly, or not at all, across a grid of sample sizes. Each
trial draws one trace at the largest size and evaluates every smaller
size on its prefix, the path a practitioner sees while collecting data.

A verdict depends on a trace only through its success count k and
length n, and is monotone in k. Every method's clipped interval ends
are non-decreasing in k (the Wald lower end dips below 0 near k = 0,
but it is convex, so once clipped at 0 it never decreases), and both
decisions compare them with a fixed threshold or the strictly
decreasing cost J. So for each (method, n) Deny holds exactly below one
cutoff and Affirm exactly from a second one up: the engine finds both
by binary search over the observed counts and tallies a cell with two
comparisons, keeping 10k-trial runs with exact intervals fast.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .channel import draw_trace
from .complexity import (MarginSpec, bernstein_sample_size, correctness_bound,
                         hoeffding_sample_size)
from .intervals import Method, _check_delta, interval_from_counts
from .sysmodel import (PlantModel, critical_rate, load_plant, lyapunov_cost,
                       plant_from_dict, stability_threshold)
from .verify import Decision, decide_cost, decide_stability

DEFAULT_N_GRID = (10, 20, 50, 100, 200, 300, 500, 1000, 1500, 2000)
DEFAULT_DELTA = 1e-3
DEFAULT_TRIALS = 1000


@dataclass(frozen=True)
class ExperimentConfig:
    plant: PlantModel
    true_rate: float
    delta: float = DEFAULT_DELTA
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    trials: int = DEFAULT_TRIALS
    methods: tuple[Method, ...] = (Method.HOEFFDING,)
    seed: int = 0
    j_req: float | None = None
    out: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.true_rate <= 1.0:
            raise ValueError(f"true_rate={self.true_rate} outside [0, 1]")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(n < 1 for n in grid):
            raise ValueError("n_grid must contain positive sample sizes")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.methods:
            raise ValueError("at least one interval method is required")
        object.__setattr__(self, "methods", tuple(self.methods))
        for method in self.methods:
            _check_delta(self.delta, method)
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.j_req is not None and self.j_req <= 0.0:
            raise ValueError("j_req must be positive")


@dataclass(frozen=True)
class Cell:
    affirm: int
    deny: int
    undetermined: int
    correct: int
    wrong: int


@dataclass
class TrialLedger:
    """Per (method, n) tallies plus the matching theoretical bound."""

    config: ExperimentConfig
    cells: dict[tuple[str, int], Cell]
    bound: dict[int, float]
    extras: dict = field(default_factory=dict)

    def cell(self, method: Method, n: int) -> Cell:
        return self.cells[(method.value, n)]

    def correct_rate(self, method: Method, n: int) -> float:
        return self.cell(method, n).correct / self.config.trials

    def wrong_rate(self, method: Method, n: int) -> float:
        return self.cell(method, n).wrong / self.config.trials

    def affirm_rate(self, method: Method, n: int) -> float:
        return self.cell(method, n).affirm / self.config.trials

    def rows(self, statistic: str) -> list[tuple[str, int, float]]:
        return [(method_value, n, getattr(cell, statistic) / self.config.trials)
                for (method_value, n), cell in sorted(self.cells.items())]


def _success_counts(cfg: ExperimentConfig) -> np.ndarray:
    """(trials, len(n_grid)) success counts, one prefix-stable trace per trial.

    Trial streams are keyed by seed XOR trial index; Philox keys give
    independent streams, so the tally is the same under any trial
    execution order.
    """
    max_n = cfg.n_grid[-1]
    idx = np.asarray(cfg.n_grid, dtype=np.int64) - 1
    counts = np.empty((cfg.trials, len(cfg.n_grid)), dtype=np.int64)
    for trial in range(cfg.trials):
        trace = draw_trace(cfg.true_rate, max_n, cfg.seed ^ trial)
        counts[trial] = np.cumsum(trace.outcomes, dtype=np.int64)[idx]
    return counts


def _first(holds, lo: int, hi: int) -> int:
    """Smallest k in [lo, hi) where the monotone predicate holds, else hi."""
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _tally(cfg: ExperimentConfig, truth: Decision,
           decide) -> dict[tuple[str, int], Cell]:
    counts = _success_counts(cfg)
    cells = {}
    for method in cfg.methods:
        for col, n in zip(counts.T, cfg.n_grid):
            decision = lambda k: decide(interval_from_counts(method, k, n, cfg.delta))
            k_min, k_end = int(col.min()), int(col.max()) + 1
            k_affirm = _first(lambda k: decision(k) is Decision.AFFIRM, k_min, k_end)
            k_deny = _first(lambda k: decision(k) is not Decision.DENY, k_min, k_affirm)
            affirm, deny = int((col >= k_affirm).sum()), int((col < k_deny).sum())
            correct, wrong = ((affirm, deny) if truth is Decision.AFFIRM
                              else (deny, affirm))
            cells[(method.value, n)] = Cell(affirm, deny, cfg.trials - affirm - deny,
                                            correct, wrong)
    return cells


def run_stability_experiment(cfg: ExperimentConfig) -> TrialLedger:
    """Tally stability verdicts against the known ground truth."""
    threshold = stability_threshold(cfg.plant)
    if cfg.true_rate == threshold:
        raise ValueError("true_rate sits exactly on the stability threshold; "
                         "ground truth is undefined there")
    truth = Decision.AFFIRM if cfg.true_rate > threshold else Decision.DENY
    if math.isfinite(threshold):
        spec = MarginSpec(cfg.true_rate, threshold, cfg.delta)
        bound = {n: correctness_bound(spec, n) for n in cfg.n_grid}
    else:
        # Nilpotent open loop: the test affirms unconditionally and is
        # always correct, so the bound is exactly one.
        bound = {n: 1.0 for n in cfg.n_grid}
    cells = _tally(cfg, truth, lambda iv: decide_stability(threshold, iv))
    return TrialLedger(cfg, cells, bound)


def run_cost_experiment(cfg: ExperimentConfig) -> TrialLedger:
    """Tally cost verdicts; also reports the theoretical sample size.

    The reported size is the two-sided margin bound at the gap between
    the true rate and the smallest rate meeting the target.
    """
    if cfg.j_req is None:
        raise ValueError("cost experiments need j_req in the config")
    q_star = critical_rate(cfg.plant, cfg.j_req)
    if q_star is None:
        raise ValueError("j_req is infeasible: even a perfect link exceeds it")
    if cfg.true_rate == q_star:
        raise ValueError("true_rate equals the critical rate for j_req; "
                         "ground truth is undefined there")
    truth_cost = lyapunov_cost(cfg.plant, cfg.true_rate)
    truth = Decision.AFFIRM if truth_cost <= cfg.j_req else Decision.DENY
    spec = MarginSpec(cfg.true_rate, q_star, cfg.delta)
    bound = {n: correctness_bound(spec, n) for n in cfg.n_grid}
    extras = {"critical_rate": q_star,
              "thm_sample_size": hoeffding_sample_size(spec)}
    cells = _tally(cfg, truth, lambda iv: decide_cost(cfg.plant, cfg.j_req, iv))
    return TrialLedger(cfg, cells, bound, extras)


def sweep_sample_complexity(axis: str, grid, *, q: float = 0.9,
                            rho: float = 2.0,
                            delta: float = 0.01) -> list[tuple[float, int, int]]:
    """Required sample counts along a spectral-radius ("rho") or rate ("q") sweep.

    Returns (axis value, plain bound, variance-aware bound) rows. Grid
    points closer than 1e-6 to the critical configuration are rejected,
    since the counts diverge there.
    """
    if axis not in ("rho", "q"):
        raise ValueError(f"axis must be 'rho' or 'q', not {axis!r}")
    rows = []
    for x in grid:
        x = float(x)
        if axis == "rho":
            if x <= 0.0:
                raise ValueError("spectral radius grid values must be positive")
            spec_q, threshold = q, 1.0 - 1.0 / (x * x)
        else:
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"rate grid value {x} outside [0, 1]")
            spec_q, threshold = x, 1.0 - 1.0 / (rho * rho)
        if abs(spec_q - threshold) < 1e-6:
            raise ValueError(f"grid value {x} is within 1e-6 of the critical "
                             "point; sample counts diverge there")
        spec = MarginSpec(spec_q, threshold, delta)
        rows.append((x, hoeffding_sample_size(spec), bernstein_sample_size(spec)))
    return rows


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_ledger_csvs(ledger: TrialLedger, out_dir) -> None:
    """Write correct_rate.csv, wrong_rate.csv and bound.csv into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    for name, statistic in (("correct_rate.csv", "correct"),
                            ("wrong_rate.csv", "wrong")):
        with open(os.path.join(out_dir, name), "w", encoding="ascii",
                  newline="\n") as fh:
            fh.write("method,n,rate\n")
            for method_value, n, rate in ledger.rows(statistic):
                fh.write(f"{method_value},{n},{_fmt(rate)}\n")
    with open(os.path.join(out_dir, "bound.csv"), "w", encoding="ascii",
              newline="\n") as fh:
        fh.write("n,bound\n")
        for n in ledger.config.n_grid:
            fh.write(f"{n},{_fmt(ledger.bound[n])}\n")


def write_complexity_csv(rows, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("x,n_hoeffding,n_bernstein\n")
        for x, n_h, n_b in rows:
            fh.write(f"{_fmt(x)},{n_h},{n_b}\n")


def _read_config(path, fields: dict, required: tuple[str, ...]) -> dict:
    """A JSON-object config, each non-null value converted by ``fields[key]``;
    unknown or missing keys and rejected values raise ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} must be a JSON object")
    unknown = set(doc) - set(fields)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for key, value in doc.items():
        if value is None:
            continue
        try:
            values[key] = fields[key](value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    missing = [key for key in required if key not in values]
    if missing:
        raise ValueError(f"config missing required keys {missing}")
    return values


def _integer(value) -> int:
    """An int or an integral float such as 2e3; no bool, string or fraction."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def load_experiment_config(path) -> ExperimentConfig:
    """Read an experiment config (JSON); absent keys take the defaults.

    ``plant`` is either a path to a plant file (resolved relative to the
    config) or an inline plant object with the plant-file keys.
    """
    def plant(ref):
        if isinstance(ref, str):
            return load_plant(os.path.join(os.path.dirname(os.path.abspath(path)), ref))
        if isinstance(ref, dict):
            return plant_from_dict(ref)
        raise ValueError("plant must be a file path or an inline object")

    fields = {"plant": plant, "true_rate": float, "delta": float,
              "n_grid": lambda grid: tuple(_integer(n) for n in grid),
              "trials": _integer,
              "methods": lambda names: tuple(Method.parse(m) for m in names),
              "seed": _integer, "j_req": float, "out": os.fspath}
    return ExperimentConfig(**_read_config(path, fields, ("plant", "true_rate")))


def load_sweep_config(path) -> dict:
    """Read a sweep config (JSON): ``grid``, the optional keywords ``q``,
    ``rho`` and ``delta`` of sweep_sample_complexity, and ``out``."""
    fields = {"grid": lambda grid: [float(x) for x in grid], "q": float,
              "rho": float, "delta": float, "out": os.fspath}
    return _read_config(path, fields, ("grid",))
