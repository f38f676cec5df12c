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
cutoff and Affirm exactly from a second one up. Both searches start at
the exact method's cutoffs at the critical rate, binomial quantiles, and
gallop over the observed counts; a cell is then two comparisons.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .channel import draw_trace
from .complexity import (MarginSpec, _first, bernstein_sample_size,
                         correctness_bound, hoeffding_sample_size)
from .intervals import (_NORMAL, Method, _check_delta, binom_tail_upper,
                        interval_from_counts)
from .sysmodel import (PlantModel, _check_target, _integer, _radius_threshold,
                       _real, critical_rate, load_plant, lyapunov_cost,
                       plant_from_dict, stability_threshold)
from .verify import Decision, decide_cost, decide_stability

DEFAULT_N_GRID = (10, 20, 50, 100, 200, 300, 500, 1000, 1500, 2000)
DEFAULT_DELTA = 1e-3
DEFAULT_TRIALS = 1000
# Trials per reduceat; the int64 cast of a block is _BLOCK * 8 bytes per outcome.
_BLOCK = 16


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
        for key in ("true_rate", "delta"):
            object.__setattr__(self, key, _real(getattr(self, key), key))
        if not 0.0 <= self.true_rate <= 1.0:
            raise ValueError(f"true_rate={self.true_rate} outside [0, 1]")
        if np.ndim(self.n_grid) != 1:
            raise ValueError(f"'n_grid' must be a sequence, got {self.n_grid!r}")
        grid = tuple(_integer(n, "n_grid") for n in self.n_grid)
        if not grid or any(n < 1 for n in grid):
            raise ValueError("n_grid must contain positive sample sizes")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "trials", _integer(self.trials, "trials"))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.methods:
            raise ValueError("at least one interval method is required")
        object.__setattr__(self, "methods", tuple(self.methods))
        for method in self.methods:
            _check_delta(self.delta, method)
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.j_req is not None:
            object.__setattr__(self, "j_req", _real(self.j_req, "j_req"))
            _check_target(self.j_req)


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
    execution order. Outcomes of _BLOCK trials at a time are summed per
    grid segment [n_(i-1), n_i) in one reduceat, and the segment sums are
    accumulated along the grid, so no per-outcome prefix sum is built.
    """
    max_n = cfg.n_grid[-1]
    starts = np.asarray((0,) + cfg.n_grid[:-1], dtype=np.intp)
    counts = np.empty((cfg.trials, len(cfg.n_grid)), dtype=np.int64)
    block = np.empty((min(_BLOCK, cfg.trials), max_n), dtype=np.uint8)
    for first in range(0, cfg.trials, _BLOCK):
        rows = block[:min(_BLOCK, cfg.trials - first)]
        for trial, row in enumerate(rows, first):
            row[:] = draw_trace(cfg.true_rate, max_n, cfg.seed ^ trial).outcomes
        segments = np.add.reduceat(rows, starts, axis=1, dtype=np.int64)
        np.cumsum(segments, axis=1, out=counts[first:first + len(rows)])
    return counts


def _tally(cfg: ExperimentConfig, truth: Decision, decide,
           rate: float) -> dict[tuple[str, int], Cell]:
    counts = _success_counts(cfg)
    # Each search starts from the exact method's cutoff at the critical
    # rate: Affirm from the least k with P(Bin(n, rate) >= k) <= delta,
    # Deny from its mirror for the upper end. Those searches start in turn
    # from the normal approximation. Clamping the rate into [0, 1] keeps
    # the tail of a rate outside (0, 1), a sure or an impossible event.
    z, r = -_NORMAL.inv_cdf(cfg.delta), min(max(rate, 0.0), 1.0)
    least = lambda n, q: _first(lambda k: binom_tail_upper(n, k, q) <= cfg.delta,
                                0, n + 1, int(n * q + z * (n * q * (1.0 - q)) ** 0.5) + 1)
    guesses = [(least(n, r), n + 1 - least(n, 1.0 - r)) for n in cfg.n_grid]
    cells = {}
    for method in cfg.methods:
        for col, n, (g_affirm, g_deny) in zip(counts.T, cfg.n_grid, guesses):
            decision = lambda k: decide(interval_from_counts(method, k, n, cfg.delta))
            k_min, k_end = int(col.min()), int(col.max()) + 1
            k_affirm = _first(lambda k: decision(k) is Decision.AFFIRM,
                              k_min, k_end, g_affirm)
            k_deny = _first(lambda k: decision(k) is not Decision.DENY,
                            k_min, k_affirm, g_deny)
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
    # A nilpotent open loop has threshold -inf, so an infinite margin and
    # a bound of exactly one: the test always affirms, correctly.
    spec = MarginSpec(cfg.true_rate, threshold, cfg.delta)
    bound = {n: correctness_bound(spec, n) for n in cfg.n_grid}
    cells = _tally(cfg, truth, lambda iv: decide_stability(threshold, iv), threshold)
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
    cells = _tally(cfg, truth, lambda iv: decide_cost(cfg.plant, cfg.j_req, iv), q_star)
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
    q, rho, delta = _real(q, "q"), _real(rho, "rho"), _real(delta, "delta")
    rows = []
    for x in grid:
        x = _real(x, "grid")
        spec_q, threshold = ((q, _radius_threshold(x)) if axis == "rho"
                             else (x, _radius_threshold(rho)))
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
    """A JSON-object config, each non-null value converted by ``fields[key]``
    unless that is None; unknown or missing keys and bad values raise ValueError."""
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
            values[key] = value if fields[key] is None else fields[key](value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    missing = [key for key in required if key not in values]
    if missing:
        raise ValueError(f"config missing required keys {missing}")
    return values


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

    fields = {"plant": plant, "true_rate": None, "delta": None,
              "n_grid": None, "trials": None,
              "methods": lambda names: tuple(Method.parse(m) for m in names),
              "seed": None, "j_req": None, "out": os.fspath}
    return ExperimentConfig(**_read_config(path, fields, ("plant", "true_rate")))


def load_sweep_config(path) -> dict:
    """Read a sweep config (JSON): ``grid``, the optional keywords ``q``,
    ``rho`` and ``delta`` of sweep_sample_complexity, and ``out``."""
    fields = {"grid": list, "q": None, "rho": None, "delta": None,
              "out": os.fspath}
    return _read_config(path, fields, ("grid",))
