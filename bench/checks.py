"""Output checks: each compares one program output with the oracle.

A check returns None when the output is right and a one-line reason
when it is wrong; the benchmark counts a wrong output as a failed
operation. ``out`` is the captured call: ``rc`` (exit code or None when
the call raised), ``stdout`` and ``error``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import oracle

_CLOSED_FORM_TOL = 1e-12
_EXACT_TOL = 1e-8


def _call_error(out, allowed=(0,)) -> str | None:
    if out.error is not None:
        return f"raised {out.error.strip().splitlines()[-1]}"
    if out.rc not in allowed:
        return f"exit code {out.rc}"
    return None


def _is_general(spec) -> bool:
    return bool(np.any(spec["a_closed"]))


def verdict(spec: dict, out) -> str | None:
    """verify-stability / verify-cost JSON against recomputed intervals."""
    problem = _call_error(out, allowed=(0, 2))
    if problem:
        return problem
    try:
        doc = json.loads(out.stdout)
    except ValueError:
        return "stdout is not one JSON object"
    k, n, delta, method = spec["k"], spec["n"], spec["delta"], spec["method"]
    if doc.get("method") != method or doc.get("n") != n or doc.get("delta") != delta:
        return "method, n or delta differ from the request"
    if doc.get("q_hat") != k / n:
        return f"q_hat {doc.get('q_hat')} != {k}/{n}"
    lo, hi = oracle.interval(method, k, n, delta)
    tol = _EXACT_TOL if method == "exact" else _CLOSED_FORM_TOL
    if abs(doc["lo"] - lo) > tol or abs(doc["hi"] - hi) > tol:
        return f"interval [{doc['lo']}, {doc['hi']}] != oracle [{lo}, {hi}]"

    if spec["kind"] == "cost":
        if doc.get("j_req") != spec["j_req"]:
            return "j_req differs from the request"
        expected = oracle.threshold_decision(_cost_critical_rate(spec), lo, hi)
    elif _is_general(spec):
        expected = oracle.general_decision(spec["a_open"], spec["a_closed"], lo, hi)
    else:
        threshold = oracle.stability_threshold(spec["a_open"])
        if abs(doc.get("threshold", math.nan) - threshold) > _CLOSED_FORM_TOL:
            return f"threshold {doc.get('threshold')} != oracle {threshold}"
        expected = oracle.threshold_decision(threshold, lo, hi)
    if expected is None:
        return None  # an interval end sits on the critical rate
    if doc.get("decision") != expected:
        return f"decision {doc.get('decision')} != oracle {expected}"
    if out.rc != (2 if expected == "Undetermined" else 0):
        return f"exit code {out.rc} for {expected}"
    return None


def critical_rate(spec: dict, out) -> str | None:
    """critical-rate on a scalar rho-plant: closed-form q* and J(q*)."""
    problem = _call_error(out)
    if problem:
        return problem
    try:
        rate = float(out.stdout.strip())
    except ValueError:
        return f"not a rate: {out.stdout.strip()!r}"
    j_req, rho = spec["j_req"], spec["rho"]
    expected = oracle.scalar_critical_rate(rho, j_req)
    if abs(rate - expected) > 1e-8:
        return f"critical rate {rate} != {expected}"
    j_at = 1.0 / (1.0 - (1.0 - rate) * rho * rho)
    if abs(j_at - j_req) > 1e-6 * j_req:
        return f"J(q*) = {j_at} != target {j_req}"
    return None


def simulate(spec: dict, out) -> str | None:
    """Predicted cost to 1e-9; running cost within the Monte Carlo tolerance."""
    problem = _call_error(out)
    if problem:
        return problem
    try:
        doc = json.loads(out.stdout)
    except ValueError:
        return "stdout is not one JSON object"
    if doc.get("horizon") != spec["horizon"] or doc.get("q") != spec["q"]:
        return "horizon or q differ from the request"
    if _is_general(spec):
        if doc.get("predicted_cost") is not None:
            return "general plant reported a predicted cost"
    else:
        j = oracle.lyapunov_cost(spec["a_open"], spec["q_weight"], spec["w_cov"],
                                 spec["q"])
        predicted = doc.get("predicted_cost")
        if not isinstance(predicted, float) or abs(predicted - j) > 1e-9 * j:
            return f"predicted cost {predicted} != {j}"
    stationary, tol = oracle.running_cost_tolerance(
        spec["a_open"], spec["a_closed"], spec["q_weight"], spec["w_cov"],
        spec["q"], spec["horizon"])
    if abs(doc.get("running_cost", math.inf) - stationary) > tol:
        return (f"running cost {doc.get('running_cost')} outside "
                f"{stationary} +- {tol}")
    return None


def read_rate_csv(path: str, trials: int) -> dict[tuple[str, int], int]:
    """{(method, n): count} from a method,n,rate CSV; counts must be whole."""
    counts = {}
    with open(path, encoding="ascii") as fh:
        if fh.readline() != "method,n,rate\n":
            raise ValueError(f"{os.path.basename(path)}: bad header")
        for line in fh:
            method, n, rate = line.rstrip("\n").split(",")
            count = round(float(rate) * trials)
            if f"{count / trials:.12g}" != rate:
                raise ValueError(f"{os.path.basename(path)}: {rate} is not a "
                                 f"count over {trials}")
            counts[(method, int(n))] = count
    return counts


def _cost_critical_rate(spec) -> float:
    """Rate q* with J(q*) = target; J decreases, so J(q) <= target iff q >= q*."""
    return oracle.cost_critical_rate(spec["a_open"], spec["q_weight"],
                                     spec["w_cov"], spec["j_req"])


def _oracle_decisions(critical: float, method: str, k: np.ndarray, n: int,
                      delta: float):
    """Per-count decisions (1 Affirm, -1 Deny, 0 Undetermined) and a mask of
    counts whose interval ends lie within EXEMPT of the critical rate."""
    lo, hi = oracle.intervals(method, k, n, delta)
    decision = np.where(lo > critical, 1, np.where(hi < critical, -1, 0))
    exempt = ((np.abs(lo - critical) <= oracle.EXEMPT)
              | (np.abs(hi - critical) <= oracle.EXEMPT))
    return decision, exempt


def experiment(spec: dict, out, out_dir: str) -> str | None:
    """Recount the whole ledger and check the method properties."""
    problem = _call_error(out)
    if problem:
        return problem
    trials, delta, q = spec["trials"], spec["delta"], spec["true_rate"]
    grid, methods = spec["n_grid"], spec["methods"]
    try:
        correct = read_rate_csv(os.path.join(out_dir, "correct_rate.csv"), trials)
        wrong = read_rate_csv(os.path.join(out_dir, "wrong_rate.csv"), trials)
        with open(os.path.join(out_dir, "bound.csv"), encoding="ascii") as fh:
            bound_lines = fh.read().splitlines()
    except (OSError, ValueError) as exc:
        return f"unreadable ledger: {exc}"
    cells = {(m, n) for m in methods for n in grid}
    if set(correct) != cells or set(wrong) != cells:
        return "ledger cells differ from the config"

    if spec.get("j_req") is None:
        critical = oracle.stability_threshold(spec["a_open"])
    else:
        critical = _cost_critical_rate(spec)
        problem = _cost_extras(spec, out.stdout, critical)
        if problem:
            return problem
    truth = 1 if q > critical else -1

    counts = oracle.success_counts(spec["seed"], trials, q, grid)
    affirms = {}
    for method in methods:
        for col, n in enumerate(grid):
            decision, exempt = _oracle_decisions(critical, method, counts[:, col],
                                                 n, delta)
            sure_right = int(np.sum((decision == truth) & ~exempt))
            sure_wrong = int(np.sum((decision == -truth) & ~exempt))
            loose = int(np.sum(exempt))
            got_right, got_wrong = correct[(method, n)], wrong[(method, n)]
            if not (sure_right <= got_right <= sure_right + loose
                    and sure_wrong <= got_wrong <= sure_wrong + loose):
                return (f"{method} n={n}: correct/wrong {got_right}/{got_wrong} "
                        f"!= recount {sure_right}/{sure_wrong}")
            affirms[(method, n)] = got_right if truth == 1 else got_wrong

    slack = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    for method in oracle.GUARANTEED:
        if method in methods and any(wrong[(method, n)] / trials > slack for n in grid):
            return f"{method} wrong rate above delta + 3 sigma"
    if "normal" in methods and not any(wrong[("normal", n)] / trials > delta
                                       for n in grid if n <= 100):
        return "Wald never exceeds delta at n <= 100"
    if "exact" in methods and "hoeffding" in methods:
        for n in grid:
            if affirms[("exact", n)] < affirms[("hoeffding", n)]:
                return f"exact affirms fewer than Hoeffding at n={n}"

    # A cost experiment bounds with its own bisected q*, good to 1e-8.
    rate_tol = 0.0 if spec.get("j_req") is None else 1e-8
    if [line.split(",")[0] for line in bound_lines] != ["n"] + [str(n) for n in grid]:
        return "bound.csv rows differ from the grid"
    for line, n in zip(bound_lines[1:], grid):
        got = float(line.split(",")[1])
        ends = [oracle.correctness_bound(q, critical + s * rate_tol, delta, n)
                for s in (-1.0, 1.0)]
        if not min(ends) - 1e-11 <= got <= max(ends) + 1e-11:
            return f"bound.csv n={n}: {got} != {ends[0]:.12g}"
    return None


def _cost_extras(spec, stdout: str, critical: float) -> str | None:
    """Cost experiments print the critical rate and the Hoeffding sample size."""
    extras = dict(line.split(": ", 1) for line in stdout.splitlines()
                  if ": " in line and not line.startswith("wrote"))
    try:
        rate = float(extras["critical_rate"])
        size = int(extras["thm_sample_size"])
    except (KeyError, ValueError):
        return "cost experiment did not print critical_rate and thm_sample_size"
    if abs(rate - critical) > 1e-8:
        return f"critical_rate {rate} != {critical}"
    want = oracle.hoeffding_sample_size(spec["true_rate"], critical, spec["delta"])
    if size != want:
        return f"thm_sample_size {size} != {want}"
    return None
