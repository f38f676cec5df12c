"""Quick tests of the benchmark's oracles, checks and tracing.

They run the program on small inputs, confirm that the checks accept
its outputs, and confirm that each workload's check rejects a
deliberately corrupted output.
"""

import dataclasses
import json
import math
import os

import numpy as np
import pytest

import checks
import oracle
import run
import tracing
import workloads
from linkverify import cli, draw_trace

HERE = os.path.dirname(os.path.abspath(__file__))


def _call(argv):
    return run._invoke(cli.main, argv)


def _with_stdout(out, stdout):
    return dataclasses.replace(out, stdout=stdout)


def test_oracle_reference_values():
    assert oracle.lyapunov_cost([[2.0]], [[1.0]], [[1.0]], 0.9) == pytest.approx(5 / 3)
    assert oracle.scalar_critical_rate(2.0, 2.0) == pytest.approx(0.875, abs=1e-15)
    assert oracle.cost_critical_rate([[2.0]], [[1.0]], [[1.0]], 2.0) == pytest.approx(
        0.875, abs=1e-12)
    lo, hi = oracle.interval("exact", 10, 10, 0.05)
    assert lo == pytest.approx(0.05 ** 0.1, abs=1e-12) and hi == 1.0
    assert oracle.hoeffding_sample_size(0.9, 0.75, 0.01) == 410
    assert oracle.stability_threshold([[2.0, 0.0], [0.0, 1.0]]) == 0.75


def test_stationary_cost_matches_lyapunov_cost():
    a = np.array([[1.1, 0.4], [-0.2, 0.7]])
    q_w, w = np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([[1.0, 0.2], [0.2, 0.5]])
    cost, tol_short = oracle.running_cost_tolerance(a, np.zeros((2, 2)), q_w, w,
                                                    0.8, 10_000)
    assert cost == pytest.approx(oracle.lyapunov_cost(a, q_w, w, 0.8), rel=1e-12)
    _, tol_long = oracle.running_cost_tolerance(a, np.zeros((2, 2)), q_w, w,
                                                0.8, 1_000_000)
    assert tol_long < tol_short / 9.0  # shrinks like 1/sqrt(horizon)


def test_recount_matches_program_draws():
    counts = oracle.success_counts(12345, 5, 0.37, [10, 300])
    for trial in range(5):
        outcomes = draw_trace(0.37, 300, 12345 ^ trial).outcomes
        assert list(counts[trial]) == [outcomes[:10].sum(), outcomes.sum()]


@pytest.fixture
def inputs(tmp_path):
    import linkverify
    return workloads._Inputs(linkverify, str(tmp_path), np.random.default_rng(0))


def test_verdict_check_rejects_flipped_decision(inputs):
    s1 = inputs.plant("S1", [[2.0]])
    general = inputs.plant("G", [[2.0, 0.0], [0.0, 0.8]],
                           a_closed=[[0.3, 0.0], [0.0, 0.1]])
    requests = [
        workloads._verdict_request(inputs, s1, "S1", "stability", 2000, 0.9, "exact"),
        workloads._verdict_request(inputs, s1, "S1", "cost", 2000, 0.9, "normal",
                                   j_req=3.0),
        workloads._verdict_request(inputs, general, "G", "stability", 2000, 0.65,
                                   "bernstein-fast"),
    ]
    for req in requests:
        out = _call(req.argv(0))
        assert req.check(out, 0) is None
        doc = json.loads(out.stdout)
        flipped = "Deny" if doc["decision"] == "Affirm" else "Affirm"
        assert req.check(_with_stdout(out, json.dumps(dict(doc, decision=flipped))), 0)
        assert req.check(_with_stdout(out, json.dumps(dict(doc, lo=doc["lo"] - 1e-6))), 0)


def _experiment(inputs, name, **fields):
    plant_path, mats = inputs.plant(name, fields.pop("a_open"))
    config = inputs.path(f"{name}.cfg.json")
    workloads._experiment_config(config, plant_path, **fields)
    out_dir = inputs.path(f"{name}-out")
    out = _call(["experiment", "--config", config, "--out", out_dir])
    return dict(fields, **mats), out, out_dir


def _corrupt_one_count(out_dir, csv_name, trials):
    path = os.path.join(out_dir, csv_name)
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    method, n, rate = lines[1].split(",")
    lines[1] = f"{method},{n},{(round(float(rate) * trials) + 1) / trials:.12g}"
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("csv_name", ["correct_rate.csv", "wrong_rate.csv"])
def test_montecarlo_check_rejects_ledger_off_by_one(inputs, csv_name):
    spec, out, out_dir = _experiment(
        inputs, "mc", a_open=[[1.0 / math.sqrt(0.51)]], true_rate=0.5, delta=1e-3,
        trials=2000, methods=["hoeffding", "exact", "normal"],
        n_grid=[10, 20, 50, 100], seed=77 << 20)
    assert checks.experiment(spec, out, out_dir) is None
    _corrupt_one_count(out_dir, csv_name, spec["trials"])
    assert "recount" in checks.experiment(spec, out, out_dir)


def test_cost_checks_reject_corrupted_outputs(inputs):
    spec, out, out_dir = _experiment(
        inputs, "c9", a_open=[[2.0]], true_rate=0.95, delta=0.01, j_req=2.0,
        trials=300, methods=["hoeffding"], n_grid=[10, 100, 1638], seed=9 << 20)
    assert checks.experiment(spec, out, out_dir) is None
    bad = _with_stdout(out, out.stdout.replace("thm_sample_size: 1638",
                                               "thm_sample_size: 1637"))
    assert "thm_sample_size" in checks.experiment(spec, bad, out_dir)
    _corrupt_one_count(out_dir, "correct_rate.csv", spec["trials"])
    assert "recount" in checks.experiment(spec, out, out_dir)

    rate_spec = dict(j_req=2.0, rho=2.0)
    plant_path, _ = inputs.plant("rho2", [[2.0]])
    out = _call(["critical-rate", "--plant", plant_path, "--jreq", "2.0"])
    assert checks.critical_rate(rate_spec, out) is None
    assert checks.critical_rate(rate_spec, _with_stdout(out, "0.87500002\n"))

    sim_path, mats = inputs.plant("sim", [[1.25]], q_weight=[[1.5]], w_cov=[[0.8]])
    sim_spec = dict(q=0.9, horizon=20_000, seed=5, **mats)
    out = _call(["simulate", "--plant", sim_path, "--q", "0.9", "--horizon",
                 "20000", "--seed", "5"])
    assert checks.simulate(sim_spec, out) is None
    doc = json.loads(out.stdout)
    for field, factor in (("predicted_cost", 1 + 1e-8), ("running_cost", 1.5)):
        bad = json.dumps(dict(doc, **{field: doc[field] * factor}))
        assert checks.simulate(sim_spec, _with_stdout(out, bad))


def test_tracer_self_times_partition_the_request():
    tracer = tracing.Tracer()
    inner = tracer._wrap(lambda: sum(range(20_000)), "sysmodel.lyapunov",
                         "sysmodel.lyapunov_calls")
    outer = tracer._wrap(lambda: [inner() for _ in range(3)], "verify.decide")
    tracer.call((0, 0), outer)
    times = tracer.self_times()
    total = tracer.spans[0][2] - tracer.spans[0][1]  # the root span starts first
    assert sum(times.values()) == pytest.approx(total, rel=1e-9)
    assert tracer.counts[((0, 0), "sysmodel.lyapunov_calls")] == 3
    assert all(v >= 0.0 for v in times.values())


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [m["name"] for m in doc["end_to_end"]] == [
        "latency_p50_ms", "work_per_s", "peak_rss_mb", "setup_s"]
