"""Monte Carlo engine: tallies, reproducibility, CSV output."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from linkverify import (Decision, ExperimentConfig, Method, PlantModel,
                        draw_trace, hoeffding_sample_size, load_experiment_config,
                        run_cost_experiment, run_stability_experiment,
                        save_plant, sweep_sample_complexity,
                        write_complexity_csv, write_ledger_csvs)
from linkverify.harness import _success_counts
from linkverify.intervals import interval_from_counts
from linkverify.sysmodel import lyapunov_cost, stability_threshold
from linkverify.verify import decide_cost, decide_stability

SCALAR_2 = PlantModel.simple([[2.0]])
THREE_METHODS = (Method.HOEFFDING, Method.EXACT_BINOMIAL, Method.NORMAL_APPROX)


def small_config(**overrides):
    base = dict(plant=SCALAR_2, true_rate=0.9, delta=1e-3,
                n_grid=(10, 50, 200), trials=200, seed=12345,
                methods=(Method.HOEFFDING,))
    base.update(overrides)
    return ExperimentConfig(**base)


def test_single_cell_ledger():
    ledger = run_stability_experiment(small_config(trials=1, n_grid=(1,)))
    cell = ledger.cell(Method.HOEFFDING, 1)
    assert cell.affirm + cell.deny + cell.undetermined == 1


def test_cell_counts_partition_trials():
    cfg = small_config(methods=THREE_METHODS)
    ledger = run_stability_experiment(cfg)
    for method in cfg.methods:
        for n in cfg.n_grid:
            cell = ledger.cell(method, n)
            assert cell.affirm + cell.deny + cell.undetermined == cfg.trials
            assert cell.correct + cell.wrong <= cfg.trials
            assert min(cell.affirm, cell.deny, cell.undetermined,
                       cell.correct, cell.wrong) >= 0


def test_stable_truth_labels():
    # q=0.9 above threshold 0.75: Affirm is correct, Deny is wrong.
    ledger = run_stability_experiment(small_config(n_grid=(2000,)))
    cell = ledger.cell(Method.HOEFFDING, 2000)
    assert cell.correct == cell.affirm
    assert cell.wrong == cell.deny
    assert cell.correct > 190  # nearly every trial decides by n=2000


def test_unstable_truth_labels():
    cfg = small_config(true_rate=0.3, n_grid=(2000,))
    ledger = run_stability_experiment(cfg)
    cell = ledger.cell(Method.HOEFFDING, 2000)
    assert cell.correct == cell.deny
    assert cell.wrong == cell.affirm


def test_degenerate_perfect_link_never_wrong():
    ledger = run_stability_experiment(small_config(true_rate=1.0))
    for n in (10, 50, 200):
        assert ledger.cell(Method.HOEFFDING, n).wrong == 0


def test_affirm_rate_nondecreasing_on_dyadic_grid():
    cfg = small_config(trials=400, n_grid=(64, 128, 256, 512, 1024, 2048))
    ledger = run_stability_experiment(cfg)
    rates = [ledger.affirm_rate(Method.HOEFFDING, n) for n in cfg.n_grid]
    sigma = 3.0 * math.sqrt(0.25 / cfg.trials)
    assert all(b >= a - 2 * sigma for a, b in zip(rates, rates[1:]))
    for n, rate in zip(cfg.n_grid, rates):
        assert rate >= ledger.bound[n] - sigma


CONTRACTIVE = PlantModel.simple([[0.5]])  # threshold -3
NILPOTENT = PlantModel.simple([[0.0, 1.0], [0.0, 0.0]])  # threshold -inf
LOW_THRESHOLD = PlantModel.simple([[1.0 / math.sqrt(0.95)]])  # threshold 0.05
NEAR_CRITICAL = PlantModel.simple([[1.0 / math.sqrt(0.51)]])  # threshold 0.49


def reference_cells(cfg):
    """Per-trial tally: every trial's count is decided on its own."""
    if cfg.j_req is None:
        threshold = stability_threshold(cfg.plant)
        truth = Decision.AFFIRM if cfg.true_rate > threshold else Decision.DENY
        decide = lambda iv: decide_stability(threshold, iv)
    else:
        cost = lyapunov_cost(cfg.plant, cfg.true_rate)
        truth = Decision.AFFIRM if cost <= cfg.j_req else Decision.DENY
        decide = lambda iv: decide_cost(cfg.plant, cfg.j_req, iv)
    wrong = Decision.DENY if truth is Decision.AFFIRM else Decision.AFFIRM
    counts = _success_counts(cfg)
    cells = {}
    for method in cfg.methods:
        for col, n in enumerate(cfg.n_grid):
            memo = {}  # the same count always gets the same decision
            tally = dict.fromkeys(Decision, 0)
            for k in counts[:, col].tolist():
                if k not in memo:
                    memo[k] = decide(interval_from_counts(method, k, n, cfg.delta))
                tally[memo[k]] += 1
            cells[(method.value, n)] = (
                tally[Decision.AFFIRM], tally[Decision.DENY],
                tally[Decision.UNDETERMINED], tally[truth], tally[wrong])
    return cells


ALL_METHODS = tuple(Method)
# The one-sided exact bounds cross once delta exceeds 0.5.
CLOSED_FORM = (Method.HOEFFDING, Method.BERNSTEIN_FAST, Method.NORMAL_APPROX)


@pytest.mark.parametrize("plant,true_rate,delta,n_grid,j_req,methods", [
    (SCALAR_2, 0.9, 1e-3, (1, 2, 5, 10, 50, 200), None, ALL_METHODS),
    (SCALAR_2, 0.0, 1e-3, (1, 10, 100), None, ALL_METHODS),
    (SCALAR_2, 1.0, 1e-3, (1, 10, 100), None, ALL_METHODS),
    (SCALAR_2, 0.7, 0.5, (1, 3, 20, 400), None, ALL_METHODS),  # Wald z = 0
    (SCALAR_2, 0.7, 0.6, (1, 3, 20, 400), None, CLOSED_FORM),
    (CONTRACTIVE, 0.3, 1e-3, (1, 10, 100), None, ALL_METHODS),
    (NILPOTENT, 0.3, 1e-3, (1, 10, 100), None, ALL_METHODS),
    (LOW_THRESHOLD, 0.1, 1e-3, (1, 5, 10, 20, 40), None, ALL_METHODS),  # Wald lo < 0
    (NEAR_CRITICAL, 0.5, 1e-3, (10, 100, 1000, 2000), None, ALL_METHODS),
    (SCALAR_2, 0.95, 0.01, (1, 10, 100, 1638), 2.0, ALL_METHODS),
    (SCALAR_2, 0.0, 0.01, (1, 10, 100), 2.0, ALL_METHODS),
    (SCALAR_2, 1.0, 0.01, (1, 10, 100), 2.0, ALL_METHODS),
    (SCALAR_2, 0.85, 0.5, (1, 3, 20, 400), 2.0, ALL_METHODS),
    (SCALAR_2, 0.85, 0.6, (1, 3, 20, 400), 2.0, CLOSED_FORM),
    (CONTRACTIVE, 0.5, 1e-3, (1, 10, 100, 1000), 1.2, ALL_METHODS),  # q* = 1/3
    (NILPOTENT, 0.7, 1e-3, (1, 10, 100, 1000), 2.5, ALL_METHODS),  # J = 3 - q
])
def test_cutoff_tally_matches_per_trial_reference(plant, true_rate, delta,
                                                  n_grid, j_req, methods):
    cfg = small_config(plant=plant, true_rate=true_rate, delta=delta,
                       n_grid=n_grid, j_req=j_req, methods=methods)
    run = run_stability_experiment if j_req is None else run_cost_experiment
    ledger = run(cfg)
    expected = reference_cells(cfg)
    assert ledger.cells.keys() == expected.keys()
    for key, cell in ledger.cells.items():
        assert (cell.affirm, cell.deny, cell.undetermined, cell.correct,
                cell.wrong) == expected[key], key


def test_rejects_rate_on_threshold():
    with pytest.raises(ValueError):
        run_stability_experiment(small_config(true_rate=0.75))


def test_cost_experiment_reports_sample_size():
    cfg = small_config(true_rate=0.95, delta=0.01, j_req=2.0,
                       n_grid=(100, 1638), trials=150)
    ledger = run_cost_experiment(cfg)
    assert ledger.extras["critical_rate"] == pytest.approx(0.875, abs=1e-8)
    assert ledger.extras["thm_sample_size"] == 1638
    cell = ledger.cell(Method.HOEFFDING, 1638)
    assert cell.correct == cell.affirm  # J(0.95)=1.25 <= 2, so Affirm is right
    assert cell.correct >= 140


def test_cost_experiment_rejects_infeasible_target():
    with pytest.raises(ValueError):
        run_cost_experiment(small_config(j_req=0.5))


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(n_grid=(10, 10))
    with pytest.raises(ValueError):
        small_config(n_grid=())
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(true_rate=1.5)
    with pytest.raises(ValueError):
        small_config(methods=())
    with pytest.raises(ValueError):
        small_config(delta=0.0)


def test_config_rejects_nan_cost_target():
    with pytest.raises(ValueError, match="j_req"):
        small_config(j_req=math.nan)


def test_config_constructor_checks_integer_fields():
    cfg = small_config(n_grid=(10, 2e1, np.int64(50)), trials=2e3, seed=7.0)
    assert cfg.n_grid == (10, 20, 50) and cfg.trials == 2000 and cfg.seed == 7
    assert all(type(n) is int for n in (*cfg.n_grid, cfg.trials, cfg.seed))
    for key, value in (("n_grid", (10.7, 20)), ("n_grid", 5), ("n_grid", ("10",)),
                       ("trials", 2.5), ("trials", True), ("seed", 3.9),
                       ("seed", "3"), ("seed", float("inf"))):
        with pytest.raises(ValueError, match=repr(key)):
            small_config(**{key: value})


def test_config_rejects_exact_above_half():
    # The one-sided exact bounds cross above delta = 0.5: rejected before
    # any trace is drawn.
    with pytest.raises(ValueError, match="'exact'"):
        small_config(delta=0.6, methods=(Method.HOEFFDING, Method.EXACT_BINOMIAL))
    assert small_config(delta=0.5, methods=(Method.EXACT_BINOMIAL,)).delta == 0.5
    assert small_config(delta=0.6).delta == 0.6


def test_csv_output_and_reproducibility(tmp_path):
    cfg = small_config(methods=THREE_METHODS, trials=100)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    write_ledger_csvs(run_stability_experiment(cfg), out_a)
    write_ledger_csvs(run_stability_experiment(cfg), out_b)
    for name in ("correct_rate.csv", "wrong_rate.csv", "bound.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    correct = (out_a / "correct_rate.csv").read_bytes()
    assert b"\r" not in correct
    lines = correct.decode().splitlines()
    assert lines[0] == "method,n,rate"
    assert len(lines) == 1 + len(THREE_METHODS) * len(cfg.n_grid)
    # Rows are sorted by (method, n).
    keys = [(row.split(",")[0], int(row.split(",")[1])) for row in lines[1:]]
    assert keys == sorted(keys)

    bound_lines = (out_a / "bound.csv").read_text().splitlines()
    assert bound_lines[0] == "n,bound"
    assert len(bound_lines) == 1 + len(cfg.n_grid)


def test_csv_12_significant_digits(tmp_path):
    cfg = small_config(trials=3, n_grid=(10, 2000))
    write_ledger_csvs(run_stability_experiment(cfg), tmp_path)
    for line in (tmp_path / "bound.csv").read_text().splitlines()[1:]:
        value = line.split(",")[1]
        assert value == f"{float(value):.12g}"


def test_seed_changes_the_sample_paths():
    a = _success_counts(small_config(trials=300, n_grid=(50,)))
    b = _success_counts(small_config(trials=300, n_grid=(50,), seed=999))
    assert not np.array_equal(a, b)
    assert np.array_equal(a, _success_counts(small_config(trials=300, n_grid=(50,))))


def test_sweep_rows():
    rows = sweep_sample_complexity("rho", [1.5, 2.0, 3.0], q=0.9, delta=0.01)
    by_x = {x: (nh, nb) for x, nh, nb in rows}
    assert by_x[2.0][0] == 410
    rows = sweep_sample_complexity("q", [0.9, 0.99], rho=2.0, delta=0.01)
    by_x = {x: (nh, nb) for x, nh, nb in rows}
    assert by_x[0.9][0] == 410
    assert by_x[0.99] == (160, 36)


def test_sweep_axes_and_critical_guard():
    with pytest.raises(ValueError):
        # Threshold at rho=2 is exactly q=0.75.
        sweep_sample_complexity("q", [0.75 + 1e-9], rho=2.0)
    for axis in ("diagonal", "spectral_radius", "rate"):
        with pytest.raises(ValueError):
            sweep_sample_complexity(axis, [1.0])


def test_complexity_csv(tmp_path):
    rows = sweep_sample_complexity("rho", [1.5, 2.0], q=0.9, delta=0.01)
    path = tmp_path / "complexity.csv"
    write_complexity_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,n_hoeffding,n_bernstein"
    assert lines[2].startswith("2,410,")


def test_config_file_loading(tmp_path):
    plant_path = tmp_path / "plant.json"
    save_plant(SCALAR_2, plant_path)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "plant": "plant.json", "true_rate": 0.9, "delta": 0.01,
        "n_grid": [10, 20], "trials": 5, "methods": ["hoeffding", "exact"],
        "seed": 7,
    }))
    cfg = load_experiment_config(cfg_path)
    assert cfg.true_rate == 0.9
    assert cfg.methods == (Method.HOEFFDING, Method.EXACT_BINOMIAL)
    assert cfg.plant.a_open[0, 0] == 2.0
    assert cfg.j_req is None


def test_config_file_inline_plant_and_defaults(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "plant": {"n": 1, "a_open": [[2.0]]}, "true_rate": 0.5,
        "delta": None, "j_req": None,  # null counts as absent
    }))
    cfg = load_experiment_config(cfg_path)
    assert cfg.delta == 1e-3
    assert cfg.trials == 1000
    assert cfg.n_grid[-1] == 2000
    assert cfg.j_req is None


def test_config_file_integer_fields(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "plant": {"n": 1, "a_open": [[2.0]]}, "true_rate": 0.5,
        "n_grid": [10, 2e1, 50.0], "trials": 2e3, "seed": 7.0,
    }))
    cfg = load_experiment_config(cfg_path)
    assert cfg.n_grid == (10, 20, 50) and cfg.trials == 2000 and cfg.seed == 7
    assert all(type(n) is int for n in (*cfg.n_grid, cfg.trials, cfg.seed))
    for key, value in (("trials", 2.5), ("n_grid", [10.7, 20]), ("seed", True),
                       ("trials", "2000"), ("seed", float("inf"))):
        cfg_path.write_text(json.dumps({
            "plant": {"n": 1, "a_open": [[2.0]]}, "true_rate": 0.5, key: value}))
        with pytest.raises(ValueError, match=repr(key)):
            load_experiment_config(cfg_path)


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "plant": {"n": 1, "a_open": [[2.0]]}, "true_rate": 0.5, "burnin": 10,
    }))
    with pytest.raises(ValueError):
        load_experiment_config(cfg_path)


def test_success_counts_memory_stays_near_the_result():
    # Outcomes are summed per block of trials, never as a per-outcome
    # int64 prefix sum of the whole experiment.
    cfg = small_config(n_grid=(10, 20, 50, 100, 200, 300, 500, 1000, 1500, 2000),
                       trials=10_000)
    tracemalloc.start()
    try:
        counts = _success_counts(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.shape == (10_000, 10)
    assert peak < counts.nbytes + 512 * 1024


def test_success_counts_match_per_trial_prefix_sums():
    cfg = small_config(n_grid=(1, 7, 50, 51, 333), trials=37, seed=2**63 + 5)
    expected = [np.cumsum(draw_trace(cfg.true_rate, 333, cfg.seed ^ t).outcomes)
                [np.asarray(cfg.n_grid) - 1] for t in range(cfg.trials)]
    assert np.array_equal(_success_counts(cfg), expected)
    single = small_config(n_grid=(40,), trials=3)
    assert _success_counts(single).tolist() == [
        [draw_trace(0.9, 40, single.seed ^ t).successes] for t in range(3)]
