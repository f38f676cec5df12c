"""Command-line interface: subcommands, output shapes, exit codes."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from linkverify import PlantModel, draw_trace, save_plant, save_trace
from linkverify.cli import main

SCALAR_2 = PlantModel.simple([[2.0]])


@pytest.fixture
def plant_file(tmp_path):
    path = tmp_path / "plant.json"
    save_plant(SCALAR_2, path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_stability_affirm(plant_file, capsys):
    code, out, _ = run_cli(capsys, "verify-stability", "--plant", plant_file,
                           "--trace", "gen:0.9,2000,7", "--delta", "1e-3",
                           "--method", "hoeffding")
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"] == "Affirm"
    assert doc["threshold"] == 0.75
    assert doc["n"] == 2000


def test_verify_stability_undetermined_exit_code(plant_file, capsys):
    code, out, _ = run_cli(capsys, "verify-stability", "--plant", plant_file,
                           "--trace", "gen:0.9,10,7")
    assert code == 2
    assert json.loads(out)["decision"] == "Undetermined"


def test_verify_stability_from_trace_file(plant_file, tmp_path, capsys):
    trace_path = tmp_path / "trace.txt"
    save_trace(draw_trace(0.95, 3000, 5), trace_path)
    code, out, _ = run_cli(capsys, "verify-stability", "--plant", plant_file,
                           "--trace", str(trace_path), "--method", "exact")
    assert code == 0
    assert json.loads(out)["method"] == "exact"


def test_verify_stability_general_plant(tmp_path, capsys):
    plant_path = tmp_path / "general.json"
    save_plant(PlantModel(a_open=[[0.5]], a_closed=[[0.5]],
                          q_weight=[[1.0]], w_cov=[[1.0]]), plant_path)
    code, out, _ = run_cli(capsys, "verify-stability", "--plant",
                           str(plant_path), "--trace", "gen:0.5,100,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"] == "Affirm"
    assert doc["flags"] == []


def test_verify_cost(plant_file, capsys):
    code, out, _ = run_cli(capsys, "verify-cost", "--plant", plant_file,
                           "--trace", "gen:0.95,4000,3", "--jreq", "2.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["decision"] == "Affirm"
    assert doc["j_req"] == 2.0


def test_critical_rate(plant_file, capsys):
    code, out, _ = run_cli(capsys, "critical-rate", "--plant", plant_file,
                           "--jreq", "2.0")
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.875, abs=1e-8)
    code, out, _ = run_cli(capsys, "critical-rate", "--plant", plant_file,
                           "--jreq", "0.5")
    assert code == 0
    assert out.strip() == "infeasible"


def test_sample_size(capsys):
    code, out, _ = run_cli(capsys, "sample-size", "--q", "0.9", "--rho", "2",
                           "--delta", "0.01")
    assert (code, out.strip()) == (0, "410")
    code, out, _ = run_cli(capsys, "sample-size", "--q", "0.99", "--rho", "2",
                           "--delta", "0.01", "--bound", "bernstein")
    assert (code, out.strip()) == (0, "36")


def test_sample_size_rejects_critical(capsys):
    code, _, err = run_cli(capsys, "sample-size", "--q", "0.75", "--rho", "2")
    assert code == 1
    assert "error" in err


def test_experiment_writes_csvs(plant_file, tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "plant": plant_file, "true_rate": 0.9, "delta": 1e-3,
        "n_grid": [10, 100], "trials": 50, "methods": ["hoeffding"],
        "seed": 3,
    }))
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg_path),
                           "--out", str(out_dir))
    assert code == 0
    for name in ("correct_rate.csv", "wrong_rate.csv", "bound.csv"):
        assert (out_dir / name).exists()


def test_experiment_requires_out(plant_file, tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"plant": plant_file, "true_rate": 0.9,
                                    "trials": 1, "n_grid": [5]}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path))
    assert code == 1
    assert "out" in err


def test_simulate(plant_file, capsys):
    code, out, _ = run_cli(capsys, "simulate", "--plant", plant_file,
                           "--q", "0.9", "--horizon", "20000", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["horizon"] == 20000
    assert doc["predicted_cost"] == pytest.approx(5.0 / 3.0, rel=1e-9)
    assert doc["running_cost"] == pytest.approx(5.0 / 3.0, rel=0.2)


def test_sweep(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"grid": [1.5, 2.0, 3.0], "q": 0.9,
                                    "delta": 0.01, "out": str(tmp_path)}))
    code, out, _ = run_cli(capsys, "sweep", "--axis", "rho",
                           "--config", str(cfg_path))
    assert code == 0
    lines = (tmp_path / "complexity.csv").read_text().splitlines()
    assert lines[0] == "x,n_hoeffding,n_bernstein"
    assert any(line.startswith("2,410,") for line in lines)


def test_input_errors_exit_1(plant_file, capsys):
    code, _, err = run_cli(capsys, "verify-stability", "--plant", plant_file,
                           "--trace", "gen:1.5,10,0")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "verify-stability",
                           "--plant", "/nonexistent.json",
                           "--trace", "gen:0.5,10,0")
    assert code == 1
    code, _, err = run_cli(capsys, "verify-stability", "--plant", plant_file,
                           "--trace", "gen:0.5,10")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["verify-cost", "--trace", "gen:0.95,4000,3", "--jreq", "nan"],
    ["critical-rate", "--jreq", "nan"],
    ["sample-size", "--q", "0.9", "--rho", "nan"],
])
def test_nan_targets_exit_1(plant_file, capsys, argv):
    if argv[0] != "sample-size":
        argv = argv[:1] + ["--plant", plant_file] + argv[1:]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_plant_file_with_fractional_dimension_exits_1(tmp_path, capsys):
    path = tmp_path / "plant.json"
    path.write_text(json.dumps({"n": 2.7, "a_open": [[1.0, 0.0], [0.0, 1.0]]}))
    code, out, err = run_cli(capsys, "verify-stability", "--plant", str(path),
                             "--trace", "gen:0.9,100,1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "'n'" in err


def test_usage_errors_exit_1(plant_file, capsys):
    # argparse's own code 2 would read as an Undetermined verdict.
    for argv in (["verify-stability", "--plant", plant_file],
                 ["verify-stability", "--plant", plant_file,
                  "--trace", "gen:0.9,100,1", "--method", "bogus"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_near_threshold_cost_verdict(plant_file, capsys):
    # The Hoeffding lower end lands 5e-7 above the threshold 0.75.
    code, out, _ = run_cli(capsys, "verify-cost", "--plant", plant_file,
                           "--trace", "gen:0.8,2000,7",
                           "--delta", "2.8483405369620566e-06", "--jreq", "3.0")
    assert code == 2
    doc = json.loads(out)
    assert doc["decision"] == "Undetermined"
    assert doc["lo"] == pytest.approx(0.7500005, abs=1e-12)


def test_simulate_near_threshold(plant_file, capsys):
    code, out, _ = run_cli(capsys, "simulate", "--plant", plant_file,
                           "--q", "0.7500005", "--horizon", "1000", "--seed", "3")
    assert code == 0
    assert json.loads(out)["predicted_cost"] == pytest.approx(5e5, rel=1e-6)


@pytest.mark.parametrize("command,doc", [
    ("sweep", 5),
    ("sweep", [{}]),
    ("sweep", {"grid": 2.0}),
    ("sweep", {"grid": [2.0], "out": 5}),
    ("experiment", {"plant": "plant.json", "true_rate": 0.9, "n_grid": 5}),
    ("experiment", {"plant": "plant.json", "true_rate": None}),
    ("experiment", {"plant": "plant.json", "true_rate": 0.9, "n_grid": [[5]]}),
    ("experiment", {"plant": "plant.json", "true_rate": 0.9, "out": 5}),
    ("experiment", {"true_rate": 0.9}),
    ("experiment", {"plant": "plant.json", "true_rate": 0.9, "trials": 2.5}),
    ("experiment", {"plant": "plant.json", "true_rate": 0.9, "n_grid": [10.7, 20]}),
    ("experiment", {"plant": "plant.json", "true_rate": 0.9, "trials": True}),
    ("experiment", {"plant": "plant.json", "true_rate": 0.9, "seed": "3"}),
    ("experiment", {"plant": "plant.json", "true_rate": 0.9, "n_grid": ["10"]}),
    ("experiment", {"plant": "plant.json", "true_rate": 0.9, "delta": 0.6,
                    "methods": ["hoeffding", "exact"]}),
    # json.dumps writes the NaN literal, and json.load reads it back.
    ("experiment", {"plant": "plant.json", "true_rate": 0.9, "j_req": math.nan}),
])
def test_malformed_configs_exit_1(tmp_path, capsys, command, doc):
    save_plant(SCALAR_2, tmp_path / "plant.json")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    if command == "sweep":
        argv = [command, "--axis", "rho", "--config", str(cfg_path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def test_non_finite_outputs_print_null(plant_file, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "simulate", "--plant", plant_file,
                           "--q", "0.5", "--horizon", "2000", "--seed", "3")
    assert code == 0
    assert _strict_json(out)["predicted_cost"] is None
    code, out, _ = run_cli(capsys, "simulate", "--plant", plant_file,
                           "--q", "0", "--horizon", "2000", "--seed", "3")
    assert code == 0
    assert _strict_json(out)["running_cost"] is None
    nilpotent = tmp_path / "nilpotent.json"
    nilpotent.write_text(json.dumps({"n": 2, "a_open": [[0, 1], [0, 0]]}))
    code, out, _ = run_cli(capsys, "verify-stability", "--plant", str(nilpotent),
                           "--trace", "gen:0.5,100,1")
    assert code == 0
    doc = _strict_json(out)
    assert doc["threshold"] is None and doc["decision"] == "Affirm"


def test_exact_delta_above_half_exits_1(plant_file, capsys):
    # The one-sided Clopper-Pearson bounds cross above delta = 0.5.
    code, out, err = run_cli(capsys, "verify-stability", "--plant", plant_file,
                             "--trace", "gen:0.6,20,1", "--method", "exact",
                             "--delta", "0.6")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "'exact'" in err and "0.5" in err
    code, out, _ = run_cli(capsys, "verify-stability", "--plant", plant_file,
                           "--trace", "gen:0.6,20,1", "--method", "exact",
                           "--delta", "0.5")
    assert code == 0 and json.loads(out)["method"] == "exact"


def test_diverging_simulate_writes_nothing_to_stderr(plant_file, capfd):
    # A fresh interpreter, so no warning filter of the test run hides one.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "linkverify", "simulate", "--plant", plant_file,
         "--q", "0", "--horizon", "2000", "--seed", "3"],
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert result.returncode == 0
    out, err = capfd.readouterr()
    assert err == ""
    assert _strict_json(out)["running_cost"] is None


def test_diverging_general_simulate_writes_nothing_to_stderr(tmp_path, capfd):
    # rho(Ao) = 3 and every packet dropped: the chunked scan overflows too.
    path = tmp_path / "general.json"
    save_plant(PlantModel(a_open=[[3.0, 0.5], [0.0, 0.5]],
                          a_closed=[[0.5, 0.0], [0.2, 0.3]],
                          q_weight=np.eye(2), w_cov=np.eye(2)), path)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-m", "linkverify", "simulate", "--plant", str(path),
         "--q", "0", "--horizon", "2000", "--seed", "3"],
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert result.returncode == 0
    out, err = capfd.readouterr()
    assert err == ""
    assert _strict_json(out)["running_cost"] is None


def test_repeated_main_matches_fresh_interpreters(plant_file, capsys):
    # The parser is built once per process; later calls must not see the
    # earlier ones.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    calls = (["sample-size", "--q", "0.9", "--rho", "2"],
             ["verify-stability", "--plant", plant_file,
              "--trace", "gen:0.9,2000,1", "--method", "exact"],
             ["critical-rate", "--plant", plant_file, "--jreq", "10"],
             ["sample-size", "--q", "0.9", "--rho", "2", "--bound", "bernstein"])
    for argv in calls:
        code, out, err = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "linkverify", *argv],
                               env=dict(os.environ, PYTHONPATH=str(src)),
                               capture_output=True, text=True, timeout=120)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    with pytest.raises(SystemExit) as exc:
        main(["verify-stability", "--plant", plant_file])
    assert exc.value.code == 1
    assert "--trace" in capsys.readouterr().err
