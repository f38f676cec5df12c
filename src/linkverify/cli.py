"""Command-line front end.

Subcommands:
  verify-stability  decide stability from a trace, JSON verdict on stdout
  verify-cost       decide a cost target from a trace, JSON verdict
  critical-rate     smallest success rate meeting a cost target
  sample-size       theoretical sample count for a (q, rho, delta) margin
  experiment        Monte Carlo run producing correct/wrong/bound CSVs
  simulate          one trajectory plus its model-predicted cost
  sweep             sample-count curves along a rho or q grid

Exit codes: 0 for a decisive verdict or a successful run, 2 when a
verify command returns Undetermined, 1 on input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .channel import draw_trace, load_trace
from .complexity import MarginSpec, bernstein_sample_size, hoeffding_sample_size
from .harness import (load_experiment_config, load_sweep_config,
                      run_cost_experiment, run_stability_experiment,
                      sweep_sample_complexity, write_complexity_csv,
                      write_ledger_csvs)
from .intervals import Method
from .sysmodel import critical_rate, load_plant, lyapunov_cost, simulate
from .verify import Decision, cost_test, general_test, stability_test

# Salt that separates the disturbance stream from the packet stream when
# one seed drives a whole simulation (64-bit golden ratio increment).
_NOISE_SALT = 0x9E3779B97F4A7C15


def _parse_trace(spec: str):
    if spec.startswith("gen:"):
        parts = spec[4:].split(",")
        if len(parts) != 3:
            raise ValueError("trace generator must be gen:q,n,seed")
        return draw_trace(float(parts[0]), int(parts[1]), int(parts[2]))
    return load_trace(spec)


def _print_json(doc: dict) -> None:
    """One JSON line; non-finite floats, which JSON cannot express, print as null."""
    finite = {key: None if isinstance(value, float) and not math.isfinite(value)
              else value for key, value in doc.items()}
    print(json.dumps(finite, allow_nan=False))


def _emit_verdict(verdict) -> int:
    _print_json(verdict.to_dict())
    return 0 if verdict.decision is not Decision.UNDETERMINED else 2


def _cmd_verify_stability(args) -> int:
    plant = load_plant(args.plant)
    trace = _parse_trace(args.trace)
    test = stability_test if plant.is_simple else general_test
    return _emit_verdict(test(plant, trace, args.delta, Method.parse(args.method)))


def _cmd_verify_cost(args) -> int:
    plant = load_plant(args.plant)
    trace = _parse_trace(args.trace)
    verdict = cost_test(plant, trace, args.delta, args.jreq,
                        Method.parse(args.method))
    return _emit_verdict(verdict)


def _cmd_critical_rate(args) -> int:
    plant = load_plant(args.plant)
    rate = critical_rate(plant, args.jreq)
    print("infeasible" if rate is None else f"{rate:.12g}")
    return 0


def _cmd_sample_size(args) -> int:
    if not args.rho > 0.0:
        raise ValueError("spectral radius must be positive")
    spec = MarginSpec(args.q, 1.0 - 1.0 / (args.rho * args.rho), args.delta)
    size = hoeffding_sample_size if args.bound == "hoeffding" else bernstein_sample_size
    print(size(spec))
    return 0


def _cmd_experiment(args) -> int:
    cfg = load_experiment_config(args.config)
    out_dir = args.out or cfg.out
    if out_dir is None:
        raise ValueError("no output directory: pass --out or set 'out' in the config")
    run = run_stability_experiment if cfg.j_req is None else run_cost_experiment
    ledger = run(cfg)
    write_ledger_csvs(ledger, out_dir)
    for name, value in sorted(ledger.extras.items()):
        print(f"{name}: {value}")
    print(f"wrote correct_rate.csv, wrong_rate.csv, bound.csv to {out_dir}")
    return 0


def _cmd_simulate(args) -> int:
    plant = load_plant(args.plant)
    trace = draw_trace(args.q, args.horizon, args.seed)
    trajectory = simulate(plant, trace, args.seed ^ _NOISE_SALT)
    predicted = lyapunov_cost(plant, args.q) if plant.is_simple else None
    _print_json({
        "horizon": trajectory.horizon,
        "q": args.q,
        "running_cost": trajectory.running_cost,
        "predicted_cost": predicted,
    })
    return 0


def _cmd_sweep(args) -> int:
    doc = load_sweep_config(args.config)
    out_dir = doc.pop("out", ".")
    rows = sweep_sample_complexity(args.axis, doc.pop("grid"), **doc)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "complexity.csv")
    write_complexity_csv(rows, path)
    print(f"wrote {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error; argparse's own 2 means Undetermined here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="linkverify",
        description="Sample-based stability and cost verification for "
                    "control loops over packet-drop links.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_verify_args(p):
        p.add_argument("--plant", required=True, help="plant file (JSON)")
        p.add_argument("--trace", required=True,
                       help="trace file, or gen:q,n,seed to synthesize one")
        p.add_argument("--delta", type=float, default=1e-3,
                       help="per-side confidence parameter (default 1e-3)")
        p.add_argument("--method", default="hoeffding",
                       choices=[m.value for m in Method])

    p = sub.add_parser("verify-stability", help="decide mean-square stability")
    add_verify_args(p)
    p.set_defaults(func=_cmd_verify_stability)

    p = sub.add_parser("verify-cost", help="decide a quadratic cost target")
    add_verify_args(p)
    p.add_argument("--jreq", type=float, required=True, help="cost target")
    p.set_defaults(func=_cmd_verify_cost)

    p = sub.add_parser("critical-rate",
                       help="smallest success rate meeting a cost target")
    p.add_argument("--plant", required=True)
    p.add_argument("--jreq", type=float, required=True)
    p.set_defaults(func=_cmd_critical_rate)

    p = sub.add_parser("sample-size", help="theoretical sample requirement")
    p.add_argument("--q", type=float, required=True, help="true success rate")
    p.add_argument("--rho", type=float, required=True, help="spectral radius")
    p.add_argument("--delta", type=float, default=1e-3)
    p.add_argument("--bound", default="hoeffding",
                   choices=["hoeffding", "bernstein"])
    p.set_defaults(func=_cmd_sample_size)

    p = sub.add_parser("experiment", help="Monte Carlo correctness run")
    p.add_argument("--config", required=True, help="experiment config (JSON)")
    p.add_argument("--out", help="output directory for the CSV files")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("simulate", help="simulate one trajectory")
    p.add_argument("--plant", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="sample-count curves along a grid")
    p.add_argument("--axis", required=True, choices=["rho", "q"])
    p.add_argument("--config", required=True, help="sweep config (JSON)")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
