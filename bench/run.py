"""Benchmark of the linkverify command line, one workload per process.

    python3 bench/run.py --workload verdicts --seed 1 --seconds 30 --trace 0

Workloads: ``verdicts``, ``montecarlo`` and ``cost`` (see README.md).
The program is imported from ``src/`` next to this directory and called
in-process through ``linkverify.cli.main``, one client in a closed loop.
Every request is repeated in interleaved passes over the whole request
list until ``--seconds`` is used up; its latency is the median over the
passes. Outputs are checked against independent computations afterwards.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the first statement

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "_results")
MIN_PASSES = 3
SETUP_PROBES = 8  # fresh set-up processes, spread over the run


@dataclass
class Outcome:
    rc: object          # exit code, None when the call raised
    stdout: str
    error: str | None   # exception with traceback, when the call raised


def _import_program():
    """Import linkverify from this checkout's src/, never from elsewhere."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # before numpy: one single-threaded client
    sys.path.insert(0, SRC)
    try:
        import linkverify
        import linkverify.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import linkverify from {SRC}: {exc}")
    if not os.path.abspath(linkverify.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: linkverify was imported from {linkverify.__file__}")
    return linkverify


def _invoke(main, argv) -> Outcome:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code
        except Exception:  # noqa: BLE001 - a crash is a failed operation
            return Outcome(None, out.getvalue(), traceback.format_exc())
    return Outcome(rc, out.getvalue(), None)


def _reference_loop() -> float:
    """A fixed pure-Python loop; its time tracks host speed, not the program."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i & 7
    return time.perf_counter() - start


def _measure(requests, seconds: float, call, max_passes: int, between):
    """Interleaved passes over the request list until the time is used up.

    Whole passes only, at least MIN_PASSES; a pass is not started when the
    previous one suggests it would end after ``seconds``. ``between`` is
    called after every pass, untimed, with the share of time used.
    """
    latencies = [[] for _ in requests]
    outcomes = [[] for _ in requests]
    reference = []
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for i, req in enumerate(requests):
            argv = req.argv(passes)
            t0 = time.perf_counter()
            outcome = call((i, passes), argv)
            latencies[i].append(time.perf_counter() - t0)
            outcomes[i].append(outcome)
        reference.append(_reference_loop())
        passes += 1
        pass_time = time.perf_counter() - pass_start
        between((time.perf_counter() - start) / seconds)
        elapsed = time.perf_counter() - start
        if passes >= max_passes or (
                passes >= MIN_PASSES and elapsed + pass_time > seconds):
            return latencies, outcomes, reference, passes


def _check(requests, outcomes):
    """(failed operations, wrong outputs, first reasons) over every call."""
    failed = wrong = 0
    reasons = []
    for req, outs in zip(requests, outcomes):
        seen = {}
        for p, out in enumerate(outs):
            key = None if req.varies else (out.rc, out.stdout, out.error)
            if key is not None and key in seen:
                reason = seen[key]
            else:
                reason = req.check(out, p)
                if key is not None:
                    seen[key] = reason
            if reason is not None:
                failed += 1
                wrong += out.error is None and out.rc in (0, 2)
                if len(reasons) < 10:
                    reasons.append(f"{req.name} (pass {p}): {reason}")
    return failed, wrong, reasons


def _setup_probe(args) -> float:
    """Set-up time of a fresh process, which imports and writes inputs again."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        sys.exit(f"bench: set-up process failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def _tail(latencies) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, over all calls."""
    values = sorted(v for per in latencies for v in per)
    if len(values) < 40:
        return "p50", statistics.median(values)
    pct = 100.0 * (1.0 - 10.0 / len(values))
    return f"p{pct:.4g}", values[len(values) - 11]


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verdicts", "montecarlo", "cost"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    lv = _import_program()
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(lv)
    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        requests = workloads.build(args.workload, lv, args.seed % 2**63, work_dir)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(setup_s)
            return 0

        setup = [setup_s]
        probes = 0 if tracer else SETUP_PROBES

        def between(share_used):
            # Set-up probes run between passes, spread over the run, so
            # that they meet the host's slow and fast phases alike.
            while len(setup) <= probes and share_used >= (len(setup) - 1) / probes:
                setup.append(_setup_probe(args))

        if tracer is None:
            call = lambda _req, argv: _invoke(lv.cli.main, argv)
        else:
            call = lambda req, argv: tracer.call(req, _invoke, lv.cli.main, argv)
        latencies, outcomes, reference, passes = _measure(
            requests, args.seconds, call, workloads.MAX_PASSES, between)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        between(1.0)
        failed, wrong, reasons = _check(requests, outcomes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    per_request = [statistics.median(lat) for lat in latencies]
    end_to_end = {
        "latency_p50_ms": (1e3 * statistics.median(per_request), "ms"),
        "work_per_s": (sum(r.units for r in requests) / sum(per_request), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    tail_name, tail = _tail(latencies)
    attempted = len(requests) * passes
    print(f"workload {args.workload} seed {args.seed}: {len(requests)} requests x "
          f"{passes} passes = {attempted} calls, {failed} failed")
    for name, (value, unit) in end_to_end.items():
        if tracer is None or name != "setup_s":
            print(f"  {name} = {value:.6g} {unit}")
    print(f"  latency_{tail_name}_ms = {1e3 * tail:.6g} ms (printed, not gated)")
    print(f"  host.ref_loop_ms = {1e3 * statistics.median(reference):.6g} ms")
    for reason in reasons:
        print(f"  FAILED {reason}", file=sys.stderr)

    if tracer is None:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}
    else:
        layers = tracing.layer_metrics(tracer, requests, passes)
        layers.update(tracing.source_metrics(lv))
        layers["host.ref_loop_ms"] = 1e3 * statistics.median(reference)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
        for name, entry in metrics.items():
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}")

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"requests": [r.name for r in requests],
                   "latency_ms": [[1e3 * v for v in lat] for lat in latencies],
                   "reference_ms": [1e3 * v for v in reference],
                   "setup_s": setup, "failures": reasons, "metrics": metrics},
                  fh, indent=1)
    if tracer is not None:
        tracer.dump(stem + "-spans.jsonl")

    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
