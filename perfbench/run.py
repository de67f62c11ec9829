"""Benchmark of the wmtradeoff command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload lattice_sampled --seed 1 --seconds 30 --trace 0

Each run is one process holding one closed-loop client on one thread. It
imports ``wmtradeoff.cli`` from ``src/`` and calls ``main(argv)`` in-process
with stdout captured in memory. One untimed warm-up op comes first; then ops
run back to back until ``--seconds`` have passed. Every op gets its own
``--seed``, derived from the benchmark's ``--seed``, and every op's output is
checked (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall time
of a fresh interpreter importing ``wmtradeoff.cli``, sampled once after each
timed op), ``op_s.p50`` (median op wall time) and ``peak_rss_mb``.
``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics of the traced ones (median over ops, per op), plus the tracing
overhead; its spans are written to ``perfbench/out/spans-<workload>.npz``.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics``. The line before it is a report with the environment, the
op-time distribution (p90 with its sample count), the error rate and every
op that failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from workloads import VERIFY_CHECKS, WORKLOAD_NAMES, CallResult, Outcome, load_workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# setup_s is the median over fresh interpreters, one timed after each timed
# op so that the samples spread over the whole run, and at least this many.
SETUP_SAMPLES_MIN = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s.p50": "s",
    "peak_rss_mb": "MB",
}

SELF_TIMED_SPANS = (
    "bench.substream", "bench.simulate_counts", "bench.estimate",
    "bench.simulate_tomography", "measurement.per_state_gain",
    "measurement.per_state_reversal_prob", "qubit.apply_operator",
    "sweeps.haar_average_oracle", "sweeps.verify", "sweeps.grid_sweep",
    "sweeps.state_sweep", "sweeps.cross_section", "sweeps.reversal_fidelity_sweep",
    "cli.parse_config", "cli.dispatch",
)
COUNTED_SPANS = (
    "bench.substream", "bench.simulate_counts", "bench.estimate",
    "bench.simulate_tomography", "measurement.per_state_gain",
    "measurement.per_state_reversal_prob", "qubit.apply_operator",
    "sweeps.haar_average_oracle",
)

PER_LAYER_UNITS = {
    "ops_per_s": "1/s",
    **{f"{span}.calls": "count" for span in COUNTED_SPANS},
    **{f"{span}.self_s": "s" for span in SELF_TIMED_SPANS},
    "bench.binomial_draws": "count",
    "bench.draws_per_generator": "draw/gen",
    "qubit.svd.calls": "count",
    "qubit.svd_per_branch": "svd/branch",
    **{f"sweeps.check.{name}.total_s": "s" for name in VERIFY_CHECKS},
    "sweeps.verify.stat_fail": "count",
    "tables.self_s": "s",
    "tables.bytes_out": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}
# Per-layer metrics that come from the run itself rather than a traced boundary.
RUN_LEVEL_METRICS = frozenset(
    {"ops_per_s", "sweeps.verify.stat_fail", "trace.spans", "trace.overhead_s",
     "error_rate"}
)


def run_call(main, argv: tuple[str, ...]) -> CallResult:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except Exception:  # a crash is a failed op, not the end of the run
        code = -1
        err.write(traceback.format_exc())
    return CallResult(argv, code, out.getvalue(), err.getvalue())


def op_seeds(workload: str, seed: int):
    """Distinct per-op CLI seeds, fixed by the workload and the benchmark seed."""
    base = random.Random(f"{workload}:{seed}").getrandbits(40) * 1000
    return itertools.count(base)


def setup_sample() -> float:
    """Wall time of one fresh interpreter importing ``wmtradeoff.cli``."""
    code = f"import sys; sys.path.insert(0, {str(SRC_DIR)!r}); import wmtradeoff.cli"
    t0 = time.perf_counter()
    # No timeout: with one, wait() polls in sleeps of up to 50 ms, which
    # would quantise the measurement.
    subprocess.run([sys.executable, "-c", code], check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):  # no git, or not a repository
        return "unknown"
    return proc.stdout.strip()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "loadavg_start": list(os.getloadavg()),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(op: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced op from its span totals and counters."""
    values = {f"{span}.calls": op.get(f"{span}.calls", 0.0) for span in COUNTED_SPANS}
    values.update({f"{span}.self_s": op.get(f"{span}.self_s", 0.0) for span in SELF_TIMED_SPANS})
    for name in VERIFY_CHECKS:
        key = f"sweeps.check.{name}.total_s"
        values[key] = op.get(key, 0.0)
    generators = values["bench.substream.calls"]
    values["bench.binomial_draws"] = op.get("bench.binomial_draws", 0.0)
    values["bench.draws_per_generator"] = _ratio(values["bench.binomial_draws"], generators)
    values["qubit.svd.calls"] = op.get("qubit.svd", 0.0)
    values["qubit.svd_per_branch"] = _ratio(
        values["qubit.svd.calls"], values["qubit.apply_operator.calls"]
    )
    values["tables.self_s"] = sum(
        v for k, v in op.items() if k.startswith("tables.") and k.endswith(".self_s")
    )
    values["tables.bytes_out"] = op.get("tables.bytes_out", 0.0)
    values["trace.spans"] = op["trace.spans"]
    return values


def _metric_source(name: str) -> str | None:
    """The traced boundary a per-layer metric is built on (None: the run itself)."""
    if name in RUN_LEVEL_METRICS:
        return None
    if name.startswith("bench.binomial_draws") or name.startswith("bench.draws_per"):
        return "bench.substream"
    if name.startswith("qubit.svd"):
        return "qubit.svd"
    if name.startswith("tables."):
        return "tables"
    if name.startswith("sweeps.check."):
        return "sweeps.check"
    return name.rsplit(".", 1)[0]


class Run:
    def __init__(self, workload, main, seed: int, tracer, time_setup: bool) -> None:
        self.workload = workload
        self.main = main
        self.seeds = op_seeds(workload.name, seed)
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[dict] = []
        self.stat_fail = 0
        self.time_setup = time_setup
        self.setup_s: list[float] = []
        self.untraced_s: list[float] = []
        self.traced_s: list[float] = []
        self.layer_ops: list[dict[str, float]] = []

    def op(self, seed: int, traced: bool = False) -> tuple[float, list[CallResult]]:
        """Run, time and check one op; returns its wall time and outputs."""
        gc.collect()
        if traced:
            self.tracer.install()
            self.tracer.begin_op()
        t0 = time.perf_counter()
        try:
            results = [
                run_call(self.main, argv + ("--seed", str(seed))) for argv in self.workload.calls
            ]
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                self.layer_ops.append(layer_values(self.tracer.end_op()))
                self.tracer.uninstall()
        try:
            outcome = self.workload.check(results, seed)
        except Exception:  # a checker crash counts against the op, visibly
            outcome = Outcome("error", traceback.format_exc())
        self.record(seed, outcome)
        return elapsed, results

    def record(self, seed: int, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.kind == "error":
            self.failures.append({"seed": seed, "detail": outcome.detail})
        elif outcome.kind == "stat_fail":
            self.stat_fail += 1

    def loop(self, seconds: float) -> None:
        self.op(next(self.seeds))  # warm-up, untimed
        if self.time_setup:
            setup_sample()  # untimed: the first also writes bytecode caches
        first_seed, first_outputs = None, None
        start = time.perf_counter()
        k = 0
        # Start an op only if a typical one, with its setup sample, still
        # ends within the run.
        while k < (2 if self.tracer else 1) or (
            time.perf_counter() - start + statistics.median(self.untraced_s)
            + (statistics.median(self.setup_s) if self.time_setup else 0.0)
            < seconds
        ):
            seed = next(self.seeds)
            traced = self.tracer is not None and k % 2 == 1
            elapsed, results = self.op(seed, traced)
            if traced:
                self.traced_s.append(elapsed)
            else:
                self.untraced_s.append(elapsed)
            if self.time_setup:
                self.setup_s.append(setup_sample())
            if first_seed is None:
                first_seed, first_outputs = seed, [r.stdout for r in results]
            k += 1
        while self.time_setup and len(self.setup_s) < SETUP_SAMPLES_MIN:
            self.setup_s.append(setup_sample())
        if self.workload.rerun_check:
            _, again = self.op(first_seed)
            if [r.stdout for r in again] != first_outputs:
                self.failures.append(
                    {"seed": first_seed, "detail": "rerun of the same argv changed bytes"}
                )


def _percentile_report(times: list[float]) -> dict:
    times = sorted(times)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
    return {
        "n": len(times),
        "p50": statistics.median(times),
        "p90": p90,
        "beyond_p90": sum(t > p90 for t in times),
        "min": times[0],
        "max": times[-1],
    }


def end_to_end_metrics(run: Run) -> dict[str, float]:
    return {
        "setup_s": statistics.median(run.setup_s),
        "op_s.p50": statistics.median(run.untraced_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(run: Run) -> dict[str, float]:
    metrics = {
        name: statistics.median(op[name] for op in run.layer_ops) for name in run.layer_ops[0]
    }
    metrics["ops_per_s"] = len(run.untraced_s) / sum(run.untraced_s)
    metrics["trace.overhead_s"] = statistics.median(run.traced_s) - statistics.median(
        run.untraced_s
    )
    metrics["sweeps.verify.stat_fail"] = float(run.stat_fail)
    metrics["error_rate"] = len(run.failures) / run.attempted
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "wmtradeoff" / "cli.py").is_file():
        print(f"wmtradeoff sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    env = environment()

    from wmtradeoff import bench, cli, measurement, qubit, sweeps, tables

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(
            {"cli": cli, "sweeps": sweeps, "bench": bench,
             "measurement": measurement, "qubit": qubit, "tables": tables}
        )
    workload = load_workload(args.workload)
    run = Run(workload, cli.main, args.seed, tracer, time_setup=not args.trace)
    run.loop(args.seconds)

    if tracer:
        metrics = per_layer_metrics(run)
        units = PER_LAYER_UNITS
        absent = [
            name for name in units
            if _metric_source(name) is not None and not tracer.provides(_metric_source(name))
        ]
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
    else:
        metrics = end_to_end_metrics(run)
        units = END_TO_END_UNITS
        absent = []

    env["loadavg_end"] = list(os.getloadavg())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "op_s": _percentile_report(run.untraced_s),
        "ops_per_s": len(run.untraced_s) / sum(run.untraced_s),
        "op_s_all": run.untraced_s,
        "setup_s_all": run.setup_s,
        "traced_op_s": _percentile_report(run.traced_s) if run.traced_s else None,
        "error_rate": len(run.failures) / run.attempted,
        "stat_fail": run.stat_fail,
        "failures": run.failures[:10],
        "absent": absent + (tracer.absent if tracer else []),
    }
    for failure in run.failures[:5]:
        print(f"op with seed {failure['seed']} failed: {failure['detail']}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name not in absent
        },
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
