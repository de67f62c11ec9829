"""The program keeps what the benchmark in ``perfbench/`` relies on.

``perfbench/spans.py`` traces the program by rebinding named functions in
its modules. A name that is gone is skipped and every per-layer metric built
on it drops out of the traced run's result line, which then no longer holds
the per-layer set that ``BENCHMARK.json`` declares. These tests fail as soon
as a renamed or unbound boundary would do that.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from wmtradeoff import bench, cli, measurement, qubit, sweeps, tables

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

# Boundaries the span list names that the program no longer has: the scalar
# apply_operator of the measurement layer and the per-product table writers
# that one column renderer replaced. Their metrics are built on other names.
STALE = {"measurement.apply_operator"} | {
    f"tables.{product}_{kind}"
    for product in ("grid", "states", "cross_section", "fidelities", "verify")
    for kind in ("csv", "json_rows")
}


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH_DIR / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_live_boundary_and_restores_it():
    modules = {"cli": cli, "sweeps": sweeps, "bench": bench,
               "measurement": measurement, "qubit": qubit, "tables": tables}
    before = {key: dict(vars(module)) for key, module in modules.items()}
    physical = vars(qubit.Operator2)["is_physical_kraus"]
    tracer = _load_spans().Tracer(modules)
    tracer.install()
    try:
        assert set(tracer.absent) <= STALE
        assert sweeps.haar_average_oracle is not before["sweeps"]["haar_average_oracle"]
    finally:
        tracer.uninstall()
    for key, module in modules.items():
        assert all(vars(module)[name] is value for name, value in before[key].items()), key
    assert vars(qubit.Operator2)["is_physical_kraus"] is physical


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert set(result["metrics"]) == PER_LAYER
    assert set(report["absent"]) <= STALE
