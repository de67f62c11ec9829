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
# Checks whose span time the benchmark declares: sweeps.check.<name>.total_s.
CHECK_METRICS = {
    name[len("sweeps.check."):-len(".total_s")]: name
    for name in PER_LAYER
    if name.startswith("sweeps.check.") and name.endswith(".total_s")
}

# Boundaries the span list names that the program no longer has: the scalar
# apply_operator of the measurement layer and the per-product table writers
# that one column renderer replaced. Their metrics are built on other names.
STALE = {"measurement.apply_operator"} | {
    f"tables.{product}_{kind}"
    for product in ("grid", "states", "cross_section", "fidelities", "verify")
    for kind in ("csv", "json_rows")
}
# Per-op call counts of the scalar names verify reaches (tests/test_cli.py
# counts them per CLI run).
SCALAR_CALL_METRICS = (
    "qubit.apply_operator.calls",
    "qubit.svd.calls",
    "measurement.per_state_gain.calls",
    "measurement.per_state_reversal_prob.calls",
)


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


def test_every_verify_row_is_a_traced_check_function():
    # The tracer names a check's span after the function it wraps, so each
    # row verify reports needs a _check_<name> of that very name.
    prefix = _load_spans().CHECK_PREFIX
    names = sweeps.verify(photons_per_setting=2_000, grid_size=4)["check"].tolist()
    assert set(names) == set(CHECK_METRICS)
    for name in names:
        assert callable(getattr(sweeps, prefix + name, None)), name


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
    # A metric fed by several boundaries (the four estimators of
    # bench.estimate) is reported while any one of them is bound, so an
    # unbound boundary shows only here; equality also catches a stale name
    # bound again.
    assert set(report["absent"]) == STALE
    if workload == "verify_battery":
        untimed = [
            name for name, metric in CHECK_METRICS.items()
            if not result["metrics"][metric]["value"] > 0.0
        ]
        assert not untimed, untimed
        # verify's operator and per-state checks run through the four traced
        # scalar names, so their metrics measure calls, not an unreached layer.
        unreached = [
            name for name in SCALAR_CALL_METRICS if not result["metrics"][name]["value"] > 0.0
        ]
        assert not unreached, unreached
