"""Tests of the benchmark itself: its checkers, its tracer and a short run.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from wmtradeoff import bench, cli, measurement, sweeps, tables  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _verify_result(verdicts: dict[str, str], exit_code: int) -> workloads.CallResult:
    checks = [
        {"check": name, "verdict": verdicts.get(name, "PASS")} for name in workloads.VERIFY_CHECKS
    ]
    return workloads.CallResult(("verify",), exit_code, json.dumps({"checks": checks}), "")


def test_mutated_reversal_is_an_error():
    result = run.run_call(cli.main, ("verify", "--mutate-reversal", "--seed", "7"))
    assert result.exit_code == 2
    outcome = workloads.classify_verify(result)
    assert outcome.kind == "error"
    assert "reversal_exactness" in outcome.detail


@pytest.mark.parametrize(
    "verdicts, exit_code, kind",
    [
        ({}, 0, "ok"),
        ({"oracle_agreement": "FAIL"}, 2, "stat_fail"),
        ({"oracle_agreement": "FAIL", "estimator_consistency": "FAIL"}, 2, "stat_fail"),
        ({"oracle_agreement": "FAIL", "boundary_law": "FAIL"}, 2, "error"),
        ({"rng_determinism": "FAIL"}, 2, "error"),
        ({"oracle_agreement": "FAIL"}, 1, "error"),
        ({"oracle_agreement": "FAIL"}, 0, "error"),
        ({}, 2, "error"),
    ],
)
def test_verify_classification(verdicts, exit_code, kind):
    assert workloads.classify_verify(_verify_result(verdicts, exit_code)).kind == kind


def test_verify_classification_rejects_malformed_reports():
    assert workloads.classify_verify(workloads.CallResult(("verify",), 0, "{", "")).kind == "error"
    short = json.dumps({"checks": [{"check": "boundary_law", "verdict": "PASS"}]})
    missing_checks = workloads.CallResult(("verify",), 0, short, "")
    assert workloads.classify_verify(missing_checks).kind == "error"


def test_exact_checker_compares_bytes():
    refs = {name: workloads.read_reference(name) for name in workloads.EXACT_CALLS}
    seed = 12345
    outputs = [text.replace(workloads.SEED_PLACEHOLDER, str(seed)) for text in refs.values()]
    results = [
        workloads.CallResult(argv, 0, out, "")
        for argv, out in zip(workloads.EXACT_CALLS.values(), outputs)
    ]
    assert workloads.check_exact(results, seed, refs).kind == "ok"
    assert workloads.check_exact(results, seed + 1, refs).kind == "error"
    changed = list(results)
    changed[2] = workloads.CallResult(changed[2].argv, 0, outputs[2].replace("0.75", "0.76", 1), "")
    assert workloads.check_exact(changed, seed, refs).kind == "error"


def test_exact_reference_matches_the_program():
    refs = {name: workloads.read_reference(name) for name in workloads.EXACT_CALLS}
    seed = 99
    results = [
        run.run_call(cli.main, argv + ("--seed", str(seed)))
        for argv in workloads.EXACT_CALLS.values()
    ]
    assert workloads.check_exact(results, seed, refs).kind == "ok"


def test_lattice_checker_tolerance():
    reference = workloads.read_reference(workloads.LATTICE_REFERENCE)

    def outcome(text):
        result = workloads.CallResult(("sweep-grid",), 0, text, "")
        return workloads.check_lattice([result], 0, reference).kind

    assert outcome(reference) == "ok"
    lines = reference.splitlines(keepends=True)
    fields = lines[5].rstrip("\n").split(",")
    shifted = float(fields[5]) + 0.02  # beyond 5/sqrt(1e5) ~ 0.0158
    fields[5], fields[7] = f"{shifted:.9f}", f"{6 * shifted + float(fields[6]):.9f}"
    assert outcome("".join(lines[:5] + [",".join(fields) + "\n"] + lines[6:])) == "error"
    analytic = lines[5].replace(lines[5].split(",")[2], "0.123456789", 1)
    assert outcome("".join(lines[:5] + [analytic] + lines[6:])) == "error"
    assert outcome("".join(lines[:-1])) == "error"


def test_sampled_lattice_passes_its_check():
    argv = ("sweep-grid",) + workloads.LATTICE_SAMPLED_FLAGS + ("--seed", "3")
    result = run.run_call(cli.main, argv)
    reference = workloads.read_reference(workloads.LATTICE_REFERENCE)
    assert workloads.check_lattice([result], 3, reference).kind == "ok"


def test_self_time_counts_overlapping_children_once():
    # op(0..10) > grid(1..9) > two pool-thread children (2..6) and (4..8)
    table = np.array(
        [
            (1, 0, 0, 1.0, 9.0),
            (2, 1, 0, 2.0, 6.0),
            (3, 1, 0, 4.0, 8.0),
            (0, -1, 0, 0.0, 10.0),
        ]
    )
    covered = spans._covered_by_children(table, table[:, 1].astype(np.int64))
    assert covered.tolist() == [8.0, 4.0, 2.0, 10.0]


def test_tracer_restores_names_and_reports_missing_boundaries():
    modules = {"cli": cli, "sweeps": sweeps, "bench": bench,
               "measurement": measurement, "qubit": types.SimpleNamespace(), "tables": tables}
    original = sweeps.simulate_counts
    tracer = spans.Tracer(modules)
    tracer.install()
    try:
        assert sweeps.simulate_counts is not original
        assert "qubit.Operator2.is_physical_kraus" in tracer.absent
        assert not tracer.provides("qubit.svd")
        assert tracer.provides("bench.simulate_counts")
    finally:
        tracer.uninstall()
    assert sweeps.simulate_counts is original


def test_metric_lists_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_short_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and report["error_rate"] == 0
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        per_op = {"lattice_sampled": ("bench.substream.calls", 52224),
                  "exact_products": ("bench.simulate_counts.calls", 208947),
                  "verify_battery": ("qubit.apply_operator.calls", 53734)}[workload]
        assert result["metrics"][per_op[0]]["value"] == per_op[1]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
