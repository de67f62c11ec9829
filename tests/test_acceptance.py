"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines while the suite executes.
"""

import functools
import time

import numpy as np
import pytest

from wmtradeoff.measurement import WeakMeasurement, closed_forms
from wmtradeoff.bench import (
    NoiseModel,
    estimate_gmax_from_counts,
    estimate_prev_from_counts,
    simulate_counts,
)
from wmtradeoff.sweeps import (
    cross_section,
    haar_average_oracle,
    reversal_fidelity_sweep,
    state_sweep,
)
from wmtradeoff.cli import EXIT_OK, EXIT_VERIFY_FAIL, main as cli_main

from scalar_reference import tradeoff_sum

FLAGSHIP = WeakMeasurement(0.25, 0.75)
ORACLE_MASTER_SEED = 20250810
LATTICE = np.linspace(0.0, 1.0, 16).tolist()
CELLS = [(e, h) for e in LATTICE for h in LATTICE]


def criterion(label):
    """Print one PASS/FAIL line per criterion as the tests execute."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS")

        return wrapper

    return decorate


@criterion("1 boundary tradeoff law")
def test_criterion_1_boundary_law():
    start = time.perf_counter()
    boundary = [(e, h) for e, h in CELLS if e in (0.0, 1.0) or h in (0.0, 1.0)]
    assert len(boundary) == 60
    for e, h in boundary:
        assert abs(tradeoff_sum(e, h) - 4.0) <= 1e-12
    assert time.perf_counter() - start < 1.0


@criterion("2 center minimum")
def test_criterion_2_center_minimum():
    assert abs(tradeoff_sum(0.5, 0.5) - 3.5) <= 1e-12
    for e, h in CELLS:
        assert tradeoff_sum(e, h) >= 3.5 - 1e-12


@criterion("3 PVNM corners")
def test_criterion_3_pvnm_corners():
    for e, h in ((0.0, 1.0), (1.0, 0.0)):
        gmax, prev, _ = closed_forms(e, h)
        assert abs(gmax - 2.0 / 3.0) <= 1e-12
        assert abs(prev) <= 1e-12


@criterion("4 range bounds on 0.01 scan")
def test_criterion_4_range_bounds():
    start = time.perf_counter()
    values = np.linspace(0.0, 1.0, 101)
    count = 0
    for e in values:
        for h in values:
            g, p, _ = closed_forms(float(e), float(h))
            assert 0.5 - 1e-12 <= g <= 2.0 / 3.0 + 1e-12
            assert -1e-12 <= p <= 1.0 + 1e-12
            count += 1
    assert count == 10201
    assert time.perf_counter() - start < 5.0


@criterion("5 oracle equivalence at 1e6 samples")
def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    cells = [
        (0.25, 0.75), (0.0, 1.0), (0.1, 0.6), (0.33, 0.77), (0.5, 0.5),
        (0.6, 0.2), (0.75, 0.25), (0.9, 0.05), (1.0, 0.3), (0.15, 0.15),
    ]
    for k, (e, h) in enumerate(cells):
        seeds = np.random.SeedSequence(entropy=ORACLE_MASTER_SEED, spawn_key=(k,))
        stream = np.random.default_rng(seeds)
        est = haar_average_oracle(WeakMeasurement(e, h), 1_000_000, stream)
        gmax, prev, _ = closed_forms(e, h)
        assert abs(est.gmax_estimate - gmax) <= 3.0 * est.gmax_stderr
        assert abs(est.prev_estimate - prev) <= max(
            3.0 * est.prev_stderr, 1e-12
        )
    assert time.perf_counter() - start < 30.0


@criterion("6 count-ratio estimators at desk scale")
def test_criterion_6_estimators():
    start = time.perf_counter()
    e, h = FLAGSHIP.epsilon, FLAGSHIP.eta
    counts = simulate_counts(e, h, 100_000, key=(42, 0, 0))
    g_hat = float(estimate_gmax_from_counts(counts, e, h)[0])
    p_hat = float(estimate_prev_from_counts(counts)[0])
    assert abs(g_hat - 0.586667) <= 0.002  # discrete-grid expectation target
    assert abs(p_hat - 0.375) <= 0.005
    assert time.perf_counter() - start < 60.0


@criterion("7 reversal fidelities")
def test_criterion_7_reversal_fidelity():
    start = time.perf_counter()
    noisy = reversal_fidelity_sweep(
        FLAGSHIP, 10_000, NoiseModel(pbs_leakage=1e-3), seed=42
    )
    assert len(noisy["fidelity"]) == 51
    assert not noisy["low_stats_flag"].any()
    assert noisy["fidelity"].min() >= 0.99
    exact = reversal_fidelity_sweep(FLAGSHIP, 10_000, seed=None)
    assert np.abs(exact["fidelity"] - 1.0).max() <= 1e-12
    assert time.perf_counter() - start < 60.0


@criterion("8 cross-section linearity")
def test_criterion_8_cross_section():
    etas = np.linspace(0.0, 1.0, 16)
    section = cross_section(etas, seed=None)
    assert np.abs(section["six_gmax"] - (3.0 + etas)).max() <= 1e-12
    assert np.abs(section["prev"] - (1.0 - etas)).max() <= 1e-12
    assert np.abs(section["sum"] - 4.0).max() <= 1e-12


@criterion("9 per-state gain exceedance")
def test_criterion_9_gain_exceedance():
    table = state_sweep(FLAGSHIP, seed=None)
    gains = table["gain_analytic"].tolist()
    assert table["alpha"][0] == 0.0
    assert gains[0] == pytest.approx(0.75, abs=1e-12)
    assert gains[0] > 2.0 / 3.0
    mean = sum(gains) / len(gains)
    assert 0.5 <= mean <= 2.0 / 3.0 + 0.0067


@criterion("10 property suite under verify")
def test_criterion_10_property_suite(capsys):
    args = ["--grid-size", "8", "--photons-per-setting", "50000", "--seed", "42"]
    assert cli_main(["verify", *args]) == EXIT_OK
    assert cli_main(["verify", "--mutate-reversal", *args]) == EXIT_VERIFY_FAIL
    captured = capsys.readouterr()
    assert "reversal_exactness" in captured.err


def test_acceptance_suite_summary():
    # Placeholder so a bare `pytest tests/test_acceptance.py` run ends with
    # an explicit marker line even when prints are captured.
    print("[acceptance] all criteria executed")
