"""Tests for the sweep drivers, the Haar oracle, and the verification battery."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from wmtradeoff.qubit import PureState
from wmtradeoff.measurement import (
    WeakMeasurement,
    analytic_gmax,
    analytic_prev,
    per_state_gain,
    per_state_reversal_prob,
)
from wmtradeoff import sweeps, tables
from wmtradeoff.bench import NoiseModel
from wmtradeoff.sweeps import (
    OperatorGrid,
    StateGrid,
    corrupted_reversal_operator,
    cross_section,
    grid_sweep,
    haar_average_oracle,
    reversal_fidelity_sweep,
    state_sweep,
    verify,
)

FLAGSHIP = WeakMeasurement(0.25, 0.75)


@pytest.fixture(scope="module")
def analytic_points():
    return grid_sweep(exact_mode=True)


@pytest.fixture(scope="module")
def verify_report():
    return verify(photons_per_setting=20_000, seed=42)


class TestStateGrid:
    def test_standard_grid_shape(self):
        grid = StateGrid.standard()
        assert len(grid) == 51
        for i, st in enumerate(grid):
            assert st.alpha_weight == 0.02 * i
            assert st.phase == 0.0
        alphas = [st.alpha_weight for st in grid]
        assert all(b > a for a, b in zip(alphas, alphas[1:]))
        diffs = np.diff(alphas)
        np.testing.assert_allclose(diffs, 0.02, atol=1e-15)

    def test_malformed_grids_rejected(self):
        good = StateGrid.standard()
        with pytest.raises(ValueError):
            StateGrid(good.states[:-1])
        with pytest.raises(ValueError):
            StateGrid(tuple(PureState(0.01 * i) for i in range(51)))


class TestOperatorGrid:
    def test_uniform_16(self):
        grid = OperatorGrid.uniform(16)
        assert len(grid) == 256
        pairs = [(wm.epsilon, wm.eta) for wm in grid]
        for corner in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
            assert corner in pairs
        # 16 diagonal cells minus the two non-degenerate corners
        assert sum(wm.is_diagonal_degenerate for wm in grid) == 14

    def test_row_major_order(self):
        grid = OperatorGrid.uniform(4)
        pairs = [(wm.epsilon, wm.eta) for wm in grid]
        assert pairs[0] == (0.0, 0.0)
        assert pairs[1][0] == 0.0 and pairs[1][1] > 0.0
        assert pairs[4][0] > 0.0

    def test_size_bound(self):
        with pytest.raises(ValueError):
            OperatorGrid.uniform(1)


UNIT = strategies.one_of(strategies.sampled_from([0.0, 1.0]), strategies.floats(0.0, 1.0))


class TestStateSweep:
    @settings(max_examples=150, deadline=None)
    @given(
        UNIT, UNIT, strategies.sampled_from(["free", "tie", "near tie"]),
        strategies.floats(0.0, 0.01), strategies.booleans(),
    )
    @example(0.0, 0.0, "free", 0.0, True)
    @example(0.0, 1.0, "free", 0.001, False)
    @example(1.0, 0.0, "free", 0.001, True)
    @example(1.0, 1.0, "free", 0.0, False)
    def test_analytic_columns_equal_scalar_views(self, eps, eta, relation, leakage, exact):
        # The sweep's one kernel call over the traversal must reproduce the
        # per-state scalar views bit for bit, ties and noise included.
        if relation == "tie":
            eta = eps
        elif relation == "near tie":
            eta = min(1.0, eps + 0.5e-12)
        wm = WeakMeasurement(eps, eta)
        rows = state_sweep(wm, 1_000, NoiseModel(pbs_leakage=leakage), seed=3, exact_mode=exact)
        assert len(rows) == len(StateGrid.standard())
        for row, state in zip(rows, StateGrid.standard()):
            assert row.alpha == state.alpha_weight
            assert row.gain_analytic == per_state_gain(wm, state)
            assert row.rev_analytic == per_state_reversal_prob(wm, state)

    def test_flagship_curves(self):
        rows = state_sweep(FLAGSHIP, exact_mode=True)
        assert len(rows) == 51
        for row in rows:
            expected = 0.75 - row.alpha + row.alpha**2
            assert row.gain_analytic == pytest.approx(expected, abs=1e-12)
            assert row.rev_analytic == pytest.approx(0.375, abs=1e-12)
            # exact mode routes expected counts through the estimator terms
            assert row.gain_mc == pytest.approx(row.gain_analytic, abs=1e-12)
            assert row.rev_mc == pytest.approx(row.rev_analytic, abs=1e-12)

    def test_gain_exceeds_two_thirds_at_low_alpha(self):
        rows = state_sweep(FLAGSHIP, exact_mode=True)
        for row in rows[:3]:
            assert row.gain_analytic >= 0.7112
            assert row.gain_analytic > 2.0 / 3.0
        mean = sum(r.gain_analytic for r in rows) / len(rows)
        assert 0.5 <= mean <= 2.0 / 3.0 + 0.0067

    def test_identity_channel_degenerate_convention(self):
        rows = state_sweep(WeakMeasurement(0.0, 0.0), exact_mode=True)
        for row in rows:
            assert row.gain_analytic == pytest.approx(row.alpha, abs=1e-12)
            assert row.rev_analytic == pytest.approx(1.0, abs=1e-12)

    def test_sampled_columns_track_analytic(self):
        rows = state_sweep(FLAGSHIP, photons_per_setting=100_000, seed=42)
        for row in rows:
            assert abs(row.gain_mc - row.gain_analytic) <= 0.02
            assert abs(row.rev_mc - row.rev_analytic) <= 0.02


class TestGridSweep:
    def test_count_and_boundary_law(self, analytic_points):
        assert len(analytic_points) == 256
        boundary = [
            p
            for p in analytic_points
            if p.epsilon in (0.0, 1.0) or p.eta in (0.0, 1.0)
        ]
        assert len(boundary) == 60
        for p in boundary:
            assert p.sum_analytic == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("grid_size", [*range(2, 18), 64])
    def test_array_columns_equal_scalar_path(self, grid_size):
        points = grid_sweep(grid_size, exact_mode=True)
        assert [(p.epsilon, p.eta) for p in points] == [
            (wm.epsilon, wm.eta) for wm in OperatorGrid.uniform(grid_size)
        ]
        for p in points:
            wm = WeakMeasurement(p.epsilon, p.eta)
            e, h = p.epsilon, p.eta
            assert p.gmax_analytic == analytic_gmax(wm) == (3.0 + abs(h - e)) / 6.0
            assert p.prev_analytic == analytic_prev(wm) == 1.0 - e - h + 2.0 * e * h
            assert p.diagonal_flag is wm.is_diagonal_degenerate
            assert type(p.epsilon) is type(p.gmax_analytic) is type(p.prev_estimated) is float

    def test_size_bound(self):
        with pytest.raises(ValueError, match="grid size must be at least 2"):
            grid_sweep(1)

    def test_pvnm_corners(self, analytic_points):
        corners = {
            (p.epsilon, p.eta): p
            for p in analytic_points
            if (p.epsilon, p.eta) in ((0.0, 1.0), (1.0, 0.0))
        }
        assert len(corners) == 2
        for p in corners.values():
            assert p.gmax_analytic == pytest.approx(2.0 / 3.0, abs=1e-12)
            assert p.prev_analytic == pytest.approx(0.0, abs=1e-12)

    def test_interior_minimum_cells(self, analytic_points):
        expected_min = 3.0 + 113.0 / 225.0
        assert expected_min == pytest.approx(3.502222, abs=1e-6)
        lattice_min = min(p.sum_analytic for p in analytic_points)
        assert lattice_min == pytest.approx(expected_min, abs=1e-12)
        argmin = {
            (round(p.epsilon, 12), round(p.eta, 12))
            for p in analytic_points
            if abs(p.sum_analytic - lattice_min) <= 1e-12
        }
        assert (round(7 / 15, 12), round(7 / 15, 12)) in argmin
        assert (round(8 / 15, 12), round(8 / 15, 12)) in argmin

    def test_diagonal_flags(self, analytic_points):
        for p in analytic_points:
            expected = abs(p.epsilon - p.eta) < 1e-12 and p.epsilon not in (0.0, 1.0)
            assert p.diagonal_flag == expected

    def test_exact_mode_estimated_columns(self):
        points = grid_sweep(grid_size=4, exact_mode=True)
        for p in points:
            assert p.sum_estimated == pytest.approx(
                6.0 * p.gmax_estimated + p.prev_estimated, abs=1e-12
            )
            assert p.prev_estimated == pytest.approx(p.prev_analytic, abs=1e-12)
            assert abs(p.gmax_estimated - p.gmax_analytic) <= 0.0067 + 1e-12

    def test_reversed_cell_order_equals_sweep(self):
        rows = grid_sweep(grid_size=5, photons_per_setting=3000, seed=11)
        cells = list(enumerate(OperatorGrid.uniform(5)))
        reordered = [
            sweeps._cell_points(wm.epsilon, wm.eta, idx, 3000, None, 11, False)[0]
            for idx, wm in reversed(cells)
        ][::-1]
        assert rows == reordered
        assert tables.csv_table(tables.GRID, rows) == tables.csv_table(tables.GRID, reordered)


class TestStateGridMeans:
    def test_gain_gap_proportional_to_parameter_split(self):
        # The 51-point grid mean exceeds the continuous closed form by
        # exactly (eta - eps)/150 for eps < eta: mean(alpha^2) - 1/3 = 1/300.
        states = StateGrid.standard()
        for eta in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0):
            wm = WeakMeasurement(0.0, eta)
            mean = sum(per_state_gain(wm, st) for st in states) / len(states)
            gap = mean - analytic_gmax(wm)
            assert gap == pytest.approx(eta / 150.0, abs=1e-12)

    def test_prev_mean_exact_for_sampled_cells(self):
        states = StateGrid.standard()
        for e, h in ((0.0, 0.0), (0.25, 0.75), (0.4, 0.4), (1.0, 0.2)):
            wm = WeakMeasurement(e, h)
            mean = sum(per_state_reversal_prob(wm, st) for st in states) / len(states)
            assert mean == pytest.approx(analytic_prev(wm), abs=1e-12)


class TestCrossSection:
    def test_analytic_rows(self):
        rows = cross_section([0.0, 0.4, 1.0], exact_mode=True)
        assert [(r.six_gmax, r.prev, r.total) for r in rows] == [
            pytest.approx((3.0, 1.0, 4.0), abs=1e-12),
            pytest.approx((3.4, 0.6, 4.0), abs=1e-12),
            pytest.approx((4.0, 0.0, 4.0), abs=1e-12),
        ]

    def test_linearity_over_full_section(self):
        etas = np.linspace(0.0, 1.0, 16)
        rows = cross_section(etas, exact_mode=True)
        for eta, row in zip(etas, rows):
            assert row.six_gmax == pytest.approx(3.0 + eta, abs=1e-12)
            assert row.prev == pytest.approx(1.0 - eta, abs=1e-12)
            assert row.total == pytest.approx(4.0, abs=1e-12)

    def test_monte_carlo_rows_track_theory(self):
        rows = cross_section([0.0, 0.5, 1.0], photons_per_setting=100_000, seed=5, exact_mode=False)
        for eta, row in zip((0.0, 0.5, 1.0), rows):
            assert abs(row.six_gmax - (3.0 + eta)) <= 0.05
            assert abs(row.prev - (1.0 - eta)) <= 0.02

    def test_eta_range_enforced(self):
        with pytest.raises(ValueError):
            cross_section([1.5])


class TestReversalFidelitySweep:
    def test_exact_mode_all_ones(self):
        rows = reversal_fidelity_sweep(FLAGSHIP, exact_mode=True)
        assert len(rows) == 51
        for row in rows:
            assert not row.low_stats
            assert row.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_leakage_keeps_all_above_099(self):
        noise = NoiseModel(pbs_leakage=1e-3)
        rows = reversal_fidelity_sweep(FLAGSHIP, 10_000, noise, seed=42)
        assert all(not row.low_stats for row in rows)
        assert min(row.fidelity for row in rows) >= 0.99

    def test_noiseless_sampling_stays_near_one(self):
        # Sampling-noise-only: across 20 pinned seeds at least 99% of the
        # (seed, state) fidelities stay at or above 0.995.
        total = below = 0
        for seed in range(20):
            for row in reversal_fidelity_sweep(FLAGSHIP, 10_000, None, seed=seed):
                total += 1
                below += row.fidelity < 0.995
        assert below / total <= 0.01

    def test_projective_corner_flags_low_stats(self):
        rows = reversal_fidelity_sweep(WeakMeasurement(0.0, 1.0), 10_000, seed=42)
        assert all(row.low_stats for row in rows)
        assert all(row.fidelity is None for row in rows)


# float.hex of (gmax_estimate, gmax_stderr, prev_estimate, prev_stderr) at
# seed 7, as computed by the oracle before its per-sample arithmetic ran in
# ORACLE_BLOCK slices. Every sample count here ends in a partial slice;
# 200_000 is the one verify uses.
ORACLE_HEX = {
    ((0.25, 0.75), 10000): (
        "0x1.2b172d5b0c7a8p-1", "0x1.865802b0106f8p-11",
        "0x1.8000000000000p-2", "0x1.277c6c88277bdp-60",
    ),
    ((0.1, 0.6), 10000): (
        "0x1.2b3b27bf516e5p-1", "0x1.2db673e14ce8cp-10",
        "0x1.ae147ae147ae0p-2", "0x1.6113a27abf5b1p-60",
    ),
    ((0.8, 0.3), 10000): (
        "0x1.2b232b7c78cbbp-1", "0x1.a4557f360ac96p-11",
        "0x1.851eb851eb850p-2", "0x1.141f33ac1bd6dp-60",
    ),
    ((0.5, 0.5), 10000): (
        "0x1.0077ed4e3b2cap-1", "0x1.7c43a314a0243p-9",
        "0x1.0000000000002p-1", "0x1.fdd6d14a3ef25p-60",
    ),
    ((0.0, 1.0), 10000): (
        "0x1.562e5ab618f4fp-1", "0x1.865802b0106fap-10",
        "0x0.0p+0", "0x0.0p+0",
    ),
    ((0.25, 0.75), 10001): (
        "0x1.2b1615200e2ebp-1", "0x1.86544e3418b57p-11",
        "0x1.8000000000000p-2", "0x1.2487c844520acp-60",
    ),
    ((0.1, 0.6), 10001): (
        "0x1.2b3a280357981p-1", "0x1.2db06c3d00dbfp-10",
        "0x1.ae147ae147adep-2", "0x1.2d098e354dfdcp-59",
    ),
    ((0.8, 0.3), 10001): (
        "0x1.2b221b6bd151dp-1", "0x1.a4503d86a59d4p-11",
        "0x1.851eb851eb850p-2", "0x1.15d0832cc96efp-60",
    ),
    ((0.5, 0.5), 10001): (
        "0x1.00783ef59f5f5p-1", "0x1.7c39efdf8e823p-9",
        "0x1.0000000000002p-1", "0x1.fc14531b3b8cfp-60",
    ),
    ((0.0, 1.0), 10001): (
        "0x1.562c2a401c5d7p-1", "0x1.86544e3418b58p-10",
        "0x0.0p+0", "0x0.0p+0",
    ),
    ((0.25, 0.75), 200000): (
        "0x1.2a8b33035fd41p-1", "0x1.5c2dd8e2bec49p-13",
        "0x1.8000000000000p-2", "0x1.06126abb4e051p-62",
    ),
    ((0.1, 0.6), 200000): (
        "0x1.2aa00761ef27cp-1", "0x1.0b446cce2f5f9p-12",
        "0x1.ae147ae147ae1p-2", "0x1.081b346406ce0p-62",
    ),
    ((0.8, 0.3), 200000): (
        "0x1.2a9224783a455p-1", "0x1.7584f05c4a554p-13",
        "0x1.851eb851eb852p-2", "0x1.23c81cfb34db8p-62",
    ),
    ((0.5, 0.5), 200000): (
        "0x1.00456e90886c3p-1", "0x1.51f05a7a5ac0ep-11",
        "0x1.0000000000001p-1", "0x1.89b42e73c4117p-62",
    ),
    ((0.0, 1.0), 200000): (
        "0x1.55166606bfa83p-1", "0x1.5c2dd8e2bec4ap-12",
        "0x0.0p+0", "0x0.0p+0",
    ),
}


class TestHaarOracle:
    @pytest.mark.parametrize("cell,n_samples", ORACLE_HEX)
    def test_estimates_equal_pinned_bits(self, cell, n_samples):
        est = haar_average_oracle(WeakMeasurement(*cell), n_samples, seed=7)
        fields = (est.gmax_estimate, est.gmax_stderr, est.prev_estimate, est.prev_stderr)
        assert tuple(map(float.hex, fields)) == ORACLE_HEX[cell, n_samples]
        assert est.n_samples == n_samples

    def test_peak_memory_at_a_million_samples(self):
        # The two draws and the two per-sample arrays take 30.5 MiB; the
        # per-sample temporaries stay one slice long.
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            haar_average_oracle(FLAGSHIP, 1_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20

    def test_flagship_agreement(self):
        est = haar_average_oracle(FLAGSHIP, 1_000_000, seed=42)
        assert abs(est.gmax_estimate - analytic_gmax(FLAGSHIP)) <= 3.0 * est.gmax_stderr
        assert est.prev_estimate == pytest.approx(analytic_prev(FLAGSHIP), abs=1e-12)

    def test_prev_has_zero_sample_variance(self):
        est = haar_average_oracle(FLAGSHIP, 100_000, seed=1)
        sample_variance = est.prev_stderr**2 * est.n_samples
        assert sample_variance < 1e-20

    def test_degenerate_cell(self):
        wm = WeakMeasurement(0.3, 0.3)
        est = haar_average_oracle(wm, 200_000, seed=2)
        assert abs(est.gmax_estimate - 0.5) <= 3.0 * est.gmax_stderr
        assert est.prev_estimate == pytest.approx(0.58, abs=1e-12)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            haar_average_oracle(FLAGSHIP, 9_999)


class TestVerify:
    def test_all_checks_pass(self, verify_report):
        failing = [v.name for v in verify_report.verdicts if not v.passed]
        assert verify_report.passed, f"failing checks: {failing}"

    def test_required_checks_present(self, verify_report):
        names = {v.name for v in verify_report.verdicts}
        assert {
            "kraus_completeness",
            "phase_invariance",
            "parameter_symmetries",
            "reversal_exactness",
            "reversal_state_constancy",
            "rng_determinism",
            "boundary_law",
            "oracle_agreement",
            "estimator_consistency",
        } <= names

    def test_verdicts_carry_deviation_and_tolerance(self, verify_report):
        for v in verify_report.verdicts:
            assert v.verdict in ("PASS", "FAIL")
            assert math.isfinite(v.deviation)
            assert v.tolerance >= 0.0

    def test_metadata_echo(self, verify_report):
        for key in ("seed", "photons_per_setting", "version", "started_at", "finished_at"):
            assert key in verify_report.metadata

    def test_stderr_multiplier_is_honored(self):
        report = verify(photons_per_setting=20_000, seed=42, stderr_multiplier=1e-12)
        outcomes = {v.name: v.passed for v in report.verdicts}
        assert outcomes["oracle_agreement"] is False
        assert outcomes["kraus_completeness"] is True

    def test_crashed_checks_name_themselves(self, monkeypatch):
        def boom(*args):
            raise ZeroDivisionError("injected")

        # one check the battery runs through a lambda, one it calls directly
        monkeypatch.setattr(sweeps, "_check_state_grid_prev_mean", boom)
        monkeypatch.setattr(sweeps, "_check_kraus_completeness", boom)
        report = verify(photons_per_setting=2_000, seed=42, grid_size=4)
        assert [v.name for v in report.verdicts] == [
            "kraus_completeness", "boundary_law", "center_minimum", "pvnm_corners",
            "range_bounds", "parameter_symmetries", "phase_invariance",
            "reversal_exactness", "reversal_state_constancy", "state_grid_prev_mean",
            "state_grid_gain_gap", "cross_section_monotonicity", "oracle_agreement",
            "estimator_consistency", "rng_determinism",
        ]
        crashed = {v.name: v for v in report.verdicts if v.deviation == math.inf}
        assert set(crashed) == {"kraus_completeness", "state_grid_prev_mean"}
        for v in crashed.values():
            assert not v.passed
            assert v.detail.startswith("ZeroDivisionError: injected at test_sweeps.py:")
            assert v.detail.endswith(" in boom")

    def test_state_grid_means_computed_once(self, monkeypatch):
        calls = []

        def counted(grid_size):
            calls.append(grid_size)
            return means(grid_size)

        means = sweeps._state_grid_means
        monkeypatch.setattr(sweeps, "_state_grid_means", counted)
        report = verify(photons_per_setting=2_000, seed=42, grid_size=5)
        assert calls == [5]
        outcomes = {v.name: v.passed for v in report.verdicts}
        assert outcomes["state_grid_prev_mean"] and outcomes["state_grid_gain_gap"]

    def test_failed_state_grid_means_fail_both_checks(self, monkeypatch):
        def boom(grid_size):
            raise FloatingPointError("injected")

        monkeypatch.setattr(sweeps, "_state_grid_means", boom)
        report = verify(photons_per_setting=2_000, seed=42, grid_size=4)
        crashed = [v for v in report.verdicts if v.deviation == math.inf]
        assert [v.name for v in crashed] == ["state_grid_prev_mean", "state_grid_gain_gap"]
        for v in crashed:
            assert not v.passed
            assert v.detail.startswith("FloatingPointError: injected at test_sweeps.py:")
            assert v.detail.endswith(" in boom")

    def test_mutated_reversal_fails_exactness(self):
        report = verify(photons_per_setting=20_000, seed=42, reversal_fn=corrupted_reversal_operator)
        assert not report.passed
        outcomes = {v.name: v.passed for v in report.verdicts}
        assert outcomes["reversal_exactness"] is False
        # the mutation hook must not poison unrelated checks
        assert outcomes["kraus_completeness"] is True
        assert outcomes["boundary_law"] is True
