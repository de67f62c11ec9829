"""Tests for the sweep drivers, the Haar oracle, and the verification battery."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from wmtradeoff.qubit import ANNIHILATION_EPS, TWO_PI, Operator2, _largest_singular_values
from wmtradeoff.measurement import (
    WeakMeasurement,
    branch_terms,
    closed_forms,
    kraus_coefficients,
    per_state_gain,
    per_state_reversal_prob,
    per_state_terms,
    reversal_operators,
)
from wmtradeoff import bench, sweeps, tables
from wmtradeoff.bench import NoiseModel
from wmtradeoff.sweeps import (
    corrupted_reversal_operators,
    cross_section,
    grid_sweep,
    haar_average_oracle,
    reversal_fidelity_sweep,
    state_sweep,
    verify,
)

from scalar_reference import PureState, apply_scalar, kraus_pair, pure_overlap

FLAGSHIP = WeakMeasurement(0.25, 0.75)
FLAGSHIP_GMAX, FLAGSHIP_PREV, _ = closed_forms(0.25, 0.75)
TRAVERSAL_STATES = [PureState(alpha) for alpha in bench.TRAVERSAL_ALPHAS.tolist()]


def lattice_cells(grid_size):
    """(epsilon, eta) of each lattice cell, row-major by epsilon then eta."""
    values = np.linspace(0.0, 1.0, grid_size).tolist()
    return [(e, h) for e in values for h in values]


def rows(table: dict) -> list[dict]:
    """The rows of a column table, each a dict of Python scalars."""
    return [dict(zip(table, cells)) for cells in zip(*(c.tolist() for c in table.values()))]


@pytest.fixture(scope="module")
def analytic_points():
    return rows(grid_sweep(seed=None))


@pytest.fixture(scope="module")
def verify_report():
    return verify(photons_per_setting=20_000, seed=42)


def passed(report) -> dict[str, bool]:
    """Check name -> whether it passed, from verify's table."""
    return {
        str(name): verdict == "PASS" for name, verdict in zip(report["check"], report["verdict"])
    }


def row(report, name: str) -> dict:
    """The row of check ``name`` in verify's table, as Python scalars."""
    (k,) = np.flatnonzero(report["check"] == name)
    return {column: values[k].item() for column, values in report.items()}


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
        table = state_sweep(wm, 1_000, NoiseModel(pbs_leakage=leakage), seed=None if exact else 3)
        assert len(table["alpha"]) == len(TRAVERSAL_STATES)
        for row, state in zip(rows(table), TRAVERSAL_STATES):
            assert row["alpha"] == state.alpha_weight
            assert row["gain_analytic"] == per_state_gain(*wm, *state)
            assert row["rev_analytic"] == per_state_reversal_prob(*wm, *state)

    def test_flagship_curves(self):
        table = rows(state_sweep(FLAGSHIP, seed=None))
        assert len(table) == 51
        for row in table:
            expected = 0.75 - row["alpha"] + row["alpha"] ** 2
            assert row["gain_analytic"] == pytest.approx(expected, abs=1e-12)
            assert row["rev_analytic"] == pytest.approx(0.375, abs=1e-12)
            # exact mode routes expected counts through the estimator terms
            assert row["gain_mc"] == pytest.approx(row["gain_analytic"], abs=1e-12)
            assert row["rev_mc"] == pytest.approx(row["rev_analytic"], abs=1e-12)

    def test_gain_exceeds_two_thirds_at_low_alpha(self):
        gains = state_sweep(FLAGSHIP, seed=None)["gain_analytic"].tolist()
        for gain in gains[:3]:
            assert gain >= 0.7112
            assert gain > 2.0 / 3.0
        mean = sum(gains) / len(gains)
        assert 0.5 <= mean <= 2.0 / 3.0 + 0.0067

    def test_identity_channel_degenerate_convention(self):
        for row in rows(state_sweep(WeakMeasurement(0.0, 0.0), seed=None)):
            assert row["gain_analytic"] == pytest.approx(row["alpha"], abs=1e-12)
            assert row["rev_analytic"] == pytest.approx(1.0, abs=1e-12)

    def test_sampled_columns_track_analytic(self):
        for row in rows(state_sweep(FLAGSHIP, photons_per_setting=100_000, seed=42)):
            assert abs(row["gain_mc"] - row["gain_analytic"]) <= 0.02
            assert abs(row["rev_mc"] - row["rev_analytic"]) <= 0.02


class TestGridSweep:
    def test_count_and_boundary_law(self, analytic_points):
        assert len(analytic_points) == 256
        boundary = [
            p
            for p in analytic_points
            if p["epsilon"] in (0.0, 1.0) or p["eta"] in (0.0, 1.0)
        ]
        assert len(boundary) == 60
        for p in boundary:
            assert p["sum_analytic"] == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("grid_size", [*range(2, 18), 64])
    def test_array_columns_equal_scalar_path(self, grid_size):
        table = grid_sweep(grid_size, seed=None)
        points = rows(table)
        assert [(p["epsilon"], p["eta"]) for p in points] == lattice_cells(grid_size)
        for p in points:
            e, h = p["epsilon"], p["eta"]
            gmax, prev, degenerate = closed_forms(e, h)
            assert p["gmax_analytic"] == gmax == (3.0 + abs(h - e)) / 6.0
            assert p["prev_analytic"] == prev == 1.0 - e - h + 2.0 * e * h
            assert p["sum_analytic"] == 6.0 * gmax + prev
            assert p["sum_mc"] == 6.0 * p["gmax_mc"] + p["prev_mc"]
            assert p["diagonal_flag"] is degenerate
        assert [column.dtype for column in table.values()] == [np.float64] * 8 + [np.bool_]

    def test_size_bound(self):
        with pytest.raises(ValueError, match="grid size must be at least 2"):
            grid_sweep(1)

    def test_pvnm_corners(self, analytic_points):
        corners = {
            (p["epsilon"], p["eta"]): p
            for p in analytic_points
            if (p["epsilon"], p["eta"]) in ((0.0, 1.0), (1.0, 0.0))
        }
        assert len(corners) == 2
        for p in corners.values():
            assert p["gmax_analytic"] == pytest.approx(2.0 / 3.0, abs=1e-12)
            assert p["prev_analytic"] == pytest.approx(0.0, abs=1e-12)

    def test_interior_minimum_cells(self, analytic_points):
        expected_min = 3.0 + 113.0 / 225.0
        assert expected_min == pytest.approx(3.502222, abs=1e-6)
        lattice_min = min(p["sum_analytic"] for p in analytic_points)
        assert lattice_min == pytest.approx(expected_min, abs=1e-12)
        argmin = {
            (round(p["epsilon"], 12), round(p["eta"], 12))
            for p in analytic_points
            if abs(p["sum_analytic"] - lattice_min) <= 1e-12
        }
        assert (round(7 / 15, 12), round(7 / 15, 12)) in argmin
        assert (round(8 / 15, 12), round(8 / 15, 12)) in argmin

    def test_diagonal_flags(self, analytic_points):
        for p in analytic_points:
            expected = abs(p["epsilon"] - p["eta"]) < 1e-12 and p["epsilon"] not in (0.0, 1.0)
            assert p["diagonal_flag"] == expected

    def test_exact_mode_estimated_columns(self):
        for p in rows(grid_sweep(grid_size=4, seed=None)):
            assert p["sum_mc"] == pytest.approx(6.0 * p["gmax_mc"] + p["prev_mc"], abs=1e-12)
            assert p["prev_mc"] == pytest.approx(p["prev_analytic"], abs=1e-12)
            assert abs(p["gmax_mc"] - p["gmax_analytic"]) <= 0.0067 + 1e-12

    def test_reversed_cell_order_equals_sweep(self):
        table = grid_sweep(grid_size=5, photons_per_setting=3000, seed=11)
        cells = list(enumerate(lattice_cells(5)))
        reordered = sweeps._concatenate([
            sweeps._cell_columns(e, h, 3000, NoiseModel(), (11, sweeps.GRID_STREAM, idx))
            for idx, (e, h) in reversed(cells)
        ][::-1])
        assert rows(table) == rows(reordered)
        assert tables.csv_table(table) == tables.csv_table(reordered)

    @pytest.mark.parametrize("grid_size", [2, 3, 17, 65])
    def test_products_do_not_depend_on_the_block_size(self, monkeypatch, grid_size):
        # Blocks of 1 cell and of 7 hold one row each; 10**6 holds the
        # whole lattice; 256 is the default.
        noise = NoiseModel(pbs_leakage=0.001, detector_efficiency=0.9)

        def products():
            return [
                tables.csv_table(grid_sweep(grid_size, 2000, noise, seed))
                for seed in (5, None)
            ]

        expected = products()
        for block in (1, 7, 64, 256, 10**6):
            monkeypatch.setattr(sweeps, "GRID_BLOCK_CELLS", block)
            assert products() == expected


class TestStateGridMeans:
    def test_gain_gap_proportional_to_parameter_split(self):
        # The 51-point grid mean exceeds the continuous closed form by
        # exactly (eta - eps)/150 for eps < eta: mean(alpha^2) - 1/3 = 1/300.
        for eta in (0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0):
            wm = WeakMeasurement(0.0, eta)
            mean = sum(per_state_gain(*wm, *st) for st in TRAVERSAL_STATES) / 51
            gap = mean - closed_forms(0.0, eta)[0]
            assert gap == pytest.approx(eta / 150.0, abs=1e-12)

    @pytest.mark.parametrize("grid_size", [2, 3, 16, 33, 64])
    def test_gain_gap_identity_on_every_cell(self, grid_size):
        # state_grid_gain_gap checks mean = gmax + |eta - eps|/150 on every
        # cell, ties included, at the closed forms' own 1e-12.
        means = sweeps._state_grid_means(grid_size)
        deviation, tolerance = sweeps._check_state_grid_gain_gap(lambda: means)
        assert tolerance == 1e-12
        assert deviation <= 1e-15

    @pytest.mark.parametrize("grid_size", [2, 16])
    def test_means_add_the_states_in_order(self, grid_size):
        # Reference: the builtin sum, which adds the 51 states one after another.
        values = np.linspace(0.0, 1.0, grid_size)
        gains, revs = sweeps._state_grid_means(grid_size)
        for i, e in enumerate(values):
            gain, rev = per_state_terms(e, values, bench.TRAVERSAL_ALPHAS[:, None])
            assert gains[i].tobytes() == (sum(gain) / bench.N_TRAVERSAL_STATES).tobytes()
            assert revs[i].tobytes() == (sum(rev) / bench.N_TRAVERSAL_STATES).tobytes()

    @pytest.mark.parametrize("grid_size", [2, 3, 16, 33])
    def test_row_blocks_match_one_row_per_call(self, monkeypatch, grid_size):
        # Reference: one kernel call per epsilon row. The blocks hold whole
        # rows, at most STATE_GRID_BLOCK_STATES states, and each cell still
        # adds its 51 states in order, so the bits are the same.
        values = np.linspace(0.0, 1.0, grid_size)
        alphas = bench.TRAVERSAL_ALPHAS[:, None]
        reference = np.array(
            [[bench._traversal_mean(t) for t in per_state_terms(e, values, alphas)] for e in values]
        )
        calls = []

        def counted(*args):
            calls.append(math.prod(np.broadcast_shapes(*(np.shape(a) for a in args))))
            return per_state_terms(*args)

        monkeypatch.setattr(sweeps, "per_state_terms", counted)
        gains, revs = sweeps._state_grid_means(grid_size)
        assert gains.shape == revs.shape == (grid_size, grid_size)
        assert gains.tobytes() == reference[:, 0].tobytes()
        assert revs.tobytes() == reference[:, 1].tobytes()
        assert sum(calls) == bench.N_TRAVERSAL_STATES * grid_size**2
        assert max(calls) <= sweeps.STATE_GRID_BLOCK_STATES

    def test_prev_mean_exact_for_sampled_cells(self):
        for e, h in ((0.0, 0.0), (0.25, 0.75), (0.4, 0.4), (1.0, 0.2)):
            wm = WeakMeasurement(e, h)
            mean = sum(per_state_reversal_prob(*wm, *st) for st in TRAVERSAL_STATES) / 51
            assert mean == pytest.approx(closed_forms(e, h)[1], abs=1e-12)


def mapped_pair(epsilon, eta, noise):
    """The pair (epsilon', eta') onto which the bench's leakage maps (epsilon, eta)."""
    swap = noise.interferometer_swap_probability
    return (1.0 - swap) * epsilon + swap * eta, (1.0 - swap) * eta + swap * epsilon


LEAKAGES = pytest.mark.parametrize("leakage", [1e-3, 1e-2])
EFFICIENCIES = pytest.mark.parametrize("efficiency", [1.0, 0.9])


class TestLeakageMap:
    # Leakage moves the operator: every noisy exact product is the ideal
    # arithmetic at (epsilon', eta'), here to 2e-15 (1.22e-15 measured).
    @LEAKAGES
    @EFFICIENCIES
    @pytest.mark.parametrize("grid_size", [6, 33, 64])
    def test_grid_is_the_closed_forms_at_the_mapped_pair(self, grid_size, leakage, efficiency):
        noise = NoiseModel(leakage, efficiency)
        table = grid_sweep(grid_size, noise=noise, seed=None)
        e, h = mapped_pair(table["epsilon"], table["eta"], noise)
        gmax, prev, _ = closed_forms(e, h)
        # The 51 traversal states add |eta' - epsilon'|/150 to the gain.
        assert np.max(np.abs(table["gmax_mc"] - (gmax + np.abs(h - e) / 150.0))) <= 2e-15
        assert np.max(np.abs(table["prev_mc"] - prev)) <= 2e-15

    @LEAKAGES
    @EFFICIENCIES
    @pytest.mark.parametrize("cell", [(0.25, 0.75), (0.1, 0.6), (0.8, 0.3), (0.5, 0.5), (0.0, 1.0)])
    def test_states_are_the_branch_terms_at_the_mapped_pair(self, cell, leakage, efficiency):
        noise = NoiseModel(leakage, efficiency)
        table = state_sweep(WeakMeasurement(*cell), noise=noise, seed=None)
        prob, guess_fidelity, reversal = branch_terms(
            *mapped_pair(*cell, noise), bench.TRAVERSAL_ALPHAS
        )
        gain = (prob * guess_fidelity).sum(axis=-1)
        assert np.max(np.abs(table["gain_mc"] - gain)) <= 2e-15
        assert np.max(np.abs(table["rev_mc"] - reversal.sum(axis=-1))) <= 2e-15


class TestCrossSection:
    def test_analytic_rows(self):
        section = rows(cross_section([0.0, 0.4, 1.0], seed=None))
        assert [(r["six_gmax"], r["prev"], r["sum"]) for r in section] == [
            pytest.approx((3.0, 1.0, 4.0), abs=1e-12),
            pytest.approx((3.4, 0.6, 4.0), abs=1e-12),
            pytest.approx((4.0, 0.0, 4.0), abs=1e-12),
        ]

    def test_linearity_over_full_section(self):
        etas = np.linspace(0.0, 1.0, 16)
        for eta, row in zip(etas, rows(cross_section(etas, seed=None))):
            assert row["six_gmax"] == pytest.approx(3.0 + eta, abs=1e-12)
            assert row["prev"] == pytest.approx(1.0 - eta, abs=1e-12)
            assert row["sum"] == pytest.approx(4.0, abs=1e-12)

    def test_monte_carlo_rows_track_theory(self):
        section = cross_section([0.0, 0.5, 1.0], 100_000, seed=5)
        for eta, row in zip((0.0, 0.5, 1.0), rows(section)):
            assert abs(row["six_gmax"] - (3.0 + eta)) <= 0.05
            assert abs(row["prev"] - (1.0 - eta)) <= 0.02

    def test_eta_range_enforced(self):
        with pytest.raises(ValueError):
            cross_section([1.5])


class TestReversalFidelitySweep:
    def test_exact_mode_all_ones(self):
        table = rows(reversal_fidelity_sweep(FLAGSHIP, seed=None))
        assert len(table) == 51
        for row in table:
            assert not row["low_stats_flag"]
            assert row["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_leakage_keeps_all_above_099(self):
        noise = NoiseModel(pbs_leakage=1e-3)
        table = reversal_fidelity_sweep(FLAGSHIP, 10_000, noise, seed=42)
        assert not table["low_stats_flag"].any()
        assert table["fidelity"].min() >= 0.99

    def test_noiseless_sampling_stays_near_one(self):
        # Sampling-noise-only: across 400 pinned seeds at least 99% of the
        # (seed, state) fidelities stay at or above 0.995. About 0.76% fall
        # below it (234 of 30,600 at seeds 1000-1599), so 20,400 of them pass
        # the 1% cut but with a binomial chance of about 7e-5; at 20 seeds a
        # correct stream would fail one run in six.
        total = below = 0
        for seed in range(400):
            for fidelity in reversal_fidelity_sweep(FLAGSHIP, 10_000, seed=seed)["fidelity"]:
                total += 1
                below += fidelity < 0.995
        assert below / total <= 0.01

    def test_all_states_draw_from_cell_zero_of_one_stream(self):
        # The (state, basis) analyzer counts are one binomial call on the
        # counter-0 Philox stream of the fidelity tag, as a one-cell
        # simulate_counts call would draw them.
        noise = NoiseModel(pbs_leakage=1e-3)
        table = reversal_fidelity_sweep(FLAGSHIP, 10_000, noise, seed=42)
        key = np.random.SeedSequence(42, spawn_key=(sweeps.FIDELITY_STREAM,))
        rng = np.random.Generator(np.random.Philox(key=key.generate_state(2, np.uint64)))
        # Both chains of every state yield 1875 reversed photons, so each pools two.
        alphas = bench.TRAVERSAL_ALPHAS
        expected = bench.simulate_tomography(alphas, 20_000, noise, rng)
        assert table["fidelity"].tobytes() == expected.tobytes()

    def test_projective_corner_flags_low_stats(self):
        table = reversal_fidelity_sweep(WeakMeasurement(0.0, 1.0), 10_000, seed=42)
        assert table["low_stats_flag"].all()
        assert np.isnan(table["fidelity"]).all()

    # At (0, 0.99) only the first chain survives, with 0.01 whatever the
    # state: 9,999 photons per basis yield 99.99 reversed photons, below the
    # floor of 100, and 10,000 yield 100.
    @pytest.mark.parametrize("counts_per_basis, flagged", [(9_999, True), (10_000, False)])
    def test_low_stats_floor_is_100_reversed_photons(self, counts_per_basis, flagged):
        table = reversal_fidelity_sweep(WeakMeasurement(0.0, 0.99), counts_per_basis, seed=None)
        assert (table["low_stats_flag"] == flagged).all()
        assert (np.isnan(table["fidelity"]) == flagged).all()

    def test_exact_mode_builds_no_generator(self, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("exact mode built a random generator")

        monkeypatch.setattr(sweeps, "_substream", no_generator)
        monkeypatch.setattr(bench, "_substream", no_generator)
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        monkeypatch.setattr(np.random, "Philox", no_generator)
        noise = NoiseModel(pbs_leakage=1e-3)
        table = reversal_fidelity_sweep(FLAGSHIP, 10_000, noise, seed=None)
        assert not table["low_stats_flag"].any()
        grid_sweep(5, 10_000, noise, seed=None)
        state_sweep(FLAGSHIP, 10_000, noise, seed=None)
        cross_section([0.0, 0.5, 1.0], 10_000, noise, seed=None)


# float.hex of (gmax_estimate, gmax_stderr, prev_estimate, prev_stderr) at
# seed 7 from the stratified oracle. Every sample count here ends in a
# partial ORACLE_BLOCK slice (asserted below); 10_001 gives the last
# polar-cosine stratum three samples, and 20_000 is the count verify's
# oracle row drew before it became an exact design average.
ORACLE_HEX = {
    ((0.25, 0.75), 10000): (
        "0x1.2aaab1699c90bp-1", "0x1.6b24429fc205dp-22",
        "0x1.8000000000000p-2", "0x1.fffd25d8fd54ep-61",
    ),
    ((0.1, 0.6), 10000): (
        "0x1.2aaab3412f02dp-1", "0x1.9a32df1ad4e9ep-22",
        "0x1.ae147ae147ae0p-2", "0x1.3093329518335p-60",
    ),
    ((0.8, 0.3), 10000): (
        "0x1.2aaab206cd616p-1", "0x1.70f4966cd4ad4p-22",
        "0x1.851eb851eb850p-2", "0x1.fcc26cff848c5p-61",
    ),
    ((0.5, 0.5), 10000): (
        "0x1.00000623e8272p-1", "0x1.39baea96b0c98p-21",
        "0x1.0000000000002p-1", "0x1.b28b30ac973f6p-60",
    ),
    ((0.0, 1.0), 10000): (
        "0x1.555562d339216p-1", "0x1.6b24429fc1e5dp-21",
        "0x0.0p+0", "0x0.0p+0",
    ),
    ((0.25, 0.75), 10001): (
        "0x1.2aaab1817f57bp-1", "0x1.6b11f6f18c5cdp-22",
        "0x1.8000000000000p-2", "0x1.fce8b716a1d78p-61",
    ),
    ((0.1, 0.6), 10001): (
        "0x1.2aaab3605913dp-1", "0x1.9a1ca8c60c4c0p-22",
        "0x1.ae147ae147ae0p-2", "0x1.299231a16025fp-60",
    ),
    ((0.8, 0.3), 10001): (
        "0x1.2aaab2211d411p-1", "0x1.70e140a748b8ep-22",
        "0x1.851eb851eb850p-2", "0x1.005e9bfdfc049p-60",
    ),
    ((0.5, 0.5), 10001): (
        "0x1.0000063c2b1dfp-1", "0x1.39ada9ae529e9p-21",
        "0x1.0000000000002p-1", "0x1.b2dbbdfe0158fp-60",
    ),
    ((0.0, 1.0), 10001): (
        "0x1.55556302feaf5p-1", "0x1.6b11f6f18c4c2p-21",
        "0x0.0p+0", "0x0.0p+0",
    ),
    ((0.25, 0.75), 200000): (
        "0x1.2aaaaaada9d01p-1", "0x1.0013a062cc357p-28",
        "0x1.8000000000000p-2", "0x1.c77c4e7a7c1cfp-63",
    ),
    ((0.1, 0.6), 200000): (
        "0x1.2aaaaabb506f4p-1", "0x1.1fcb6d8319240p-28",
        "0x1.ae147ae147ae1p-2", "0x1.0ba48bc28e8c5p-62",
    ),
    ((0.8, 0.3), 200000): (
        "0x1.2aaaaab236afdp-1", "0x1.03a1fdd9768fcp-28",
        "0x1.851eb851eb852p-2", "0x1.c9ba2283fd2d9p-63",
    ),
    ((0.5, 0.5), 200000): (
        "0x1.0000002d80bd2p-1", "0x1.ba81b81e6a295p-28",
        "0x1.0000000000001p-1", "0x1.843607e31f252p-62",
    ),
    ((0.0, 1.0), 200000): (
        "0x1.5555555b53a02p-1", "0x1.0013a062cc628p-27",
        "0x0.0p+0", "0x0.0p+0",
    ),
    ((0.25, 0.75), 20000): (
        "0x1.2aaaad6b608cbp-1", "0x1.020d8eb670fcdp-23",
        "0x1.8000000000000p-2", "0x1.66d31682e44b8p-61",
    ),
    ((0.1, 0.6), 20000): (
        "0x1.2aaaaf92a6199p-1", "0x1.23d84688f7ac5p-23",
        "0x1.ae147ae147ae0p-2", "0x1.a8594886e284bp-61",
    ),
    ((0.8, 0.3), 20000): (
        "0x1.2aaaae2322666p-1", "0x1.065cea507b904p-23",
        "0x1.851eb851eb850p-2", "0x1.6bbc61fba55f9p-61",
    ),
    ((0.5, 0.5), 20000): (
        "0x1.0000072d92802p-1", "0x1.bc77cf683564fp-23",
        "0x1.0000000000001p-1", "0x1.2f3a5bb251c5bp-60",
    ),
    ((0.0, 1.0), 20000): (
        "0x1.55555ad6c1199p-1", "0x1.020d8eb670f97p-22",
        "0x0.0p+0", "0x0.0p+0",
    ),
}


class TestHaarOracle:
    @pytest.mark.parametrize("cell,n_samples", ORACLE_HEX)
    def test_estimates_equal_pinned_bits(self, cell, n_samples):
        est = haar_average_oracle(WeakMeasurement(*cell), n_samples, np.random.default_rng(7))
        fields = (est.gmax_estimate, est.gmax_stderr, est.prev_estimate, est.prev_stderr)
        assert tuple(map(float.hex, fields)) == ORACLE_HEX[cell, n_samples]
        assert est.n_samples == n_samples

    def test_pinned_sample_counts_end_in_a_partial_slice(self):
        assert {n % sweeps.ORACLE_BLOCK for _, n in ORACLE_HEX} == {1344, 1568, 1808, 1809}

    @pytest.mark.parametrize("block", [999, 4096, 8192])
    def test_estimates_do_not_depend_on_the_slicing(self, monkeypatch, block):
        monkeypatch.setattr(sweeps, "ORACLE_BLOCK", block)
        cell, n_samples = (0.1, 0.6), 10001
        est = haar_average_oracle(WeakMeasurement(*cell), n_samples, np.random.default_rng(7))
        fields = (est.gmax_estimate, est.gmax_stderr, est.prev_estimate, est.prev_stderr)
        assert tuple(map(float.hex, fields)) == ORACLE_HEX[cell, n_samples]

    def test_peak_memory_at_a_million_samples(self):
        # The two draws, whose slices the per-sample terms overwrite, take
        # 15.3 MiB; the rest is one slice of temporaries and the half-length
        # array of pair differences.
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            haar_average_oracle(FLAGSHIP, 1_000_000, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20

    def test_flagship_agreement(self):
        est = haar_average_oracle(FLAGSHIP, 1_000_000, np.random.default_rng(42))
        assert abs(est.gmax_estimate - FLAGSHIP_GMAX) <= 3.0 * est.gmax_stderr
        assert est.prev_estimate == pytest.approx(FLAGSHIP_PREV, abs=1e-12)

    def test_prev_has_zero_sample_variance(self):
        est = haar_average_oracle(FLAGSHIP, 100_000, np.random.default_rng(1))
        sample_variance = est.prev_stderr**2 * est.n_samples
        assert sample_variance < 1e-20

    def test_degenerate_cell(self):
        wm = WeakMeasurement(0.3, 0.3)
        est = haar_average_oracle(wm, 200_000, np.random.default_rng(2))
        assert abs(est.gmax_estimate - 0.5) <= 3.0 * est.gmax_stderr
        assert est.prev_estimate == pytest.approx(0.58, abs=1e-12)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            haar_average_oracle(FLAGSHIP, 9_999, np.random.default_rng(0))

    def test_int_seed_refused(self):
        # The oracle draws from the generator it is given and builds none.
        with pytest.raises(AttributeError, match="'int' object has no attribute 'uniform'"):
            haar_average_oracle(FLAGSHIP, 10_000, 7)

    @pytest.mark.parametrize("k", range(len(sweeps.ORACLE_CELLS)))
    def test_stratified_stderr_is_calibrated(self, k):
        # z-scores of the gain estimate at 20,000 samples on 300 package
        # streams: a variance formula that overstates the error would shrink
        # their spread, one that understates it would widen it.
        wm = WeakMeasurement(*sweeps.ORACLE_CELLS[k])
        gmax, _, _ = closed_forms(wm.epsilon, wm.eta)
        z = []
        for seed in range(300):
            stream = sweeps._substream(seed, sweeps.ORACLE_STREAM, k)
            est = haar_average_oracle(wm, 20_000, stream)
            z.append((est.gmax_estimate - gmax) / est.gmax_stderr)
        assert 0.9 <= np.std(z, ddof=1) <= 1.1


def scalar_reversal_exactness(seed, reversal_fn):
    """reversal_exactness as a loop over the scalar reference, one SVD per operator."""
    rng = sweeps._substream(seed, sweeps.EXACTNESS_STREAM)
    table = rng.uniform(0.0, (1.0, TWO_PI, 1.0, 1.0), size=(100, 4)).tolist()
    outcomes = (rng.integers(0, 2, size=100) + 1).tolist()
    dev = 0.0
    tested = 0
    for (alpha, phase, epsilon, eta), r in zip(table, outcomes):
        state = PureState(alpha, phase)
        wm = WeakMeasurement(epsilon, eta)
        prob, post = apply_scalar(kraus_pair(wm)[r - 1], state)
        if post is None:
            continue
        reversal = Operator2(reversal_fn(wm.epsilon, wm.eta)[r - 1])
        prob_rev, recovered = apply_scalar(reversal, post)
        if recovered is None or prob_rev < ANNIHILATION_EPS:
            continue
        dev = max(dev, abs(1.0 - pure_overlap(state, recovered)))
        tested += 1
    return (dev if tested else math.inf), 1e-12, f"{tested} triples"


def doubled_reversal_operators(epsilon, eta):
    return 2.0 * reversal_operators(epsilon, eta)


def second_outcome_corrupted_reversal_operators(epsilon, eta):
    """The true reversals but for outcome 2's V entry, halved: a fault that
    only the triples drawn on outcome 2 can show."""
    operators = reversal_operators(epsilon, eta)
    operators[..., 1, 1, 1] *= 0.5
    return operators


class TestOperatorChecks:
    @pytest.mark.parametrize(
        "reversal_fn",
        [reversal_operators, corrupted_reversal_operators,
         second_outcome_corrupted_reversal_operators],
    )
    def test_reversal_exactness_matches_the_scalar_loop(self, reversal_fn):
        # Same tolerance and triples; the deviation to rounding, as the
        # check renormalises in plain numpy (at most 4.4e-16 on these seeds;
        # over seeds 0-499 the mutants' deviations of about 0.11 reach 2.3e-15).
        for seed in range(50):
            dev, tol, detail = sweeps._check_reversal_exactness(seed, reversal_fn)
            scalar_dev, scalar_tol, scalar_detail = scalar_reversal_exactness(seed, reversal_fn)
            assert (tol, detail) == (scalar_tol, scalar_detail), seed
            assert abs(dev - scalar_dev) <= 2e-15, seed

    def test_unphysical_reversal_fails_by_name(self):
        report = verify(
            photons_per_setting=2_000, seed=42, grid_size=4,
            reversal_fn=doubled_reversal_operators,
        )
        check = row(report, "reversal_exactness")
        assert check["verdict"] == "FAIL" and check["deviation"] == math.inf
        assert check["detail"].startswith("ValueError: operator is not a physical Kraus operator")
        assert passed(report)["kraus_completeness"]

    @pytest.mark.parametrize("kind", ["complex", "real", "diagonal", "rank-1", "zero"])
    def test_gate_singular_value_matches_svd(self, kind):
        # Within 8 ulp (8 * eps relative) of LAPACK's largest singular value.
        rng = np.random.default_rng(len(kind))
        n = 20_000
        z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        u, v = z[:, 0], z[:, 1]
        m = {
            "complex": z,
            "real": z.real + 0j,
            "diagonal": z * np.eye(2),
            "rank-1": u[:, :, None] * v[:, None, :].conj(),
            "zero": np.zeros((4, 2, 2), dtype=complex),
        }[kind]
        top = _largest_singular_values(m)
        reference = np.linalg.svd(m, compute_uv=False)[:, 0]
        assert np.all(np.abs(top - reference) <= 8 * np.finfo(float).eps * reference)

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-9, math.nan])
    def test_physicality_gate_at_unit_norm(self, scale):
        # Each reversal rescaled to a largest singular value of 1 passes the
        # gate; 1 + 1e-9 times that, or NaN entries, fail the check by name.
        def rescaled(epsilon, eta):
            m = reversal_operators(epsilon, eta)
            return scale * m / m.max(axis=(-2, -1), keepdims=True)

        report = verify(photons_per_setting=2_000, seed=42, grid_size=4, reversal_fn=rescaled)
        check = row(report, "reversal_exactness")
        if scale == 1.0:
            assert check["verdict"] == "PASS"
            return
        assert check["verdict"] == "FAIL" and check["deviation"] == math.inf
        assert check["detail"] == (
            "ValueError: operator is not a physical Kraus operator (largest singular value > 1)"
        )
        assert [name for name, ok in passed(report).items() if not ok] == ["reversal_exactness"]

    def test_one_hook_call_per_verify(self):
        calls = []

        def counted(epsilon, eta):
            calls.append((np.shape(epsilon), np.shape(eta)))
            return reversal_operators(epsilon, eta)

        report = verify(photons_per_setting=2_000, seed=42, grid_size=4, reversal_fn=counted)
        assert calls == [((100,), (100,))]
        assert passed(report)["reversal_exactness"]

    def test_no_tested_triple_fails_exactness(self):
        # An all-zero reversal annihilates every post state: nothing was
        # tested, so the check must not pass on a deviation of 0.
        def annihilating(epsilon, eta):
            return np.zeros_like(reversal_operators(epsilon, eta))

        assert sweeps._check_reversal_exactness(42, annihilating) == (math.inf, 1e-12, "0 triples")
        report = verify(photons_per_setting=2_000, seed=42, grid_size=4, reversal_fn=annihilating)
        check = row(report, "reversal_exactness")
        assert (check["verdict"], check["deviation"], check["detail"]) == (
            "FAIL", math.inf, "0 triples"
        )
        assert [name for name, ok in passed(report).items() if not ok] == ["reversal_exactness"]

    def test_one_scaled_coefficient_fails_completeness(self, monkeypatch):
        def scaled(epsilon, eta):
            coefficients = kraus_coefficients(epsilon, eta)
            coefficients[7, 13, 1, 0] *= 1.0 + 1e-9
            return coefficients

        deviation, tolerance = sweeps._check_kraus_completeness()
        assert deviation <= tolerance
        monkeypatch.setattr(sweeps, "kraus_coefficients", scaled)
        deviation, tolerance = sweeps._check_kraus_completeness()
        assert deviation > tolerance == 1e-12


class TestVerify:
    def test_all_checks_pass(self, verify_report):
        failing = [name for name, ok in passed(verify_report).items() if not ok]
        assert not failing, f"failing checks: {failing}"

    def test_required_checks_present(self, verify_report):
        names = set(passed(verify_report))
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
        assert list(verify_report) == ["check", "verdict", "deviation", "tolerance", "detail"]
        deviation, tolerance = verify_report["deviation"], verify_report["tolerance"]
        assert deviation.dtype == tolerance.dtype == np.float64
        assert np.all(np.isfinite(deviation)) and np.all(tolerance >= 0.0)
        # the one pass rule
        expected = np.where(deviation <= tolerance, "PASS", "FAIL")
        assert verify_report["verdict"].tolist() == expected.tolist()

    def test_determinism_row_passes_exactly(self, verify_report):
        check = row(verify_report, "rng_determinism")
        assert (check["verdict"], check["deviation"], check["tolerance"]) == ("PASS", 0.0, 0.0)

    def test_call_dependent_streams_fail_determinism(self, monkeypatch):
        # Each count stream also keys on how many streams came before it, so
        # a second run of the same seed draws other counts.
        calls = itertools.count()
        substream = bench._substream
        monkeypatch.setattr(
            bench, "_substream", lambda seed, *prefix: substream(seed, *prefix, next(calls))
        )
        check = row(verify(photons_per_setting=2_000, seed=42, grid_size=4), "rng_determinism")
        assert (check["verdict"], check["deviation"], check["tolerance"]) == ("FAIL", 1.0, 0.0)

    def test_a_difference_below_the_printed_digits_fails_determinism(self, monkeypatch):
        # Every second state sweep moves gain_mc by 1e-12, which the CSV's
        # nine decimals do not show: the column comparison decides the row.
        sweeps_run = []

        def drifting(*args):
            table = state_sweep(*args)
            if len(sweeps_run) % 2:
                table["gain_mc"] = table["gain_mc"] + 1e-12
            sweeps_run.append(table)
            return table

        monkeypatch.setattr(sweeps, "state_sweep", drifting)
        check = row(verify(photons_per_setting=2_000, seed=42, grid_size=4), "rng_determinism")
        assert (check["verdict"], check["deviation"], check["tolerance"]) == ("FAIL", 1.0, 0.0)
        first, second = sweeps_run
        assert tables.csv_table(first) == tables.csv_table(second)

    def test_peak_memory_of_one_default_run(self):
        # The state-grid means set the peak, about 550 KiB: each kernel call
        # on two rows of the 16 x 16 lattice holds 1,632 states' terms.
        # range_bounds takes about 480 KiB, the closed forms and their bound
        # gaps on its 101 x 101 lattice, 80 KiB an array; the oracle row's 103
        # instruments take about 190 KiB. The first run of a process may
        # import numpy.random, so only the second is traced.
        verify()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            verify()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 640 * 2**10

    def test_oracle_check_passes_every_seed(self):
        # The design average is the Haar average exactly, so every seed's
        # 100 rotated instruments meet the closed forms to rounding.
        checks = [sweeps._check_oracle_agreement(seed) for seed in range(1000)]
        assert {detail for _, _, detail in checks} == {"103 instruments, 4 SIC states"}
        deviation, tolerance = np.array([check[:2] for check in checks]).T
        assert np.all(tolerance == 1e-12)
        assert deviation.max() <= 1e-14

    def test_oracle_check_takes_ties(self, monkeypatch):
        # A Gram matrix that is a multiple of I, zero included, has no top
        # eigenvector of its own: the guess is then |H>.
        monkeypatch.setattr(sweeps, "ORACLE_CELLS", ((0.3, 0.3), (0.0, 0.0), (1.0, 1.0)))
        deviation, tolerance, _ = sweeps._check_oracle_agreement(42)
        assert deviation <= 1e-14 and tolerance == 1e-12

    @pytest.mark.parametrize("control", ["hv_states", "reversal_without_u_dagger", "shifted_gmax"])
    def test_oracle_controls_fail_the_row(self, monkeypatch, control):
        if control == "hv_states":
            # Two basis states are no 2-design: their mean is not the Haar one.
            monkeypatch.setattr(sweeps, "ORACLE_STATES", np.eye(2, dtype=complex))
        elif control == "reversal_without_u_dagger":
            # R_r U_r = V flip(D_r) V^dagger undoes A_r only where U_r = I.
            operators = sweeps._oracle_operators

            def unrotated(e, h, u, v):
                branches, reversals = operators(e, h, u, v)
                return branches, reversals @ u

            monkeypatch.setattr(sweeps, "_oracle_operators", unrotated)
        else:
            # A shift the Monte Carlo row's tolerance, about 5.9e-7, accepted.
            forms = sweeps.closed_forms

            def shifted(e, h):
                gmax, prev, degenerate = forms(e, h)
                return gmax + 1e-9, prev, degenerate

            monkeypatch.setattr(sweeps, "closed_forms", shifted)
        deviation, tolerance, _ = sweeps._check_oracle_agreement(42)
        assert deviation > tolerance == 1e-12
        if control == "shifted_gmax":
            assert deviation == pytest.approx(1e-9, abs=1e-14)
        outcomes = passed(verify(photons_per_setting=20_000, seed=42))
        assert outcomes["oracle_agreement"] is False
        assert outcomes["kraus_completeness"] is True

    def test_crashed_checks_name_themselves(self, monkeypatch, capsys):
        def boom(*args):
            raise ZeroDivisionError("injected")

        # one check the battery runs through a lambda, one it calls directly
        monkeypatch.setattr(sweeps, "_check_state_grid_prev_mean", boom)
        monkeypatch.setattr(sweeps, "_check_kraus_completeness", boom)
        report = verify(photons_per_setting=2_000, seed=42, grid_size=4)
        assert report["check"].tolist() == [
            "kraus_completeness", "boundary_law", "center_minimum", "pvnm_corners",
            "range_bounds", "parameter_symmetries", "phase_invariance",
            "reversal_exactness", "reversal_state_constancy", "state_grid_prev_mean",
            "state_grid_gain_gap", "cross_section_monotonicity", "oracle_agreement",
            "estimator_consistency", "rng_determinism",
        ]
        crashed = report["deviation"] == math.inf
        assert report["check"][crashed].tolist() == ["kraus_completeness", "state_grid_prev_mean"]
        assert report["verdict"][crashed].tolist() == ["FAIL", "FAIL"]
        assert report["tolerance"][crashed].tolist() == [0.0, 0.0]
        # The product holds no source line; stderr says where each raised.
        assert report["detail"][crashed].tolist() == ["ZeroDivisionError: injected"] * 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for name, line in zip(("kraus_completeness", "state_grid_prev_mean"), lines):
            assert line.startswith(f"verify: {name} raised at test_sweeps.py:")
            assert line.endswith(" in boom")

    @pytest.mark.parametrize(
        "six_gmax, prev",
        [
            ([3.0, 3.5, 3.5, 4.0], [1.0, 0.75, 0.5, 0.0]),
            ([3.0, 3.25, 3.5, 4.0], [1.0, 0.5, 0.5, 0.0]),
        ],
        ids=["six_gmax-flat-step", "prev-flat-step"],
    )
    def test_non_monotone_cross_section_fails_monotonicity(self, monkeypatch, six_gmax, prev):
        # The law holds (every sum is exactly 4), but one column has a step
        # in the wrong direction: the check fails on that step alone.
        def section(*args, **kwargs):
            return {"eta": np.linspace(0.0, 1.0, 4), "six_gmax": np.array(six_gmax),
                    "prev": np.array(prev), "sum": np.full(4, 4.0)}

        monkeypatch.setattr(sweeps, "cross_section", section)
        report = verify(photons_per_setting=2_000, seed=42, grid_size=4)
        check = row(report, "cross_section_monotonicity")
        assert (check["verdict"], check["deviation"]) == ("FAIL", 1.0)
        outcomes = passed(report)
        assert [name for name, ok in outcomes.items() if not ok] == ["cross_section_monotonicity"]

    def test_state_grid_means_computed_once(self, monkeypatch):
        calls = []

        def counted(grid_size):
            calls.append(grid_size)
            return means(grid_size)

        means = sweeps._state_grid_means
        monkeypatch.setattr(sweeps, "_state_grid_means", counted)
        report = verify(photons_per_setting=2_000, seed=42, grid_size=5)
        assert calls == [5]
        outcomes = passed(report)
        assert outcomes["state_grid_prev_mean"] and outcomes["state_grid_gain_gap"]

    def test_failed_state_grid_means_fail_both_checks(self, monkeypatch, capsys):
        def boom(grid_size):
            raise FloatingPointError("injected")

        monkeypatch.setattr(sweeps, "_state_grid_means", boom)
        report = verify(photons_per_setting=2_000, seed=42, grid_size=4)
        crashed = report["deviation"] == math.inf
        assert report["check"][crashed].tolist() == ["state_grid_prev_mean", "state_grid_gain_gap"]
        assert report["verdict"][crashed].tolist() == ["FAIL", "FAIL"]
        assert report["detail"][crashed].tolist() == ["FloatingPointError: injected"] * 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for name, line in zip(("state_grid_prev_mean", "state_grid_gain_gap"), lines):
            assert line.startswith(f"verify: {name} raised at test_sweeps.py:")
            assert line.endswith(" in boom")

    def test_mutated_reversal_fails_exactness(self):
        report = verify(
            photons_per_setting=20_000, seed=42, reversal_fn=corrupted_reversal_operators
        )
        outcomes = passed(report)
        assert not all(outcomes.values())
        assert outcomes["reversal_exactness"] is False
        # the mutation hook must not poison unrelated checks
        assert outcomes["kraus_completeness"] is True
        assert outcomes["boundary_law"] is True
