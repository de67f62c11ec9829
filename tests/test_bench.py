"""Tests for the optical bench model: counting, estimators, tomography."""

import decimal
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies
from hypothesis.extra import numpy as hnp

from wmtradeoff.measurement import (
    TIE_ATOL,
    WeakMeasurement,
    branch_terms,
    closed_forms,
    reversal_operators,
)
from wmtradeoff import bench
from wmtradeoff.bench import (
    N_TRAVERSAL_STATES,
    TRAVERSAL_ALPHAS,
    EstimationError,
    NoiseModel,
    channel_probabilities,
    estimate_gmax_from_counts,
    estimate_prev_from_counts,
    gain_term_from_counts,
    rev_term_from_counts,
    simulate_counts,
    simulate_tomography,
)

from scalar_reference import PureState, kraus_pair

PI = math.pi
FLAGSHIP = WeakMeasurement(0.25, 0.75)
LARGEST_N = 2**63 - 1


def traversal_states():
    return [PureState(0.02 * i) for i in range(51)]


def chain_survival_oracle(wm, state, r):
    """Independent oracle: ||R_r A_r phi||^2 by direct matrix arithmetic."""
    reversal = reversal_operators(wm.epsilon, wm.eta)[r - 1]
    image = reversal @ (kraus_pair(wm)[r - 1].matrix @ state.amplitudes)
    return float(np.sum(np.abs(image) ** 2))


def leaky_survival_oracle(wm, state, r, swap):
    """Measurement and chain survival of branch ``r`` with arm-swap probability ``swap``.

    Each interferometer independently applies its operator with the two
    diagonal coefficients exchanged with probability ``swap``; the survival
    is the average squared norm over the four swap patterns.
    """
    def swapped(op):
        return np.diag(np.diag(op)[::-1])

    def norm2(v):
        return float(np.sum(np.abs(v) ** 2))

    a, rev = kraus_pair(wm)[r - 1].matrix, reversal_operators(wm.epsilon, wm.eta)[r - 1]
    measured = chained = 0.0
    for p_a, op_a in ((1.0 - swap, a), (swap, swapped(a))):
        image = op_a @ state.amplitudes
        measured += p_a * norm2(image)
        for p_r, op_r in ((1.0 - swap, rev), (swap, swapped(rev))):
            chained += p_a * p_r * norm2(op_r @ image)
    return measured, chained


def guess_weight(i, wm):
    """Primary-channel weight of state i: its fidelity with outcome 1's guess."""
    alpha = 0.02 * i
    return 1.0 - alpha if wm.epsilon - wm.eta > TIE_ATOL else alpha


def discrete_gain_expectation(wm):
    """Exact expectation of the count-ratio estimator over the 51-state grid."""
    total = 0.0
    for i, st in enumerate(traversal_states()):
        p1, p2 = branch_terms(wm.epsilon, wm.eta, st.alpha_weight, st.phase)[0]
        z = guess_weight(i, wm)
        total += z * p1 + (1.0 - z) * p2
    return total / 51.0


def run_counts(wm, photons, noise=NoiseModel(), seed=0, exact=False):
    """The (4, 51) counts of one cell's traversal."""
    key = None if exact else (seed, 0, 0)
    return simulate_counts(wm.epsilon, wm.eta, photons, noise, key)[..., 0]


def forced_counts(i, m_primary, m_complement):
    """(4, 51) counts with one photon in every measurement channel except state ``i``'s."""
    counts = np.ones((4, 51))
    counts[:, i] = (m_primary, m_complement, 0, 0)
    return counts


def signed_arm_operators(wm):
    """Measurement and reversal operators of the bench's waveplate angles.

    The primary setting is a = asin(sqrt(e))/2, b = (pi - asin(sqrt(h)))/2 (the
    descending branch keeps b in [pi/4, pi/2]); the complementary setting is
    (pi/4 - a, 3pi/4 - b); each reversal exchanges its branch's arms. A plate
    at angle t transmits the signed amplitude cos 2t.
    """
    a = 0.5 * math.asin(math.sqrt(wm.epsilon))
    b = 0.5 * (PI - math.asin(math.sqrt(wm.eta)))

    def arms(u, v):
        return np.diag([math.cos(2 * u), math.cos(2 * v)])

    measure = (arms(a, b), arms(PI / 4 - a, 3 * PI / 4 - b))
    reverse = (arms(b, a), arms(3 * PI / 4 - b, PI / 4 - a))
    return measure, reverse


class TestReversalSettings:
    def test_composition_proportional_to_identity(self):
        for e in np.linspace(0.0, 1.0, 11):
            for h in np.linspace(0.0, 1.0, 11):
                wm = WeakMeasurement(float(e), float(h))
                measure, reverse = signed_arm_operators(wm)
                for r in (1, 2):
                    m, rev = measure[r - 1], reverse[r - 1]
                    np.testing.assert_allclose(
                        np.abs(m), np.abs(kraus_pair(wm)[r - 1].matrix), atol=1e-12
                    )
                    np.testing.assert_allclose(
                        np.abs(rev), reversal_operators(wm.epsilon, wm.eta)[r - 1], atol=1e-12
                    )
                    # the signs cancel: both arms carry the same signed product
                    product = rev @ m
                    assert product[0, 1] == product[1, 0] == 0.0
                    assert product[0, 0] == pytest.approx(product[1, 1], abs=1e-12)
        measure, reverse = signed_arm_operators(FLAGSHIP)
        for r in (1, 2):
            np.testing.assert_allclose(
                np.abs(reverse[r - 1] @ measure[r - 1]), math.sqrt(0.1875) * np.eye(2),
                atol=1e-12,
            )


class TestZeta:
    # The guess weight of state i is its count-ratio gain term when only the
    # primary channel saw photons.
    def test_first_branch_endpoints(self):
        assert gain_term_from_counts(forced_counts(0, 5, 0), 0.25, 0.75)[0] == pytest.approx(
            0.0, abs=1e-15
        )
        assert gain_term_from_counts(forced_counts(50, 5, 0), 0.25, 0.75)[50] == pytest.approx(
            1.0, abs=1e-15
        )

    def test_second_branch(self):
        terms = gain_term_from_counts(forced_counts(20, 5, 0), 0.75, 0.25)
        assert terms[20] == pytest.approx(0.6, abs=1e-12)

    def test_tie_uses_first_branch(self):
        terms = gain_term_from_counts(forced_counts(20, 5, 0), 0.4, 0.4)
        assert terms[20] == pytest.approx(0.4, abs=1e-12)

    def test_index_bounds(self):
        # A state axis that stops short of index 50 or runs past it is refused.
        for n_states in (50, 52):
            with pytest.raises(EstimationError, match="51"):
                gain_term_from_counts(np.ones((4, n_states)), 0.25, 0.75)


class TestNoiseModel:
    def test_ranges(self):
        with pytest.raises(ValueError):
            NoiseModel(pbs_leakage=0.02)
        with pytest.raises(ValueError):
            NoiseModel(detector_efficiency=0.0)
        assert NoiseModel().interferometer_swap_probability == 0.0

    def test_swap_probability(self):
        assert NoiseModel(pbs_leakage=1e-3).interferometer_swap_probability == pytest.approx(
            2e-3 * (1 - 1e-3), abs=1e-15
        )


UNIT = strategies.one_of(strategies.sampled_from([0.0, 1.0]), strategies.floats(0.0, 1.0))


class TestCountRecord:
    """Bounds of every count in the (4, 51, cells) count array."""

    def test_count_bounds(self):
        # Every count lies in [0, N]: integers when sampled, floats when exact.
        noise = NoiseModel(pbs_leakage=0.01, detector_efficiency=0.9)
        eps, etas = [0.0, 0.3, 1.0, 1.0], [0.0, 0.8, 0.0, 1.0]
        for photons in (10, LARGEST_N):
            sampled = simulate_counts(eps, etas, photons, noise, (5, 0, 0))
            exact = simulate_counts(eps, etas, photons, noise)
            assert sampled.dtype == np.int64 and exact.dtype == np.float64
            for counts in (sampled, exact):
                assert counts.shape == (4, 51, 4)
                assert counts.min() >= 0 and counts.max() <= photons


class TestSimulateCounts:
    def test_no_measurement_expectations(self):
        counts = simulate_counts(0.0, 0.0, 1000)[:, 10, 0]
        assert counts[0] == pytest.approx(1000.0, abs=1e-9)
        assert counts[1] == pytest.approx(0.0, abs=1e-9)

    def test_flagship_expected_fractions(self):
        counts = run_counts(FLAGSHIP, 100000, exact=True)[:, 25]
        assert counts[0] / 100000 == pytest.approx(0.5, abs=1e-12)
        oracle = chain_survival_oracle(FLAGSHIP, PureState(0.5), 1)
        assert oracle == pytest.approx(0.1875, abs=1e-12)
        assert counts[2] / 100000 == pytest.approx(oracle, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(UNIT, UNIT, UNIT, strategies.floats(0.0, 2 * PI), strategies.floats(0.0, 0.01))
    def test_survival_helpers_match_oracle(self, eps, eta, alpha, phase, leakage):
        # channel_probabilities against an oracle averaging ||R A phi||^2 over
        # the four arm-swap patterns of the two interferometers.
        wm = WeakMeasurement(eps, eta)
        state = PureState(alpha, phase)
        noise = NoiseModel(pbs_leakage=leakage)
        m1, m2, r1, r2 = channel_probabilities(eps, eta, alpha, noise)
        expected = [
            leaky_survival_oracle(wm, state, r, noise.interferometer_swap_probability)
            for r in (1, 2)
        ]
        np.testing.assert_allclose(
            [m1, m2, r1, r2], [e[0] for e in expected] + [e[1] for e in expected],
            rtol=0.0, atol=1e-12,
        )
        # Without leakage: the branch probabilities and ||R_r A_r phi||^2.
        ideal = channel_probabilities(eps, eta, alpha)
        probs = branch_terms(eps, eta, alpha, phase)[0]
        chains = [chain_survival_oracle(wm, state, r) for r in (1, 2)]
        np.testing.assert_allclose(ideal, [*probs, *chains], rtol=0.0, atol=1e-12)

    def test_traversal_weights(self):
        assert TRAVERSAL_ALPHAS.tolist() == [st.alpha_weight for st in traversal_states()]

    def test_binomial_concentration(self):
        p1 = float(channel_probabilities(0.25, 0.75, TRAVERSAL_ALPHAS[15])[0])
        bound = 4.0 * math.sqrt(p1 * (1 - p1) / 1e6)
        for seed in range(20):
            counts = run_counts(FLAGSHIP, 1_000_000, seed=seed)
            assert abs(counts[0, 15] / 1e6 - p1) <= bound

    def test_zero_photons_rejected(self):
        with pytest.raises(ValueError):
            simulate_counts(0.25, 0.75, 0, key=(0, 0, 0))

    @settings(max_examples=300, deadline=None)
    @given(UNIT, UNIT, UNIT, strategies.floats(0.0, 0.01))
    def test_reversal_survival_never_exceeds_measurement(self, eps, eta, alpha, leakage):
        noise = NoiseModel(pbs_leakage=leakage)
        m1, m2, r1, r2 = channel_probabilities(eps, eta, alpha, noise)
        assert r1 <= m1 + 1e-15 and r2 <= m2 + 1e-15

    @settings(max_examples=150, deadline=None)
    @given(
        strategies.sampled_from(["scalars", "traversal", "cells x traversal", "mixed"]),
        strategies.lists(UNIT, min_size=6, max_size=6),
        strategies.lists(UNIT, min_size=6, max_size=6),
        strategies.lists(UNIT, min_size=6, max_size=6),
        strategies.floats(0.0, 0.01),
    )
    def test_channels_equal_scalar_formula_bit_for_bit(self, layout, epss, etas, alphas, leakage):
        # The array kernel must round exactly as this per-element formula, the
        # ideal survivals at the leakage-mapped pair: sampled counts draw on
        # its output, so one changed bit changes a draw.
        noise = NoiseModel(pbs_leakage=leakage)
        swap = noise.interferometer_swap_probability
        keep = 1.0 - swap

        def ideal(h1, v1, h2, v2, a):
            b = 1.0 - a
            return [a * h1 + b * v1, a * h2 + b * v2, a * h1 * v1 + b * v1 * h1,
                    a * h2 * v2 + b * v2 * h2]

        def channels(e, h, a):
            mapped_e, mapped_h = keep * e + swap * h, keep * h + swap * e
            return ideal(1.0 - mapped_e, 1.0 - mapped_h, mapped_e, mapped_h, a)

        def mixed_channels(e, h, a):
            # Each arm transmission mixed with its partner's, branch by branch.
            h1, v1 = keep * (1.0 - e) + swap * (1.0 - h), keep * (1.0 - h) + swap * (1.0 - e)
            return ideal(h1, v1, keep * e + swap * h, keep * h + swap * e, a)

        eps, eta, alpha = {
            "scalars": (epss[0], etas[0], alphas[0]),
            "traversal": (epss[0], etas[0], TRAVERSAL_ALPHAS),
            "cells x traversal": (
                np.array(epss)[:, None], np.array(etas)[:, None], TRAVERSAL_ALPHAS
            ),
            "mixed": (
                np.array(epss[:2])[:, None, None], np.array(etas[:3])[:, None],
                np.array(alphas),
            ),
        }[layout]
        got = channel_probabilities(eps, eta, alpha, noise)
        e, h, a = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (eps, eta, alpha)))
        assert got.shape == (4,) + e.shape
        expected, mixed = (
            np.array(
                [formula(float(e[i]), float(h[i]), float(a[i])) for i in np.ndindex(e.shape)]
            ).T.reshape(got.shape)
            for formula in (channels, mixed_channels)
        )
        assert (got.view(np.int64) == expected.view(np.int64)).all()
        # The map is exact: the mixing formula differs from it by rounding only.
        assert np.max(np.abs(got - mixed), initial=0.0) <= 1e-15

    def test_cell_keys_required_when_sampled(self):
        # A call given no key records expected counts for every cell.
        assert simulate_counts([0.25, 0.5], 0.75, 1000).shape == (4, 51, 2)

    def test_deterministic_per_cell_streams(self):
        a = run_counts(FLAGSHIP, 10000, seed=42)
        b = run_counts(FLAGSHIP, 10000, seed=42)
        np.testing.assert_array_equal(a, b)
        c = run_counts(FLAGSHIP, 10000, seed=43)
        assert not np.array_equal(a, c)

    def test_cell_counts_independent_of_call_grouping(self):
        # A cell's counts depend on its key alone, not on the cells drawn with it:
        # one call over a run of cells, two calls splitting it, and one call per cell.
        noise = NoiseModel(pbs_leakage=0.001, detector_efficiency=0.9)
        eps, etas = [0.0, 0.25, 0.5, 0.9], [0.7, 0.75, 0.5, 0.1]
        row = simulate_counts(eps, etas, 5000, noise, (42, 1, 10))
        tail = simulate_counts(eps[2:], etas[2:], 5000, noise, (42, 1, 12))
        head = simulate_counts(eps[:2], etas[:2], 5000, noise, (42, 1, 10))
        np.testing.assert_array_equal(np.concatenate((head, tail), axis=-1), row)
        for k in range(4):
            single = simulate_counts(eps[k], etas[k], 5000, noise, (42, 1, 10 + k))[..., 0]
            np.testing.assert_array_equal(single, row[..., k])
        other_key = simulate_counts(eps[0], etas[0], 5000, noise, (42, 1, 11))[..., 0]
        assert not np.array_equal(other_key, row[..., 0])
        other_prefix = simulate_counts(eps[0], etas[0], 5000, noise, (42, 2, 10))[..., 0]
        assert not np.array_equal(other_prefix, row[..., 0])

    @settings(max_examples=100, deadline=None)
    @given(
        strategies.integers(0, 2**63),
        strategies.lists(strategies.integers(0, 2**32 - 1), min_size=1, max_size=3),
        strategies.lists(strategies.tuples(UNIT, UNIT), min_size=1, max_size=5),
        strategies.integers(1, 10**6),
        strategies.data(),
    )
    def test_cell_counts_equal_standalone_philox_draw(self, seed, prefix, cells, photons, data):
        # The per-cell-v4 scheme: cell k of a call whose first key is
        # (*prefix, first_cell) draws as a fresh Philox keyed by
        # SeedSequence(seed, spawn_key=prefix) with the counter
        # (0, 0, 0, first_cell + k), whatever else shares the call, and
        # draws over (state, channel) in C order; cell 0 is where
        # ``_substream(seed, *prefix)`` starts.
        assert bench.STREAM_SCHEME == "per-cell-v4"
        first_cell = data.draw(strategies.integers(0, 2**64 - len(cells)))
        noise = NoiseModel(pbs_leakage=0.001, detector_efficiency=0.9)
        eps, etas = [c[0] for c in cells], [c[1] for c in cells]
        counts = simulate_counts(eps, etas, photons, noise, (seed, *prefix, first_cell))
        key = np.random.SeedSequence(seed, spawn_key=prefix).generate_state(2, np.uint64)
        start = bench._substream(seed, *prefix).bit_generator.state["state"]
        assert start["key"].tolist() == key.tolist() and start["counter"].tolist() == [0] * 4
        for k, (e, h) in enumerate(cells):
            # A list holding an int above 2**63 converts through float64.
            counter = np.array([0, 0, 0, first_cell + k], dtype=np.uint64)
            rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
            p = channel_probabilities(e, h, TRAVERSAL_ALPHAS, noise) * noise.detector_efficiency
            drawn = rng.binomial(photons, np.clip(p, 0.0, 1.0).T).T
            np.testing.assert_array_equal(counts[..., k], drawn)

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    @pytest.mark.parametrize("prefix", [(1, 0), (1, 5), (1, 2**40), (1004, 0)])
    def test_substream_is_philox_keyed_by_generate_state(self, seed, prefix):
        # Philox built from the SeedSequence keys itself with its
        # generate_state(2, np.uint64): the same state and draws as the
        # explicit key of STREAM_SCHEME.
        key = np.random.SeedSequence(seed, spawn_key=prefix).generate_state(2, np.uint64)
        explicit = np.random.Generator(np.random.Philox(key=key))
        stream = bench._substream(seed, *prefix)
        assert repr(stream.bit_generator.state) == repr(explicit.bit_generator.state)
        assert stream.random(100).tobytes() == explicit.random(100).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        strategies.lists(strategies.tuples(UNIT, UNIT), min_size=1, max_size=5),
        strategies.integers(1, 10**6),
        strategies.floats(0.0, 0.01),
        strategies.floats(0.01, 1.0),
    )
    def test_exact_counts_equal_scaled_clipped_probabilities(
        self, cells, photons, leakage, efficiency
    ):
        # The exact-mode twin of the draw above: each cell records
        # N * clip(p * efficiency, 0, 1) of its channel probabilities.
        noise = NoiseModel(pbs_leakage=leakage, detector_efficiency=efficiency)
        eps, etas = [c[0] for c in cells], [c[1] for c in cells]
        counts = simulate_counts(eps, etas, photons, noise)
        for k, (e, h) in enumerate(cells):
            p = channel_probabilities(e, h, TRAVERSAL_ALPHAS, noise) * efficiency
            expected = photons * np.clip(p, 0.0, 1.0)
            assert np.ascontiguousarray(counts[..., k]).tobytes() == expected.tobytes()


class TestEstimators:
    def test_balanced_zeta_term_is_count_independent(self):
        terms = gain_term_from_counts(forced_counts(25, 100, 300), 0.25, 0.75)
        assert terms[25] == pytest.approx(0.5, abs=1e-12)

    def test_forced_term_arithmetic(self):
        terms = gain_term_from_counts(forced_counts(0, 10, 90), 0.25, 0.75)
        assert terms[0] == pytest.approx(0.9, abs=1e-12)

    def test_zero_denominator_names_state(self):
        counts = np.ones((4, 51, 3))
        counts[:, 7, 1] = 0
        with pytest.raises(EstimationError, match="state index 7"):
            gain_term_from_counts(counts, [0.25] * 3, 0.75)
        with pytest.raises(EstimationError, match="state index 7"):
            rev_term_from_counts(counts)

    def test_no_cells_estimate_to_nothing(self):
        counts = np.ones((4, 51, 0))
        assert estimate_gmax_from_counts(counts, np.zeros(0), 0.5).shape == (0,)
        assert estimate_prev_from_counts(counts).shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(
        strategies.sampled_from([(51, 1), (51, 2), (51, 64), (51,), (51, 2, 3)]).flatmap(
            lambda shape: hnp.arrays(np.float64, shape, elements=strategies.floats(0.0, 1.0))
        ),
        strategies.sampled_from(["C", "F", "strided"]),
    )
    def test_traversal_mean_adds_states_in_order(self, terms, layout):
        # The builtin sum adds the 51 states (axis 0) one after another, as a
        # per-state loop would; the mean must round exactly as it does,
        # whatever the memory layout of the terms.
        reference = sum(terms) / N_TRAVERSAL_STATES
        held = {
            "C": np.ascontiguousarray(terms),
            "F": np.asfortranarray(terms),
            "strided": np.repeat(terms, 2, axis=-1)[..., ::2],
        }[layout]
        mean = bench._traversal_mean(held)
        assert type(mean) is type(reference)
        assert np.asarray(mean).tobytes() == np.asarray(reference).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        strategies.integers(0, 2**32 - 1),
        strategies.integers(0, 5),
        strategies.sampled_from([np.float64, np.int64]),
        strategies.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    )
    def test_estimators_do_not_depend_on_the_layout(self, seed, cells, dtype, eta):
        # simulate_counts hands out its (4, 51, cells) buffer C-contiguous;
        # the same values held cell-major must estimate to the same bytes,
        # as floats (exact mode) and as int64 (sampled).
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 10**6, size=(4, 51, cells))
        values[0] += 1  # every state measured at least one photon
        contiguous = values.astype(dtype)
        cell_major = np.asfortranarray(contiguous)
        assert not cell_major.flags.c_contiguous or cells <= 1
        eps = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=cells)
        for estimate in (
            lambda c: gain_term_from_counts(c, eps, eta),
            rev_term_from_counts,
            lambda c: estimate_gmax_from_counts(c, eps, eta),
            estimate_prev_from_counts,
        ):
            a, b = estimate(contiguous), estimate(cell_major)
            assert a.shape == b.shape
            assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()

    @pytest.mark.parametrize(
        "cells, guess_shape",
        [((), (5,)), ((), (2, 3)), ((3,), (2, 3)), ((3,), (4, 1)), ((3,), (4,)), ((), (51,))],
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_gain_refuses_guess_shapes_beyond_the_cells(self, cells, guess_shape, dtype):
        # epsilon and eta give one guess per cell: a shape that does not
        # broadcast to the counts' cell axes is refused, not spread over the
        # states, as one cell's (4, 51) counts against 51 epsilons would be.
        rng = np.random.default_rng(7)
        counts = rng.integers(1, 10**6, size=(4, 51) + cells).astype(dtype)
        eps = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=guess_shape)
        message = re.escape(f"shape {guess_shape} do not broadcast to the cells {cells}")
        for estimate in (gain_term_from_counts, estimate_gmax_from_counts):
            with pytest.raises(EstimationError, match=message):
                estimate(counts, eps, 0.5)

    @pytest.mark.parametrize(
        "cells, guess_shape", [((), ()), ((3,), ()), ((3,), (1,)), ((3,), (3,))]
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_gain_takes_a_guess_shape_that_broadcasts_to_the_cells(self, cells, guess_shape, dtype):
        # The per-state formula, one guess per cell broadcast over the states.
        rng = np.random.default_rng(7)
        counts = rng.integers(1, 10**6, size=(4, 51) + cells).astype(dtype)
        eps = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=guess_shape)
        m = counts.astype(float)
        alphas = TRAVERSAL_ALPHAS.reshape((51,) + (1,) * len(cells))
        z = np.where(eps - 0.5 > TIE_ATOL, 1.0 - alphas, alphas)
        terms = (z * m[0] + (1.0 - z) * m[1]) / (m[0] + m[1])
        got = gain_term_from_counts(counts, eps, 0.5)
        assert got.shape == terms.shape == (51,) + cells
        assert got.tobytes() == terms.tobytes()
        mean = sum(terms) / N_TRAVERSAL_STATES
        got = estimate_gmax_from_counts(counts, eps, 0.5)
        assert got.shape == mean.shape
        assert np.ascontiguousarray(got).tobytes() == mean.tobytes()

    def test_estimators_require_full_traversal(self):
        counts = run_counts(FLAGSHIP, 1000, exact=True)
        with pytest.raises(EstimationError):
            estimate_gmax_from_counts(counts[:, :-1], 0.25, 0.75)
        with pytest.raises(EstimationError):
            estimate_prev_from_counts(counts[:3])

    def test_exact_pipeline_reproduces_discrete_expectation(self):
        target = discrete_gain_expectation(FLAGSHIP)
        assert target == pytest.approx(0.5866666666666667, abs=1e-12)
        counts = run_counts(FLAGSHIP, 100_000, exact=True)
        assert estimate_gmax_from_counts(counts, 0.25, 0.75) == pytest.approx(target, abs=1e-12)
        assert estimate_prev_from_counts(counts) == pytest.approx(0.375, abs=1e-12)

    def test_sampled_estimates_at_desk_scale(self):
        counts = run_counts(FLAGSHIP, 100_000, seed=42)
        assert abs(estimate_gmax_from_counts(counts, 0.25, 0.75) - 0.586667) <= 0.002
        assert abs(estimate_prev_from_counts(counts) - 0.375) <= 0.005

    def test_estimates_at_largest_photon_number(self):
        # m1 + m2 can exceed the int64 range at N = 2^63 - 1; totals are floats.
        for exact in (False, True):
            counts = run_counts(WeakMeasurement(0.5, 0.5), LARGEST_N, exact=exact)
            assert estimate_gmax_from_counts(counts, 0.5, 0.5) == pytest.approx(0.5, abs=1e-9)
            assert estimate_prev_from_counts(counts) == pytest.approx(0.5, abs=1e-9)

    def test_prev_estimator_limits(self):
        ident = run_counts(WeakMeasurement(0.0, 0.0), 10_000, exact=True)
        assert estimate_prev_from_counts(ident) == pytest.approx(1.0, abs=1e-12)
        pvnm = run_counts(WeakMeasurement(1.0, 0.0), 10_000, seed=3)
        assert estimate_prev_from_counts(pvnm) == pytest.approx(0.0, abs=1e-12)

    def test_consistency_ladder(self):
        # Over 20 seeds at each N, both estimators' mean error stays within
        # 5/sqrt(N) and within 5 standard errors of 0, and their
        # seed-to-seed spread shrinks as N grows. (Whether the mean error
        # itself shrinks from one N to the next is left to chance.)
        target_g = discrete_gain_expectation(FLAGSHIP)
        _, target_p, _ = closed_forms(0.25, 0.75)
        spreads = []
        for n in (1_000, 10_000, 100_000):
            errors = np.array([
                (float(estimate_gmax_from_counts(counts, 0.25, 0.75)) - target_g,
                 float(estimate_prev_from_counts(counts)) - target_p)
                for counts in (run_counts(FLAGSHIP, n, seed=seed) for seed in range(20))
            ])
            mean, spread = errors.mean(axis=0), errors.std(axis=0, ddof=1)
            assert (np.abs(mean) <= 5.0 / math.sqrt(n)).all()
            assert (np.abs(mean) <= 5.0 * spread / math.sqrt(20)).all()
            spreads.append(spread)
        assert (spreads[0] > spreads[1]).all() and (spreads[1] > spreads[2]).all()

    def test_detector_efficiency_cancels(self):
        full = run_counts(FLAGSHIP, 50_000, NoiseModel(detector_efficiency=1.0), exact=True)
        dim = run_counts(FLAGSHIP, 50_000, NoiseModel(detector_efficiency=0.3), exact=True)
        assert estimate_gmax_from_counts(full, 0.25, 0.75) == pytest.approx(
            estimate_gmax_from_counts(dim, 0.25, 0.75), abs=1e-12
        )
        assert estimate_prev_from_counts(full) == pytest.approx(
            estimate_prev_from_counts(dim), abs=1e-12
        )
        diffs_g, diffs_p = [], []
        for seed in range(10):
            full = run_counts(FLAGSHIP, 50_000, NoiseModel(detector_efficiency=1.0), seed=seed)
            dim = run_counts(FLAGSHIP, 50_000, NoiseModel(detector_efficiency=0.3), seed=seed)
            diffs_g.append(
                estimate_gmax_from_counts(full, 0.25, 0.75)
                - estimate_gmax_from_counts(dim, 0.25, 0.75)
            )
            diffs_p.append(estimate_prev_from_counts(full) - estimate_prev_from_counts(dim))
        assert abs(np.mean(diffs_g)) <= 0.003
        assert abs(np.mean(diffs_p)) <= 0.003


def bloch_vector(alpha):
    """(s1, s2, s3) of sqrt(alpha)|H> + sqrt(1-alpha)|V>, rounded as the tomography forms it."""
    return (2.0 * alpha - 1.0, 2.0 * math.sqrt(alpha * (1.0 - alpha)), 0.0)


def clipped_density(s1, s2, s3) -> np.ndarray:
    """Reference reconstruction: the physical state nearest to (I + s.sigma)/2.

    The eigenvalues of the linear inversion are clipped to [0, 1] and
    renormalized through an eigendecomposition.
    """
    raw = 0.5 * np.array(
        [[1.0 + s1, s2 - 1j * s3], [s2 + 1j * s3, 1.0 - s1]], dtype=complex
    )
    raw = 0.5 * (raw + raw.conj().T)
    eigvals, eigvecs = np.linalg.eigh(raw)
    eigvals = np.clip(eigvals, 0.0, 1.0)
    eigvals = eigvals / eigvals.sum()
    return (eigvecs * eigvals) @ eigvecs.conj().T


def reference_fidelity(alpha, stokes) -> float:
    """<phi|rho|phi> of the reference reconstruction of ``stokes``, clipped to [0, 1]."""
    amps = PureState(alpha).amplitudes
    f = float(np.real(np.conj(amps) @ clipped_density(*stokes) @ amps))
    return min(max(f, 0.0), 1.0)


def decimal_fidelity(alpha, stokes) -> float:
    """(1 + n.s / max(1, |s|)) / 2 of the same doubles, evaluated to 40 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        n = [decimal.Decimal(x) for x in bloch_vector(alpha)]
        s = [decimal.Decimal(x) for x in stokes]
        scale = max(decimal.Decimal(1), sum(x * x for x in s).sqrt())
        f = (1 + sum(a * b for a, b in zip(n, s)) / scale) / 2
        return float(min(max(f, decimal.Decimal(0)), decimal.Decimal(1)))


class FixedCounts(np.random.Generator):
    """A generator whose one binomial call returns the given (..., 3) counts."""

    def __init__(self, counts):
        super().__init__(np.random.Philox(0))
        self._counts = np.array(counts)

    def binomial(self, n, p, size=None):
        assert np.shape(p) == self._counts.shape
        return self._counts


# A photon budget per basis and the three H, D and R counts recorded.
TOMOGRAPHY_RECORDS = strategies.integers(100, 10**6).flatmap(
    lambda n: strategies.tuples(
        strategies.just(n), strategies.tuples(*[strategies.integers(0, n)] * 3)
    )
)
ULP = float(np.spacing(1.0))


class TestTomography:
    def test_exact_mode_is_identity_on_pure_states(self):
        rng = np.random.default_rng(41)
        for alpha in [0.0, 1.0] + rng.uniform(size=100).tolist():
            assert simulate_tomography(alpha, 1000) == pytest.approx(1.0, abs=1e-12)

    def test_h_state_high_fidelity_over_seeds(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            assert simulate_tomography(1.0, 10_000, rng_stream=rng) >= 0.999

    def test_leakage_keeps_fidelity_above_099(self):
        # 1000 traversals of the 51 H-weights at N = 10,000 and leakage 1e-3,
        # drawn in one call. A correct stream leaves 0.168% of fidelities
        # below 0.99, at H-weights 0.04-0.32 and 0.66-0.96: 1709 of 1,020,000
        # in one call of 20,000 traversals on bench._substream(2000, 51). At
        # that rate more than 128 of 51,000 fall below with a binomial chance
        # of 6.8e-6; twice the analyzer leakage (0.37%, 378 of 102,000)
        # gives 189 on average and passes only 1.5e-6 of streams.
        noise = NoiseModel(pbs_leakage=1e-3)
        alphas = np.tile(TRAVERSAL_ALPHAS, 1000)
        fidelity = simulate_tomography(alphas, 10_000, noise, bench._substream(1000, 51))
        assert np.count_nonzero(fidelity < 0.99) <= 128

    @settings(max_examples=100, deadline=None)
    @given(strategies.lists(strategies.tuples(UNIT, TOMOGRAPHY_RECORDS), min_size=1, max_size=6))
    def test_one_call_equals_one_call_per_input(self, inputs):
        # Each input's fidelity is its own record's, whatever is drawn with it.
        alphas = [alpha for alpha, _ in inputs]
        budgets = [n for _, (n, _) in inputs]
        records = [counts for _, (_, counts) in inputs]
        together = simulate_tomography(alphas, budgets, rng_stream=FixedCounts(records))
        alone = [
            simulate_tomography(alpha, n, rng_stream=FixedCounts(counts))
            for alpha, (n, counts) in inputs
        ]
        assert together.tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("sampled", [False, True], ids=["exact", "sampled"])
    def test_peak_memory_is_a_few_arrays_per_input(self, sampled):
        # 102,000 inputs: the rows of length 3 stay numpy arrays, and
        # math.hypot sees only the rows whose |s| reaches 1 - 1e-9. A Python
        # list of one 3-list per input peaked at 30.4 and 32.7 MiB here.
        noise = NoiseModel(pbs_leakage=1e-3)
        alphas = np.tile(TRAVERSAL_ALPHAS, 2000)
        rng = bench._substream(7, 51) if sampled else None
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            simulate_tomography(alphas, 10_000, noise, rng)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_minimum_counts_enforced(self):
        with pytest.raises(ValueError):
            simulate_tomography(1.0, 99)

    @pytest.mark.parametrize("bad", [-1e-300, -0.1, 1.0 + 1e-12, math.nan, math.inf, -math.inf])
    def test_h_weight_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            simulate_tomography(bad, 1000)

    @settings(max_examples=300, deadline=None)
    @given(UNIT, TOMOGRAPHY_RECORDS)
    @example(0.3, (1000, (500, 500, 500)))  # |s| = 0
    @example(0.3, (1000, (1000, 1000, 0)))  # |s| = sqrt(2)
    @example(1.0, (1000, (1000, 500, 500)))  # |s| = 1
    @example(0.0, (100, (100, 0, 100)))  # |s| = sqrt(3), n.s < 0
    def test_fidelity_equals_the_clipped_reconstruction(self, alpha, record):
        # The closed form against the eigendecomposition it replaces, on
        # any recorded counts, unphysical (|s| > 1) and empty (s = 0)
        # included. The closed form lies within 1 ulp of its exact value
        # (0.56 ulp at most over 40,000 random records); the reference's own
        # rounding reached 7.5 ulp over 300,000, so it is held to 12.
        n, counts = record
        fidelity = simulate_tomography(alpha, n, rng_stream=FixedCounts(counts))
        stokes = [(2.0 * c - n) / n for c in counts]
        assert abs(fidelity - decimal_fidelity(alpha, stokes)) <= ULP
        assert abs(fidelity - reference_fidelity(alpha, stokes)) <= 12 * ULP

    def test_exact_fidelity_against_state_fidelity(self):
        # Exact mode inverts (1 - 2*leakage) * n, a mixed state inside the ball.
        for leakage in (0.0, 0.001, 0.01):
            fidelity = simulate_tomography(0.62, 1000, NoiseModel(leakage))
            stokes = [(1.0 - 2.0 * leakage) * x for x in bloch_vector(0.62)]
            assert fidelity == pytest.approx(reference_fidelity(0.62, stokes), abs=1e-15)
            assert fidelity == pytest.approx(1.0 - leakage, abs=1e-15)
