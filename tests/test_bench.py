"""Tests for the optical bench model: angles, counting, estimators, tomography."""

import math

import numpy as np
import pytest

from wmtradeoff.qubit import PureState, STATE_H, density_of_state, state_fidelity
from wmtradeoff.measurement import (
    WeakMeasurement,
    analytic_prev,
    branch_terms,
    kraus_pair,
    reversal_operator,
)
from wmtradeoff.bench import (
    CountRecord,
    EstimationError,
    NoiseModel,
    estimate_gmax_from_counts,
    estimate_prev_from_counts,
    gain_term_from_counts,
    measurement_survival,
    rev_term_from_counts,
    reversal_chain_survival,
    simulate_counts,
    simulate_tomography,
    zeta,
)

PI = math.pi
FLAGSHIP = WeakMeasurement(0.25, 0.75)


def traversal_states():
    return [PureState(0.02 * i) for i in range(51)]


def chain_survival_oracle(wm, state, r):
    """Independent oracle: ||R_r A_r phi||^2 by direct matrix arithmetic."""
    image = reversal_operator(wm, r).matrix @ (kraus_pair(wm)[r - 1].matrix @ state.amplitudes)
    return float(np.sum(np.abs(image) ** 2))


def discrete_gain_expectation(wm):
    """Exact expectation of the count-ratio estimator over the 51-state grid."""
    total = 0.0
    for i, st in enumerate(traversal_states()):
        p1, p2 = branch_terms(wm.epsilon, wm.eta, st.alpha_weight, st.phase)[0]
        z = zeta(i, wm)
        total += z * p1 + (1.0 - z) * p2
    return total / 51.0


def run_records(wm, photons, noise=None, seed=0, exact=False):
    return [
        simulate_counts(i, st, wm, photons, noise, seed, exact_mode=exact)
        for i, st in enumerate(traversal_states())
    ]


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
                        np.abs(rev), np.abs(reversal_operator(wm, r).matrix), atol=1e-12
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
    def test_first_branch_endpoints(self):
        assert zeta(0, FLAGSHIP) == pytest.approx(0.0, abs=1e-15)
        assert zeta(50, FLAGSHIP) == pytest.approx(1.0, abs=1e-15)

    def test_second_branch(self):
        assert zeta(20, WeakMeasurement(0.75, 0.25)) == pytest.approx(0.6, abs=1e-12)

    def test_tie_uses_first_branch(self):
        assert zeta(20, WeakMeasurement(0.4, 0.4)) == pytest.approx(0.4, abs=1e-12)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            zeta(51, FLAGSHIP)
        with pytest.raises(ValueError):
            zeta(-1, FLAGSHIP)


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


class TestCountRecord:
    def test_count_bounds(self):
        with pytest.raises(ValueError):
            CountRecord(0, 11, 0, 0, 0, 10)
        with pytest.raises(ValueError):
            CountRecord(0, -1, 0, 0, 0, 10)
        with pytest.raises(ValueError):
            CountRecord(51, 0, 0, 0, 0, 10)


class TestSimulateCounts:
    def test_no_measurement_expectations(self):
        rec = simulate_counts(10, PureState(0.2), WeakMeasurement(0.0, 0.0), 1000, exact_mode=True)
        assert rec.counts_m_primary == pytest.approx(1000.0, abs=1e-9)
        assert rec.counts_m_complement == pytest.approx(0.0, abs=1e-9)

    def test_flagship_expected_fractions(self):
        st = PureState(0.5)
        rec = simulate_counts(25, st, FLAGSHIP, 100000, exact_mode=True)
        assert rec.counts_m_primary / 100000 == pytest.approx(0.5, abs=1e-12)
        oracle = chain_survival_oracle(FLAGSHIP, st, 1)
        assert oracle == pytest.approx(0.1875, abs=1e-12)
        assert rec.counts_r_primary / 100000 == pytest.approx(oracle, abs=1e-12)

    def test_survival_helpers_match_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            wm = WeakMeasurement(rng.uniform(), rng.uniform())
            st = PureState(rng.uniform(), rng.uniform(0, 2 * PI))
            for r in (1, 2):
                assert reversal_chain_survival(st, wm, r) == pytest.approx(
                    chain_survival_oracle(wm, st, r), abs=1e-12
                )
                probs = branch_terms(wm.epsilon, wm.eta, st.alpha_weight, st.phase)[0]
                assert measurement_survival(st, wm, r) == pytest.approx(probs[r - 1], abs=1e-12)

    def test_binomial_concentration(self):
        st = PureState(0.3)
        p1 = measurement_survival(st, FLAGSHIP, 1)
        bound = 4.0 * math.sqrt(p1 * (1 - p1) / 1e6)
        for seed in range(20):
            rec = simulate_counts(15, st, FLAGSHIP, 1_000_000, seed=seed)
            assert abs(rec.counts_m_primary / 1e6 - p1) <= bound

    def test_zero_photons_rejected(self):
        with pytest.raises(ValueError):
            simulate_counts(0, STATE_H, FLAGSHIP, 0)

    def test_reversal_survival_never_exceeds_measurement(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            wm = WeakMeasurement(rng.uniform(), rng.uniform())
            st = PureState(rng.uniform())
            noise = NoiseModel(pbs_leakage=rng.uniform(0, 0.01))
            for r in (1, 2):
                assert reversal_chain_survival(st, wm, r, noise) <= measurement_survival(
                    st, wm, r, noise
                ) + 1e-15

    def test_deterministic_per_channel_streams(self):
        a = simulate_counts(7, PureState(0.3), FLAGSHIP, 10000, seed=42)
        b = simulate_counts(7, PureState(0.3), FLAGSHIP, 10000, seed=42)
        assert a == b
        c = simulate_counts(7, PureState(0.3), FLAGSHIP, 10000, seed=43)
        assert a != c


class TestEstimators:
    def test_balanced_zeta_term_is_count_independent(self):
        rec = CountRecord(25, 100, 300, 0, 0, 1000)
        assert gain_term_from_counts(rec, FLAGSHIP) == pytest.approx(0.5, abs=1e-12)

    def test_forced_term_arithmetic(self):
        rec = CountRecord(0, 10, 90, 0, 0, 1000)
        assert gain_term_from_counts(rec, FLAGSHIP) == pytest.approx(0.9, abs=1e-12)

    def test_zero_denominator_names_state(self):
        rec = CountRecord(7, 0, 0, 0, 0, 1000)
        with pytest.raises(EstimationError, match="state index 7"):
            gain_term_from_counts(rec, FLAGSHIP)
        with pytest.raises(EstimationError, match="state index 7"):
            rev_term_from_counts(rec)

    def test_estimators_require_full_traversal(self):
        records = run_records(FLAGSHIP, 1000, exact=True)
        with pytest.raises(EstimationError):
            estimate_gmax_from_counts(records[:-1], FLAGSHIP)
        duplicated = records[:50] + [records[0]]
        with pytest.raises(EstimationError):
            estimate_prev_from_counts(duplicated)

    def test_exact_pipeline_reproduces_discrete_expectation(self):
        target = discrete_gain_expectation(FLAGSHIP)
        assert target == pytest.approx(0.5866666666666667, abs=1e-12)
        records = run_records(FLAGSHIP, 100_000, exact=True)
        assert estimate_gmax_from_counts(records, FLAGSHIP) == pytest.approx(target, abs=1e-12)
        assert estimate_prev_from_counts(records) == pytest.approx(0.375, abs=1e-12)

    def test_sampled_estimates_at_desk_scale(self):
        records = run_records(FLAGSHIP, 100_000, seed=42)
        assert abs(estimate_gmax_from_counts(records, FLAGSHIP) - 0.586667) <= 0.002
        assert abs(estimate_prev_from_counts(records) - 0.375) <= 0.005

    def test_prev_estimator_limits(self):
        ident = run_records(WeakMeasurement(0.0, 0.0), 10_000, exact=True)
        assert estimate_prev_from_counts(ident) == pytest.approx(1.0, abs=1e-12)
        pvnm = run_records(WeakMeasurement(1.0, 0.0), 10_000, seed=3)
        assert estimate_prev_from_counts(pvnm) == pytest.approx(0.0, abs=1e-12)

    def test_consistency_ladder(self):
        # Seed-averaged error shrinks with N and stays within 5/sqrt(N).
        target_g = discrete_gain_expectation(FLAGSHIP)
        target_p = analytic_prev(FLAGSHIP)
        errors = []
        for n in (1_000, 10_000, 100_000):
            g_err = p_err = 0.0
            for seed in range(20):
                records = run_records(FLAGSHIP, n, seed=seed)
                g_err += estimate_gmax_from_counts(records, FLAGSHIP) - target_g
                p_err += estimate_prev_from_counts(records) - target_p
            g_err, p_err = abs(g_err / 20), abs(p_err / 20)
            bound = 5.0 / math.sqrt(n)
            assert g_err <= bound
            assert p_err <= bound
            errors.append(max(g_err, p_err))
        assert errors[0] > errors[1] > errors[2]

    def test_detector_efficiency_cancels(self):
        full = run_records(FLAGSHIP, 50_000, NoiseModel(detector_efficiency=1.0), exact=True)
        dim = run_records(FLAGSHIP, 50_000, NoiseModel(detector_efficiency=0.3), exact=True)
        assert estimate_gmax_from_counts(full, FLAGSHIP) == pytest.approx(
            estimate_gmax_from_counts(dim, FLAGSHIP), abs=1e-12
        )
        assert estimate_prev_from_counts(full) == pytest.approx(
            estimate_prev_from_counts(dim), abs=1e-12
        )
        diffs_g, diffs_p = [], []
        for seed in range(10):
            full = run_records(FLAGSHIP, 50_000, NoiseModel(detector_efficiency=1.0), seed=seed)
            dim = run_records(FLAGSHIP, 50_000, NoiseModel(detector_efficiency=0.3), seed=seed)
            diffs_g.append(
                estimate_gmax_from_counts(full, FLAGSHIP) - estimate_gmax_from_counts(dim, FLAGSHIP)
            )
            diffs_p.append(estimate_prev_from_counts(full) - estimate_prev_from_counts(dim))
        assert abs(np.mean(diffs_g)) <= 0.003
        assert abs(np.mean(diffs_p)) <= 0.003


class TestTomography:
    def test_exact_mode_is_identity_on_pure_states(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            st = PureState(rng.uniform(), rng.uniform(0, 2 * PI))
            result = simulate_tomography(st, 1000, exact_mode=True)
            assert result.fidelity_vs_input == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(
                result.reconstructed.matrix, density_of_state(st).matrix, atol=1e-10
            )

    def test_h_state_high_fidelity_over_seeds(self):
        for seed in range(30):
            result = simulate_tomography(STATE_H, 10_000, rng_stream=seed)
            assert result.fidelity_vs_input >= 0.999

    def test_leakage_keeps_fidelity_above_099(self):
        noise = NoiseModel(pbs_leakage=1e-3)
        for i in range(51):
            st = PureState(0.02 * i)
            result = simulate_tomography(st, 10_000, noise, rng_stream=1000 + i)
            assert result.fidelity_vs_input >= 0.99

    def test_minimum_counts_enforced(self):
        with pytest.raises(ValueError):
            simulate_tomography(STATE_H, 99)

    def test_reconstruction_is_physical(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            st = PureState(rng.uniform(), rng.uniform(0, 2 * PI))
            result = simulate_tomography(st, 500, rng_stream=rng)
            eigs = np.linalg.eigvalsh(result.reconstructed.matrix)
            assert eigs[0] >= -1e-10
            assert float(np.trace(result.reconstructed.matrix).real) == pytest.approx(
                1.0, abs=1e-10
            )

    def test_exact_fidelity_against_state_fidelity(self):
        st = PureState(0.62, 0.4)
        result = simulate_tomography(st, 1000, exact_mode=True)
        assert result.fidelity_vs_input == pytest.approx(
            state_fidelity(st, result.reconstructed), abs=1e-15
        )
