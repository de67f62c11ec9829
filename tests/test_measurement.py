"""Tests for the measurement engine: Kraus pairs, guessing, reversal, closed forms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies
from hypothesis.extra import numpy as hnp

from wmtradeoff import sweeps
from wmtradeoff.measurement import (
    TIE_ATOL,
    WeakMeasurement,
    branch_terms,
    closed_forms,
    kraus_coefficients,
    per_state_gain,
    per_state_reversal_prob,
    per_state_terms,
    reversal_operators,
)

from scalar_reference import (
    STATE_H,
    STATE_V,
    PureState,
    apply_scalar,
    kraus_pair,
    pure_overlap,
    scalar_reversal,
    tradeoff_sum,
)

GRID = [round(0.05 * k, 10) for k in range(21)]


def brute_force_branch_probability(wm, state, r):
    """Independent oracle: squared norm of the branch image, raw numpy."""
    diag = (
        [math.sqrt(1 - wm.epsilon), math.sqrt(1 - wm.eta)]
        if r == 1
        else [math.sqrt(wm.epsilon), math.sqrt(wm.eta)]
    )
    image = np.array(diag) * state.amplitudes
    return float(np.sum(np.abs(image) ** 2))


def gmax(e, h):
    return closed_forms(e, h)[0]


def prev(e, h):
    return closed_forms(e, h)[1]


def kernel_probabilities(wm, state):
    return branch_terms(wm.epsilon, wm.eta, state.alpha_weight, state.phase)[0]


def kernel_guesses(wm):
    """Basis state each outcome guesses, read off the kernel's guess fidelities."""
    _, fidelity, _ = branch_terms(wm.epsilon, wm.eta, 0.3, 1.1)
    return tuple("H" if f == pytest.approx(0.3, abs=1e-12) else "V" for f in fidelity)


class TestWeakMeasurement:
    @pytest.mark.parametrize("bad", [-0.2, 1.2, math.nan])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            WeakMeasurement(bad, 0.5)

    def test_diagonal_degenerate_flag(self):
        assert closed_forms(0.3, 0.3)[2]
        assert not closed_forms(0.0, 0.0)[2]
        assert not closed_forms(1.0, 1.0)[2]
        assert not closed_forms(0.3, 0.7)[2]


class TestKrausPair:
    def test_no_measurement_limit(self):
        a1, a2 = kraus_pair(WeakMeasurement(0.0, 0.0))
        np.testing.assert_allclose(a1.matrix, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(a2.matrix, np.zeros((2, 2)), atol=1e-15)

    def test_projective_limit(self):
        a1, a2 = kraus_pair(WeakMeasurement(0.0, 1.0))
        np.testing.assert_allclose(a1.matrix, np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(a2.matrix, np.diag([0.0, 1.0]), atol=1e-15)

    def test_flagship_cell_entries(self):
        a1, _ = kraus_pair(WeakMeasurement(0.25, 0.75))
        np.testing.assert_allclose(
            a1.matrix, np.diag([math.sqrt(0.75), math.sqrt(0.25)]), atol=1e-15
        )

    def test_completeness_on_grid(self):
        for e in GRID:
            for h in GRID:
                a1, a2 = kraus_pair(WeakMeasurement(e, h))
                total = a1.matrix.conj().T @ a1.matrix + a2.matrix.conj().T @ a2.matrix
                np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    def test_branch_probabilities_sum_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            wm = WeakMeasurement(rng.uniform(), rng.uniform())
            st = PureState(rng.uniform(), rng.uniform(0, 2 * math.pi))
            p1, _ = apply_scalar(kraus_pair(wm)[0], st)
            p2, _ = apply_scalar(kraus_pair(wm)[1], st)
            assert p1 + p2 == pytest.approx(1.0, abs=1e-12)


class TestOptimalGuess:
    def test_flagship_guesses(self):
        assert kernel_guesses(WeakMeasurement(0.25, 0.75)) == ("H", "V")

    def test_mirrored_guesses(self):
        assert kernel_guesses(WeakMeasurement(0.75, 0.25)) == ("V", "H")

    def test_projective_outcome_identifies_state(self):
        assert kernel_guesses(WeakMeasurement(0.0, 1.0))[1] == "V"

    def test_tie_guesses_h_then_v(self):
        # The bench's count-ratio estimator applies the same tie rule.
        for eps in (0.0, 0.4, 1.0):
            assert kernel_guesses(WeakMeasurement(eps, eps)) == ("H", "V")

    @pytest.mark.parametrize("eps,eta", [(0.25, 0.75), (0.75, 0.25), (0.1, 0.9)])
    def test_guess_maximizes_haar_objective(self, eps, eta):
        # Brute-force oracle: among basis guesses, the returned one attains
        # the larger Haar-sampled mean of p(r) * |<guess|phi>|^2.
        wm = WeakMeasurement(eps, eta)
        rng = np.random.default_rng(77)
        states = [PureState(rng.uniform(), rng.uniform(0, 2 * math.pi)) for _ in range(20000)]
        for r in (1, 2):
            scores = {}
            for label, guess in (("H", STATE_H), ("V", STATE_V)):
                scores[label] = np.mean(
                    [
                        brute_force_branch_probability(wm, st, r) * pure_overlap(guess, st)
                        for st in states
                    ]
                )
            best = max(scores, key=scores.get)
            assert kernel_guesses(wm)[r - 1] == best
            assert abs(scores["H"] - scores["V"]) > 0.01  # comfortable separation


class TestOutcomeDistribution:
    def test_eigenstate_probabilities(self):
        p1, p2 = kernel_probabilities(WeakMeasurement(0.25, 0.75), STATE_H)
        assert p1 == pytest.approx(0.75, abs=1e-12)
        assert p2 == pytest.approx(0.25, abs=1e-12)

    def test_balanced_state_probability(self):
        # Hand expansion: p(1) = 1 - (eps + eta)/2 at alpha = 0.5, also
        # cross-checked against the brute-force amplitude oracle.
        rng = np.random.default_rng(3)
        st = PureState(0.5, 0.0)
        for _ in range(50):
            wm = WeakMeasurement(rng.uniform(), rng.uniform())
            p1, p2 = kernel_probabilities(wm, st)
            assert p1 == pytest.approx(1.0 - (wm.epsilon + wm.eta) / 2.0, abs=1e-12)
            assert p1 == pytest.approx(brute_force_branch_probability(wm, st, 1), abs=1e-12)
            assert p1 + p2 == pytest.approx(1.0, abs=1e-12)

    def test_projective_split(self):
        p1, p2 = kernel_probabilities(WeakMeasurement(0.0, 1.0), PureState(0.3))
        assert p1 == pytest.approx(0.3, abs=1e-12)
        assert p2 == pytest.approx(0.7, abs=1e-12)

    def test_guess_fidelity_recomputable(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            wm = WeakMeasurement(rng.uniform(), rng.uniform())
            st = PureState(rng.uniform(), rng.uniform(0, 2 * math.pi))
            guesses = (STATE_V, STATE_H) if wm.epsilon > wm.eta else (STATE_H, STATE_V)
            _, fidelity, _ = branch_terms(wm.epsilon, wm.eta, st.alpha_weight, st.phase)
            for guess, f in zip(guesses, fidelity):
                assert f == pytest.approx(pure_overlap(guess, st), abs=1e-12)


class TestPerStateGain:
    def test_flagship_endpoint(self):
        assert per_state_gain(0.25, 0.75, 0.0) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_flagship_balanced(self):
        assert per_state_gain(0.25, 0.75, 0.5) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_flagship_polynomial(self):
        # Hand-derived integrand at (0.25, 0.75): 0.75 - alpha + alpha^2.
        wm = WeakMeasurement(0.25, 0.75)
        for alpha in np.linspace(0.0, 1.0, 21):
            expected = 0.75 - alpha + alpha * alpha
            assert per_state_gain(*wm, alpha) == pytest.approx(
                expected, abs=1e-12
            )

    def test_degenerate_gain_pointwise(self):
        # At a tie outcome 1 guesses |H> and outcome 2 |V>.
        for eps in (0.0, 0.3, 0.8, 1.0):
            wm = WeakMeasurement(eps, eps)
            for alpha in (0.0, 0.2, 0.5, 0.9, 1.0):
                assert per_state_gain(*wm, alpha) == pytest.approx(
                    alpha * (1.0 - eps) + (1.0 - alpha) * eps, abs=1e-12
                )

    def test_degenerate_gain_mean_is_half(self):
        wm = WeakMeasurement(0.3, 0.3)
        alphas = [0.02 * i for i in range(51)]
        mean = sum(per_state_gain(*wm, a) for a in alphas) / 51
        assert mean == pytest.approx(0.5, abs=1e-12)

    def test_phase_invariance(self):
        wm = WeakMeasurement(0.25, 0.75)
        for alpha in (0.0, 0.3, 0.5, 0.77, 1.0):
            gains = {
                per_state_gain(*wm, alpha, ph)
                for ph in (0.0, math.pi / 3, math.pi / 2, math.pi, 1.7)
            }
            assert max(gains) - min(gains) <= 1e-12

    def test_views_broadcast_like_per_state_calls(self):
        # One call over broadcast arrays gives each state's scalar call bit
        # for bit, and the sum of branch_terms over the outcome axis.
        rng = np.random.default_rng(8)
        e, h = rng.uniform(size=(2, 6, 1))
        alpha, phase = rng.uniform(0.0, (1.0, 2 * math.pi), size=(5, 2)).T
        for view, terms in (
            (per_state_gain, lambda p, g, _: p * g),
            (per_state_reversal_prob, lambda p, g, r: r),
        ):
            values = view(e, h, alpha, phase)
            assert values.shape == (6, 5)
            assert bits(values) == bits(np.sum(terms(*branch_terms(e, h, alpha, phase)), axis=-1))
            for i, j in np.ndindex(6, 5):
                assert bits(values[i, j]) == bits(view(e[i, 0], h[i, 0], alpha[j], phase[j]))


class TestAnalyticGmax:
    def test_projective_maximum(self):
        assert gmax(0.0, 1.0) == pytest.approx(2 / 3, abs=1e-12)

    def test_identity_minimum(self):
        assert gmax(0.0, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_flagship_value(self):
        assert gmax(0.25, 0.75) == pytest.approx(3.5 / 6, abs=1e-12)

    def test_range_on_grid(self):
        for e in GRID:
            for h in GRID:
                g = gmax(e, h)
                assert 0.5 - 1e-12 <= g <= 2 / 3 + 1e-12

    def test_symmetries_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            e, h = rng.uniform(), rng.uniform()
            g = gmax(e, h)
            assert abs(gmax(h, e) - g) <= 1e-15
            assert abs(gmax(1 - e, 1 - h) - g) <= 1e-15


class TestReversalOperator:
    def test_flagship_flip_and_composition(self):
        wm = WeakMeasurement(0.25, 0.75)
        rev = reversal_operators(wm.epsilon, wm.eta)[0]
        np.testing.assert_allclose(rev, np.diag([0.5, math.sqrt(0.75)]), atol=1e-15)
        product = rev @ kraus_pair(wm)[0].matrix
        np.testing.assert_allclose(product, math.sqrt(0.1875) * np.eye(2), atol=1e-12)

    def test_projective_cannot_be_reversed(self):
        wm = WeakMeasurement(0.0, 1.0)
        rev = reversal_operators(wm.epsilon, wm.eta)[0]
        np.testing.assert_allclose(rev, np.diag([0.0, 1.0]), atol=1e-15)
        product = rev @ kraus_pair(wm)[0].matrix
        np.testing.assert_allclose(product, np.zeros((2, 2)), atol=1e-15)

    def test_degenerate_flip_is_identity_operation(self):
        wm = WeakMeasurement(0.4, 0.4)
        np.testing.assert_allclose(
            reversal_operators(wm.epsilon, wm.eta)[0], kraus_pair(wm)[0].matrix, atol=1e-15
        )

    def test_composition_proportional_to_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            wm = WeakMeasurement(rng.uniform(), rng.uniform())
            reversals = reversal_operators(wm.epsilon, wm.eta)
            for r in (1, 2):
                product = reversals[r - 1] @ kraus_pair(wm)[r - 1].matrix
                assert abs(product[0, 1]) <= 1e-15
                assert abs(product[1, 0]) <= 1e-15
                assert abs(product[0, 0] - product[1, 1]) <= 1e-12

    def test_flipped_coefficient_diagonals_bit_for_bit(self):
        eps = np.linspace(0.0, 1.0, 7)[:, None]
        etas = np.array([0.0, 0.3, 0.75, 1.0])
        reversals = reversal_operators(eps, etas)
        assert reversals.shape == (7, 4, 2, 2, 2)
        coefficients = kraus_coefficients(eps, etas)
        for i, j, r in np.ndindex(7, 4, 2):
            flipped = np.diag(coefficients[i, j, r, ::-1]).astype(complex)
            assert bits(reversals[i, j, r].astype(complex)) == bits(flipped)
            assert bits(reversals[i, j, r]) == bits(reversal_operators(eps[i, 0], etas[j])[r])

    def test_physicality(self):
        values = np.array(GRID)
        reversals = reversal_operators(values[:, None], values)
        top = np.linalg.svd(reversals, compute_uv=False)[..., 0]
        assert top.shape == (21, 21, 2)
        assert np.all(top <= 1.0 + 1e-12)


class TestReversalExactness:
    def test_hundred_random_triples(self):
        rng = np.random.default_rng(99)
        tested = 0
        while tested < 100:
            wm = WeakMeasurement(rng.uniform(), rng.uniform())
            st = PureState(rng.uniform(), rng.uniform(0, 2 * math.pi))
            r = int(rng.integers(1, 3))
            prob, post = apply_scalar(kraus_pair(wm)[r - 1], st)
            if post is None:
                continue
            prob_rev, recovered = apply_scalar(scalar_reversal(wm, r), post)
            if recovered is None:
                continue
            assert pure_overlap(st, recovered) == pytest.approx(1.0, abs=1e-12)
            tested += 1


UNIT = strategies.one_of(strategies.sampled_from([0.0, 1.0]), strategies.floats(0.0, 1.0))


def bits(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


class TestKrausCoefficients:
    @settings(max_examples=300, deadline=None)
    @given(UNIT, UNIT)
    def test_operator_views_read_the_coefficients(self, eps, eta):
        wm = WeakMeasurement(eps, eta)
        coefficients = kraus_coefficients(wm.epsilon, wm.eta)
        expected = [[math.sqrt(1.0 - wm.epsilon), math.sqrt(1.0 - wm.eta)],
                    [math.sqrt(wm.epsilon), math.sqrt(wm.eta)]]
        assert bits(coefficients) == bits(np.array(expected))
        reversals = reversal_operators(wm.epsilon, wm.eta)
        for r, op in enumerate(kraus_pair(wm), start=1):
            diagonal = coefficients[r - 1]
            assert bits(op.matrix) == bits(np.diag(diagonal).astype(complex))
            flipped = np.diag(diagonal[::-1]).astype(complex)
            assert bits(reversals[r - 1].astype(complex)) == bits(flipped)

    def test_broadcasts_like_the_scalar_calls(self):
        eps = np.linspace(0.0, 1.0, 5)[:, None]
        etas = np.array([0.0, 0.3, 1.0])
        coefficients = kraus_coefficients(eps, etas)
        assert coefficients.shape == (5, 3, 2, 2)
        for i, e in enumerate(eps[:, 0]):
            for j, h in enumerate(etas):
                assert bits(coefficients[i, j]) == bits(kraus_coefficients(e, h))


class TestBranchTerms:
    @settings(max_examples=300, deadline=None)
    @given(UNIT, UNIT, UNIT, strategies.floats(0.0, 2 * math.pi))
    def test_matches_scalar_reference(self, eps, eta, alpha, phase):
        # Reference: one branch at a time through the validated operator path.
        wm = WeakMeasurement(eps, eta)
        state = PureState(alpha, phase)
        guesses = (STATE_V, STATE_H) if eps - eta > TIE_ATOL else (STATE_H, STATE_V)
        expected = []
        for r, (op, guess) in enumerate(zip(kraus_pair(wm), guesses), start=1):
            prob, post = apply_scalar(op, state)
            reversal = 0.0
            if post is not None:
                prob_rev, recovered = apply_scalar(scalar_reversal(wm, r), post)
                if recovered is not None:
                    reversal = prob * prob_rev * pure_overlap(state, recovered)
            expected.append((prob, pure_overlap(guess, state), reversal))
        terms = np.stack(branch_terms(eps, eta, alpha, phase), axis=-1)
        np.testing.assert_allclose(terms, expected, rtol=0.0, atol=1e-12)
        assert terms[:, 0].sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        hnp.mutually_broadcastable_shapes(num_shapes=4, max_dims=3, max_side=3),
        strategies.data(),
    )
    def test_two_term_sums_equal_a_reduction_over_the_outcome_axis(self, shapes, data):
        # The overlap's two basis terms, and the two outcomes of the
        # per-state gain and reversal of ``per_state_terms``, are added as
        # x[..., 0] + x[..., 1]: bit for bit what np.sum(x, axis=-1) gives
        # over a length-2 axis.
        edges = (0.0, 1.0, 5e-324, 1e-13, 0.5, 1.0 - 2**-53)
        values = {
            "edge": strategies.sampled_from(edges) | strategies.floats(0.0, 1.0),
            "alpha": strategies.sampled_from((0.0, 1.0)) | strategies.floats(0.0, 1.0),
            "phase": strategies.sampled_from((0.0, -0.0, math.pi)) | strategies.floats(-10.0, 10.0),
        }
        e, h, alpha, phase = (
            data.draw(hnp.arrays(float, shape, elements=values[kind]))
            for shape, kind in zip(shapes.input_shapes, ("edge", "edge", "alpha", "phase"))
        )
        if data.draw(strategies.booleans()):
            phase = data.draw(values["phase"])  # a Python scalar phase
        _, _, reversal = branch_terms(e, h, alpha, phase)

        a, ph = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (alpha, phase)))
        amps = np.stack((np.sqrt(a) + 0j, np.exp(1j * ph) * np.sqrt(1.0 - a)), axis=-1)
        kraus = kraus_coefficients(e, h)
        images = kraus * amps[..., None, :]
        overlap = np.sum(amps.conj()[..., None, :] * kraus[..., ::-1] * images, axis=-1)
        assert bits(reversal) == bits(np.abs(overlap) ** 2)

        cells = [np.ravel(x) for x in np.broadcast_arrays(e, h)]
        gain, rev = per_state_terms(*cells, sweeps.TRAVERSAL_ALPHAS[:, None])
        prob, guess_fidelity, reversal = branch_terms(*cells, sweeps.TRAVERSAL_ALPHAS[:, None])
        assert bits(gain) == bits(np.sum(prob * guess_fidelity, axis=-1))
        assert bits(rev) == bits(np.sum(reversal, axis=-1))

    @staticmethod
    def mixed_shape_arguments(data):
        """(epsilon, eta, alpha, phase), each 0-d, (m,), (n, 1) or (1, m); phase may be a float."""
        n, m = data.draw(strategies.integers(1, 4)), data.draw(strategies.integers(1, 4))
        shapes = strategies.sampled_from([(), (m,), (n, 1), (1, m)])
        edge = strategies.sampled_from((0.0, 1.0, 0.5, 1e-13)) | strategies.floats(0.0, 1.0)
        e, h, alpha = (data.draw(hnp.arrays(float, shapes, elements=edge)) for _ in range(3))
        phase = strategies.sampled_from((0.0, -0.0, math.pi)) | strategies.floats(-10.0, 10.0)
        if data.draw(strategies.booleans()):
            return e, h, alpha, data.draw(phase)
        return e, h, alpha, data.draw(hnp.arrays(float, shapes, elements=phase))

    @settings(max_examples=300, deadline=None)
    @given(strategies.data())
    def test_mixed_shapes_equal_their_broadcast_copies(self, data):
        # Each factor may be evaluated on its own argument's shape; the bits
        # are those of broadcasting every argument first.
        args = self.mixed_shape_arguments(data)
        copies = [np.array(x) for x in np.broadcast_arrays(*(np.asarray(a) for a in args))]
        for got, expected in zip(branch_terms(*args), branch_terms(*copies)):
            assert got.shape == expected.shape
            assert bits(got) == bits(expected)

    @settings(max_examples=300, deadline=None)
    @given(strategies.data())
    def test_probability_is_the_plain_sum_of_squares(self, data):
        # p(r) = (re_0^2 + im_0^2) + (re_1^2 + im_1^2) of the branch image,
        # in that order, as Python floats add it: no BLAS dot and no fused
        # multiply-add, so the bits do not depend on the machine's kernels.
        e, h, alpha, phase = self.mixed_shape_arguments(data)
        prob, _, _ = branch_terms(e, h, alpha, phase)
        a, ph = np.broadcast_arrays(np.asarray(alpha), np.asarray(phase, dtype=float))
        amps = np.stack((np.sqrt(a) + 0j, np.exp(1j * ph) * np.sqrt(1.0 - a)), axis=-1)
        images = kraus_coefficients(e, h) * amps[..., None, :]
        expected = [
            (x.real * x.real + x.imag * x.imag) + (y.real * y.real + y.imag * y.imag)
            for x, y in images.reshape(-1, 2).tolist()
        ]
        assert prob.shape == images.shape[:-1]
        assert prob.ravel().tolist() == expected


class TestPerStateReversalProb:
    def test_flagship_constant_over_states(self):
        wm = WeakMeasurement(0.25, 0.75)
        for i in range(51):
            value = per_state_reversal_prob(*wm, 0.02 * i)
            assert value == pytest.approx(0.375, abs=1e-12)

    def test_identity_channel_fully_reversible(self):
        assert per_state_reversal_prob(0.0, 0.0, 0.3, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_projective_irreversible(self):
        assert per_state_reversal_prob(0.0, 1.0, 0.3, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form_everywhere(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            wm = WeakMeasurement(rng.uniform(), rng.uniform())
            st = PureState(rng.uniform(), rng.uniform(0, 2 * math.pi))
            assert per_state_reversal_prob(*wm, *st) == pytest.approx(
                prev(wm.epsilon, wm.eta), abs=1e-12
            )


class TestAnalyticPrev:
    def test_endpoints(self):
        assert prev(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert prev(1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_center(self):
        assert prev(0.5, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_range_and_symmetries(self):
        for e in GRID:
            for h in GRID:
                p = prev(e, h)
                assert -1e-12 <= p <= 1.0 + 1e-12
                assert abs(prev(h, e) - p) <= 1e-15
                assert abs(prev(1 - e, 1 - h) - p) <= 1e-15


def exact_law_gap(e, h):
    """6*gmax + prev minus 4 - 2*min(e, h)*(1 - max(e, h)), over broadcast arrays."""
    return tradeoff_sum(e, h) - (4.0 - 2.0 * np.minimum(e, h) * (1.0 - np.maximum(e, h)))


class TestTradeoffSum:
    # 6*gmax + prev = 3 + |h - e| + 1 - e - h + 2eh = 4 - 2*min*(1 - max): 4
    # wherever min(e, h) = 0 or max(e, h) = 1, and 3.5 at (0.5, 0.5), the
    # minimum over the square.
    def test_exact_law_on_a_lattice(self):
        values = np.linspace(0.0, 1.0, 101)
        gap = exact_law_gap(values[:, None], values[None, :])
        assert float(np.max(np.abs(gap))) <= 1e-15

    @settings(max_examples=500, deadline=None)
    @given(UNIT, UNIT)
    @example(0.5, 0.5)
    def test_exact_law_everywhere(self, eps, eta):
        assert abs(exact_law_gap(eps, eta)) <= 1e-15

    def test_boundary_is_four(self):
        for h in GRID:
            for e, eta in ((0.0, h), (1.0, h), (h, 0.0), (h, 1.0)):
                assert tradeoff_sum(e, eta) == pytest.approx(4.0, abs=1e-12)

    def test_center_minimum(self):
        assert tradeoff_sum(0.5, 0.5) == pytest.approx(3.5, abs=1e-12)

    def test_flagship_value(self):
        assert tradeoff_sum(0.25, 0.75) == pytest.approx(3.875, abs=1e-12)


# The six Stokes-axis states |H>, |V>, |D>, |A>, |R>, |L> as (alpha, phase):
# a spherical 3-design, so their mean of any per-state term of degree at most
# two in the state's projector is its Haar average.
STOKES_STATES = ((1.0, 0.0), (0.0, 0.0), (0.5, 0.0), (0.5, math.pi), (0.5, math.pi / 2),
                 (0.5, -math.pi / 2))
STOKES_AMPLITUDES = np.array([[math.sqrt(a), np.exp(1j * ph) * math.sqrt(1.0 - a)]
                              for a, ph in STOKES_STATES])
# The twelve states of the four mutually unbiased bases of d = 3, a 2-design:
# the standard basis and, for b = 0, 1, 2, the states
# sum_j w^(b*j^2 + a*j) |j> / sqrt(3) with w = exp(2*pi*i/3).
_J = np.arange(3)
QUTRIT_MUB = np.concatenate(
    [np.eye(3)]
    + [np.exp(2j * np.pi / 3 * (b * _J**2 + a * _J))[None] / math.sqrt(3)
       for b in range(3) for a in range(3)]
)


def random_instrument(seed, dim, outcomes):
    """Kraus operators A_r, shape (outcomes, dim, dim), cut from a random isometry.

    A dim -> dim * outcomes isometry V (orthonormal columns) stacks the A_r,
    so sum_r A_r^dagger A_r = V^dagger V = I.
    """
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim * outcomes, dim)) + 1j * rng.normal(size=(dim * outcomes, dim))
    return np.linalg.qr(z)[0].reshape(outcomes, dim, dim)


def design_gain(kraus, states):
    """Mean over ``states`` of sum_r <phi|M_r|phi> |<g_r|phi>|^2, and M_r's eigenvalues.

    M_r = A_r^dagger A_r and g_r is its top eigenvector, the guess that
    maximises the Haar-averaged gain. Eigenvalues come in ascending order.
    """
    m = np.conj(np.swapaxes(kraus, -1, -2)) @ kraus
    eigenvalues, eigenvectors = np.linalg.eigh(m)
    prob = np.einsum("si,rij,sj->sr", states.conj(), m, states).real
    fidelity = np.abs(np.einsum("ri,si->sr", eigenvectors[..., -1].conj(), states)) ** 2
    return float((prob * fidelity).sum(axis=-1).mean()), eigenvalues


INSTRUMENTS = strategies.tuples(strategies.integers(0, 2**32 - 1), strategies.integers(2, 4))


class TestLeastUpperBound:
    """6G + R_opt = 4 for every efficient qubit instrument; qutrits differ.

    With the Haar second moment (I + SWAP) / (d(d + 1)) the gain of an
    instrument {A_r} is G = sum_r (tr M_r + lambda_max(M_r)) / (d(d + 1)), and
    Cheong & Lee's optimal reversal succeeds with R_opt = sum_r lambda_min(M_r).
    """

    def test_stokes_states_average_to_the_closed_forms(self):
        values = np.linspace(0.0, 1.0, 101)
        alpha, phase = (np.array(column) for column in zip(*STOKES_STATES))
        prob, guess_fidelity, reversal = branch_terms(
            values[:, None, None], values[None, :, None], alpha, phase
        )
        gain, rev = (prob * guess_fidelity).sum(axis=-1), reversal.sum(axis=-1)
        gmax_, prev_, _ = closed_forms(values[:, None], values[None, :])
        assert float(np.max(np.abs(gain.mean(axis=-1) - gmax_))) <= 1e-15
        assert float(np.max(np.abs(rev.mean(axis=-1) - prev_))) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(INSTRUMENTS)
    def test_qubit_gain_and_optimal_reversal_sum_to_four(self, instrument):
        seed, outcomes = instrument
        gain, eigenvalues = design_gain(random_instrument(seed, 2, outcomes), STOKES_AMPLITUDES)
        haar_gain = float((eigenvalues.sum(axis=-1) + eigenvalues[:, -1]).sum()) / 6.0
        assert abs(gain - haar_gain) <= 2e-14
        assert abs(6.0 * gain + float(eigenvalues[:, 0].sum()) - 4.0) <= 2e-14

    def test_qutrit_states_are_four_mutually_unbiased_bases(self):
        overlaps = np.abs(QUTRIT_MUB.conj() @ QUTRIT_MUB.T) ** 2
        same_basis = np.kron(np.eye(4), np.ones((3, 3))) == 1
        assert np.allclose(overlaps[same_basis], np.eye(12)[same_basis], atol=1e-15)
        assert np.allclose(overlaps[~same_basis], 1.0 / 3.0, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(INSTRUMENTS)
    def test_qutrit_sum_is_five_only_for_two_outcomes(self, instrument):
        # 12G + R_opt = 3 + sum_r (lambda_max + lambda_min) = 6 - sum_r lambda_mid(M_r).
        # With two outcomes M_2 = I - M_1, so the middle eigenvalues add to 1.
        seed, outcomes = instrument
        gain, eigenvalues = design_gain(random_instrument(seed, 3, outcomes), QUTRIT_MUB)
        total = 12.0 * gain + float(eigenvalues[:, 0].sum())
        assert abs(total - (6.0 - float(eigenvalues[:, 1].sum()))) <= 2e-14
        if outcomes == 2:
            assert abs(total - 5.0) <= 2e-14

    def test_qutrit_projective_measurement_sums_to_six(self):
        # Three outcomes break the two-outcome value: M_r = |r><r| has
        # lambda_mid = 0, so 12G + R_opt = 6 (G = 1/2, nothing reversible).
        gain, eigenvalues = design_gain(np.eye(3)[:, None, :] * np.eye(3)[:, :, None], QUTRIT_MUB)
        assert abs(12.0 * gain + float(eigenvalues[:, 0].sum()) - 6.0) <= 2e-14
