"""Tests for operator stacks and their action on amplitude arrays, and for the
scalar reference state the package is checked against."""

import math
import re

import numpy as np
import pytest

from wmtradeoff.qubit import Operator2, apply_operator

from scalar_reference import STATE_H, STATE_V, PureState, pure_overlap

IDENTITY = Operator2(np.eye(2))
UNPHYSICAL = "operator is not a physical Kraus operator (largest singular value > 1)"


def amplitudes(alpha, phase=0.0):
    """Amplitude pairs of the states (alpha, phase), on the last axis."""
    return np.stack((np.sqrt(alpha) + 0j, np.exp(1j * phase) * np.sqrt(1.0 - alpha)), axis=-1)


class TestPureState:
    def test_h_endpoint(self):
        st = PureState(1.0, 0.0)
        np.testing.assert_allclose(st.amplitudes, [1.0, 0.0], atol=1e-15)

    def test_diagonal_state_weight(self):
        st = PureState(0.5, 0.0)
        assert abs(st.amplitudes[0]) ** 2 == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan, math.inf])
    def test_out_of_range_weight_rejected(self, bad):
        with pytest.raises(ValueError):
            PureState(bad, 0.0)

    def test_amplitudes_unit_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            st = PureState(rng.uniform(), rng.uniform(0, 2 * math.pi))
            norm = float(np.sum(np.abs(st.amplitudes) ** 2))
            assert norm == pytest.approx(1.0, abs=1e-12)

    def test_tiny_overshoot_refused(self):
        # No slack of its own: the weight's range is the library's [0, 1].
        for bad in (1.0 + 5e-13, -5e-13):
            message = f"alpha_weight must lie in [0, 1], got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                PureState(bad)


class TestOperator2:
    def test_nan_rejected(self):
        # A NaN entry fails the physicality gate, so no operator acts with it.
        op = Operator2(np.array([[math.nan, 0], [0, 1]]))
        assert not op.is_physical_kraus
        with pytest.raises(ValueError, match=re.escape(UNPHYSICAL)):
            apply_operator(op, amplitudes(0.5))

    def test_shape_rejected(self):
        for bad in (np.eye(3), np.ones((2, 3)), np.ones(2), np.ones((4, 2, 1))):
            with pytest.raises(ValueError, match="stack of 2x2 matrices"):
                Operator2(bad)

    def test_is_physical_kraus_boundary(self):
        assert IDENTITY.is_physical_kraus
        assert Operator2(np.diag([1.0, 0.5])).is_physical_kraus
        assert not Operator2(np.diag([1.1, 0.0])).is_physical_kraus
        assert Operator2(np.diag([1.0 + 5e-13, 0.0])).is_physical_kraus
        assert not Operator2(np.diag([1.0 + 1e-9, 0.0])).is_physical_kraus

    def test_signed_entries_representable(self):
        op = Operator2(np.diag([math.cos(0.3), math.cos(2.0)]))
        assert op.matrix[1, 1].real < 0.0
        assert op.is_physical_kraus

    def test_stack_is_physical_only_when_every_matrix_is(self):
        stack = np.stack([np.eye(2), np.diag([0.3, 0.9]), np.diag([0.5, 1.5])])
        assert Operator2(stack[:2]).is_physical_kraus
        assert not Operator2(stack).is_physical_kraus
        assert Operator2(stack).matrix.shape == (3, 2, 2)
        assert Operator2(stack).matrix.dtype == complex


class TestApplyOperator:
    def test_identity_returns_same_state(self):
        amps = amplitudes(0.37, 1.1)
        prob, post = apply_operator(IDENTITY, amps)
        assert prob == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(post, amps, atol=1e-12)

    def test_diagonal_eigenstate(self):
        op = Operator2(np.diag([math.sqrt(0.75), math.sqrt(0.25)]))
        prob, post = apply_operator(op, STATE_H.amplitudes)
        assert prob == pytest.approx(0.75, abs=1e-12)
        np.testing.assert_allclose(post, STATE_H.amplitudes, atol=1e-15)

    def test_orthogonal_projection_annihilates(self):
        prob, post = apply_operator(Operator2(np.diag([1.0, 0.0])), STATE_V.amplitudes)
        assert prob < 1e-15
        assert np.isnan(post).all()
        # A further operator carries the extinguished branch on as NaN.
        prob_next, post_next = apply_operator(IDENTITY, post)
        assert np.isnan(prob_next) and np.isnan(post_next).all()

    def test_unphysical_operator_rejected(self):
        with pytest.raises(ValueError, match=re.escape(UNPHYSICAL)):
            apply_operator(Operator2(np.diag([1.5, 0.0])), STATE_H.amplitudes)
        # One unphysical matrix refuses the whole stack.
        stack = Operator2(np.stack([np.eye(2), np.diag([1.0, 1.5])]))
        with pytest.raises(ValueError, match=re.escape(UNPHYSICAL)):
            apply_operator(stack, amplitudes(np.array([0.2, 0.7])))

    def test_negative_entry_flips_phase(self):
        op = Operator2(np.diag([1.0, -1.0]))
        prob, post = apply_operator(op, amplitudes(0.5))
        assert prob == pytest.approx(1.0, abs=1e-12)
        relative = np.angle(post[1]) - np.angle(post[0])
        assert abs(relative) == pytest.approx(math.pi, abs=1e-12)

    def test_stack_acts_per_matrix_and_state(self):
        # Each matrix of a stack acts on its own state, as one call each would.
        rng = np.random.default_rng(5)
        ops = rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2))
        ops /= 2.0 * np.linalg.norm(ops, axis=(-2, -1), keepdims=True)
        states = amplitudes(rng.uniform(size=50), rng.uniform(0, 2 * math.pi, size=50))
        prob, post = apply_operator(Operator2(ops), states)
        assert prob.shape == (50,) and post.shape == (50, 2)
        for k in range(50):
            one_prob, one_post = apply_operator(Operator2(ops[k]), states[k])
            assert prob[k] == pytest.approx(float(one_prob), rel=1e-15)
            np.testing.assert_allclose(post[k], one_post, rtol=0.0, atol=1e-15)
            assert np.sum(np.abs(post[k]) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestFidelity:
    # The squared overlap is the reference the branch arithmetic and the
    # reversal-exactness check are checked against.
    def test_self_fidelity(self):
        st = PureState(0.42, 0.9)
        assert pure_overlap(st, st) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert pure_overlap(STATE_H, STATE_V) == pytest.approx(0.0, abs=1e-12)

    def test_pure_overlap_basis_weights(self):
        st = PureState(0.3, 0.7)
        assert pure_overlap(STATE_H, st) == pytest.approx(0.3, abs=1e-12)
        assert pure_overlap(STATE_V, st) == pytest.approx(0.7, abs=1e-12)
