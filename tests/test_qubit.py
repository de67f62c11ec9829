"""Tests for pure states and operators."""

import math
import re

import numpy as np
import pytest

from wmtradeoff.qubit import Operator2, PureState, apply_operator

from scalar_reference import STATE_H, STATE_V, pure_overlap

IDENTITY = Operator2(np.eye(2))


class TestPureState:
    def test_h_endpoint(self):
        st = PureState(1.0, 0.0)
        np.testing.assert_allclose(st.amplitudes, [1.0, 0.0], atol=1e-15)

    def test_v_endpoint_ignores_phase(self):
        st = PureState(0.0, 1.3)
        assert st.phase == 0.0
        assert abs(st.amplitudes[1]) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_state_weight(self):
        st = PureState(0.5, 0.0)
        assert abs(st.amplitudes[0]) ** 2 == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan, math.inf])
    def test_out_of_range_weight_rejected(self, bad):
        with pytest.raises(ValueError):
            PureState(bad, 0.0)

    def test_phase_reduced_mod_two_pi(self):
        st = PureState(0.3, 2.0 * math.pi + 0.25)
        assert st.phase == pytest.approx(0.25, abs=1e-12)
        st = PureState(0.3, -0.25)
        assert st.phase == pytest.approx(2.0 * math.pi - 0.25, abs=1e-12)

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
        with pytest.raises(ValueError):
            Operator2(np.array([[math.nan, 0], [0, 1]]))

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            Operator2(np.eye(3))

    def test_is_physical_kraus_boundary(self):
        assert IDENTITY.is_physical_kraus
        assert Operator2(np.diag([1.0, 0.5])).is_physical_kraus
        assert not Operator2(np.diag([1.1, 0.0])).is_physical_kraus

    def test_signed_entries_representable(self):
        op = Operator2(np.diag([math.cos(0.3), math.cos(2.0)]))
        assert op.matrix[1, 1].real < 0.0
        assert op.is_physical_kraus

    def test_matrix_read_only(self):
        with pytest.raises(ValueError):
            IDENTITY.matrix[0, 0] = 2.0


class TestApplyOperator:
    def test_identity_returns_same_state(self):
        st = PureState(0.37, 1.1)
        prob, post = apply_operator(IDENTITY, st)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert post.alpha_weight == pytest.approx(st.alpha_weight, abs=1e-12)
        assert post.phase == pytest.approx(st.phase, abs=1e-12)

    def test_diagonal_eigenstate(self):
        op = Operator2(np.diag([math.sqrt(0.75), math.sqrt(0.25)]))
        prob, post = apply_operator(op, STATE_H)
        assert prob == pytest.approx(0.75, abs=1e-12)
        assert post == STATE_H

    def test_orthogonal_projection_annihilates(self):
        prob, post = apply_operator(Operator2(np.diag([1.0, 0.0])), STATE_V)
        assert prob < 1e-15
        assert post is None

    def test_unphysical_operator_rejected(self):
        with pytest.raises(ValueError):
            apply_operator(Operator2(np.diag([1.5, 0.0])), STATE_H)

    def test_negative_entry_flips_phase(self):
        op = Operator2(np.diag([1.0, -1.0]))
        prob, post = apply_operator(op, PureState(0.5, 0.0))
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert post.phase == pytest.approx(math.pi, abs=1e-12)


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
