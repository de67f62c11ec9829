"""Tests for pure states, operators, density matrices, and Stokes maps."""

import math

import numpy as np
import pytest

from wmtradeoff.qubit import (
    DensityMatrix,
    Operator2,
    PureState,
    STATE_H,
    STATE_V,
    StokesVector,
    apply_operator,
    density_from_stokes,
    density_of_state,
    pure_overlap,
    state_fidelity,
    stokes_of_state,
)


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

    def test_tiny_overshoot_clamped(self):
        st = PureState(1.0 + 5e-13)
        assert st.alpha_weight == 1.0

    def test_isclose_endpoint_phase_agnostic(self):
        assert PureState(1.0, 0.0).isclose(PureState(1.0, 0.0))
        assert PureState(0.5, 0.1).isclose(PureState(0.5, 0.1 + 2 * math.pi))
        assert not PureState(0.5, 0.1).isclose(PureState(0.5, 0.2))


class TestOperator2:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Operator2(np.array([[math.nan, 0], [0, 1]]))

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            Operator2(np.eye(3))

    def test_is_physical_kraus_boundary(self):
        assert Operator2.identity().is_physical_kraus
        assert Operator2.diagonal(1.0, 0.5).is_physical_kraus
        assert not Operator2.diagonal(1.1, 0.0).is_physical_kraus

    def test_signed_entries_representable(self):
        op = Operator2.diagonal(math.cos(0.3), math.cos(2.0))
        assert op.matrix[1, 1].real < 0.0
        assert op.is_physical_kraus

    def test_matmul_composition(self):
        a = Operator2.diagonal(0.5, 0.25)
        b = Operator2.diagonal(2.0, 4.0)
        np.testing.assert_allclose((a @ b).matrix, np.eye(2), atol=1e-15)

    def test_matrix_read_only(self):
        op = Operator2.identity()
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 2.0


class TestApplyOperator:
    def test_identity_returns_same_state(self):
        st = PureState(0.37, 1.1)
        prob, post = apply_operator(Operator2.identity(), st)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert post.isclose(st)

    def test_diagonal_eigenstate(self):
        op = Operator2.diagonal(math.sqrt(0.75), math.sqrt(0.25))
        prob, post = apply_operator(op, STATE_H)
        assert prob == pytest.approx(0.75, abs=1e-12)
        assert post.isclose(STATE_H)

    def test_orthogonal_projection_annihilates(self):
        prob, post = apply_operator(Operator2.diagonal(1.0, 0.0), STATE_V)
        assert prob < 1e-15
        assert post is None

    def test_unphysical_operator_rejected(self):
        with pytest.raises(ValueError):
            apply_operator(Operator2.diagonal(1.5, 0.0), STATE_H)

    def test_negative_entry_flips_phase(self):
        op = Operator2.diagonal(1.0, -1.0)
        prob, post = apply_operator(op, PureState(0.5, 0.0))
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert post.phase == pytest.approx(math.pi, abs=1e-12)


class TestFidelity:
    def test_self_fidelity(self):
        st = PureState(0.42, 0.9)
        assert state_fidelity(st, density_of_state(st)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert state_fidelity(STATE_H, density_of_state(STATE_V)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        mixed = DensityMatrix(0.5 * np.eye(2))
        assert state_fidelity(STATE_H, mixed) == pytest.approx(0.5, abs=1e-12)

    def test_pure_overlap_basis_weights(self):
        st = PureState(0.3, 0.7)
        assert pure_overlap(STATE_H, st) == pytest.approx(0.3, abs=1e-12)
        assert pure_overlap(STATE_V, st) == pytest.approx(0.7, abs=1e-12)


class TestDensityMatrix:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]]))


class TestStokes:
    def test_basis_state_axes(self):
        assert stokes_of_state(STATE_H).as_tuple() == pytest.approx((1, 0, 0), abs=1e-12)
        d = stokes_of_state(PureState(0.5, 0.0))
        assert d.as_tuple() == pytest.approx((0, 1, 0), abs=1e-12)
        r = stokes_of_state(PureState(0.5, math.pi / 2))
        assert r.as_tuple() == pytest.approx((0, 0, 1), abs=1e-12)

    def test_pure_state_norm_is_one(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            s = stokes_of_state(PureState(rng.uniform(), rng.uniform(0, 2 * math.pi)))
            assert s.norm_sq == pytest.approx(1.0, abs=1e-10)

    def test_round_trip_matches_projector(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            st = PureState(rng.uniform(), rng.uniform(0, 2 * math.pi))
            rho = density_from_stokes(stokes_of_state(st))
            np.testing.assert_allclose(
                rho.matrix, density_of_state(st).matrix, atol=1e-12
            )

    def test_norm_overflow_rejected(self):
        with pytest.raises(ValueError):
            StokesVector(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            StokesVector(1.5, 0.0, 0.0)
