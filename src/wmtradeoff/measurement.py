"""Two-outcome diagonal weak measurement of a polarization qubit.

A measurement is parameterized by the pair (epsilon, eta) in [0,1]^2. Outcome
1 keeps the amplitudes (sqrt(1-epsilon), sqrt(1-eta)) and outcome 2 the
complementary pair (sqrt(epsilon), sqrt(eta)), so the two branch operators
always satisfy the completeness relation. Reversal operators are obtained by
flipping the two diagonal coefficients of the branch operator, without any
rescaling: this is the convention under which the mean reversal probability
equals (1-epsilon)(1-eta) + epsilon*eta for every input state.

``kraus_coefficients`` is the one source of these branch coefficients: over
broadcast (epsilon, eta) arrays it returns both outcomes' diagonals.
``reversal_operators`` flips them into both outcomes' reversal matrices, and
``branch_terms`` and verify's operator checks read the arrays directly.

Guess rule: outcome 1 guesses |V> when epsilon - eta > TIE_ATOL and |H>
otherwise; outcome 2 guesses the other basis state. A tie therefore guesses
|H> on outcome 1 and |V> on outcome 2, the rule the bench's count-ratio
estimator applies too.

``branch_terms`` is the one place the per-state arithmetic happens: over
broadcast (epsilon, eta, alpha, phase) arrays it returns each outcome's
probability, guess fidelity and reversal term from the complex amplitudes,
each factor evaluated on the shape of its own arguments and every sum
written out elementwise, so its bits do not depend on a BLAS kernel.
``per_state_terms`` forms its two outcome sums, the per-state gain and
reversal probability, over the same broadcast arguments;
``per_state_gain`` and ``per_state_reversal_prob`` each return one of them,
as ``verify``'s per-state checks read them.
``closed_forms`` evaluates the state-averaged closed forms below and the
beam-splitter flag over floats or broadcast (epsilon, eta) arrays.

Closed forms implemented here:

    gmax(epsilon, eta) = (3 + |eta - epsilon|) / 6
    prev(epsilon, eta) = 1 - epsilon - eta + 2*epsilon*eta
    6*gmax + prev      = 4 - 2*min(epsilon, eta)*(1 - max(epsilon, eta)),
                         so 4 on the boundary of the parameter square,
                         with interior minimum 3.5 at (0.5, 0.5).

``prev`` is the success probability of the bench's reversal, which exchanges
the two interferometer arms: R_r A_r = sqrt((1-epsilon)(1-eta)) * I and
sqrt(epsilon*eta) * I. It is not the optimal reversal of Cheong & Lee
(PRL 109, 150402, 2012), R_opt = sum_r lambda_min(A_r^dagger A_r) =
min(epsilon, eta) + min(1-epsilon, 1-eta), which exceeds it by
2*min(epsilon, eta)*(1 - max(epsilon, eta)); on the boundary of the square
the two coincide.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .qubit import UNIT_RANGE, check_range

# Parameter pairs closer than this count as a degenerate (beam-splitter) tie.
TIE_ATOL = 1e-12


class WeakMeasurement(namedtuple("WeakMeasurement", "epsilon eta")):
    """The (epsilon, eta) parameter pair of a two-outcome weak measurement, floats in [0, 1]."""

    def __new__(cls, epsilon, eta):
        return super().__new__(
            cls,
            check_range("epsilon", float(epsilon), UNIT_RANGE),
            check_range("eta", float(eta), UNIT_RANGE),
        )


def first_guess_is_v(epsilon, eta):
    """True where outcome 1 guesses |V>; outcome 2 then guesses |H>.

    Works on floats and on numpy arrays alike.
    """
    return epsilon - eta > TIE_ATOL


def kraus_coefficients(epsilon, eta) -> np.ndarray:
    """Diagonal coefficients of both branch operators over broadcast arrays.

    ``[..., r, k]`` is the coefficient of basis state k in the operator of
    outcome r + 1: (sqrt(1-e), sqrt(1-h)), then (sqrt(e), sqrt(h)).
    Arguments are not validated.
    """
    e, h = np.broadcast_arrays(np.asarray(epsilon, dtype=float), np.asarray(eta, dtype=float))
    return np.sqrt(np.stack((1.0 - e, 1.0 - h, e, h), axis=-1)).reshape(*e.shape, 2, 2)


def branch_terms(epsilon, eta, alpha, phase=0.0):
    """Probability, guess fidelity and reversal term of both outcomes.

    The four arguments broadcast against each other; the input state is
    sqrt(alpha)|H> + exp(i*phase)*sqrt(1-alpha)|V>, used as given. Each of
    the three returned arrays has the broadcast shape plus a last axis of
    length 2 for outcomes 1 and 2, holding p(r) = ||A_r phi||^2, the squared
    overlap |<guess_r|phi>|^2 and |<phi|R_r A_r|phi>|^2. The last is
    p(r) * |<phi|R_r|phi_r>|^2 with |phi_r> the normalized post state, and
    vanishes on an annihilated branch. Arguments are not validated.

    The amplitudes are formed on the shape of (alpha, phase), the
    coefficients and guess rule on that of (epsilon, eta), and only the
    products on the full shape: the bits of broadcasting first, as each
    operation is elementwise. No sum goes through a BLAS kernel.
    """
    e, h, a, ph = (np.asarray(x, dtype=float) for x in (epsilon, eta, alpha, phase))
    second = np.exp(1j * ph) * np.sqrt(1.0 - a)
    amps = np.stack(np.broadcast_arrays(np.sqrt(a) + 0j, second), axis=-1)
    kraus = kraus_coefficients(e, h)
    images = kraus * amps[..., None, :]
    square = images.real**2 + images.imag**2
    prob = square[..., 0] + square[..., 1]
    basis_fidelity = np.abs(amps) ** 2
    guess_fidelity = np.where(
        first_guess_is_v(e, h)[..., None], basis_fidelity[..., ::-1], basis_fidelity
    )
    # Each reversal operator flips the two coefficients of its branch operator.
    terms = amps.conj()[..., None, :] * kraus[..., ::-1] * images
    return prob, guess_fidelity, np.abs(terms[..., 0] + terms[..., 1]) ** 2


def per_state_terms(epsilon, eta, alpha, phase=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Gain and reversal success of each state, over ``branch_terms``' broadcast arguments.

    The gain is sum_r p(r) * |<guess_r|phi>|^2 and the reversal success
    sum_r |<phi|R_r A_r|phi>|^2; the latter is state independent and equals
    the ``prev`` of ``closed_forms``.
    """
    prob, guess_fidelity, reversal = branch_terms(epsilon, eta, alpha, phase)
    gain = prob * guess_fidelity
    # The two outcomes in one addition, as a sum over the length-2 axis adds them.
    return gain[..., 0] + gain[..., 1], reversal[..., 0] + reversal[..., 1]


def per_state_gain(epsilon, eta, alpha, phase=0.0) -> np.ndarray:
    """The gain of ``per_state_terms``."""
    return per_state_terms(epsilon, eta, alpha, phase)[0]


def closed_forms(epsilon, eta):
    """gmax, prev and the beam-splitter flag of each (epsilon, eta) pair.

    Works on floats and on broadcast numpy arrays alike, with the same
    operations in the same order, so an array entry equals the scalar value
    bit for bit. Arguments are not validated.
    """
    gap = abs(eta - epsilon)
    gmax = (3.0 + gap) / 6.0
    prev = 1.0 - epsilon - eta + 2.0 * epsilon * eta
    degenerate = (gap < TIE_ATOL) & (epsilon != 0.0) & (epsilon != 1.0)
    return gmax, prev, degenerate


def reversal_operators(epsilon, eta) -> np.ndarray:
    """Reversal matrices of both outcomes over broadcast (epsilon, eta) arrays.

    ``[..., r, :, :]`` is the coefficient-flipped partner of the operator of
    outcome r + 1. Its product with that operator is proportional to the
    identity: sqrt((1-e)(1-h)) * I for outcome 1 and sqrt(e*h) * I for
    outcome 2. No rescaling to unit largest singular value is applied.
    Arguments are not validated.
    """
    return kraus_coefficients(epsilon, eta)[..., ::-1, None] * np.eye(2)


def per_state_reversal_prob(epsilon, eta, alpha, phase=0.0) -> np.ndarray:
    """The reversal success of ``per_state_terms``."""
    return per_state_terms(epsilon, eta, alpha, phase)[1]
