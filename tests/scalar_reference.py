"""Scalar references for the tests: one pure state and one 2x2 operator at a
time. A state is a validated (alpha, phase) pair with its amplitude vector;
``apply_scalar`` gates an operator on its largest singular value from
``np.linalg.svd`` and returns the renormalised post state, or None for an
annihilated image. With the basis states, the squared overlap, the branch and
reversal operators of a measurement and the tradeoff sum of the closed forms,
these are what the package's array code is checked against.
"""

import cmath
import math
from collections import namedtuple

import numpy as np

from wmtradeoff.measurement import closed_forms, kraus_coefficients, reversal_operators
from wmtradeoff.qubit import ANNIHILATION_EPS, CONSTRUCTION_ATOL, UNIT_RANGE, Operator2, check_range


class PureState(namedtuple("PureState", "alpha_weight phase")):
    """sqrt(alpha)|H> + exp(i*phase)*sqrt(1-alpha)|V>, its weight in [0, 1]."""

    def __new__(cls, alpha_weight, phase=0.0):
        alpha = check_range("alpha_weight", float(alpha_weight), UNIT_RANGE)
        return super().__new__(cls, alpha, float(phase))

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array(
            [
                math.sqrt(self.alpha_weight),
                cmath.exp(1j * self.phase) * math.sqrt(1.0 - self.alpha_weight),
            ],
            dtype=complex,
        )


STATE_H = PureState(1.0)
STATE_V = PureState(0.0)


def pure_overlap(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2 of two pure states."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def apply_scalar(op: Operator2, state: PureState) -> tuple[float, PureState | None]:
    """``(prob, post)`` of one 2x2 Kraus operator on one state, post None when annihilated."""
    if not np.linalg.svd(op.matrix, compute_uv=False)[0] <= 1.0 + CONSTRUCTION_ATOL:
        raise ValueError("operator is not a physical Kraus operator (largest singular value > 1)")
    image = op.matrix @ state.amplitudes
    prob = float(np.real(np.vdot(image, image)))
    if prob < ANNIHILATION_EPS:
        return prob, None
    alpha = min(max(float(abs(image[0]) ** 2) / prob, 0.0), 1.0)
    return prob, PureState(alpha, float(np.angle(image[1]) - np.angle(image[0])))


def kraus_pair(wm) -> tuple[Operator2, Operator2]:
    """Branch operators diag(sqrt(1-e), sqrt(1-h)) and diag(sqrt(e), sqrt(h))."""
    first, second = kraus_coefficients(wm.epsilon, wm.eta)
    return Operator2(np.diag(first)), Operator2(np.diag(second))


def scalar_reversal(wm, r: int) -> Operator2:
    """The reversal of branch ``r`` (1 or 2) as one operator."""
    return Operator2(reversal_operators(wm.epsilon, wm.eta)[r - 1])


def tradeoff_sum(epsilon, eta):
    """6*gmax + prev of the closed forms, over floats or broadcast arrays."""
    gmax, prev, _ = closed_forms(epsilon, eta)
    return 6.0 * gmax + prev
