"""Scalar references for the tests: basis states, the squared overlap of two
pure states and the branch and reversal operators of a measurement, one
state or one operator at a time through the validated ``PureState`` and
``Operator2`` path, and the tradeoff sum of the closed forms. The package
itself computes on coefficient and amplitude arrays.
"""

import numpy as np

from wmtradeoff.measurement import closed_forms, kraus_coefficients, reversal_operators
from wmtradeoff.qubit import Operator2, PureState

STATE_H = PureState(1.0)
STATE_V = PureState(0.0)


def pure_overlap(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2 of two pure states."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def kraus_pair(wm) -> tuple[Operator2, Operator2]:
    """Branch operators diag(sqrt(1-e), sqrt(1-h)) and diag(sqrt(e), sqrt(h))."""
    first, second = kraus_coefficients(wm.epsilon, wm.eta)
    return Operator2(np.diag(first)), Operator2(np.diag(second))


def scalar_reversal(wm, r: int) -> Operator2:
    """The reversal of branch ``r`` (1 or 2) as a validated operator."""
    return Operator2(reversal_operators(wm.epsilon, wm.eta)[r - 1])


def tradeoff_sum(epsilon, eta):
    """6*gmax + prev of the closed forms, over floats or broadcast arrays."""
    gmax, prev, _ = closed_forms(epsilon, eta)
    return 6.0 * gmax + prev
