"""Qubit conventions, accepted ranges and the package's stacked 2x2 algebra.

Conventions used throughout the package: the basis order is (H, V); a pure
state is sqrt(alpha)|H> + exp(i*phase)*sqrt(1-alpha)|V> with the global phase
quotiented out, held as its amplitude pair on the last axis of an array.
``check_range`` is the one refusal of a value outside an accepted range, for
the library and the CLI; it names an array's first entry outside, in C order.
``Operator2`` is a stack of 2x2 matrices with a closed-form physicality
gate, and ``apply_operator`` measures and renormalises a whole stack of
states in one call; ``verify``'s reversal-exactness check is two such calls.

``matmul2`` and ``gram_eigen`` are the package's one 2x2 product and one
Gram eigen-decomposition: elementwise numpy with no BLAS or LAPACK call, so
their bits do not depend on the CPU's BLAS kernel.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

TWO_PI = 2.0 * math.pi

# Slack of the physicality gate on an operator's largest singular value.
CONSTRUCTION_ATOL = 1e-12

# A range: its printed text and the test each value or entry must pass (NaN fails all).
UNIT_RANGE = ("[0, 1]", lambda v: (0.0 <= v) & (v <= 1.0))

# Below this squared norm an operator image counts as annihilated.
ANNIHILATION_EPS = 1e-15


def check_range(name: str, value, accepted):
    """``value`` if each entry lies in ``accepted``, else ValueError naming the first outside."""
    text, test = accepted
    inside = test(value)
    if not np.asarray(inside).all():
        first = np.asarray(value).item(np.argmin(inside))
        raise ValueError(f"{name} must lie in {text}, got {first!r}")
    return value


class Operator2(namedtuple("Operator2", "matrix")):
    """A stack of complex 2x2 matrices over the (H, V) basis, shape (..., 2, 2).

    Entries may be signed or complex; physicality is an opt-in predicate
    (``is_physical_kraus``), not a construction invariant, so signed waveplate
    amplitudes and compositions remain representable.
    """

    def __new__(cls, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.shape[-2:] != (2, 2):
            raise ValueError(f"operator must be a stack of 2x2 matrices, got shape {m.shape}")
        return super().__new__(cls, m)

    @property
    def is_physical_kraus(self) -> bool:
        """True when every matrix's largest singular value is at most 1 (+1e-12); NaN fails."""
        return bool(np.all(_largest_singular_values(self.matrix) <= 1.0 + CONSTRUCTION_ATOL))


def matmul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked product of (..., m, 2) and (..., 2, n) arrays, each entry a plain two-term sum."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def gram_eigen(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(mean, half_gap, g01, spread)`` of each Gram matrix [[g00, g01], [g01*, g11]] =
    m^dagger m, formed elementwise: its eigenvalues are mean +- spread."""
    sq = np.abs(m) ** 2
    g00 = sq[..., 0, 0] + sq[..., 1, 0]
    g11 = sq[..., 0, 1] + sq[..., 1, 1]
    g01 = m[..., 0, 0].conj() * m[..., 0, 1] + m[..., 1, 0].conj() * m[..., 1, 1]
    half_gap = (g00 - g11) / 2
    return (g00 + g11) / 2, half_gap, g01, np.hypot(half_gap, np.abs(g01))


def _largest_singular_values(m: np.ndarray) -> np.ndarray:
    """Largest singular value of each 2x2 ``m``, from its Gram matrix; a few ulp from an SVD."""
    mean, _, _, spread = gram_eigen(m)
    return np.sqrt(mean + spread)


def apply_operator(op: Operator2, amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(prob, post)`` of a physical operator stack on broadcast (H, V) amplitude pairs.

    ``prob`` is each image's squared norm and ``post`` the renormalised
    image, NaN where ``prob`` is below ``ANNIHILATION_EPS`` (or NaN), so a
    further operator carries an extinguished branch on as NaN.
    """
    if not op.is_physical_kraus:
        raise ValueError("operator is not a physical Kraus operator (largest singular value > 1)")
    image = matmul2(op.matrix, amplitudes[..., None])[..., 0]
    prob = (image.conj() * image).real.sum(axis=-1)
    live = (prob >= ANNIHILATION_EPS)[..., None]
    post = np.divide(image, np.sqrt(prob)[..., None], out=np.full_like(image, np.nan), where=live)
    return prob, post

