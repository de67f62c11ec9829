"""Qubit polarization states and exact complex 2x2 linear algebra.

Conventions used throughout the package: the basis order is (H, V); a pure
state is sqrt(alpha)|H> + exp(i*phase)*sqrt(1-alpha)|V> with the global phase
quotiented out.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Tolerance of construction-time invariants.
CONSTRUCTION_ATOL = 1e-12

# A range: its printed text and the test a value must pass (NaN fails all).
UNIT_RANGE = ("[0, 1]", lambda v: 0.0 <= v <= 1.0)

# Below this squared norm an operator image counts as annihilated.
ANNIHILATION_EPS = 1e-15


def check_range(name: str, value, accepted):
    """``value`` if it lies in ``accepted``, else ValueError; the library's and the CLI's check."""
    text, test = accepted
    if not test(value):
        raise ValueError(f"{name} must lie in {text}, got {value!r}")
    return value


@dataclass(frozen=True)
class PureState:
    """A pure qubit polarization state.

    ``alpha_weight`` is the probability weight on |H>, in [0, 1]; the weight
    on |V> is implied as ``1 - alpha_weight``. ``phase`` is the relative
    phase of the V amplitude, reduced to [0, 2*pi). Endpoint states (weight 0
    or 1) carry no relative phase and are canonicalized to phase 0.
    """

    alpha_weight: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        a = check_range("alpha_weight", float(self.alpha_weight), UNIT_RANGE)
        p = float(self.phase)
        if not math.isfinite(p):
            raise ValueError("state parameters must be finite")
        p = p % TWO_PI
        if a == 0.0 or a == 1.0:
            p = 0.0
        object.__setattr__(self, "alpha_weight", a)
        object.__setattr__(self, "phase", p)

    @property
    def beta_weight(self) -> float:
        return 1.0 - self.alpha_weight

    @property
    def amplitudes(self) -> np.ndarray:
        """Amplitude vector (sqrt(alpha), exp(i*phase)*sqrt(1-alpha))."""
        return np.array(
            [
                math.sqrt(self.alpha_weight),
                cmath.exp(1j * self.phase) * math.sqrt(self.beta_weight),
            ],
            dtype=complex,
        )

@dataclass(frozen=True, eq=False)
class Operator2:
    """A 2x2 complex matrix over the (H, V) basis.

    Entries may be signed or complex; physicality is an opt-in predicate
    (``is_physical_kraus``), not a construction invariant, so signed waveplate
    amplitudes and compositions remain representable.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex, copy=True)
        if m.shape != (2, 2):
            raise ValueError(f"operator must be 2x2, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def is_physical_kraus(self) -> bool:
        """True when the largest singular value is at most 1 (+1e-12)."""
        top = float(np.linalg.svd(self.matrix, compute_uv=False)[0])
        return top <= 1.0 + CONSTRUCTION_ATOL

def apply_operator(op: Operator2, state: PureState) -> tuple[float, PureState | None]:
    """Act with a Kraus operator on a pure state.

    Returns ``(prob, post)`` where ``prob`` is the squared norm of the image
    and ``post`` is the renormalized image state. When the image norm falls
    below the annihilation threshold the post state is ``None`` and callers
    must treat the branch as extinguished.
    """
    if not op.is_physical_kraus:
        raise ValueError("operator is not a physical Kraus operator (largest singular value > 1)")
    image = op.matrix @ state.amplitudes
    prob = float(np.real(np.vdot(image, image)))
    if prob < ANNIHILATION_EPS:
        return prob, None
    alpha = min(max(float(abs(image[0]) ** 2) / prob, 0.0), 1.0)
    phase = float(np.angle(image[1]) - np.angle(image[0]))
    return prob, PureState(alpha, phase)


def inner_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a|b> of each pair of vectors on the last axis, added in np.vdot's order."""
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]
