"""Qubit polarization states and exact complex 2x2 linear algebra.

Conventions used throughout the package: the basis order is (H, V); a pure
state is sqrt(alpha)|H> + exp(i*phase)*sqrt(1-alpha)|V> with the global phase
quotiented out.

``state_amplitudes``, ``inner_products``, ``abs_squared`` and
``post_state_amplitudes`` repeat the scalar arithmetic of ``PureState`` and
``apply_operator``, and the squared overlap ``abs(np.vdot(a, b)) ** 2``, over
stacks of states, with the same rounding.
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


def state_amplitudes(alpha, phase) -> np.ndarray:
    """``PureState(alpha, phase).amplitudes`` over broadcast arrays, on a last axis.

    Canonicalizes as ``apply_operator`` does for its post states: alpha
    clamped to [0, 1], the phase taken mod 2*pi and set to 0 at the endpoints.
    """
    alpha = np.clip(alpha, 0.0, 1.0)
    phase = np.where((alpha == 0.0) | (alpha == 1.0), 0.0, np.mod(phase, TWO_PI))
    return np.stack((np.sqrt(alpha) + 0j, np.exp(1j * phase) * np.sqrt(1.0 - alpha)), axis=-1)


def inner_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a|b> of each pair of vectors on the last axis, added in np.vdot's order."""
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def abs_squared(z: np.ndarray) -> np.ndarray:
    """|z|**2 of a complex array, rounded as the scalar ``abs(z) ** 2`` is.

    A complex scalar's abs is libm's hypot and a float64 scalar's ``** 2`` is
    libm's pow; np.abs and ``** 2`` on arrays differ from them in the last
    bit for some inputs, np.hypot and np.float_power do not.
    """
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def post_state_amplitudes(images: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """Post states ``apply_operator`` forms from images of squared norm ``prob``."""
    alpha = abs_squared(images[..., 0]) / prob
    return state_amplitudes(alpha, np.angle(images[..., 1]) - np.angle(images[..., 0]))
