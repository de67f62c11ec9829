"""Qubit polarization states and exact complex 2x2 linear algebra.

Conventions used throughout the package: the basis order is (H, V); a pure
state is sqrt(alpha)|H> + exp(i*phase)*sqrt(1-alpha)|V> with the global phase
quotiented out; Stokes components follow s1 = p(H)-p(V), s2 = p(D)-p(A),
s3 = p(R)-p(L).

All types here are immutable values and all operations are deterministic pure
functions, so everything is safe to share across threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Construction-time invariants use the tight tolerance; checks on accumulated
# arithmetic (traces, eigenvalues, Stokes norms) use the looser one.
CONSTRUCTION_ATOL = 1e-12
ACCUMULATION_ATOL = 1e-10

# Below this squared norm an operator image counts as annihilated.
ANNIHILATION_EPS = 1e-15

# Basis observables ordered to match (s1, s2, s3).
SIGMA_HV = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_DA = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_RL = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
STOKES_BASIS = (SIGMA_HV, SIGMA_DA, SIGMA_RL)


@dataclass(frozen=True)
class PureState:
    """A pure qubit polarization state.

    ``alpha_weight`` is the probability weight on |H>; the weight on |V> is
    implied as ``1 - alpha_weight``. ``phase`` is the relative phase of the
    V amplitude, reduced to [0, 2*pi). Endpoint states (weight 0 or 1) carry
    no relative phase and are canonicalized to phase 0.
    """

    alpha_weight: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        a = float(self.alpha_weight)
        p = float(self.phase)
        if not (math.isfinite(a) and math.isfinite(p)):
            raise ValueError("state parameters must be finite")
        if a < -CONSTRUCTION_ATOL or a > 1.0 + CONSTRUCTION_ATOL:
            raise ValueError(f"alpha_weight must lie in [0, 1], got {a!r}")
        a = min(max(a, 0.0), 1.0)
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

    def isclose(self, other: "PureState", atol: float = CONSTRUCTION_ATOL) -> bool:
        """Equality up to ``atol``, ignoring the phase of endpoint states."""
        if abs(self.alpha_weight - other.alpha_weight) > atol:
            return False
        if self.alpha_weight <= atol or self.alpha_weight >= 1.0 - atol:
            return True
        d = abs(self.phase - other.phase) % TWO_PI
        return min(d, TWO_PI - d) <= atol


STATE_H = PureState(1.0)
STATE_V = PureState(0.0)


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

    @classmethod
    def diagonal(cls, top: complex, bottom: complex) -> "Operator2":
        return cls(np.array([[top, 0.0], [0.0, bottom]], dtype=complex))

    @classmethod
    def identity(cls) -> "Operator2":
        return cls(np.eye(2, dtype=complex))

    @property
    def dagger(self) -> "Operator2":
        return Operator2(self.matrix.conj().T)

    @property
    def is_physical_kraus(self) -> bool:
        """True when the largest singular value is at most 1 (+1e-12)."""
        top = float(np.linalg.svd(self.matrix, compute_uv=False)[0])
        return top <= 1.0 + CONSTRUCTION_ATOL

    def __matmul__(self, other: "Operator2") -> "Operator2":
        return Operator2(self.matrix @ other.matrix)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A 2x2 Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex, copy=True)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > CONSTRUCTION_ATOL:
            raise ValueError("density matrix must be Hermitian")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > ACCUMULATION_ATOL:
            raise ValueError(f"density matrix trace must be 1, got {tr!r}")
        eigs = np.linalg.eigvalsh(m)
        if eigs[0] < -ACCUMULATION_ATOL or eigs[-1] > 1.0 + ACCUMULATION_ATOL:
            raise ValueError(f"density matrix eigenvalues out of [0, 1]: {eigs}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class StokesVector:
    """The three real components (s1, s2, s3) of a qubit Bloch vector."""

    s1: float
    s2: float
    s3: float

    def __post_init__(self) -> None:
        for name in ("s1", "s2", "s3"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError("Stokes components must be finite")
            if abs(v) > 1.0 + ACCUMULATION_ATOL:
                raise ValueError(f"{name} must lie in [-1, 1], got {v!r}")
            object.__setattr__(self, name, v)
        if self.norm_sq > 1.0 + ACCUMULATION_ATOL:
            raise ValueError(f"Stokes norm exceeds 1: |s|^2 = {self.norm_sq!r}")

    @property
    def norm_sq(self) -> float:
        return self.s1 * self.s1 + self.s2 * self.s2 + self.s3 * self.s3

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.s1, self.s2, self.s3)


def pure_overlap(a: PureState, b: PureState) -> float:
    """Squared overlap |<a|b>|^2 of two pure states."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


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


def state_fidelity(pure: PureState, rho: DensityMatrix) -> float:
    """Fidelity <phi|rho|phi> of a pure state against a density matrix."""
    amps = pure.amplitudes
    f = float(np.real(np.conj(amps) @ rho.matrix @ amps))
    return min(max(f, 0.0), 1.0)


def density_of_state(state: PureState) -> DensityMatrix:
    """Rank-one density matrix |phi><phi|."""
    amps = state.amplitudes
    return DensityMatrix(np.outer(amps, amps.conj()))


def stokes_of_state(state: PureState) -> StokesVector:
    a = state.alpha_weight
    coherence = 2.0 * math.sqrt(a * (1.0 - a))
    return StokesVector(
        2.0 * a - 1.0,
        coherence * math.cos(state.phase),
        coherence * math.sin(state.phase),
    )


def density_from_stokes(s: StokesVector) -> DensityMatrix:
    return DensityMatrix(
        0.5
        * np.array(
            [
                [1.0 + s.s1, s.s2 - 1j * s.s3],
                [s.s2 + 1j * s.s3, 1.0 - s.s1],
            ],
            dtype=complex,
        )
    )
