"""Model of the two-interferometer polarization bench.

The bench realizes the measurement with one polarizing Sagnac interferometer
(a half-wave plate in each arm, angles ``a`` and ``b``) and the reversal with
a second, identical interferometer whose arm angles are exchanged. Photon
counting is simulated at the probability level: each configured channel is an
independent run of N photons drawn from a binomial law, reproducible through
per-channel random substreams derived from one master seed.

The model works with arm transmissions only: (1 - epsilon, 1 - eta) on the
primary branch and (epsilon, eta) on the complementary one, exchanged in the
reversal interferometer. These are the squared magnitudes of the waveplate
amplitudes (epsilon = sin^2 2a, eta = sin^2 2b), so the angles and the
amplitude signs, which cancel in the measurement-then-reversal composition,
never enter a count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qubit import (
    DensityMatrix,
    PureState,
    state_fidelity,
    stokes_of_state,
)
from .measurement import WeakMeasurement, first_guess_is_v

# Substream keys: which angle setting and which bench configuration a count
# channel belongs to.
SETTING_PRIMARY, SETTING_COMPLEMENT = 0, 1
CONFIG_MEASURE, CONFIG_REVERSE, CONFIG_TOMOGRAPHY = 0, 1, 2

# The input-state traversal uses 51 H-weights spaced by 0.02.
N_TRAVERSAL_STATES = 51
ALPHA_SPACING = 0.02
MIN_TOMOGRAPHY_COUNTS = 100


class EstimationError(RuntimeError):
    """Raised when count records cannot support a ratio estimate."""


@dataclass(frozen=True)
class NoiseModel:
    """Probability-level imperfections of the bench.

    ``pbs_leakage`` is the chance that a photon exits the wrong port of a
    polarizing beam splitter on one pass (an extinction ratio of 1000:1 maps
    to roughly 1e-3). Each interferometer involves two passes, so its
    effective arm-swap probability is 2*leakage*(1-leakage); the analyzer has
    a single pass. ``detector_efficiency`` thins every count channel equally
    and therefore cancels out of all count-ratio estimators.
    """

    pbs_leakage: float = 0.0
    detector_efficiency: float = 1.0

    def __post_init__(self) -> None:
        leak = float(self.pbs_leakage)
        eff = float(self.detector_efficiency)
        if not (math.isfinite(leak) and math.isfinite(eff)):
            raise ValueError("noise parameters must be finite")
        if leak < 0.0 or leak > 0.01:
            raise ValueError(f"pbs_leakage must lie in [0, 0.01], got {leak!r}")
        if eff <= 0.0 or eff > 1.0:
            raise ValueError(f"detector_efficiency must lie in (0, 1], got {eff!r}")
        object.__setattr__(self, "pbs_leakage", leak)
        object.__setattr__(self, "detector_efficiency", eff)

    @property
    def interferometer_swap_probability(self) -> float:
        """Chance that exactly one of the two PBS passes misroutes a photon."""
        return 2.0 * self.pbs_leakage * (1.0 - self.pbs_leakage)


@dataclass(frozen=True)
class CountRecord:
    """Detector counts for one input state at one measurement setting.

    The four channels are independent N-photon runs: the two measurement-only
    channels (flip mirror inserted) and the two measurement-plus-reversal
    channels. Counts are integers when sampled and expected values (floats)
    in exact mode.
    """

    state_index: int
    counts_m_primary: float
    counts_m_complement: float
    counts_r_primary: float
    counts_r_complement: float
    photons_per_setting: int

    def __post_init__(self) -> None:
        if not 0 <= int(self.state_index) < N_TRAVERSAL_STATES:
            raise ValueError(f"state_index must lie in [0, 50], got {self.state_index!r}")
        n = int(self.photons_per_setting)
        if n < 1:
            raise ValueError("photons_per_setting must be at least 1")
        for name in (
            "counts_m_primary",
            "counts_m_complement",
            "counts_r_primary",
            "counts_r_complement",
        ):
            c = float(getattr(self, name))
            if not 0.0 <= c <= n:
                raise ValueError(f"{name} must lie in [0, {n}], got {c!r}")


@dataclass(frozen=True)
class TomographyResult:
    """Reconstruction of an analyzed state and its fidelity to the input."""

    reconstructed: DensityMatrix
    fidelity_vs_input: float
    counts_per_basis: int


def zeta(state_index: int, wm: WeakMeasurement) -> float:
    """Guess fidelity weight of traversal state ``i`` for the primary channel.

    Equals 0.02*i where the primary branch guesses |H> and 1 - 0.02*i where
    it guesses |V>, by the package's one guess rule ``first_guess_is_v``.
    """
    if not 0 <= state_index < N_TRAVERSAL_STATES:
        raise ValueError(f"state_index must lie in [0, 50], got {state_index!r}")
    base = ALPHA_SPACING * state_index
    if first_guess_is_v(wm.epsilon, wm.eta):
        return 1.0 - base
    return base


def _substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (cell, state, setting, configuration)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def _mixed_transmissions(trans: tuple[float, float], swap_p: float) -> tuple[float, float]:
    th, tv = trans
    return ((1.0 - swap_p) * th + swap_p * tv, (1.0 - swap_p) * tv + swap_p * th)


def _arm_transmissions(wm: WeakMeasurement, r: int, reverse: bool) -> tuple[float, float]:
    e, h = wm.epsilon, wm.eta
    if r == 1:
        return (1.0 - h, 1.0 - e) if reverse else (1.0 - e, 1.0 - h)
    if r == 2:
        return (h, e) if reverse else (e, h)
    raise ValueError(f"outcome index must be 1 or 2, got {r!r}")


def measurement_survival(
    state: PureState, wm: WeakMeasurement, r: int, noise: NoiseModel | None = None
) -> float:
    """Probability that a photon exits the measurement interferometer on branch ``r``."""
    noise = noise or NoiseModel()
    th, tv = _mixed_transmissions(
        _arm_transmissions(wm, r, reverse=False), noise.interferometer_swap_probability
    )
    return state.alpha_weight * th + state.beta_weight * tv


def reversal_chain_survival(
    state: PureState, wm: WeakMeasurement, r: int, noise: NoiseModel | None = None
) -> float:
    """Probability of surviving measurement branch ``r`` and its reversal.

    Ideal value is (1-e)(1-h) for branch 1 and e*h for branch 2, independent
    of the input state; leakage mixes the orthogonal arm transmission in at
    each interferometer.
    """
    noise = noise or NoiseModel()
    swap = noise.interferometer_swap_probability
    m_h, m_v = _mixed_transmissions(_arm_transmissions(wm, r, reverse=False), swap)
    r_h, r_v = _mixed_transmissions(_arm_transmissions(wm, r, reverse=True), swap)
    return state.alpha_weight * m_h * r_h + state.beta_weight * m_v * r_v


def simulate_counts(
    state_index: int,
    state: PureState,
    wm: WeakMeasurement,
    photons_per_setting: int,
    noise: NoiseModel | None = None,
    seed: int = 0,
    cell_key: int = 0,
    exact_mode: bool = False,
) -> CountRecord:
    """Simulate the four count channels for one traversal state.

    Each channel sends ``photons_per_setting`` photons through its own
    configuration and records a Binomial(N, p * detector_efficiency) count
    from a dedicated substream keyed by (seed, cell_key, state_index,
    setting, configuration); exact mode records the expected values instead.
    """
    if photons_per_setting < 1:
        raise ValueError("photons_per_setting must be at least 1")
    noise = noise or NoiseModel()
    eff = noise.detector_efficiency

    channel_probs = {
        (SETTING_PRIMARY, CONFIG_MEASURE): measurement_survival(state, wm, 1, noise),
        (SETTING_COMPLEMENT, CONFIG_MEASURE): measurement_survival(state, wm, 2, noise),
        (SETTING_PRIMARY, CONFIG_REVERSE): reversal_chain_survival(state, wm, 1, noise),
        (SETTING_COMPLEMENT, CONFIG_REVERSE): reversal_chain_survival(state, wm, 2, noise),
    }

    counts: dict[tuple[int, int], float] = {}
    for channel, p in channel_probs.items():
        p_detected = min(max(p * eff, 0.0), 1.0)
        if exact_mode:
            counts[channel] = photons_per_setting * p_detected
        else:
            setting, config = channel
            rng = _substream(seed, cell_key, state_index, setting, config)
            counts[channel] = int(rng.binomial(photons_per_setting, p_detected))

    return CountRecord(
        state_index=state_index,
        counts_m_primary=counts[(SETTING_PRIMARY, CONFIG_MEASURE)],
        counts_m_complement=counts[(SETTING_COMPLEMENT, CONFIG_MEASURE)],
        counts_r_primary=counts[(SETTING_PRIMARY, CONFIG_REVERSE)],
        counts_r_complement=counts[(SETTING_COMPLEMENT, CONFIG_REVERSE)],
        photons_per_setting=photons_per_setting,
    )


def _measured_total(record: CountRecord) -> float:
    total = record.counts_m_primary + record.counts_m_complement
    if total < 1.0:
        raise EstimationError(
            f"no measured counts for state index {record.state_index}; cannot form ratio"
        )
    return total


def gain_term_from_counts(record: CountRecord, wm: WeakMeasurement) -> float:
    """Count-weighted guess fidelity of one traversal state."""
    z = zeta(record.state_index, wm)
    total = _measured_total(record)
    return (z * record.counts_m_primary + (1.0 - z) * record.counts_m_complement) / total


def rev_term_from_counts(record: CountRecord) -> float:
    """Fraction of measured photons that also survived the reversal."""
    total = _measured_total(record)
    return (record.counts_r_primary + record.counts_r_complement) / total


def _check_full_traversal(records: list[CountRecord]) -> None:
    if len(records) != N_TRAVERSAL_STATES:
        raise EstimationError(
            f"expected {N_TRAVERSAL_STATES} traversal records, got {len(records)}"
        )
    if sorted(r.state_index for r in records) != list(range(N_TRAVERSAL_STATES)):
        raise EstimationError("traversal records must cover state indices 0..50 exactly once")


def estimate_gmax_from_counts(records: list[CountRecord], wm: WeakMeasurement) -> float:
    """Count-ratio estimate of the mean maximal estimation fidelity."""
    _check_full_traversal(records)
    return sum(gain_term_from_counts(rec, wm) for rec in records) / N_TRAVERSAL_STATES


def estimate_prev_from_counts(records: list[CountRecord]) -> float:
    """Count-ratio estimate of the mean reversal probability."""
    _check_full_traversal(records)
    return sum(rev_term_from_counts(rec) for rec in records) / N_TRAVERSAL_STATES


def _clipped_density(s1: float, s2: float, s3: float) -> DensityMatrix:
    """Physical density matrix nearest to a raw Stokes reconstruction."""
    raw = 0.5 * np.array(
        [[1.0 + s1, s2 - 1j * s3], [s2 + 1j * s3, 1.0 - s1]], dtype=complex
    )
    raw = 0.5 * (raw + raw.conj().T)
    eigvals, eigvecs = np.linalg.eigh(raw)
    eigvals = np.clip(eigvals, 0.0, 1.0)
    eigvals = eigvals / eigvals.sum()
    return DensityMatrix((eigvecs * eigvals) @ eigvecs.conj().T)


def simulate_tomography(
    reversed_state: PureState,
    counts_per_basis: int,
    noise: NoiseModel | None = None,
    rng_stream: int | np.random.SeedSequence | np.random.Generator = 0,
    exact_mode: bool = False,
) -> TomographyResult:
    """Analyzer tomography of a state in the H/V, D/A and R/L bases.

    Counts in each basis are binomial on the leakage-mixed outcome
    probability (one PBS pass in the analyzer); the state is reconstructed by
    linear inversion from the empirical Stokes components, then projected to
    the physical set by eigenvalue clipping and trace renormalization. Exact
    mode uses the outcome probabilities themselves. Detector efficiency
    cancels in the per-basis ratios and is not applied here.
    """
    if counts_per_basis < MIN_TOMOGRAPHY_COUNTS:
        raise ValueError(
            f"counts_per_basis must be at least {MIN_TOMOGRAPHY_COUNTS}, got {counts_per_basis}"
        )
    noise = noise or NoiseModel()
    leak = noise.pbs_leakage
    rng = np.random.default_rng(rng_stream)

    estimates = []
    for s_true in stokes_of_state(reversed_state).as_tuple():
        p_plus = 0.5 * (1.0 + s_true)
        p_mixed = (1.0 - leak) * p_plus + leak * (1.0 - p_plus)
        if exact_mode:
            estimates.append(2.0 * p_mixed - 1.0)
        else:
            n_plus = int(rng.binomial(counts_per_basis, min(max(p_mixed, 0.0), 1.0)))
            estimates.append((2.0 * n_plus - counts_per_basis) / counts_per_basis)

    rho = _clipped_density(*estimates)
    return TomographyResult(
        reconstructed=rho,
        fidelity_vs_input=state_fidelity(reversed_state, rho),
        counts_per_basis=counts_per_basis,
    )
