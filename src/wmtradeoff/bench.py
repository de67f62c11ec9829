"""Model of the two-interferometer polarization bench.

The bench realizes the measurement with one polarizing Sagnac interferometer
(a half-wave plate in each arm, angles ``a`` and ``b``) and the reversal with
a second, identical interferometer whose arm angles are exchanged. Photon
counting is simulated at the probability level by one array kernel:
``channel_probabilities`` gives the four channel survivals (two measurement
branches, two measurement-plus-reversal chains) over broadcast
(epsilon, eta, alpha), and ``simulate_counts`` turns them into a
(cells, 51, 4) count array, each channel an independent run of N photons
drawn from a binomial law. Every cell draws its counts from its own
keyed-counter stream (Philox; Salmon et al., SC'11): the key comes from
(seed, product) and the counter from the cell, so a cell's numbers do not
depend on which cells are drawn with it; exact mode records the expected
counts instead. The count-ratio estimators reduce that array over the 51
states.

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

from .qubit import PureState
from .measurement import first_guess_is_v

# The input-state traversal uses 51 H-weights spaced by 0.02.
N_TRAVERSAL_STATES = 51
ALPHA_SPACING = 0.02
TRAVERSAL_ALPHAS = ALPHA_SPACING * np.arange(N_TRAVERSAL_STATES)
MIN_TOMOGRAPHY_COUNTS = 100

# Version of the sampled random-stream scheme: a cell keyed (*prefix, cell)
# draws all 51 x 4 of its counts from Philox with the key
# SeedSequence(seed, spawn_key=prefix).generate_state(2, np.uint64) and the
# counter (0, 0, 0, cell). Sampled products record it, so numbers drawn
# under another scheme are told apart.
STREAM_SCHEME = "per-cell-v3"


class EstimationError(RuntimeError):
    """Raised when counts cannot support a ratio estimate."""


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


def _substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one spawn key under the master seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def channel_probabilities(epsilon, eta, alpha, noise: NoiseModel | None = None) -> np.ndarray:
    """Survival probabilities of the four count channels.

    ``epsilon``, ``eta`` and the input H-weight ``alpha`` broadcast against
    each other; the last axis of the result holds, in this order, the chance
    that a photon exits the measurement interferometer on branch 1 and on
    branch 2, and the chance that it survives branch 1 and its reversal and
    branch 2 and its reversal. Leakage mixes the orthogonal arm transmission
    in at each interferometer: the ideal reversal-chain survivals,
    (1-e)(1-h) and e*h, do not depend on the input state. Detector efficiency
    is not applied.
    """
    swap = (noise or NoiseModel()).interferometer_swap_probability
    keep = 1.0 - swap
    e, h = np.broadcast_arrays(np.asarray(epsilon, dtype=float), np.asarray(eta, dtype=float))
    alpha = np.asarray(alpha, dtype=float)
    beta = 1.0 - alpha
    # Leakage-mixed H and V arm transmissions of the branch of outcome 1 and
    # of outcome 2, on the (epsilon, eta) shape; alpha broadcasts last.
    h1, v1 = keep * (1.0 - e) + swap * (1.0 - h), keep * (1.0 - h) + swap * (1.0 - e)
    h2, v2 = keep * e + swap * h, keep * h + swap * e
    # The reversal exchanges the arms, so its mixed H transmission is the V one.
    channels = (
        alpha * h1 + beta * v1,
        alpha * h2 + beta * v2,
        alpha * h1 * v1 + beta * v1 * h1,
        alpha * h2 * v2 + beta * v2 * h2,
    )
    return np.stack(channels, axis=-1)


def simulate_counts(
    epsilon,
    eta,
    photons_per_setting: int,
    noise: NoiseModel | None = None,
    seed: int = 0,
    cell_keys=(),
    exact_mode: bool = False,
) -> np.ndarray:
    """Counts of the four channels for every traversal state of every cell.

    ``epsilon`` and ``eta`` broadcast to one value per cell. Each channel
    sends ``photons_per_setting`` photons and records a
    Binomial(N, p * detector_efficiency) count; the result has shape
    (cells, 51, 4), channels ordered as in ``channel_probabilities``. Cell k
    draws all of its counts in one call on the ``STREAM_SCHEME`` stream of
    its key cell_keys[k] = (*prefix, cell) under ``seed``: one Philox bit
    generator is reset to that stream's key and counter before each cell,
    so a cell's counts do not depend on the cells drawn with it. Exact mode
    records the expected values instead, builds no generator and ignores
    the keys.
    """
    if photons_per_setting < 1:
        raise ValueError("photons_per_setting must be at least 1")
    noise = noise or NoiseModel()
    e, h = np.broadcast_arrays(np.atleast_1d(epsilon), np.atleast_1d(eta))
    probs = channel_probabilities(e[:, None], h[:, None], TRAVERSAL_ALPHAS, noise)
    detected = np.clip(probs * noise.detector_efficiency, 0.0, 1.0)
    if exact_mode:
        return photons_per_setting * detected
    if len(cell_keys) != len(e):
        raise ValueError(f"expected {len(e)} cell keys, got {len(cell_keys)}")
    counts = np.empty(detected.shape, dtype=np.int64)
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    # One state dict, its buffer empty, rewritten in place: setting it
    # costs a few microseconds where a fresh generator costs about 30.
    state = bit_generator.state
    stream_keys = {}  # Philox key of each distinct prefix
    for k, (*prefix, cell) in enumerate(cell_keys):
        prefix = tuple(int(i) for i in prefix)
        if prefix not in stream_keys:
            stream_keys[prefix] = np.random.SeedSequence(
                int(seed), spawn_key=prefix
            ).generate_state(2, np.uint64)
        state["state"]["key"] = stream_keys[prefix]
        state["state"]["counter"][3] = int(cell)
        bit_generator.state = state
        counts[k] = rng.binomial(photons_per_setting, detected[k])
    return counts


def _measured(counts) -> tuple[np.ndarray, np.ndarray]:
    """Counts as floats, and each state's measured total m1 + m2."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape[-2:] != (N_TRAVERSAL_STATES, 4):
        raise EstimationError(
            f"expected counts of shape (..., {N_TRAVERSAL_STATES}, 4), got {counts.shape}"
        )
    total = counts[..., 0] + counts[..., 1]
    if total.min(initial=1.0) < 1.0:
        empty = np.argwhere(total < 1.0)
        raise EstimationError(
            f"no measured counts for state index {empty[0, -1]}; cannot form ratio"
        )
    return counts, total


def gain_term_from_counts(counts, epsilon, eta) -> np.ndarray:
    """Count-weighted guess fidelity of each traversal state, shape (..., 51).

    State i weighs the primary channel by 0.02*i where outcome 1 guesses |H>
    and by 1 - 0.02*i where it guesses |V> (the package's one guess rule,
    ``first_guess_is_v``), and the complementary channel by the rest.
    """
    counts, total = _measured(counts)
    guess_v = first_guess_is_v(np.asarray(epsilon), np.asarray(eta))
    z = np.where(np.expand_dims(guess_v, -1), 1.0 - TRAVERSAL_ALPHAS, TRAVERSAL_ALPHAS)
    return (z * counts[..., 0] + (1.0 - z) * counts[..., 1]) / total


def rev_term_from_counts(counts) -> np.ndarray:
    """Fraction of measured photons that also survived the reversal, shape (..., 51)."""
    counts, total = _measured(counts)
    return (counts[..., 2] + counts[..., 3]) / total


def _traversal_mean(terms: np.ndarray) -> np.ndarray:
    # An accumulation adds the states one after another by definition, as a
    # per-state loop would; ndarray.sum adds pairwise and rounds differently.
    return np.add.accumulate(terms, axis=-1)[..., -1] / N_TRAVERSAL_STATES


def estimate_gmax_from_counts(counts, epsilon, eta) -> np.ndarray:
    """Count-ratio estimate of the mean maximal estimation fidelity of each cell."""
    return _traversal_mean(gain_term_from_counts(counts, epsilon, eta))


def estimate_prev_from_counts(counts) -> np.ndarray:
    """Count-ratio estimate of the mean reversal probability of each cell."""
    return _traversal_mean(rev_term_from_counts(counts))


def simulate_tomography(
    reversed_state: PureState,
    counts_per_basis: int,
    noise: NoiseModel | None = None,
    rng_stream: int | np.random.SeedSequence | np.random.Generator | None = 0,
    exact_mode: bool = False,
) -> float:
    """Fidelity to the input of an analyzer tomography in the H/V, D/A and R/L bases.

    Counts in each basis are binomial on the leakage-mixed outcome
    probability (one PBS pass in the analyzer), and linear inversion of the
    empirical ratios gives a Stokes vector s. The physical state nearest to
    (I + s.sigma)/2, its eigenvalues (1 +- |s|)/2 clipped to [0, 1] and
    renormalized, has the Stokes vector s / max(1, |s|), and its fidelity to
    the pure input of Bloch vector n is (1 + n.s)/2. Exact mode uses the
    outcome probabilities themselves and ignores ``rng_stream``. Detector
    efficiency cancels in the per-basis ratios and is not applied here.
    """
    if counts_per_basis < MIN_TOMOGRAPHY_COUNTS:
        raise ValueError(
            f"counts_per_basis must be at least {MIN_TOMOGRAPHY_COUNTS}, got {counts_per_basis}"
        )
    noise = noise or NoiseModel()
    leak = noise.pbs_leakage
    rng = None if exact_mode else np.random.default_rng(rng_stream)

    a, phase = reversed_state.alpha_weight, reversed_state.phase
    coherence = 2.0 * math.sqrt(a * (1.0 - a))
    bloch = (2.0 * a - 1.0, coherence * math.cos(phase), coherence * math.sin(phase))
    estimates = []
    for s_true in bloch:
        p_plus = 0.5 * (1.0 + s_true)
        p_mixed = (1.0 - leak) * p_plus + leak * (1.0 - p_plus)
        if exact_mode:
            estimates.append(2.0 * p_mixed - 1.0)
        else:
            n_plus = int(rng.binomial(counts_per_basis, min(max(p_mixed, 0.0), 1.0)))
            estimates.append((2.0 * n_plus - counts_per_basis) / counts_per_basis)

    scale = max(1.0, math.hypot(*estimates))
    overlap = sum(n * (s / scale) for n, s in zip(bloch, estimates))
    return min(max(0.5 * (1.0 + overlap), 0.0), 1.0)
