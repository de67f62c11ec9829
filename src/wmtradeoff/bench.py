"""Model of the two-interferometer polarization bench.

The bench realizes the measurement with one polarizing Sagnac interferometer
(a half-wave plate in each arm, angles ``a`` and ``b``) and the reversal with
a second, identical interferometer whose arm angles are exchanged. Photon
counting is simulated at the probability level by one array kernel that
writes the four channel survivals (two measurement branches, two
measurement-plus-reversal chains) into one channel-first, state-major
(4, 51, cells) buffer, so every array pass runs over the cells as its
contiguous axis. ``channel_probabilities`` is a view of it over broadcast
(epsilon, eta, alpha), and ``simulate_counts`` scales it in place into a
(cells, 51, 4) count view, each channel an independent run of N photons
drawn from a binomial law. Every cell draws its counts from its own
keyed-counter stream (Philox; Salmon et al., SC'11): the key comes from
(seed, product), the counter from the cell, counted on from a call's
``first_key``, so a cell's numbers do not depend on the cells drawn with it;
exact mode records the expected counts instead. The count-ratio estimators
reduce that array over the 51 states, added in order whatever its layout.

The model works with arm transmissions only: (1 - epsilon, 1 - eta) on the
primary branch and (epsilon, eta) on the complementary one, exchanged in the
reversal interferometer. These are the squared magnitudes of the waveplate
amplitudes (epsilon = sin^2 2a, eta = sin^2 2b), so the angles and the
amplitude signs, which cancel in the measurement-then-reversal composition,
never enter a count.
"""

from __future__ import annotations

import math
from collections import namedtuple
from numbers import Integral

import numpy as np

from .measurement import UNIT_RANGE, check_range, first_guess_is_v

# The input-state traversal uses 51 H-weights spaced by 0.02.
N_TRAVERSAL_STATES = 51
ALPHA_SPACING = 0.02
TRAVERSAL_ALPHAS = ALPHA_SPACING * np.arange(N_TRAVERSAL_STATES)

# Accepted ranges (``measurement.check_range``). Binomial draws take a signed
# 64-bit N, and a fidelity row pools the counts of up to two chains.
MAX_PHOTONS = 2**63 - 1
LEAKAGE_RANGE = ("[0, 0.01]", lambda v: 0.0 <= v <= 0.01)
EFFICIENCY_RANGE = ("(0, 1]", lambda v: 0.0 < v <= 1.0)
PHOTONS_RANGE = ("[1, 2^63 - 1]", lambda v: isinstance(v, Integral) and 1 <= v <= MAX_PHOTONS)
POOLED_COUNTS_RANGE = (
    "[100, 2^63 - 1]", lambda v: isinstance(v, Integral) and 100 <= v <= MAX_PHOTONS
)
COUNTS_PER_BASIS_RANGE = (
    "[100, 2^62 - 1]", lambda v: isinstance(v, Integral) and 100 <= v <= MAX_PHOTONS // 2
)

# Version of the sampled random-stream scheme: a cell keyed (*prefix, cell)
# draws all 51 x 4 of its counts from Philox with the key
# SeedSequence(seed, spawn_key=prefix).generate_state(2, np.uint64) and the
# counter (0, 0, 0, cell); a call's cells follow its ``first_key``. Sampled
# products record the scheme, so numbers drawn under another are told apart.
STREAM_SCHEME = "per-cell-v3"


class EstimationError(RuntimeError):
    """Raised when counts cannot support a ratio estimate."""


class NoiseModel(namedtuple("NoiseModel", "pbs_leakage detector_efficiency")):
    """Probability-level imperfections of the bench.

    ``pbs_leakage`` is the chance that a photon exits the wrong port of a
    polarizing beam splitter on one pass (an extinction ratio of 1000:1 maps
    to roughly 1e-3). Each interferometer involves two passes, so its
    effective arm-swap probability is 2*leakage*(1-leakage); the analyzer has
    a single pass. ``detector_efficiency`` thins every count channel equally
    and therefore cancels out of all count-ratio estimators. Both are floats.
    """

    def __new__(cls, pbs_leakage=0.0, detector_efficiency=1.0):
        return super().__new__(
            cls,
            check_range("pbs_leakage", float(pbs_leakage), LEAKAGE_RANGE),
            check_range("detector_efficiency", float(detector_efficiency), EFFICIENCY_RANGE),
        )

    @property
    def interferometer_swap_probability(self) -> float:
        """Chance that exactly one of the two PBS passes misroutes a photon."""
        return 2.0 * self.pbs_leakage * (1.0 - self.pbs_leakage)


def _substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one spawn key under the master seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def _channels(epsilon, eta, alpha, noise: NoiseModel | None) -> np.ndarray:
    """The four channel survivals, channel axis first: shape (4, *broadcast shape).

    Each ``alpha * h`` and ``beta * v`` product is formed once and reused by
    the reversal chain: ``(alpha * h1) * v1`` is how ``alpha * h1 * v1``
    rounds, so the chain survivals keep their bits.
    """
    swap = (noise or NoiseModel()).interferometer_swap_probability
    keep = 1.0 - swap
    e, h = np.asarray(epsilon, dtype=float), np.asarray(eta, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = 1.0 - alpha
    # Leakage-mixed H and V arm transmissions of the branch of outcome 1 and
    # of outcome 2, on the (epsilon, eta) shape; alpha broadcasts last.
    not_e, not_h = 1.0 - e, 1.0 - h
    h1, v1 = keep * not_e + swap * not_h, keep * not_h + swap * not_e
    h2, v2 = keep * e + swap * h, keep * h + swap * e
    out = np.empty((4,) + np.broadcast(h1, alpha).shape)
    rest = np.empty(out.shape[1:])
    # The reversal exchanges the arms, so its mixed H transmission is the V
    # one. Indexing with ``...`` gives views even of a 0-d broadcast shape.
    for branch, (hr, vr) in enumerate(((h1, v1), (h2, v2))):
        measured, chain = out[branch, ...], out[branch + 2, ...]
        np.multiply(alpha, hr, out=chain)
        np.multiply(beta, vr, out=rest)
        np.add(chain, rest, out=measured)
        chain *= vr
        rest *= hr
        chain += rest
    return out


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
    return np.moveaxis(_channels(epsilon, eta, alpha, noise), 0, -1)


def simulate_counts(
    epsilon,
    eta,
    photons_per_setting: int,
    noise: NoiseModel | None = None,
    seed: int = 0,
    first_key=None,
    exact_mode: bool = False,
) -> np.ndarray:
    """Counts of the four channels for every traversal state of every cell.

    ``epsilon`` and ``eta`` broadcast to one value per cell. Each channel
    sends ``photons_per_setting`` photons and records a
    Binomial(N, p * detector_efficiency) count; the result has shape
    (cells, 51, 4), channels ordered as in ``channel_probabilities``. With
    ``first_key`` = (*prefix, first_cell), cell k draws all of its counts in
    one call on the ``STREAM_SCHEME`` stream keyed (*prefix, first_cell + k)
    under ``seed``: one Philox bit generator keyed by the prefix has its
    counter reset before each cell, so a cell's counts do not depend on the
    cells drawn with it. Exact mode records the expected values instead,
    builds no generator and ignores ``first_key``.

    The result is a view of one state-major (4, 51, cells) buffer, so the
    cells are its contiguous axis: floats in exact mode, int64 when sampled.
    """
    check_range("photons_per_setting", photons_per_setting, PHOTONS_RANGE)
    noise = noise or NoiseModel()
    detected = _channels(
        np.atleast_1d(epsilon), np.atleast_1d(eta), TRAVERSAL_ALPHAS[:, None], noise
    )
    detected *= noise.detector_efficiency
    np.clip(detected, 0.0, 1.0, out=detected)
    if exact_mode:
        detected *= photons_per_setting
        return detected.T
    if first_key is None:
        raise ValueError("sampled counts need a first_key (*prefix, first_cell)")
    *prefix, first_cell = (int(i) for i in first_key)
    # Each cell's counts overwrite its own probabilities once they are drawn.
    counts = detected.view(np.int64)
    key = np.random.SeedSequence(int(seed), spawn_key=prefix).generate_state(2, np.uint64)
    bit_generator = np.random.Philox(key=key)
    rng = np.random.Generator(bit_generator)
    # One state dict, its buffer empty, rewritten in place: setting it
    # costs a few microseconds where a fresh generator costs about 30.
    state = bit_generator.state
    for k in range(counts.shape[-1]):
        state["state"]["counter"][3] = first_cell + k
        bit_generator.state = state
        # The draws run over (state, channel) in C order; binomial reads a
        # contiguous copy of the cell's 204 probabilities faster than a view.
        counts[..., k] = rng.binomial(photons_per_setting, detected[..., k].T.copy()).T
    return counts.T


def _state_major(counts) -> np.ndarray:
    """``counts`` of shape (..., 51, 4) as a (4, 51, ...) view, channels then states.

    On the output of ``simulate_counts`` that view is C-contiguous.
    """
    counts = np.asarray(counts)
    if counts.shape[-2:] != (N_TRAVERSAL_STATES, 4):
        raise EstimationError(
            f"expected counts of shape (..., {N_TRAVERSAL_STATES}, 4), got {counts.shape}"
        )
    return counts.transpose((-1, -2, *range(counts.ndim - 2)))


def _per_measured(terms: np.ndarray, channels: np.ndarray, total: np.ndarray) -> np.ndarray:
    """``terms`` divided in place by each state's measured total m1 + m2.

    The total is formed in the float array ``total``: m1 + m2 can exceed the
    int64 range.
    """
    np.copyto(total, channels[0])
    total += channels[1]
    # A fractional count is an expected value, so any positive total is one.
    if total.min(initial=1.0) <= 0.0:
        empty = np.argwhere(np.moveaxis(total, 0, -1) <= 0.0)
        raise EstimationError(
            f"no measured counts for state index {empty[0, -1]}; cannot form ratio"
        )
    terms /= total
    return terms


def _gain_terms(counts, epsilon, eta) -> np.ndarray:
    channels = _state_major(counts)
    guess_v = first_guess_is_v(np.asarray(epsilon), np.asarray(eta))
    # More guess axes than cell axes: pad the cells' on the left.
    pad = max(0, guess_v.ndim + 2 - channels.ndim)
    m1, m2 = np.expand_dims(channels, tuple(range(2, 2 + pad)))[:2]
    alphas = TRAVERSAL_ALPHAS.reshape((N_TRAVERSAL_STATES,) + (1,) * (m1.ndim - 1))
    # z, then (1 - z) * m2 and the total in place: two block-sized arrays.
    z = np.empty(np.broadcast(alphas, guess_v, m1).shape)
    z[...] = alphas
    np.copyto(z, 1.0 - alphas, where=guess_v)
    terms = z * m1
    np.subtract(1.0, z, out=z)
    z *= m2
    terms += z
    return _per_measured(terms, (m1, m2), z)


def _rev_terms(counts) -> np.ndarray:
    channels = _state_major(counts)
    terms = channels[2].astype(float)
    terms += channels[3]
    return _per_measured(terms, channels, np.empty_like(terms))


def gain_term_from_counts(counts, epsilon, eta) -> np.ndarray:
    """Count-weighted guess fidelity of each traversal state, shape (..., 51).

    State i weighs the primary channel by 0.02*i where outcome 1 guesses |H>
    and by 1 - 0.02*i where it guesses |V> (the package's one guess rule,
    ``first_guess_is_v``), and the complementary channel by the rest.
    """
    return np.moveaxis(_gain_terms(counts, epsilon, eta), 0, -1)


def rev_term_from_counts(counts) -> np.ndarray:
    """Fraction of measured photons that also survived the reversal, shape (..., 51)."""
    return np.moveaxis(_rev_terms(counts), 0, -1)


def _traversal_mean(terms: np.ndarray) -> np.ndarray:
    """Mean over the 51 states of axis 0, the states added one after another.

    An accumulation adds them in order by definition, as a per-state loop
    would, whatever the memory layout; ``ndarray.sum`` adds pairwise and
    rounds differently.
    """
    return np.add.accumulate(terms, axis=0)[-1] / N_TRAVERSAL_STATES


def estimate_gmax_from_counts(counts, epsilon, eta) -> np.ndarray:
    """Count-ratio estimate of the mean maximal estimation fidelity of each cell."""
    return _traversal_mean(_gain_terms(counts, epsilon, eta))


def estimate_prev_from_counts(counts) -> np.ndarray:
    """Count-ratio estimate of the mean reversal probability of each cell."""
    return _traversal_mean(_rev_terms(counts))


def simulate_tomography(
    alpha: float,
    counts_per_basis: int,
    noise: NoiseModel | None = None,
    rng_stream: int | np.random.SeedSequence | np.random.Generator | None = 0,
    exact_mode: bool = False,
) -> float:
    """Fidelity to the input of an analyzer tomography in the H/V, D/A and R/L bases.

    The input is sqrt(alpha)|H> + sqrt(1-alpha)|V>, of Bloch vector
    n = (2*alpha - 1, 2*sqrt(alpha*(1-alpha)), 0). Counts in each basis are
    binomial on the leakage-mixed outcome probability (one PBS pass in the
    analyzer), and linear inversion of the empirical ratios gives a Stokes
    vector s. The physical state nearest to (I + s.sigma)/2, its eigenvalues
    (1 +- |s|)/2 clipped to [0, 1] and renormalized, has the Stokes vector
    s / max(1, |s|), and its fidelity to the input is (1 + n.s)/2. Exact mode
    uses the outcome probabilities themselves and ignores ``rng_stream``.
    Detector efficiency cancels in the per-basis ratios and is not applied
    here. ``counts_per_basis`` pools every chain's (``POOLED_COUNTS_RANGE``).
    """
    a = check_range("alpha", float(alpha), UNIT_RANGE)
    check_range("counts_per_basis", counts_per_basis, POOLED_COUNTS_RANGE)
    noise = noise or NoiseModel()
    leak = noise.pbs_leakage
    rng = None if exact_mode else np.random.default_rng(rng_stream)

    bloch = (2.0 * a - 1.0, 2.0 * math.sqrt(a * (1.0 - a)), 0.0)
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
