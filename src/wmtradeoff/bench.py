"""Model of the two-interferometer polarization bench.

The bench realizes the measurement with one polarizing Sagnac
interferometer (a half-wave plate in each arm, angles ``a`` and ``b``) and
the reversal with a second, identical interferometer whose arm angles are
exchanged. Photon counting is simulated at the probability level, and the
whole count path holds one layout, channel first and state major:
``channel_probabilities`` writes the four channel survivals (two
measurement branches, two measurement-plus-reversal chains) over broadcast
(epsilon, eta, alpha) into a (4, ...) array, ``simulate_counts`` scales
that array in place into the (4, 51, cells) counts of every traversal state
of every cell, the cells on one axis, each channel an independent run of N
photons drawn from a binomial law, and the count-ratio estimators read
those counts and return per-state terms of shape (51, cells) or their means
over the 51 states, added in order. Every array pass runs over the cells as
its contiguous axis, and each ``*_RANGE`` test below holds entry by entry,
so ``qubit.check_range`` refuses an array argument in one pass. Every
sampled draw of the package comes from one kind of stream, built by
``_substream``: keyed-counter Philox (Salmon et al., SC'11), the key from
(seed, product) and the counter from the cell, counted on from the first
cell of a call's ``key``, so a cell's numbers do not depend on the cells
drawn with it; a call given no key records the expected counts instead. The
analyzer tomography draws the records of all its input states in one call,
one cell of its own stream.

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

import numpy as np

from .measurement import first_guess_is_v
from .qubit import UNIT_RANGE, check_range

# The input-state traversal uses 51 H-weights spaced by 0.02.
N_TRAVERSAL_STATES = 51
ALPHA_SPACING = 0.02
TRAVERSAL_ALPHAS = ALPHA_SPACING * np.arange(N_TRAVERSAL_STATES)

# Accepted ranges (``qubit.check_range``, elementwise). Binomial draws take a
# signed 64-bit N, and a fidelity row pools the counts of up to two chains.
MAX_PHOTONS = 2**63 - 1
LEAKAGE_RANGE = ("[0, 0.01]", lambda v: (0.0 <= v) & (v <= 0.01))
EFFICIENCY_RANGE = ("(0, 1]", lambda v: (0.0 < v) & (v <= 1.0))


def _counts(low: int, high: int):
    """Test of a count: a Python int, or each entry of an integer dtype, in [low, high]."""
    return lambda v: (np.asarray(v).dtype.kind in "iu") & (low <= v) & (v <= high)


PHOTONS_RANGE = ("[1, 2^63 - 1]", _counts(1, MAX_PHOTONS))
POOLED_COUNTS_RANGE = ("[100, 2^63 - 1]", _counts(100, MAX_PHOTONS))
COUNTS_PER_BASIS_RANGE = ("[100, 2^62 - 1]", _counts(100, MAX_PHOTONS // 2))

# Floor of photons_per_setting * detector_efficiency (N*d) for sampled runs.
# A state with no measured photon has no count ratio. Every traversal state's
# expected measured total is N*d, and it measures none with probability
# (1 - d*p1)^N * (1 - d*p2)^N <= e^(-N*d), as p1 + p2 = 1. At N*d = 40 that
# is 4.2e-18, so over the largest lattice, 256^2 cells x 51 states, the union
# bound leaves less than 2e-11. Exact runs record expected counts: no floor.
MIN_SAMPLED_DETECTED = 40


def check_sampled_photons(photons_per_setting, detector_efficiency) -> None:
    """Refuse a sampled run below ``MIN_SAMPLED_DETECTED`` expected measured photons per state."""
    if not photons_per_setting * detector_efficiency >= MIN_SAMPLED_DETECTED:
        raise ValueError(
            f"sampled runs need photons_per_setting * detector_efficiency >= "
            f"{MIN_SAMPLED_DETECTED}, got {photons_per_setting!r} * {detector_efficiency!r}"
        )


def least_sampled_photons(detector_efficiency) -> int:
    """Least photon count that ``check_sampled_photons`` accepts at ``detector_efficiency``.

    Refused with a ValueError when not even ``MAX_PHOTONS`` is accepted,
    that is below d = 40 / 2^63, about 4.34e-18.
    """
    if not MAX_PHOTONS * detector_efficiency >= MIN_SAMPLED_DETECTED:
        raise ValueError(
            f"detector_efficiency must let some photons_per_setting up to 2^63 - 1 reach "
            f"photons_per_setting * detector_efficiency >= {MIN_SAMPLED_DETECTED}, "
            f"got {detector_efficiency!r}"
        )
    least = math.ceil(MIN_SAMPLED_DETECTED / detector_efficiency)
    # The quotient may have rounded down: step up to a count the test accepts.
    while least * detector_efficiency < MIN_SAMPLED_DETECTED:
        least = math.ceil(math.nextafter(least, math.inf))
    return min(least, MAX_PHOTONS)


# Version of the sampled random-stream scheme: a cell keyed (*prefix, cell)
# draws from ``_substream(seed, *prefix)``, Philox with the key
# SeedSequence(seed, spawn_key=prefix).generate_state(2, np.uint64), at the
# counter (0, 0, 0, cell). Counts draw all 51 x 4 of a cell's values there, a
# call's cells counted on from the last entry of its ``key``; the tomography
# and verify draw from cell 0 of their own prefix. Sampled products record
# the scheme, so numbers drawn under another are told apart.
STREAM_SCHEME = "per-cell-v4"


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


def _substream(seed: int, *prefix: int) -> np.random.Generator:
    """The ``STREAM_SCHEME`` generator of ``prefix`` under ``seed``, at cell 0.

    Every sampled draw of the package starts here; a caller that draws more
    than one cell moves the counter of its ``bit_generator`` to each.
    """
    # Philox keys itself with the SeedSequence's generate_state(2, np.uint64).
    sequence = np.random.SeedSequence(int(seed), spawn_key=[int(k) for k in prefix])
    return np.random.Generator(np.random.Philox(sequence))


def channel_probabilities(epsilon, eta, alpha, noise: NoiseModel = NoiseModel()) -> np.ndarray:
    """Survival probabilities of the four count channels, shape (4, *broadcast shape).

    ``epsilon``, ``eta`` and the input H-weight ``alpha`` lie in [0, 1] and
    broadcast against each other; the first axis of the result holds, in
    this order, the chance that a photon exits the measurement
    interferometer on branch 1 and on branch 2, and the chance that it
    survives branch 1 and its reversal and branch 2 and its reversal. The
    reversal-chain survivals, (1-e)(1-h) and e*h, do not depend on the input
    state. Detector efficiency is not applied.

    Leakage is a map of the operator pair: with s the interferometer swap
    probability, every survival is the ideal one at epsilon' = (1-s)*epsilon
    + s*eta and eta' = (1-s)*eta + s*epsilon, so the counts cannot tell it
    from a moved operator. Each ``alpha * h`` and ``beta * v`` product is
    formed once and reused by the reversal chain: ``(alpha * h1) * v1`` is
    how ``alpha * h1 * v1`` rounds, so the chain survivals keep their bits.
    """
    e, h, alpha = (
        check_range(name, np.asarray(value, dtype=float), UNIT_RANGE)
        for name, value in (("epsilon", epsilon), ("eta", eta), ("alpha", alpha))
    )
    swap = noise.interferometer_swap_probability
    keep = 1.0 - swap
    beta = 1.0 - alpha
    # H and V arm transmissions of the branch of outcome 2, the mapped pair,
    # and of outcome 1, on the (epsilon, eta) shape; alpha broadcasts last.
    h2, v2 = keep * e + swap * h, keep * h + swap * e
    h1, v1 = 1.0 - h2, 1.0 - v2
    out = np.empty((4,) + np.broadcast(h1, alpha).shape)
    rest = np.empty(out.shape[1:])
    # The reversal exchanges the arms, so its H transmission is the V one.
    # Indexing with ``...`` gives views even of a 0-d broadcast shape.
    for branch, (hr, vr) in enumerate(((h1, v1), (h2, v2))):
        measured, chain = out[branch, ...], out[branch + 2, ...]
        np.multiply(alpha, hr, out=chain)
        np.multiply(beta, vr, out=rest)
        np.add(chain, rest, out=measured)
        chain *= vr
        rest *= hr
        chain += rest
    return out


def simulate_counts(
    epsilon, eta, photons_per_setting: int, noise: NoiseModel = NoiseModel(), key=None
) -> np.ndarray:
    """Counts of the four channels for every traversal state of every cell, shape (4, 51, cells).

    ``epsilon`` and ``eta`` lie in [0, 1] and broadcast to one value per
    cell, on at most one axis. Each channel sends ``photons_per_setting``
    photons and records a Binomial(N, p * detector_efficiency) count;
    channels are ordered as in ``channel_probabilities``, and the cells are
    the contiguous axis: floats when expected, int64 when sampled. With
    ``key`` = (seed, *prefix, first_cell), cell k draws all of its counts in
    one call on the ``STREAM_SCHEME`` stream keyed (*prefix, first_cell + k)
    under ``seed``: the one ``_substream`` of the prefix has its counter
    reset before each cell, so a cell's counts do not depend on the cells
    drawn with it. With no ``key`` the expected values are recorded instead
    and no generator is built.
    """
    check_range("photons_per_setting", photons_per_setting, PHOTONS_RANGE)
    cells = np.broadcast_shapes(np.shape(epsilon), np.shape(eta))
    if len(cells) > 1:
        raise ValueError(f"epsilon and eta must broadcast to at most one cell axis, got {cells}")
    detected = channel_probabilities(epsilon, eta, TRAVERSAL_ALPHAS[:, None], noise)
    detected *= noise.detector_efficiency
    np.clip(detected, 0.0, 1.0, out=detected)
    if key is None:
        detected *= photons_per_setting
        return detected
    seed, *prefix, first_cell = (int(i) for i in key)
    # Each cell's counts overwrite its own probabilities once they are drawn.
    counts = detected.view(np.int64)
    rng = _substream(seed, *prefix)
    bit_generator = rng.bit_generator
    # One state dict, its buffer empty, rewritten in place: setting it
    # costs a few microseconds where a fresh generator costs about 30.
    state = bit_generator.state
    for k in range(counts.shape[-1]):
        state["state"]["counter"][3] = first_cell + k
        bit_generator.state = state
        # The draws run over (state, channel) in C order; binomial reads a
        # contiguous copy of the cell's 204 probabilities faster than a view.
        counts[..., k] = rng.binomial(photons_per_setting, detected[..., k].T.copy()).T
    return counts


def _state_major(counts) -> np.ndarray:
    """``counts`` as an array of shape (4, 51, cells...), channels then states; else raise."""
    counts = np.asarray(counts)
    if counts.shape[:2] != (4, N_TRAVERSAL_STATES):
        raise EstimationError(
            f"expected counts of shape (4, {N_TRAVERSAL_STATES}, ...), got {counts.shape}"
        )
    return counts


def _per_measured(terms: np.ndarray, channels: np.ndarray, total: np.ndarray) -> np.ndarray:
    """``terms`` divided in place by each state's measured total m1 + m2.

    The total is formed in the float array ``total``: m1 + m2 can exceed the
    int64 range.
    """
    np.copyto(total, channels[0])
    total += channels[1]
    # A fractional count is an expected value, so any positive total is one.
    if total.min(initial=1.0) <= 0.0:
        empty = np.argwhere(total <= 0.0)
        raise EstimationError(
            f"no measured counts for state index {empty[0, 0]}; cannot form ratio"
        )
    terms /= total
    return terms


def gain_term_from_counts(counts, epsilon, eta) -> np.ndarray:
    """Count-weighted guess fidelity of each traversal state, shape (51, cells...).

    State i weighs the primary channel by 0.02*i where outcome 1 guesses |H>
    and by 1 - 0.02*i where it guesses |V> (the package's one guess rule,
    ``first_guess_is_v``), and the complementary channel by the rest.
    ``epsilon`` and ``eta`` broadcast to the cell axes of ``counts``; a
    shape that does not is refused, rather than spread over the states.
    """
    m1, m2 = _state_major(counts)[:2]
    cells = m1.shape[1:]
    guess_v = first_guess_is_v(np.asarray(epsilon), np.asarray(eta))
    try:
        guess_v = np.broadcast_to(guess_v, cells)
    except ValueError:
        raise EstimationError(
            f"epsilon and eta of shape {guess_v.shape} do not broadcast to the cells {cells}"
        ) from None
    alphas = TRAVERSAL_ALPHAS.reshape((N_TRAVERSAL_STATES,) + (1,) * len(cells))
    # z, then (1 - z) * m2 and the total in place: two block-sized arrays.
    z = np.empty(m1.shape)
    z[...] = alphas
    np.copyto(z, 1.0 - alphas, where=guess_v)
    terms = z * m1
    np.subtract(1.0, z, out=z)
    z *= m2
    terms += z
    return _per_measured(terms, (m1, m2), z)


def rev_term_from_counts(counts) -> np.ndarray:
    """Fraction of measured photons that also survived the reversal, shape (51, cells...)."""
    channels = _state_major(counts)
    terms = channels[2].astype(float)
    terms += channels[3]
    return _per_measured(terms, channels, np.empty_like(terms))


def _traversal_mean(terms: np.ndarray) -> np.ndarray:
    """Mean over the 51 states of axis 0, the states added one after another.

    An accumulation adds them in order by definition, as a per-state loop
    would, whatever the memory layout; ``ndarray.sum`` adds pairwise and
    rounds differently.
    """
    return np.add.accumulate(terms, axis=0)[-1] / N_TRAVERSAL_STATES


def estimate_gmax_from_counts(counts, epsilon, eta) -> np.ndarray:
    """Count-ratio estimate of the mean maximal estimation fidelity of each cell."""
    return _traversal_mean(gain_term_from_counts(counts, epsilon, eta))


def estimate_prev_from_counts(counts) -> np.ndarray:
    """Count-ratio estimate of the mean reversal probability of each cell."""
    return _traversal_mean(rev_term_from_counts(counts))


def simulate_tomography(
    alpha, counts_per_basis, noise: NoiseModel = NoiseModel(),
    rng_stream: np.random.Generator | None = None,
) -> np.ndarray:
    """Fidelity to the input of an analyzer tomography in the H/V, D/A and R/L bases.

    ``alpha`` and ``counts_per_basis`` broadcast to one value per input
    sqrt(alpha)|H> + sqrt(1-alpha)|V>, of Bloch vector
    n = (2*alpha - 1, 2*sqrt(alpha*(1-alpha)), 0). Given ``rng_stream``,
    counts in each basis are binomial on the leakage-mixed outcome
    probability (one PBS pass in the analyzer), all drawn from it in one
    call over (input, basis) in C order, and linear inversion of the
    empirical ratios gives a Stokes vector s; with no ``rng_stream`` the
    outcome probabilities themselves are inverted. The physical state
    nearest to (I + s.sigma)/2, its eigenvalues (1 +- |s|)/2 clipped to
    [0, 1] and renormalized, has the Stokes vector s / max(1, |s|), and its
    fidelity to the input is (1 + n.s)/2. Detector efficiency cancels in
    the per-basis ratios and is not applied here. ``counts_per_basis`` pools
    every chain's (``POOLED_COUNTS_RANGE``).
    """
    a = check_range("alpha", np.asarray(alpha, dtype=float), UNIT_RANGE)
    counts = check_range("counts_per_basis", np.asarray(counts_per_basis), POOLED_COUNTS_RANGE)
    leak = noise.pbs_leakage
    bloch = np.stack((2.0 * a - 1.0, 2.0 * np.sqrt(a * (1.0 - a)), np.zeros_like(a)), axis=-1)
    p_plus = 0.5 * (1.0 + bloch)
    p_mixed = (1.0 - leak) * p_plus + leak * (1.0 - p_plus)
    if rng_stream is None:
        estimates = 2.0 * p_mixed - 1.0
    else:
        total = counts[..., None]
        n_plus = rng_stream.binomial(total, np.clip(p_mixed, 0.0, 1.0))
        estimates = (2.0 * n_plus - total) / total

    # Below |s| = 1 the scale is 1; near and above it math.hypot rounds |s|
    # closer than numpy's norm, on those rows alone.
    rows = estimates.reshape(-1, 3)
    scale = np.ones(len(rows))
    near = np.linalg.norm(rows, axis=-1) >= 1.0 - 1e-9
    scale[near] = np.maximum(1.0, [math.hypot(*s) for s in rows[near].tolist()])
    terms = bloch * (estimates / scale.reshape(estimates.shape[:-1] + (1,)))
    overlap = terms[..., 0] + terms[..., 1] + terms[..., 2]
    return np.clip(0.5 * (1.0 + overlap), 0.0, 1.0)
