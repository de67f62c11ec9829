"""Traversal campaigns, the Haar-average oracle, and the verification battery.

The drivers here reproduce the standard campaigns: a 51-state input traversal
at a fixed measurement, a full operator-lattice sweep of tradeoff points, the
epsilon = 0 cross section, and the reversed-state fidelity sweep. Each
driver, ``verify`` included, returns its product's schema, a column table
(see ``tables``): a dict from column name, in header order, to numpy arrays,
float64 for numbers (NaN for a missing value), bool for flags, str for text.
``verify`` holds one row per check: each ``_check_<name>`` returns its
deviation and tolerance, and one rule gives every verdict, PASS iff deviation
<= tolerance; a check that raises is a FAIL row with deviation inf and
tolerance 0. Everything is seed-pinned: identical configuration and seed
produce byte-identical columns, and each lattice cell's row does not depend
on the order in which cells are evaluated, because all randomness flows
through per-cell streams, each one ``bench._substream``. A product driver
draws exactly when it is given a seed: with ``seed=None`` it records expected
values and builds no generator, as the kernels do with no key or stream.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import traceback
from collections import namedtuple

import numpy as np

from .qubit import TWO_PI, Operator2, apply_operator, check_range, gram_eigen, matmul2
from .measurement import (
    WeakMeasurement,
    closed_forms,
    kraus_coefficients,
    per_state_gain,
    per_state_reversal_prob,
    per_state_terms,
    reversal_operators,
)
from .bench import (
    COUNTS_PER_BASIS_RANGE,
    N_TRAVERSAL_STATES,
    PHOTONS_RANGE,
    SEED_RANGE,
    TRAVERSAL_ALPHAS,
    NoiseModel,
    _substream,
    _traversal_mean,
    channel_probabilities,
    check_sampled_photons,
    estimate_gmax_from_counts,
    estimate_prev_from_counts,
    gain_term_from_counts,
    least_sampled_photons,
    rev_term_from_counts,
    simulate_counts,
    simulate_tomography,
)

DEFAULT_GRID_SIZE = 16
MIN_GRID_SIZE = 2
DEFAULT_PHOTONS = 100_000
DEFAULT_SEED = 42
DEFAULT_COUNTS_PER_BASIS = 10_000

# Samples per slice of the Haar oracle's per-sample arithmetic, whose
# temporaries (16 KiB real, 32 KiB complex each) are all it holds beyond the
# two draws. Three 20,000-sample oracle runs took 7.5 ms at 2048, 8.0 ms at
# 4096 and 8.8 ms at 1024 (medians of 60 alternating in-process runs, 2-vCPU
# Xeon VM; 1024 was slowest in each of three such batches), and a process
# looping verify with them peaked at 36.9 MiB RSS at 2048 or 1024 against
# 37.5 at 4096: 2048 takes the memory without the time.
ORACLE_BLOCK = 2048

# Instruments and states of verify's oracle check: the diagonal cells, then
# ORACLE_ROTATED instruments drawn from the oracle's stream, each averaged
# over the four tetrahedral (SIC) states. Those are a 2-design: their mean of
# any term quadratic in |phi><phi| is its Haar average exactly (Renes et al.,
# J. Math. Phys. 45, 2171, 2004), and both per-state terms are quadratic.
ORACLE_CELLS = ((0.25, 0.75), (0.1, 0.6), (0.8, 0.3))
ORACLE_ROTATED = 100
ORACLE_STATES = np.array(
    [(1.0, 0.0)]
    + [(math.sqrt(1 / 3), math.sqrt(2 / 3) * np.exp(2j * math.pi * k / 3)) for k in range(3)]
)

# Expected reversed-photon yield below which a fidelity row is flagged
# LOW_STATS instead of fitted.
LOW_STATS_FLOOR = 100

# Cells per count-kernel call of grid_sweep: whole epsilon rows, at most
# this many cells and at least one row, so a 16 x 16 lattice takes 1 call
# and a 64 x 64 one 16. The kernel's passes run over the cells, so larger
# blocks pay less per-call overhead until their temporaries outgrow the
# cache: the exact 64 x 64 lattice took 12.0 ms with 64-cell blocks, 7.6 ms
# with 256, 7.7 ms with 1024 and 8.4 ms with 4096 (in-process, best of 45,
# 2-vCPU Xeon VM).
GRID_BLOCK_CELLS = 256

# States (51 per cell) per kernel call of verify's state-grid means: whole
# epsilon rows, at most this many states and at least one row, so a 16 x 16
# lattice takes 2 rows a call and a 33 x 33 or larger one 1. The state-grid
# row of a default verify took 2.5 ms at 1 row a call, 2.0 at 2 or 3 and
# 2.6 at 4; at 33 x 33, 7.7 ms at 1 row and 8.9 at 2; at 64 x 64, 24.7 at
# 1 and 32.5 at 2 (CPU-time medians of 80, 30 and 15 interleaved in-process
# verify runs, 2-vCPU Xeon VM); 3 rows would lift a default verify's traced
# peak from 553 to 766 KiB.
STATE_GRID_BLOCK_STATES = 2048

# Spawn-key prefixes of the random streams, one per product or check, each a
# ``bench._substream`` (``bench.STREAM_SCHEME``). Sampled counts draw lattice
# cell k from (tag, k); the tomography of all traversal states and each
# parameter draw of verify, the oracle's instruments included, take cell 0
# of their prefix.
GRID_STREAM, STATES_STREAM, CROSS_SECTION_STREAM, CONSISTENCY_STREAM = 1, 2, 3, 4
FIDELITY_STREAM = 5
SYMMETRY_STREAM, EXACTNESS_STREAM, CONSTANCY_STREAM, ORACLE_STREAM = 1001, 1002, 1003, 1004


OracleEstimate = namedtuple(
    "OracleEstimate", "gmax_estimate gmax_stderr prev_estimate prev_stderr n_samples"
)


def state_sweep(
    wm: WeakMeasurement,
    photons_per_setting: int = DEFAULT_PHOTONS,
    noise: NoiseModel = NoiseModel(),
    seed: int | None = DEFAULT_SEED,
) -> dict:
    """Columns alpha, gain_analytic, rev_analytic, gain_mc, rev_mc of the 51-state traversal.

    Analytic columns come from the branch enumeration; the Monte Carlo
    columns are single-state count-ratio terms from counts drawn under
    ``seed`` (their expected values when ``seed`` is None).
    """
    key = None if seed is None else (seed, STATES_STREAM, 0)
    counts = simulate_counts(wm.epsilon, wm.eta, photons_per_setting, noise, key)[..., 0]
    gain_analytic, rev_analytic = per_state_terms(wm.epsilon, wm.eta, TRAVERSAL_ALPHAS)
    return {
        "alpha": TRAVERSAL_ALPHAS,
        "gain_analytic": gain_analytic,
        "rev_analytic": rev_analytic,
        "gain_mc": gain_term_from_counts(counts, wm.epsilon, wm.eta),
        "rev_mc": rev_term_from_counts(counts),
    }


def _cell_columns(epsilon, eta, photons_per_setting: int, noise: NoiseModel, key) -> dict:
    """Columns epsilon, eta, gmax_analytic, prev_analytic, sum_analytic,
    gmax_mc, prev_mc, sum_mc, diagonal_flag of a run of lattice cells.

    ``epsilon`` and ``eta`` broadcast against each other, one value per
    cell, cells taken row-major. One count-kernel call covers all of them,
    drawing from ``key`` = (seed, stream tag, first cell index), or recording
    expected counts when ``key`` is None; cell k of the run draws from the
    stream (tag, first cell index + k) whatever else is drawn.
    """
    e, h = (np.ravel(a) for a in np.broadcast_arrays(np.atleast_1d(epsilon), np.atleast_1d(eta)))
    counts = simulate_counts(e, h, photons_per_setting, noise, key)
    gmax, prev, degenerate = closed_forms(e, h)
    gmax_mc, prev_mc = estimate_gmax_from_counts(counts, e, h), estimate_prev_from_counts(counts)
    return {
        "epsilon": e,
        "eta": h,
        "gmax_analytic": gmax,
        "prev_analytic": prev,
        "sum_analytic": 6.0 * gmax + prev,
        "gmax_mc": gmax_mc,
        "prev_mc": prev_mc,
        "sum_mc": 6.0 * gmax_mc + prev_mc,
        "diagonal_flag": degenerate,
    }


def _concatenate(parts: list[dict]) -> dict:
    """One column table holding the rows of ``parts`` in order."""
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def _grid_values(grid_size: int) -> np.ndarray:
    """The grid_size lattice values on [0, 1]; the sweeps and verify read both edges."""
    if grid_size < MIN_GRID_SIZE:
        raise ValueError(f"grid size must be at least {MIN_GRID_SIZE}")
    return np.linspace(0.0, 1.0, grid_size)


def grid_sweep(
    grid_size: int = DEFAULT_GRID_SIZE,
    photons_per_setting: int = DEFAULT_PHOTONS,
    noise: NoiseModel = NoiseModel(),
    seed: int | None = DEFAULT_SEED,
) -> dict:
    """Tradeoff columns (those of ``_cell_columns``) over the full operator lattice.

    Rows run row-major by epsilon, then eta. Diagonal (beam-splitter) cells
    are flagged, never dropped, so downstream consumers can mask them. The
    counts are drawn under ``seed``, or expected when it is None, in blocks
    of whole epsilon rows, at most ``GRID_BLOCK_CELLS`` (256) cells or one
    row, which keeps memory linear in the grid size.
    """
    values = _grid_values(grid_size)
    rows = max(1, GRID_BLOCK_CELLS // grid_size)
    return _concatenate([
        _cell_columns(
            values[i:i + rows, None], values, photons_per_setting, noise,
            None if seed is None else (seed, GRID_STREAM, i * grid_size),
        )
        for i in range(0, grid_size, rows)
    ])


def cross_section(
    eta_values,
    photons_per_setting: int = DEFAULT_PHOTONS,
    noise: NoiseModel = NoiseModel(),
    seed: int | None = None,
) -> dict:
    """Columns eta, six_gmax, prev, sum along epsilon = 0.

    The epsilon = 0 run of lattice cells (``_cell_columns``), its counts
    drawn from cell 0 on of the stream CROSS_SECTION_STREAM: with no
    ``seed`` the closed forms (3 + eta, 1 - eta, 4), otherwise the
    count-ratio estimates. ``eta_values`` is one-dimensional, each in [0, 1].
    """
    etas = np.array(eta_values, dtype=float)
    if etas.ndim != 1:
        raise ValueError(f"eta_values must be one-dimensional, got shape {etas.shape}")
    key = None if seed is None else (seed, CROSS_SECTION_STREAM, 0)
    cells = _cell_columns(0.0, etas, photons_per_setting, noise, key)
    kind = "_analytic" if seed is None else "_mc"
    gmax, prev = cells["gmax" + kind], cells["prev" + kind]
    return {"eta": etas, "six_gmax": 6.0 * gmax, "prev": prev, "sum": cells["sum" + kind]}


def reversal_fidelity_sweep(
    wm: WeakMeasurement,
    counts_per_basis: int = DEFAULT_COUNTS_PER_BASIS,
    noise: NoiseModel = NoiseModel(),
    seed: int | None = DEFAULT_SEED,
) -> dict:
    """Columns alpha, fidelity, low_stats_flag: reversed-output tomography per state.

    Both branch chains are exercised and their analyzer records pooled: every
    chain whose expected reversed-photon yield (from a ``counts_per_basis``
    source budget) reaches ``LOW_STATS_FLOOR`` integrates until it has
    recorded ``counts_per_basis`` reversed photons per basis. States whose
    total expected yield falls below the floor are flagged LOW_STATS, with a
    NaN fidelity, instead of fitted. The fitted states' records are drawn in
    one ``simulate_tomography`` call from cell 0 of the stream FIDELITY_STREAM,
    or their expected values inverted when ``seed`` is None.
    """
    check_range("counts_per_basis", counts_per_basis, COUNTS_PER_BASIS_RANGE)
    chains = channel_probabilities(wm.epsilon, wm.eta, TRAVERSAL_ALPHAS, noise)[2:]
    yields = counts_per_basis * chains
    low_stats = yields.sum(axis=0) < LOW_STATS_FLOOR
    live_chains = np.maximum(1, (yields >= LOW_STATS_FLOOR).sum(axis=0))[~low_stats]
    rng = None if seed is None else _substream(seed, FIDELITY_STREAM)
    fidelity = np.full(N_TRAVERSAL_STATES, math.nan)
    fidelity[~low_stats] = simulate_tomography(
        TRAVERSAL_ALPHAS[~low_stats], live_chains * counts_per_basis, noise, rng
    )
    return {"alpha": TRAVERSAL_ALPHAS, "fidelity": fidelity, "low_stats_flag": low_stats}


def haar_average_oracle(
    wm: WeakMeasurement, n_samples: int, rng: np.random.Generator
) -> OracleEstimate:
    """Monte Carlo average of gain and reversibility over Haar-random states.

    States are drawn with a stratified Bloch-sphere polar cosine and a
    uniform relative phase, and the per-state quantities are evaluated by
    brute-force branch arithmetic on the sampled amplitudes. This is the
    independent check of the two closed forms; it shares none of their
    algebra. Its instrument, U_1 = U_2 = V = I, and guesses come from the
    design row's ``_oracle_operators`` and ``_oracle_guess``. Every sample
    is drawn from ``rng``. ``verify`` does not run it: its
    ``oracle_agreement`` row is the exact design average of
    ``_check_oracle_agreement``, and this Monte Carlo average serves the
    library and the tests.

    The polar cosine is drawn in n_samples // 2 equal-width strata of
    [-1, 1], two uniform draws in each; an odd n_samples gives the last
    stratum three draws and a width to match. Each stratum's width is thus
    proportional to its draws, so the plain mean is unbiased and its
    variance is sum_j n_j * s_j**2 / n**2 over the strata j, which for a
    pair is (x_a - x_b)**2 / n**2. The per-state gain is smooth in the polar
    cosine, so the standard error falls as n**-1.5, not n**-0.5.

    Both draws are taken in full first (every offset within a stratum, then
    every phase). The per-sample arithmetic then runs over slices of
    ``ORACLE_BLOCK`` samples, so its complex temporaries stay cache-sized,
    and each slice's gains and reversal terms overwrite the slice of offsets
    and phases they were computed from. Every operation is elementwise, so
    each sample's terms do not depend on the slicing. Means and standard
    errors are taken over the two full arrays. Memory is the two n_samples
    float arrays plus one slice of temporaries or one half-length array of
    pair differences: about 19 MiB at 10^6 samples.
    """
    if n_samples < 10_000:
        raise ValueError("n_samples must be at least 10000")
    offsets = rng.uniform(0.0, 1.0, n_samples)
    phases = rng.uniform(0.0, TWO_PI, n_samples)
    last = n_samples // 2 - 1  # the last stratum, holding 2 or 3 samples

    # Unrotated, the diagonals hold every entry, and each guess is |H> or |V>.
    identities = np.broadcast_to(np.eye(2), (1, 2, 2, 2))
    branches, reversals = _oracle_operators(wm.epsilon, wm.eta, identities, identities[:, 0])
    (d1, d2), (r1, r2) = (ops[0].diagonal(axis1=1, axis2=2).real for ops in (branches, reversals))
    guess = _oracle_guess(branches)[0]
    guess_h = (np.abs(guess[:, 0]) > np.abs(guess[:, 1])).tolist()

    # Each slice's terms overwrite the draws they came from, read first.
    gains, revs = offsets, phases
    for start in range(0, n_samples, ORACLE_BLOCK):
        block = slice(start, start + ORACLE_BLOCK)
        # alpha = (1 + cos theta) / 2, so stratum j of cos theta is
        # [2j, 2j + count) / n_samples in alpha.
        stratum = np.minimum(np.arange(start, min(start + ORACLE_BLOCK, n_samples)) // 2, last)
        count = np.where(stratum == last, n_samples - 2 * last, 2)
        alphas = (2.0 * stratum + count * offsets[block]) / n_samples
        a0 = np.sqrt(alphas)
        a1 = np.exp(1j * phases[block]) * np.sqrt(1.0 - alphas)

        v10, v11 = d1[0] * a0, d1[1] * a1
        v20, v21 = d2[0] * a0, d2[1] * a1
        p1 = np.abs(v10) ** 2 + np.abs(v11) ** 2
        p2 = np.abs(v20) ** 2 + np.abs(v21) ** 2
        f1 = alphas if guess_h[0] else 1.0 - alphas
        f2 = alphas if guess_h[1] else 1.0 - alphas
        gains[block] = p1 * f1 + p2 * f2

        # p * |<phi|R|post>|^2 collapses to |<phi|R A phi>|^2, annihilation safe.
        rev1 = np.abs(np.conj(a0) * r1[0] * v10 + np.conj(a1) * r1[1] * v11) ** 2
        rev2 = np.abs(np.conj(a0) * r2[0] * v20 + np.conj(a1) * r2[1] * v21) ** 2
        revs[block] = rev1 + rev2

    return OracleEstimate(
        gmax_estimate=float(np.mean(gains)),
        gmax_stderr=_stratified_stderr(gains, last),
        prev_estimate=float(np.mean(revs)),
        prev_stderr=_stratified_stderr(revs, last),
        n_samples=n_samples,
    )


def _stratified_stderr(x: np.ndarray, last: int) -> float:
    """Stratified standard error of the oracle's mean of ``x``.

    Stratum j < ``last`` holds samples 2j and 2j + 1; stratum ``last`` holds
    the rest, two or three samples.
    """
    pairs = x[0 : 2 * last : 2] - x[1 : 2 * last : 2]
    pairs *= pairs
    tail = x[2 * last :]
    return math.sqrt(float(np.sum(pairs)) + len(tail) * float(np.var(tail, ddof=1))) / len(x)


def corrupted_reversal_operators(epsilon, eta) -> np.ndarray:
    """``reversal_operators`` with each V coefficient halved (negative-control hook)."""
    m = reversal_operators(epsilon, eta)
    m[..., 1, 1] *= 0.5
    return m


def _worst(parts) -> tuple[float, float]:
    """Pick the (deviation, tolerance) pair with the largest dev/tol ratio.

    ``parts`` is a sequence or an (n, 2) array of pairs; the first of equal
    ratios wins. A zero tolerance gives a ratio of inf, or 0 when the
    deviation is 0 too.
    """
    dev, tol = np.asarray(parts, dtype=float).reshape(-1, 2).T
    ratio = np.divide(dev, tol, out=np.where(dev > 0.0, math.inf, 0.0), where=tol > 0.0)
    k = int(np.argmax(ratio))
    return float(dev[k]), float(tol[k])


def _check_kraus_completeness() -> tuple[float, float]:
    # Every branch operator is diagonal, so A_1^dagger A_1 + A_2^dagger A_2 = I
    # reads sum_r |c_rk|^2 = 1 for each basis state k.
    values = np.minimum(np.arange(0.0, 1.0 + 1e-9, 0.05), 1.0)
    kraus = kraus_coefficients(values[:, None], values[None, :])
    return float(np.max(np.abs((kraus**2).sum(axis=-2) - 1.0))), 1e-12


def _lattice(grid_size: int) -> tuple[np.ndarray, ...]:
    """epsilon, eta, gmax and prev on a grid_size x grid_size lattice, one row per epsilon."""
    values = _grid_values(grid_size)
    e, h = values[:, None], values[None, :]
    gmax, prev, _ = closed_forms(e, h)
    return e, h, gmax, prev


def _check_boundary_law(grid_size: int) -> tuple[float, float]:
    e, h, gmax, prev = _lattice(grid_size)
    sums = 6.0 * gmax + prev
    boundary = (e == 0.0) | (e == 1.0) | (h == 0.0) | (h == 1.0)
    return float(np.max(abs(sums[boundary] - 4.0), initial=0.0)), 1e-12


def _check_center_minimum(grid_size: int) -> tuple[float, float]:
    gmax, prev, _ = closed_forms(0.5, 0.5)
    center_dev = abs(6.0 * gmax + prev - 3.5)
    _, _, gmax, prev = _lattice(grid_size)
    lattice_min = float((6.0 * gmax + prev).min())
    return max(center_dev, max(0.0, 3.5 - lattice_min)), 1e-12


def _check_pvnm_corners() -> tuple[float, float]:
    dev = 0.0
    for e, h in ((0.0, 1.0), (1.0, 0.0)):
        gmax, prev, _ = closed_forms(e, h)
        dev = max(dev, abs(gmax - 2.0 / 3.0), abs(prev))
    return dev, 1e-12


def _check_range_bounds() -> tuple[float, float]:
    _, _, g, p = _lattice(101)
    worst = max(float(np.max(x)) for x in (0.5 - g, g - 2.0 / 3.0, -p, p - 1.0))
    return max(0.0, worst), 1e-12


def _check_parameter_symmetries(seed: int) -> tuple[float, float]:
    drawn = _substream(seed, SYMMETRY_STREAM).uniform(size=(50, 2))
    e, h = np.concatenate((drawn, [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (1.0, 1.0)])).T
    base_g, base_p, _ = closed_forms(e, h)
    dev = 0.0
    for other_e, other_h in ((h, e), (1.0 - e, 1.0 - h)):
        g, p, _ = closed_forms(other_e, other_h)
        dev = max(dev, float(np.max(np.abs(g - base_g))), float(np.max(np.abs(p - base_p))))
    return dev, 1e-15


def _check_phase_invariance() -> tuple[float, float]:
    phases = (0.0, math.pi / 3.0, math.pi / 2.0, math.pi, 1.7)
    alphas = np.array([0.0, 0.3, 0.5, 0.77, 1.0])[:, None]
    epsilons, etas = np.array([(0.25, 0.75), (0.7, 0.2), (0.5, 0.5), (0.0, 1.0)]).T[..., None, None]
    per_state = (
        per_state_gain(epsilons, etas, alphas, phases),
        per_state_reversal_prob(epsilons, etas, alphas, phases),
    )
    # Largest spread over the phases of any (measurement, alpha) pair.
    return float(max(np.ptp(terms, axis=-1).max() for terms in per_state)), 1e-12


def _check_reversal_exactness(seed: int, reversal_fn) -> tuple[float, float, str]:
    rng = _substream(seed, EXACTNESS_STREAM)
    # One table of rows (alpha, phase, epsilon, eta), then each row's outcome.
    alpha, phase, e, h = rng.uniform(0.0, (1.0, TWO_PI, 1.0, 1.0), size=(100, 4)).T
    pick = (np.arange(100), rng.integers(0, 2, size=100))
    branches = Operator2(kraus_coefficients(e, h)[pick][:, :, None] * np.eye(2))
    reversals = Operator2(reversal_fn(e, h)[pick])

    # Measure and renormalise, reverse and renormalise, then take the squared
    # overlap with the input. Each call refuses an unphysical operator, and an
    # annihilated image leaves a NaN state that ends its triple.
    states = np.stack((np.sqrt(alpha) + 0j, np.exp(1j * phase) * np.sqrt(1.0 - alpha)), axis=-1)
    _, posts = apply_operator(branches, states)
    _, finals = apply_operator(reversals, posts)
    kept = ~np.isnan(finals[:, 0])
    overlap = np.abs((states[kept].conj() * finals[kept]).sum(axis=-1)) ** 2
    tested = len(overlap)
    # No tested triple is no evidence: an infinite deviation fails the check.
    dev = float(np.max(np.abs(1.0 - overlap))) if tested else math.inf
    return dev, 1e-12, f"{tested} triples"


def _check_reversal_state_constancy(seed: int) -> tuple[float, float]:
    rng = _substream(seed, CONSTANCY_STREAM)
    # Each row draws epsilon, eta, then five (alpha, phase) states, in that order.
    draws = rng.uniform(0.0, (1.0, 1.0) + (1.0, TWO_PI) * 5, size=(40, 12))
    e, h = draws[:, :1], draws[:, 1:2]
    reversal = per_state_reversal_prob(e, h, draws[:, 2::2], draws[:, 3::2])
    _, expected, _ = closed_forms(e, h)
    return float(np.max(np.abs(reversal - expected))), 1e-12


def _state_grid_means(grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell means of the per-state gain and reversal probability over the 51 states.

    Both results are grid_size x grid_size arrays, one row per epsilon. The
    kernel runs on blocks of whole epsilon rows, at most
    ``STATE_GRID_BLOCK_STATES`` states or one row, which keeps memory linear
    in the grid size (a single call over a 256 x 256 lattice would hold
    about 1 GB); each cell still adds its 51 states in order.
    """
    values = _grid_values(grid_size)
    alphas = TRAVERSAL_ALPHAS[:, None, None]
    rows = max(1, STATE_GRID_BLOCK_STATES // (N_TRAVERSAL_STATES * grid_size))
    starts = range(0, grid_size, rows)
    blocks = (per_state_terms(values[i:i + rows, None], values, alphas) for i in starts)
    gains, revs = zip(*([_traversal_mean(terms) for terms in block] for block in blocks))
    return np.concatenate(gains), np.concatenate(revs)


def _check_state_grid_prev_mean(grid_means) -> tuple[float, float]:
    _, means = grid_means()
    prev = _lattice(len(means))[3]
    return float(np.max(np.abs(means - prev))), 1e-12


def _check_state_grid_gain_gap(grid_means) -> tuple[float, float]:
    # The 51 H-weights 0.02*i have mean(alpha^2) = 1/3 + 1/300, so the grid
    # mean of the per-state gain exceeds the continuous gmax by exactly
    # |eta - epsilon|/150 on every cell, ties included.
    means, _ = grid_means()
    e, h, gmax, _ = _lattice(len(means))
    return float(np.max(np.abs(means - (gmax + np.abs(h - e) / 150.0)))), 1e-12


def _check_cross_section_monotonicity(grid_size: int) -> tuple[float, float]:
    section = cross_section(_grid_values(grid_size))
    dev = float(np.max(np.abs(section["sum"] - 4.0)))
    six_gmax, prev = section["six_gmax"], section["prev"]
    if np.any(six_gmax[1:] <= six_gmax[:-1]) or np.any(prev[1:] >= prev[:-1]):
        dev = max(dev, 1.0)
    return dev, 1e-12


def _oracle_instruments(seed: int) -> tuple[np.ndarray, ...]:
    """epsilon, eta, U (n, 2, 2, 2) and V (n, 2, 2) of the oracle's n instruments.

    The ``ORACLE_CELLS`` come first, with U_1 = U_2 = V = I, then
    ``ORACLE_ROTATED`` instruments drawn from cell 0 of ORACLE_STREAM, each
    taking epsilon, eta, then U_1, U_2 and V, a (weight, phase, phase)
    triple each, in that order. A triple (w, p, q) gives the SU(2) matrix
    [[a, -b*], [b, a*]] of (a, b) = (sqrt(w) e^(ip), sqrt(1 - w) e^(iq)), a
    Haar-random state for uniform w, p and q, so the matrix is Haar-random
    in SU(2); a global phase would cancel wherever it is used.
    """
    highs = (1.0, 1.0) + (1.0, TWO_PI, TWO_PI) * 3
    draws = _substream(seed, ORACLE_STREAM).uniform(0.0, highs, size=(ORACLE_ROTATED, 11))
    weight, p, q = draws[:, 2:].reshape(-1, 3, 3).transpose(2, 0, 1)
    a = np.sqrt(weight) * np.exp(1j * p)
    b = np.sqrt(1.0 - weight) * np.exp(1j * q)
    rotations = np.stack((a, -b.conj(), b, a.conj()), axis=-1).reshape(-1, 3, 2, 2)
    identities = np.broadcast_to(np.eye(2), (len(ORACLE_CELLS), 3, 2, 2))
    rotations = np.concatenate((identities, rotations))
    e, h = np.concatenate((ORACLE_CELLS, draws[:, :2])).T
    return e, h, rotations[:, :2], rotations[:, 2]


def _oracle_operators(e, h, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Branch and exchanged-arm reversal operators, each shape (n, 2, 2, 2), outcome second.

    A_r = U_r V D_r V^dagger with D_1 = diag(sqrt(1-e), sqrt(1-h)) and
    D_2 = diag(sqrt(e), sqrt(h)); R_r = V flip(D_r) V^dagger U_r^dagger,
    flip exchanging the two diagonal entries.
    """
    d = np.sqrt(np.stack((1.0 - e, 1.0 - h, e, h), axis=-1)).reshape(-1, 2, 2)
    v, v_dagger = v[:, None], v.conj().swapaxes(-1, -2)[:, None]
    branches = matmul2(u, matmul2(v * d[..., None, :], v_dagger))
    reversals = matmul2(matmul2(v * d[..., None, ::-1], v_dagger), u.conj().swapaxes(-1, -2))
    return branches, reversals


def _oracle_guess(branches: np.ndarray) -> np.ndarray:
    """Guess of each branch A, shape (..., 2), unnormalised: the top eigenvector of A^dagger A.

    It takes whichever of the eigenvector's two forms cannot vanish. Both vanish at a
    tie, a multiple of I, where spread == 0 adds 1 to make the guess |H>, as good as any."""
    _, half_gap, g01, spread = gram_eigen(branches)
    upper = half_gap >= 0.0
    return np.stack(
        (np.where(upper, spread + half_gap + (spread == 0.0), g01),
         np.where(upper, g01.conj(), spread - half_gap)),
        axis=-1,
    )


def _check_oracle_agreement(seed: int) -> tuple[float, float, str]:
    # The exact Haar averages of gain and reversal success of every oracle
    # instrument, as means over the design ORACLE_STATES, against gmax and prev.
    e, h, u, v = _oracle_instruments(seed)
    branches, reversals = _oracle_operators(e, h, u, v)
    states = ORACLE_STATES.T  # one state per column
    images = matmul2(branches, states)
    prob = (np.abs(images) ** 2).sum(axis=-2)
    guess = _oracle_guess(branches)
    overlap = np.abs(matmul2(guess.conj(), states)) ** 2
    overlap /= (np.abs(guess) ** 2).sum(axis=-1)[..., None]
    gain = (prob * overlap).sum(axis=1).mean(axis=-1)

    restored = (states.conj() * matmul2(reversals, images)).sum(axis=-2)
    reversal = (np.abs(restored) ** 2).sum(axis=1).mean(axis=-1)

    gmax, prev, _ = closed_forms(e, h)
    dev = max(float(np.max(np.abs(gain - gmax))), float(np.max(np.abs(reversal - prev))))
    return dev, 1e-12, f"{len(e)} instruments, {len(ORACLE_STATES)} SIC states"


def _check_estimator_consistency(
    photons_per_setting: int, noise: NoiseModel, seed: int | None
) -> tuple[float, float]:
    e, h = 0.25, 0.75

    # Logic identity: the exact-count pipeline reproduces the discrete-grid
    # expectations bit for bit in the noiseless model.
    gains, _ = per_state_terms(e, h, TRAVERSAL_ALPHAS)
    target_g = float(_traversal_mean(gains))
    _, target_p, _ = closed_forms(e, h)
    clean = simulate_counts(e, h, photons_per_setting)
    parts = [
        (abs(float(estimate_gmax_from_counts(clean, e, h)[0]) - target_g), 1e-12),
        (abs(float(estimate_prev_from_counts(clean)[0]) - target_p), 1e-12),
    ]

    if seed is not None:
        expected = simulate_counts(e, h, photons_per_setting, noise)
        g_ref = float(estimate_gmax_from_counts(expected, e, h)[0])
        p_ref = float(estimate_prev_from_counts(expected)[0])
        # Five independent traversals of the same cell, one stream each.
        key = (seed, CONSISTENCY_STREAM, 0)
        sampled = simulate_counts([e] * 5, h, photons_per_setting, noise, key)
        g_samples = estimate_gmax_from_counts(sampled, e, h).tolist()
        p_samples = estimate_prev_from_counts(sampled).tolist()
        stat_tol = 5.0 / math.sqrt(photons_per_setting)
        parts.append((abs(sum(g_samples) / 5.0 - g_ref), stat_tol))
        parts.append((abs(sum(p_samples) / 5.0 - p_ref), stat_tol))

    return _worst(parts)


def _check_rng_determinism(noise: NoiseModel, seed: int) -> tuple[float, float]:
    wm = WeakMeasurement(0.25, 0.75)
    # Enough photons to clear the sampled floor at the configured efficiency.
    least = least_sampled_photons(noise.detector_efficiency)
    n_cell, n_state = max(2_000, least), max(20_000, least)
    # Cells evaluated one at a time in reverse order must reproduce the
    # sweep: no cell's stream may depend on the cells drawn before it.
    values = _grid_values(4).tolist()
    cells = list(enumerate((e, h) for e in values for h in values))
    reordered = [
        _cell_columns(e, h, n_cell, noise, (seed, GRID_STREAM, i)) for i, (e, h) in reversed(cells)
    ]
    pairs = (
        tuple(state_sweep(wm, n_state, noise, seed) for _ in range(2)),
        (grid_sweep(4, n_cell, noise, seed), _concatenate(reordered[::-1])),
    )
    # Keys and every column's array equality decide the row; rendering is the CLI's.
    identical = all(
        a.keys() == b.keys() and all(np.array_equal(a[n], b[n]) for n in a) for a, b in pairs
    )
    return (0.0 if identical else 1.0), 0.0


def verify(
    photons_per_setting: int = DEFAULT_PHOTONS,
    noise: NoiseModel = NoiseModel(),
    seed: int = DEFAULT_SEED,
    grid_size: int = DEFAULT_GRID_SIZE,
    exact_mode: bool = False,
    reversal_fn=None,
) -> dict:
    """Run the invariant battery into columns check, verdict, deviation, tolerance and
    detail, one row per check, in order.

    Check ``<name>`` is ``_check_<name>``, looked up when it runs. It returns
    ``(deviation, tolerance)`` or ``(deviation, tolerance, detail)``, and one
    rule gives every verdict: PASS iff deviation <= tolerance. A check that
    raises is a FAIL row with deviation inf, tolerance 0 and the detail
    ``Type: message``; where it raised goes to stderr, one line per crashed
    check, ``verify: <check> raised at <file>:<line> in <function>``, so the
    product does not depend on source lines. Every row is exact, with no
    statistical tolerance, except the sampled part of
    ``estimator_consistency``: ``oracle_agreement`` averages each of 103
    instruments, the three diagonal ``ORACLE_CELLS`` and 100 rotated ones
    drawn under ``seed``, over the four SIC states, a 2-design, which gives
    its Haar average exactly.

    ``reversal_fn`` overrides the reversal-operator construction and exists
    as a mutation-test hook: it takes (epsilon, eta) arrays and returns
    matrices shaped as ``reversal_operators`` does. Passing
    ``corrupted_reversal_operators`` must fail the reversal-exactness check.
    A ``grid_size`` below ``MIN_GRID_SIZE`` is refused, as by ``grid_sweep``,
    a ``photons_per_setting`` outside ``PHOTONS_RANGE`` as by
    ``simulate_counts``, a ``seed`` outside ``SEED_RANGE`` as by
    ``bench._substream``, a sampled run below the floor of
    ``bench.check_sampled_photons``, and a detector efficiency at which no
    photon count clears that floor (``rng_determinism`` draws at it in both
    modes), before any check runs.
    """
    _grid_values(grid_size)  # refuses a grid too small to hold both edges
    check_range("photons_per_setting", photons_per_setting, PHOTONS_RANGE)
    check_range("seed", seed, SEED_RANGE)
    if not exact_mode:
        check_sampled_photons(photons_per_setting, noise.detector_efficiency)
    least_sampled_photons(noise.detector_efficiency)
    reversal_fn = reversal_fn or reversal_operators
    # Both state-grid checks read these means; the first to run computes
    # them. A raised error is not cached, so it fails each check by name.
    grid_means = functools.cache(lambda: _state_grid_means(grid_size))
    checks = (
        ("kraus_completeness", ()),
        ("boundary_law", (grid_size,)),
        ("center_minimum", (grid_size,)),
        ("pvnm_corners", ()),
        ("range_bounds", ()),
        ("parameter_symmetries", (seed,)),
        ("phase_invariance", ()),
        ("reversal_exactness", (seed, reversal_fn)),
        ("reversal_state_constancy", (seed,)),
        ("state_grid_prev_mean", (grid_means,)),
        ("state_grid_gain_gap", (grid_means,)),
        ("cross_section_monotonicity", (grid_size,)),
        ("oracle_agreement", (seed,)),
        ("estimator_consistency", (photons_per_setting, noise, None if exact_mode else seed)),
        ("rng_determinism", (noise, seed)),
    )
    rows = []
    for name, args in checks:
        try:
            deviation, tolerance, *detail = globals()["_check_" + name](*args)
            rows.append((name, float(deviation), float(tolerance), "".join(detail)))
        except Exception as exc:  # a crashed check is a failed check
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
            print(f"verify: {name} raised at {where}", file=sys.stderr)
            rows.append((name, math.inf, 0.0, f"{type(exc).__name__}: {exc}"))
    names, deviation, tolerance, detail = (np.array(column) for column in zip(*rows))
    return {
        "check": names,
        "verdict": np.where(deviation <= tolerance, "PASS", "FAIL"),
        "deviation": deviation,
        "tolerance": tolerance,
        "detail": detail,
    }
