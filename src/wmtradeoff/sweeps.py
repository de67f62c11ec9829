"""Traversal campaigns, the Haar-average oracle, and the verification battery.

The drivers here reproduce the standard campaigns: a 51-state input traversal
at a fixed measurement, a full operator-lattice sweep of tradeoff points, the
epsilon = 0 cross section, and the reversed-state fidelity sweep. Everything
is seed-pinned: identical configuration and seed produce byte-identical rows,
and each lattice cell's rows do not depend on the order in which cells are
evaluated, because all randomness flows through per-cell substreams.
"""

from __future__ import annotations

import math
import os
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from ._version import __version__
from .qubit import (
    ANNIHILATION_EPS,
    TWO_PI,
    Operator2,
    PureState,
    apply_operator,
    pure_overlap,
)
from .measurement import (
    TIE_ATOL,
    WeakMeasurement,
    analytic_gmax,
    analytic_prev,
    branch_terms,
    closed_forms,
    kraus_pair,
    per_state_gain,
    per_state_reversal_prob,
    reversal_operator,
    tradeoff_sum,
)
from .bench import (
    ALPHA_SPACING,
    N_TRAVERSAL_STATES,
    TRAVERSAL_ALPHAS,
    NoiseModel,
    _substream,
    channel_probabilities,
    estimate_gmax_from_counts,
    estimate_prev_from_counts,
    gain_term_from_counts,
    rev_term_from_counts,
    simulate_counts,
    simulate_tomography,
)
from . import tables

DEFAULT_GRID_SIZE = 16
DEFAULT_PHOTONS = 100_000
DEFAULT_SEED = 42

# Allowed gap between the 51-point grid mean of the per-state gain and the
# continuous closed form; the gap scales with |eta - epsilon| and peaks at
# the projective corners.
DISCRETE_GAIN_GAP = 0.0067

# Expected reversed-photon yield below which a fidelity row is flagged
# LOW_STATS instead of fitted.
LOW_STATS_FLOOR = 100

# Spawn keys of the random substreams. Sampled counts draw from one
# generator per (product tag, cell); the tomography of traversal state i
# keeps the key (0, i, 0, TOMOGRAPHY_STREAM) of the earlier per-channel
# scheme, so its numbers are unchanged.
GRID_STREAM, STATES_STREAM, CROSS_SECTION_STREAM, CONSISTENCY_STREAM = 1, 2, 3, 4
TOMOGRAPHY_STREAM = 2


@dataclass(frozen=True)
class StateGrid:
    """The ordered 51-state input traversal, H-weights 0.02*i, phase 0."""

    states: tuple[PureState, ...]

    def __post_init__(self) -> None:
        if len(self.states) != N_TRAVERSAL_STATES:
            raise ValueError(f"state grid must hold {N_TRAVERSAL_STATES} states")
        for i, st in enumerate(self.states):
            if abs(st.alpha_weight - ALPHA_SPACING * i) > 1e-12:
                raise ValueError(f"state {i} must carry weight {ALPHA_SPACING * i}")
        alphas = [st.alpha_weight for st in self.states]
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise ValueError("state grid weights must increase strictly")

    @classmethod
    def standard(cls) -> "StateGrid":
        return cls(tuple(PureState(ALPHA_SPACING * i) for i in range(N_TRAVERSAL_STATES)))

    def __iter__(self):
        return iter(self.states)

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> PureState:
        return self.states[i]


@dataclass(frozen=True)
class OperatorGrid:
    """A size x size lattice of measurements, row-major by epsilon then eta."""

    cells: tuple[WeakMeasurement, ...]
    size: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError("grid size must be at least 2")
        if len(self.cells) != self.size * self.size:
            raise ValueError("cell count must equal size squared")
        pairs = {(wm.epsilon, wm.eta) for wm in self.cells}
        for corner in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
            if corner not in pairs:
                raise ValueError(f"grid must include corner {corner}")

    @classmethod
    def uniform(cls, size: int = DEFAULT_GRID_SIZE) -> "OperatorGrid":
        values = np.linspace(0.0, 1.0, size)
        cells = tuple(
            WeakMeasurement(float(e), float(h)) for e in values for h in values
        )
        return cls(cells, size)

    def __iter__(self):
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class TradeoffPoint:
    """One lattice cell with analytic and estimated columns."""

    epsilon: float
    eta: float
    gmax_analytic: float
    prev_analytic: float
    gmax_estimated: float
    prev_estimated: float
    diagonal_flag: bool

    @property
    def sum_analytic(self) -> float:
        return 6.0 * self.gmax_analytic + self.prev_analytic

    @property
    def sum_estimated(self) -> float:
        return 6.0 * self.gmax_estimated + self.prev_estimated


@dataclass(frozen=True)
class StateSweepRow:
    alpha: float
    gain_analytic: float
    rev_analytic: float
    gain_mc: float
    rev_mc: float


@dataclass(frozen=True)
class CrossSectionRow:
    eta: float
    six_gmax: float
    prev: float

    @property
    def total(self) -> float:
        return self.six_gmax + self.prev


@dataclass(frozen=True)
class FidelityRow:
    alpha: float
    fidelity: float | None
    low_stats: bool


@dataclass(frozen=True)
class OracleEstimate:
    gmax_estimate: float
    gmax_stderr: float
    prev_estimate: float
    prev_stderr: float
    n_samples: int


@dataclass(frozen=True)
class CheckResult:
    """PASS/FAIL verdict of one verification check."""

    name: str
    passed: bool
    deviation: float
    tolerance: float
    detail: str = ""

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


@dataclass
class SweepReport:
    """Run metadata plus data rows and verification verdicts."""

    metadata: dict
    rows: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @classmethod
    def create(cls, rows, verdicts, started_at: str, **metadata) -> "SweepReport":
        meta = {
            "version": __version__,
            "started_at": started_at,
            "finished_at": datetime.now(timezone.utc).isoformat(),
        }
        meta.update(metadata)
        return cls(metadata=meta, rows=list(rows), verdicts=list(verdicts))


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def state_sweep(
    wm: WeakMeasurement,
    photons_per_setting: int = DEFAULT_PHOTONS,
    noise: NoiseModel | None = None,
    seed: int = DEFAULT_SEED,
    exact_mode: bool = False,
) -> list[StateSweepRow]:
    """Per-state gain and reversibility over the 51-state traversal.

    Analytic columns come from the branch enumeration; the Monte Carlo
    columns are single-state count-ratio terms from simulated counts (their
    expected values in exact mode).
    """
    (counts,) = simulate_counts(
        wm.epsilon, wm.eta, photons_per_setting, noise, seed, [(STATES_STREAM, 0)], exact_mode
    )
    gains = gain_term_from_counts(counts, wm.epsilon, wm.eta).tolist()
    revs = rev_term_from_counts(counts).tolist()
    return [
        StateSweepRow(
            alpha=state.alpha_weight,
            gain_analytic=per_state_gain(wm, state),
            rev_analytic=per_state_reversal_prob(wm, state),
            gain_mc=gain,
            rev_mc=rev,
        )
        for state, gain, rev in zip(StateGrid.standard(), gains, revs)
    ]


def _cell_points(
    epsilon,
    eta,
    first_index: int,
    photons_per_setting: int,
    noise: NoiseModel | None,
    seed: int,
    exact_mode: bool,
) -> list[TradeoffPoint]:
    """Tradeoff points of lattice cells ``first_index``, ``first_index + 1``, ...

    ``epsilon`` and ``eta`` broadcast to one value per cell. One count-kernel
    call covers all of them; cell ``first_index + k`` draws from the
    substream (GRID_STREAM, first_index + k) whatever else is drawn.
    """
    e, h = np.broadcast_arrays(np.atleast_1d(epsilon), np.atleast_1d(eta))
    keys = [(GRID_STREAM, first_index + k) for k in range(len(e))]
    counts = simulate_counts(e, h, photons_per_setting, noise, seed, keys, exact_mode)
    gmax, prev, degenerate = closed_forms(e, h)
    # In the field order of TradeoffPoint.
    columns = (
        e, h, gmax, prev,
        estimate_gmax_from_counts(counts, e, h), estimate_prev_from_counts(counts), degenerate,
    )
    return [TradeoffPoint(*cells) for cells in zip(*(c.tolist() for c in columns))]


def grid_sweep(
    grid_size: int = DEFAULT_GRID_SIZE,
    photons_per_setting: int = DEFAULT_PHOTONS,
    noise: NoiseModel | None = None,
    seed: int = DEFAULT_SEED,
    exact_mode: bool = False,
) -> list[TradeoffPoint]:
    """Tradeoff points over the full operator lattice.

    Diagonal (beam-splitter) cells are flagged, never dropped, so downstream
    consumers can mask them. The counts are simulated one epsilon row at a
    time, which keeps memory linear in the grid size.
    """
    if grid_size < 2:
        raise ValueError("grid size must be at least 2")
    values = np.linspace(0.0, 1.0, grid_size)
    points = []
    for i, e in enumerate(values):
        points += _cell_points(
            e, values, i * grid_size, photons_per_setting, noise, seed, exact_mode
        )
    return points


def cross_section(
    eta_values,
    photons_per_setting: int = DEFAULT_PHOTONS,
    noise: NoiseModel | None = None,
    seed: int = DEFAULT_SEED,
    exact_mode: bool = True,
) -> list[CrossSectionRow]:
    """Rows (eta, 6*gmax, prev, sum) along the epsilon = 0 section.

    Exact mode emits the closed forms (3 + eta, 1 - eta, 4); otherwise the
    columns carry the count-ratio estimates from a simulated traversal.
    """
    etas = [float(eta) for eta in eta_values]
    for eta in etas:
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta!r}")
    if exact_mode:
        cells = [WeakMeasurement(0.0, eta) for eta in etas]
        gmax, prev = [analytic_gmax(wm) for wm in cells], [analytic_prev(wm) for wm in cells]
    else:
        keys = [(CROSS_SECTION_STREAM, j) for j in range(len(etas))]
        counts = simulate_counts(0.0, etas, photons_per_setting, noise, seed, keys)
        gmax = estimate_gmax_from_counts(counts, 0.0, etas).tolist()
        prev = estimate_prev_from_counts(counts).tolist()
    return [CrossSectionRow(eta, 6.0 * g, p) for eta, g, p in zip(etas, gmax, prev)]


def reversal_fidelity_sweep(
    wm: WeakMeasurement,
    counts_per_basis: int = 10_000,
    noise: NoiseModel | None = None,
    seed: int = DEFAULT_SEED,
    exact_mode: bool = False,
) -> list[FidelityRow]:
    """Tomography fidelity of the reversed output for each traversal state.

    Both branch chains are exercised and their analyzer records pooled: every
    chain whose expected reversed-photon yield (from a ``counts_per_basis``
    source budget) reaches ``LOW_STATS_FLOOR`` integrates until it has
    recorded ``counts_per_basis`` reversed photons per basis. States whose
    total expected yield falls below the floor are flagged LOW_STATS instead
    of fitted.
    """
    noise = noise or NoiseModel()
    chains = channel_probabilities(wm.epsilon, wm.eta, TRAVERSAL_ALPHAS, noise)[:, 2:]
    rows = []
    for i, (state, survivals) in enumerate(zip(StateGrid.standard(), chains.tolist())):
        yields = [counts_per_basis * survival for survival in survivals]
        if sum(yields) < LOW_STATS_FLOOR:
            rows.append(FidelityRow(state.alpha_weight, None, True))
            continue
        live_chains = max(1, sum(y >= LOW_STATS_FLOOR for y in yields))
        rng = _substream(seed, 0, i, 0, TOMOGRAPHY_STREAM)
        result = simulate_tomography(
            state, live_chains * counts_per_basis, noise, rng, exact_mode=exact_mode
        )
        rows.append(FidelityRow(state.alpha_weight, result.fidelity_vs_input, False))
    return rows


def haar_average_oracle(
    wm: WeakMeasurement,
    n_samples: int,
    seed: int | np.random.SeedSequence | np.random.Generator = DEFAULT_SEED,
) -> OracleEstimate:
    """Monte Carlo average of gain and reversibility over Haar-random states.

    States are drawn with a uniform Bloch-sphere polar cosine and a uniform
    relative phase, and the per-state quantities are evaluated by brute-force
    branch arithmetic on the sampled amplitudes. This is the independent
    check of the two closed forms; it shares none of their algebra.
    """
    if n_samples < 10_000:
        raise ValueError("n_samples must be at least 10000")
    rng = np.random.default_rng(seed)
    cos_theta = rng.uniform(-1.0, 1.0, n_samples)
    alphas = 0.5 * (1.0 + cos_theta)
    phases = rng.uniform(0.0, TWO_PI, n_samples)
    a0 = np.sqrt(alphas)
    a1 = np.exp(1j * phases) * np.sqrt(1.0 - alphas)

    e, h = wm.epsilon, wm.eta
    d1 = (math.sqrt(1.0 - e), math.sqrt(1.0 - h))
    d2 = (math.sqrt(e), math.sqrt(h))
    r1 = (math.sqrt(1.0 - h), math.sqrt(1.0 - e))
    r2 = (math.sqrt(h), math.sqrt(e))

    v10, v11 = d1[0] * a0, d1[1] * a1
    v20, v21 = d2[0] * a0, d2[1] * a1
    p1 = np.abs(v10) ** 2 + np.abs(v11) ** 2
    p2 = np.abs(v20) ** 2 + np.abs(v21) ** 2

    if e < h - TIE_ATOL:
        guess_h = (True, False)
    elif e > h + TIE_ATOL:
        guess_h = (False, True)
    else:
        guess_h = (True, True)
    f1 = alphas if guess_h[0] else 1.0 - alphas
    f2 = alphas if guess_h[1] else 1.0 - alphas
    gains = p1 * f1 + p2 * f2

    # p * |<phi|R|post>|^2 collapses to |<phi|R A phi>|^2, annihilation safe.
    rev1 = np.abs(np.conj(a0) * r1[0] * v10 + np.conj(a1) * r1[1] * v11) ** 2
    rev2 = np.abs(np.conj(a0) * r2[0] * v20 + np.conj(a1) * r2[1] * v21) ** 2
    revs = rev1 + rev2

    return OracleEstimate(
        gmax_estimate=float(np.mean(gains)),
        gmax_stderr=float(np.std(gains, ddof=1) / math.sqrt(n_samples)),
        prev_estimate=float(np.mean(revs)),
        prev_stderr=float(np.std(revs, ddof=1) / math.sqrt(n_samples)),
        n_samples=n_samples,
    )


def corrupted_reversal_operator(wm: WeakMeasurement, r: int) -> Operator2:
    """Deliberately wrong reversal operator (negative-control hook)."""
    m = np.array(reversal_operator(wm, r).matrix, copy=True)
    m[1, 1] *= 0.5
    return Operator2(m)


def _worst(parts: list[tuple[float, float]]) -> tuple[float, float]:
    """Pick the (deviation, tolerance) pair with the largest dev/tol ratio."""
    def ratio(p):
        dev, tol = p
        return dev / tol if tol > 0 else (math.inf if dev > 0 else 0.0)

    return max(parts, key=ratio)


def _check_kraus_completeness() -> CheckResult:
    dev = 0.0
    eye = np.eye(2)
    for e in np.arange(0.0, 1.0 + 1e-9, 0.05):
        for h in np.arange(0.0, 1.0 + 1e-9, 0.05):
            a1, a2 = kraus_pair(WeakMeasurement(min(e, 1.0), min(h, 1.0)))
            total = a1.matrix.conj().T @ a1.matrix + a2.matrix.conj().T @ a2.matrix
            dev = max(dev, float(np.max(np.abs(total - eye))))
    return CheckResult("kraus_completeness", dev <= 1e-12, dev, 1e-12)


def _lattice_sums(grid_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """epsilon, eta and 6*gmax + prev on a grid_size x grid_size lattice, one row per epsilon."""
    values = np.linspace(0.0, 1.0, grid_size)
    e, h = values[:, None], values[None, :]
    gmax, prev, _ = closed_forms(e, h)
    return e, h, 6.0 * gmax + prev


def _check_boundary_law(grid_size: int) -> CheckResult:
    e, h, sums = _lattice_sums(grid_size)
    boundary = (e == 0.0) | (e == 1.0) | (h == 0.0) | (h == 1.0)
    dev = float(np.max(abs(sums[boundary] - 4.0), initial=0.0))
    return CheckResult("boundary_law", dev <= 1e-12, dev, 1e-12)


def _check_center_minimum(grid_size: int) -> CheckResult:
    center_dev = abs(tradeoff_sum(WeakMeasurement(0.5, 0.5)) - 3.5)
    lattice_min = float(_lattice_sums(grid_size)[2].min())
    dev = max(center_dev, max(0.0, 3.5 - lattice_min))
    return CheckResult("center_minimum", dev <= 1e-12, dev, 1e-12)


def _check_pvnm_corners() -> CheckResult:
    dev = 0.0
    for e, h in ((0.0, 1.0), (1.0, 0.0)):
        wm = WeakMeasurement(e, h)
        dev = max(dev, abs(analytic_gmax(wm) - 2.0 / 3.0), abs(analytic_prev(wm)))
    return CheckResult("pvnm_corners", dev <= 1e-12, dev, 1e-12)


def _check_range_bounds() -> CheckResult:
    values = np.linspace(0.0, 1.0, 101)
    g, p, _ = closed_forms(values[:, None], values[None, :])
    worst = max(float(np.max(x)) for x in (0.5 - g, g - 2.0 / 3.0, -p, p - 1.0))
    dev = max(0.0, worst)
    return CheckResult("range_bounds", dev <= 1e-12, dev, 1e-12)


def _check_parameter_symmetries(seed: int) -> CheckResult:
    rng = _substream(seed, 1001)
    pairs = [(rng.uniform(), rng.uniform()) for _ in range(50)]
    pairs += [(0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (1.0, 1.0)]
    dev = 0.0
    for e, h in pairs:
        base_g = analytic_gmax(WeakMeasurement(e, h))
        base_p = analytic_prev(WeakMeasurement(e, h))
        for other in (WeakMeasurement(h, e), WeakMeasurement(1.0 - e, 1.0 - h)):
            dev = max(dev, abs(analytic_gmax(other) - base_g))
            dev = max(dev, abs(analytic_prev(other) - base_p))
    return CheckResult("parameter_symmetries", dev <= 1e-15, dev, 1e-15)


def _check_phase_invariance() -> CheckResult:
    phases = (0.0, math.pi / 3.0, math.pi / 2.0, math.pi, 1.7)
    alphas = np.array([0.0, 0.3, 0.5, 0.77, 1.0])[:, None]
    epsilons, etas = np.array([(0.25, 0.75), (0.7, 0.2), (0.5, 0.5), (0.0, 1.0)]).T[..., None, None]
    prob, guess_fidelity, reversal = branch_terms(epsilons, etas, alphas, phases)
    per_state = ((prob * guess_fidelity).sum(axis=-1), reversal.sum(axis=-1))
    # Largest spread over the phases of any (measurement, alpha) pair.
    dev = float(max(np.ptp(terms, axis=-1).max() for terms in per_state))
    return CheckResult("phase_invariance", dev <= 1e-12, dev, 1e-12)


def _check_reversal_exactness(seed: int, reversal_fn) -> CheckResult:
    rng = _substream(seed, 1002)
    dev = 0.0
    tested = 0
    for _ in range(100):
        state = PureState(float(rng.uniform()), float(rng.uniform(0.0, TWO_PI)))
        wm = WeakMeasurement(float(rng.uniform()), float(rng.uniform()))
        r = int(rng.integers(1, 3))
        prob, post = apply_operator(kraus_pair(wm)[r - 1], state)
        if post is None:
            continue
        prob_rev, recovered = apply_operator(reversal_fn(wm, r), post)
        if recovered is None or prob_rev < ANNIHILATION_EPS:
            continue
        dev = max(dev, abs(1.0 - pure_overlap(state, recovered)))
        tested += 1
    passed = dev <= 1e-12 and tested > 0
    return CheckResult("reversal_exactness", passed, dev, 1e-12, detail=f"{tested} triples")


def _check_prev_constancy(seed: int) -> CheckResult:
    rng = _substream(seed, 1003)
    # Each row draws epsilon, eta, then five (alpha, phase) states, in that order.
    draws = rng.uniform(0.0, (1.0, 1.0) + (1.0, TWO_PI) * 5, size=(40, 12))
    _, _, reversal = branch_terms(draws[:, :1], draws[:, 1:2], draws[:, 2::2], draws[:, 3::2])
    expected = [[analytic_prev(WeakMeasurement(e, h))] for e, h in draws[:, :2]]
    dev = float(np.max(np.abs(reversal.sum(axis=-1) - expected)))
    return CheckResult("reversal_state_constancy", dev <= 1e-12, dev, 1e-12)


def _state_grid_means(grid_size: int) -> tuple[OperatorGrid, np.ndarray, np.ndarray]:
    """Per-cell means of the per-state gain and reversal probability over the 51 states.

    One kernel call per epsilon row keeps memory linear in the grid size (a
    single call over a 256 x 256 lattice would hold about 1 GB).
    """
    values = np.linspace(0.0, 1.0, grid_size)
    alphas = [[st.alpha_weight] for st in StateGrid.standard()]
    gains, revs = [], []
    for e in values:
        prob, guess_fidelity, reversal = branch_terms(e, values, alphas)
        # The builtin sum adds the states one after another, as a per-cell loop would.
        gains.append(sum((prob * guess_fidelity).sum(axis=-1)) / N_TRAVERSAL_STATES)
        revs.append(sum(reversal.sum(axis=-1)) / N_TRAVERSAL_STATES)
    return OperatorGrid.uniform(grid_size), np.concatenate(gains), np.concatenate(revs)


def _check_state_grid_prev_mean(grid_size: int) -> CheckResult:
    cells, _, means = _state_grid_means(grid_size)
    dev = max(abs(mean - analytic_prev(wm)) for wm, mean in zip(cells, means.tolist()))
    return CheckResult("state_grid_prev_mean", dev <= 1e-12, dev, 1e-12)


def _check_state_grid_gain_gap(grid_size: int) -> CheckResult:
    cells, means, _ = _state_grid_means(grid_size)
    parts = []
    for wm, mean in zip(cells, means.tolist()):
        if abs(wm.epsilon - wm.eta) < TIE_ATOL:
            parts.append((abs(mean - 0.5), 1e-12))
        else:
            parts.append((abs(mean - analytic_gmax(wm)), DISCRETE_GAIN_GAP))
    dev, tol = _worst(parts)
    return CheckResult("state_grid_gain_gap", dev <= tol, dev, tol)


def _check_cross_section_monotonicity(grid_size: int) -> CheckResult:
    rows = cross_section(np.linspace(0.0, 1.0, grid_size), exact_mode=True)
    dev = max(abs(row.total - 4.0) for row in rows)
    for before, after in zip(rows, rows[1:]):
        if after.six_gmax <= before.six_gmax or after.prev >= before.prev:
            dev = max(dev, 1.0)
    return CheckResult("cross_section_monotonicity", dev <= 1e-12, dev, 1e-12)


def _check_oracle_agreement(seed: int, stderr_multiplier: float) -> CheckResult:
    cells = ((0.25, 0.75), (0.1, 0.6), (0.8, 0.3))
    parts = []
    for k, (e, h) in enumerate(cells):
        wm = WeakMeasurement(e, h)
        stream = np.random.SeedSequence(entropy=int(seed), spawn_key=(1004, k))
        est = haar_average_oracle(wm, 200_000, stream)
        parts.append(
            (abs(est.gmax_estimate - analytic_gmax(wm)), stderr_multiplier * est.gmax_stderr)
        )
        parts.append(
            (
                abs(est.prev_estimate - analytic_prev(wm)),
                max(stderr_multiplier * est.prev_stderr, 1e-12),
            )
        )
    dev, tol = _worst(parts)
    return CheckResult("oracle_agreement", dev <= tol, dev, tol)


def _check_estimator_consistency(
    photons_per_setting: int, noise: NoiseModel | None, seed: int, exact_mode: bool
) -> CheckResult:
    e, h = 0.25, 0.75
    wm = WeakMeasurement(e, h)
    states = StateGrid.standard()

    # Logic identity: the exact-count pipeline reproduces the discrete-grid
    # expectations bit for bit in the noiseless model.
    target_g = sum(per_state_gain(wm, st) for st in states) / len(states)
    target_p = analytic_prev(wm)
    clean = simulate_counts(e, h, photons_per_setting, None, seed, exact_mode=True)
    parts = [
        (abs(float(estimate_gmax_from_counts(clean, e, h)[0]) - target_g), 1e-12),
        (abs(float(estimate_prev_from_counts(clean)[0]) - target_p), 1e-12),
    ]

    if not exact_mode:
        expected = simulate_counts(e, h, photons_per_setting, noise, seed, exact_mode=True)
        g_ref = float(estimate_gmax_from_counts(expected, e, h)[0])
        p_ref = float(estimate_prev_from_counts(expected)[0])
        # Five independent traversals of the same cell, one substream each.
        keys = [(CONSISTENCY_STREAM, k) for k in range(5)]
        sampled = simulate_counts([e] * 5, h, photons_per_setting, noise, seed, keys)
        g_samples = estimate_gmax_from_counts(sampled, e, h).tolist()
        p_samples = estimate_prev_from_counts(sampled).tolist()
        stat_tol = 5.0 / math.sqrt(photons_per_setting)
        parts.append((abs(sum(g_samples) / 5.0 - g_ref), stat_tol))
        parts.append((abs(sum(p_samples) / 5.0 - p_ref), stat_tol))

    dev, tol = _worst(parts)
    return CheckResult("estimator_consistency", dev <= tol, dev, tol)


def _check_rng_determinism(noise: NoiseModel | None, seed: int) -> CheckResult:
    wm = WeakMeasurement(0.25, 0.75)
    # Cells evaluated one at a time in reverse order must reproduce the
    # sweep: no cell's stream may depend on the cells drawn before it.
    cells = reversed(list(enumerate(OperatorGrid.uniform(4))))
    reordered = [
        _cell_points(cell.epsilon, cell.eta, i, 2_000, noise, seed, False)[0] for i, cell in cells
    ]
    pairs = (
        (tables.STATES, state_sweep(wm, 20_000, noise, seed), state_sweep(wm, 20_000, noise, seed)),
        (tables.GRID, grid_sweep(4, 2_000, noise, seed), reordered[::-1]),
    )
    identical = all(
        a == b and tables.csv_table(spec, a) == tables.csv_table(spec, b) for spec, a, b in pairs
    )
    dev = 0.0 if identical else 1.0
    return CheckResult("rng_determinism", identical, dev, 0.0)


def verify(
    photons_per_setting: int = DEFAULT_PHOTONS,
    noise: NoiseModel | None = None,
    seed: int = DEFAULT_SEED,
    grid_size: int = DEFAULT_GRID_SIZE,
    exact_mode: bool = False,
    reversal_fn=None,
    stderr_multiplier: float = 3.0,
) -> SweepReport:
    """Run the invariant battery and return PASS/FAIL verdicts per check.

    Statistical checks use ``stderr_multiplier`` standard errors as their
    tolerance. ``reversal_fn`` overrides the reversal-operator construction
    and exists as a mutation-test hook; passing
    ``corrupted_reversal_operator`` must fail the reversal-exactness check.
    """
    started = _utcnow()
    reversal_fn = reversal_fn or reversal_operator
    runners = [
        ("kraus_completeness", _check_kraus_completeness),
        ("boundary_law", lambda: _check_boundary_law(grid_size)),
        ("center_minimum", lambda: _check_center_minimum(grid_size)),
        ("pvnm_corners", _check_pvnm_corners),
        ("range_bounds", _check_range_bounds),
        ("parameter_symmetries", lambda: _check_parameter_symmetries(seed)),
        ("phase_invariance", _check_phase_invariance),
        ("reversal_exactness", lambda: _check_reversal_exactness(seed, reversal_fn)),
        ("reversal_state_constancy", lambda: _check_prev_constancy(seed)),
        ("state_grid_prev_mean", lambda: _check_state_grid_prev_mean(grid_size)),
        ("state_grid_gain_gap", lambda: _check_state_grid_gain_gap(grid_size)),
        ("cross_section_monotonicity", lambda: _check_cross_section_monotonicity(grid_size)),
        ("oracle_agreement", lambda: _check_oracle_agreement(seed, stderr_multiplier)),
        (
            "estimator_consistency",
            lambda: _check_estimator_consistency(photons_per_setting, noise, seed, exact_mode),
        ),
        ("rng_determinism", lambda: _check_rng_determinism(noise, seed)),
    ]
    verdicts = []
    for name, runner in runners:
        try:
            verdicts.append(runner())
        except Exception as exc:  # a crashed check is a failed check
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
            detail = f"{type(exc).__name__}: {exc} at {where}"
            verdicts.append(CheckResult(name, False, math.inf, 0.0, detail=detail))

    effective_noise = noise or NoiseModel()
    return SweepReport.create(
        rows=[],
        verdicts=verdicts,
        started_at=started,
        seed=seed,
        photons_per_setting=photons_per_setting,
        pbs_leakage=effective_noise.pbs_leakage,
        detector_efficiency=effective_noise.detector_efficiency,
        grid_size=grid_size,
        exact_mode=exact_mode,
    )
