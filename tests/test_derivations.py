"""Symbolic derivations of the closed forms, from the branch operators up.

Each closed form the package evaluates, and each identity that a ``verify``
check or the Simpson-weighted gain estimate rests on, is derived here in
exact arithmetic from the coefficients of ``measurement.kraus_coefficients``:
A_1 = diag(sqrt(1-e), sqrt(1-h)) and A_2 = diag(sqrt(e), sqrt(h)). The
derivations take e <= h.
Exchanging the basis states H and V maps the pair (e, h) to (h, e) and each
A_r^dagger A_r to a permuted copy with the same trace and eigenvalues, so
every quantity here is symmetric and the half e <= h covers the square.
The derived expressions are then turned into float functions and compared
with the package's on a lattice, to a few ulps.

The last part derives the leakage map of ``bench.channel_probabilities``
over the whole square: two misrouting beam-splitter passes per
interferometer give an arm swap with probability s = 2 l (1 - l), and the
average over the swap patterns of measurement and reversal is the ideal
bench at a moved operator.
"""

import itertools

import numpy as np
import sympy

from wmtradeoff.bench import (
    N_TRAVERSAL_STATES,
    TRAVERSAL_ALPHAS,
    NoiseModel,
    _traversal_mean,
    channel_probabilities,
)
from wmtradeoff.measurement import closed_forms, per_state_terms

e, t, alpha = sympy.symbols("epsilon t alpha", nonnegative=True)
# eta = epsilon + t with t >= 0: the half of the square with epsilon <= eta.
h = e + t
BRANCHES = (
    sympy.diag(sympy.sqrt(1 - e), sympy.sqrt(1 - h)),
    sympy.diag(sympy.sqrt(e), sympy.sqrt(h)),
)
EFFECTS = tuple(a.T * a for a in BRANCHES)
# The exchanged-arm reversal: each branch operator with its coefficients flipped.
REVERSALS = tuple(sympy.diag(a[1, 1], a[0, 0]) for a in BRANCHES)
# The Simpson weights of the 51 traversal states: (1, 4, 2, 4, ..., 2, 4, 1) / 150.
SIMPSON = [sympy.Rational(1 if i in (0, 50) else 4 if i % 2 else 2, 150) for i in range(51)]
# Each axis of the lattice on which the float functions meet the package's.
LATTICE = np.linspace(0.0, 1.0, 101)
ULPS = 4 * np.finfo(float).eps


def _eigenvalues(m):
    return list(m.eigenvals(multiple=True))


def _banaszek_g():
    """G = sum_r (tr M_r + lambda_max(M_r)) / (d (d + 1)), d = 2 (PRL 86, 1366)."""
    return sum(m.trace() + sympy.Max(*_eigenvalues(m)) for m in EFFECTS) / 6


def _reversal_success():
    """sum_r |<phi|R_r A_r|phi>|^2 of the exchanged-arm reversal, for a normalized phi."""
    products = [r * a for r, a in zip(REVERSALS, BRANCHES)]
    # Each R_r A_r is a multiple of the identity, so <phi|R_r A_r|phi> is that multiple.
    for p in products:
        assert sympy.simplify(p - p[0, 0] * sympy.eye(2)) == sympy.zeros(2)
    return sum(p[0, 0] ** 2 for p in products)


def _optimal_reversal():
    """Cheong & Lee's R_opt = sum_r lambda_min(M_r) (PRL 109, 150402)."""
    return sum(sympy.Min(*_eigenvalues(m)) for m in EFFECTS)


def _per_state_gain():
    """sum_r p(r) |<guess_r|phi>|^2 at the H-weight alpha, under the package's guess rule.

    With epsilon <= eta outcome 1 guesses H and outcome 2 guesses V (a tie
    guesses the same), and p(r) = <phi|M_r|phi> for phi = (sqrt(alpha),
    sqrt(1 - alpha)); the phase cancels in both factors.
    """
    weights = (alpha, 1 - alpha)
    p = [m[0, 0] * weights[0] + m[1, 1] * weights[1] for m in EFFECTS]
    return p[0] * weights[0] + p[1] * weights[1]


def _lambdify(expr):
    """``expr`` as a float function of (epsilon, eta) on the half epsilon <= eta."""
    return sympy.lambdify((e, t), expr, "numpy")


def _on_square(fn):
    """``fn`` on the 101 x 101 lattice, the half epsilon > eta by the symmetry."""
    eps, eta = np.meshgrid(LATTICE, LATTICE, indexing="ij")
    low, high = np.minimum(eps, eta), np.maximum(eps, eta)
    return eps, eta, fn(low, high - low) + np.zeros_like(eps)


def test_swapping_epsilon_and_eta_permutes_the_effects():
    swap = sympy.Matrix([[0, 1], [1, 0]])
    eta = sympy.Symbol("eta", nonnegative=True)
    for m in EFFECTS:
        flipped = m.subs(t, eta - e)
        swapped = flipped.subs({e: eta, eta: e}, simultaneous=True)
        assert sympy.simplify(swap * flipped * swap - swapped) == sympy.zeros(2)


def test_banaszek_g_is_gmax():
    g = _banaszek_g()
    assert sympy.simplify(g - (3 + t) / 6) == 0
    # The Haar average of the per-state gain: alpha is uniform on [0, 1].
    assert sympy.simplify(sympy.integrate(_per_state_gain(), (alpha, 0, 1)) - g) == 0
    eps, eta, derived = _on_square(_lambdify(g))
    gmax, _, _ = closed_forms(eps, eta)
    assert np.max(np.abs(derived - gmax)) <= ULPS


def test_exchanged_arm_reversal_is_prev():
    prev = _reversal_success()
    assert sympy.expand(prev - (1 - e - h + 2 * e * h)) == 0
    eps, eta, derived = _on_square(_lambdify(prev))
    _, expected, _ = closed_forms(eps, eta)
    assert np.max(np.abs(derived - expected)) <= ULPS


def test_optimal_reversal():
    r_opt = _optimal_reversal()
    assert sympy.simplify(r_opt - (sympy.Min(e, h) + sympy.Min(1 - e, 1 - h))) == 0
    assert sympy.simplify(r_opt - (e + 1 - h)) == 0


def test_both_laws():
    g, prev, r_opt = _banaszek_g(), _reversal_success(), _optimal_reversal()
    assert sympy.simplify(6 * g + r_opt - 4) == 0
    low, high = sympy.Min(e, h), sympy.Max(e, h)
    assert sympy.simplify(6 * g + prev - 4 - (-2 * low * (1 - high))) == 0


def test_center_minimum_is_three_and_a_half():
    total = sympy.expand(6 * _banaszek_g() + _reversal_success())
    # The sum grows with t (eta away from epsilon), so its least value on the
    # half lies on the diagonal t = 0, a quadratic in epsilon.
    assert sympy.simplify(sympy.diff(total, t) - 2 * e) == 0
    diagonal = total.subs(t, 0)
    (center,) = sympy.solve(sympy.diff(diagonal, e), e)
    assert center == sympy.Rational(1, 2)
    assert sympy.diff(diagonal, e, 2) > 0
    assert diagonal.subs(e, center) == sympy.Rational(7, 2)
    assert diagonal.subs(e, 0) == diagonal.subs(e, 1) == 4


def test_fifty_one_state_mean_exceeds_gmax_by_the_gap_over_150():
    gain = _per_state_gain()
    mean = sum(gain.subs(alpha, sympy.Rational(i, 50)) for i in range(51)) / 51
    assert sympy.simplify(mean - _banaszek_g() - t / 150) == 0
    # The package's per-state branch arithmetic, averaged as verify averages it.
    grid = LATTICE[::5]
    gains, _ = per_state_terms(grid[:, None], grid[None, :], TRAVERSAL_ALPHAS[:, None, None])
    eps, eta = np.meshgrid(grid, grid, indexing="ij")
    gmax, _, _ = closed_forms(eps, eta)
    assert np.max(np.abs(_traversal_mean(gains) - (gmax + np.abs(eta - eps) / 150))) <= ULPS


def test_simpson_weights_give_gmax_exactly():
    assert len(SIMPSON) == N_TRAVERSAL_STATES and sum(SIMPSON) == 1
    gain = _per_state_gain()
    weighted = sum(w * gain.subs(alpha, sympy.Rational(i, 50)) for i, w in enumerate(SIMPSON))
    assert sympy.simplify(weighted - _banaszek_g()) == 0
    grid = LATTICE[::5]
    gains, _ = per_state_terms(grid[:, None], grid[None, :], TRAVERSAL_ALPHAS[:, None, None])
    weights = np.array([float(w) for w in SIMPSON])[:, None, None]
    gmax, _, _ = closed_forms(grid[:, None], grid[None, :])
    assert np.max(np.abs((weights * gains).sum(axis=0) - gmax)) <= ULPS


# The leakage map. Each interferometer sends a photon through a polarizing
# beam splitter twice, and each pass misroutes it with probability ell: one
# misroute exchanges the interferometer's two arms, two put them back.
eta, ell, s = sympy.symbols("eta ell s", nonnegative=True)


def _swap_probability():
    """The chance of exactly one misroute, summed over the four patterns of two passes."""
    return sum(
        (ell if first else 1 - ell) * (ell if second else 1 - ell)
        for first, second in itertools.product((False, True), repeat=2)
        if first != second
    )


def _survival(m):
    """||m phi||^2 of a real diagonal m at the H-weight alpha; phi's phase cancels."""
    return alpha * m[0, 0] ** 2 + (1 - alpha) * m[1, 1] ** 2


def _flip(m):
    return sympy.diag(m[1, 1], m[0, 0])


def _channel_survivals(epsilon, eta_, swap):
    """The four channels of ``channel_probabilities``, averaged over the swap patterns.

    Branch r measures with A_r, or with probability ``swap`` with its
    arm-exchanged partner flip(A_r); its reversal R_r = flip(A_r) is
    independently exchanged the same way. In order: both branches' measured
    survivals, then both chains' survivals through measurement and reversal.
    """
    branches = (
        sympy.diag(sympy.sqrt(1 - epsilon), sympy.sqrt(1 - eta_)),
        sympy.diag(sympy.sqrt(epsilon), sympy.sqrt(eta_)),
    )
    measured, chained = [], []
    for a in branches:
        measurements = ((1 - swap, a), (swap, _flip(a)))
        reversals = ((1 - swap, _flip(a)), (swap, a))
        measured.append(sum(p * _survival(m) for p, m in measurements))
        chained.append(sum(
            p * q * _survival(r * m) for p, m in measurements for q, r in reversals
        ))
    return measured + chained


def test_two_passes_swap_the_arms_with_probability_s():
    assert sympy.expand(_swap_probability() - 2 * ell * (1 - ell)) == 0
    for leak in (0.0, 1e-3, 0.01):
        swap = float(_swap_probability().subs(ell, leak))
        assert abs(NoiseModel(pbs_leakage=leak).interferometer_swap_probability - swap) <= ULPS


def test_leakage_moves_the_operator():
    moved = ((1 - s) * e + s * eta, (1 - s) * eta + s * e)
    leaky = _channel_survivals(e, eta, s)
    for survival, ideal in zip(leaky, _channel_survivals(*moved, 0)):
        assert sympy.expand(survival - ideal) == 0
    # The chain of branch 1: the two matched patterns keep (1-e)(1-h), the
    # two mismatched ones give a square each.
    chain = ((1 - s) ** 2 + s**2) * (1 - e) * (1 - eta) + s * (1 - s) * (
        (1 - e) ** 2 + (1 - eta) ** 2
    )
    assert sympy.expand(leaky[2] - chain) == 0
    assert sympy.expand(chain - (1 - moved[0]) * (1 - moved[1])) == 0


def test_leakage_map_meets_channel_probabilities():
    survivals = [
        sympy.lambdify((e, eta, alpha, ell), expr, "numpy")
        for expr in _channel_survivals(e, eta, _swap_probability())
    ]
    grid = LATTICE[::5]
    eps, eta_, alphas = grid[:, None, None], grid[None, :, None], grid[None, None, ::2]
    for leak in (0.0, 1e-3, 5e-3, 0.01):
        kernel = channel_probabilities(eps, eta_, alphas, NoiseModel(pbs_leakage=leak))
        derived = np.array(
            [np.broadcast_to(f(eps, eta_, alphas, leak), kernel.shape[1:]) for f in survivals]
        )
        assert np.max(np.abs(kernel - derived)) <= ULPS
