"""The sampled draws follow their binomial laws, whatever the stream scheme.

The golden files pin sampled products byte for byte, which shows that a
draw repeats, not that it is right. These tests pool standardised counts
z = (k - N p) / sqrt(N p (1 - p)) over many cells and seeds and hold the
moments a binomial law fixes exactly: mean 0 and variance 1, and no
correlation between neighbouring draws of one key. They read only
``simulate_counts`` and the analyzer draws of ``reversal_fidelity_sweep``,
so any scheme that draws the right laws passes them.

Bounds. Of M independent standardised values the mean has variance 1 / M,
the mean of z**2 has variance sum_i Var(z_i**2) / M**2 with
Var(z**2) = 2 + (1 - 6 p q) / (N p q) for a binomial (q = 1 - p), and the
mean product of M pairs of independent values has variance 1 / M. Each
statistic is held within Z_BOUND = 5 standard errors. Two-sided, a normal
variate passes 5 with probability 5.7e-7, so the six statistics here fail a
correct scheme with probability below 3.5e-6; every M is above 10**5, where
the normal approximation of these means is close at that depth.

The last test is the exception: it pins numpy's own uniform and binomial
kernels on one Philox key, literal values, so that a failing sampled golden
can be told apart from a change of numpy's streams.
"""

import math

import numpy as np

from wmtradeoff import sweeps
from wmtradeoff.bench import TRAVERSAL_ALPHAS, NoiseModel, simulate_counts
from wmtradeoff.measurement import WeakMeasurement

Z_BOUND = 5.0
NOISE = NoiseModel(pbs_leakage=0.001, detector_efficiency=0.9)


def assert_standard_binomial(k, n, p):
    """The pooled standardised counts have mean 0 and variance 1; returns them."""
    npq = n * p * (1.0 - p)
    z = (k - n * p) / np.sqrt(npq)
    m = z.size
    assert abs(z.mean()) <= Z_BOUND / math.sqrt(m)
    var_z2 = 2.0 + (1.0 - 6.0 * p * (1.0 - p)) / npq
    assert abs(np.mean(z * z) - 1.0) <= Z_BOUND * math.sqrt(var_z2.sum()) / m
    return z


def assert_uncorrelated(a, b):
    products = a * b
    assert abs(products.mean()) <= Z_BOUND / math.sqrt(products.size)


def test_counts_are_independent_standard_binomials():
    # 8 seeds x 64 cells x 204 channels: 104,448 counts and 102,816
    # neighbouring-cell pairs. Every channel probability lies inside (0, 1).
    values = np.linspace(0.05, 0.95, 8)
    e, h = (a.ravel() for a in np.meshgrid(values, values, indexing="ij"))
    photons = 10_000
    p = simulate_counts(e, h, photons, NOISE) / photons
    counts = np.array([simulate_counts(e, h, photons, NOISE, (seed, 7, 0)) for seed in range(8)])
    z = assert_standard_binomial(counts, photons, np.broadcast_to(p, counts.shape))
    # Cells k and k + 1 of one call share the key and differ in the counter.
    assert_uncorrelated(z[..., :-1], z[..., 1:])


def test_tomography_counts_are_independent_standard_binomials(monkeypatch):
    # 800 flagship sweeps x 51 states x 3 bases: 122,400 analyzer counts,
    # each pooled from both chains, and 121,600 pairs of draws made one after
    # the other within a sweep.
    draws = []
    substream = sweeps._substream

    class Recording(np.random.Generator):
        def binomial(self, n, p, size=None):
            k = super().binomial(n, p, size)
            draws[-1].append(np.broadcast_arrays(n, p, k))
            return k

    monkeypatch.setattr(
        sweeps, "_substream", lambda *key: Recording(substream(*key).bit_generator)
    )
    for seed in range(800):
        draws.append([])
        sweeps.reversal_fidelity_sweep(WeakMeasurement(0.25, 0.75), 10_000, NOISE, seed)
    n, p, k = (
        np.array([np.concatenate([d[i].ravel() for d in sweep]) for sweep in draws])
        for i in range(3)
    )
    assert k.shape == (800, 153)
    # Each count is drawn on the analyzer's law: (1 + (1 - 2 leakage) n_b) / 2
    # of the input's Bloch component n_b, from the pooled 20,000 photons.
    alpha = TRAVERSAL_ALPHAS[:, None]
    bloch = np.hstack((2.0 * alpha - 1.0, 2.0 * np.sqrt(alpha * (1.0 - alpha)), 0.0 * alpha))
    law = 0.5 * (1.0 + (1.0 - 2.0 * NOISE.pbs_leakage) * bloch.ravel())
    np.testing.assert_allclose(p, np.broadcast_to(law, p.shape), rtol=0.0, atol=1e-15)
    assert (n == 20_000).all()
    z = assert_standard_binomial(k, n, p)
    assert_uncorrelated(z[:, :-1], z[:, 1:])


# The Philox key that bench._substream(42, 1) builds: SeedSequence(42,
# spawn_key=[1]).generate_state(2, np.uint64).
KNOWN_KEY = (0x1DCB763F3E63CBA, 0x6AEE7DD615DE6F6E)


def test_numpy_stream_kernels_give_known_answers():
    # The sampled goldens pin numpy's draws byte for byte, and numpy's RNG
    # policy (NEP 19) lets a Generator's stream change between feature
    # releases. These literals were drawn with numpy 2.4.6. If they fail
    # together with the sampled goldens, numpy's kernels moved, and the mend
    # is a STREAM_SCHEME bump or a numpy bound; if they pass, the program did.
    assert tuple(sweeps._substream(42, 1).bit_generator.state["state"]["key"]) == KNOWN_KEY
    rng = np.random.Generator(np.random.Philox(key=KNOWN_KEY))
    assert [float.hex(x) for x in rng.uniform(size=3)] == [
        "0x1.8bdaec636abfep-1", "0x1.b236a1d43f5fap-2", "0x1.d4b61cd7354c0p-7",
    ]
    # Large N p takes numpy's BTPE sampler, small N p its inversion sampler.
    assert rng.binomial(100_000, [0.1875, 0.5, 0.9, 1e-4, 0.0, 1.0]).tolist() == [
        18758, 49892, 90083, 6, 0, 100000,
    ]
    # Cell 5 of the key, at the counter simulate_counts sets for it.
    rng = np.random.Generator(np.random.Philox(key=KNOWN_KEY, counter=(0, 0, 0, 5)))
    assert rng.binomial(100_000, [0.1875, 1e-4]).tolist() == [18809, 16]
    assert float.hex(rng.uniform()) == "0x1.86fcaa937f8bfp-1"
