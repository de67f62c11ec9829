"""Every accepted input range has one source: the CLI accepts a value exactly
when the library does, and the library refuses the rest by name."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from wmtradeoff import (
    NoiseModel,
    WeakMeasurement,
    channel_probabilities,
    cross_section,
    reversal_fidelity_sweep,
    simulate_counts,
    simulate_tomography,
    verify,
)
from wmtradeoff import bench
from wmtradeoff.bench import MAX_PHOTONS, check_sampled_photons, least_sampled_photons
from wmtradeoff.cli import EXIT_CONFIG_ERROR, ConfigError, main, parse_config
from wmtradeoff.qubit import UNIT_RANGE, check_range

FLAGSHIP = WeakMeasurement(0.25, 0.75)


def near(*edges):
    """Each edge, its float neighbours and 1e-13 outside it, then NaN and both infinities."""
    values = []
    for edge in edges:
        values += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf),
                   edge - 1e-13, edge + 1e-13]
    return values + [math.nan, math.inf, -math.inf]


# Per config key the library also takes: how the library takes one value,
# and the values to try. The integer keys add the integers beside each edge.
SHARED_KEYS = {
    "epsilon": (lambda v: WeakMeasurement(v, 0.5), near(0.0, 1.0)),
    "eta": (lambda v: WeakMeasurement(0.5, v), near(0.0, 1.0)),
    "pbs_leakage": (lambda v: NoiseModel(pbs_leakage=v), near(0.0, 0.01)),
    "detector_efficiency": (lambda v: NoiseModel(detector_efficiency=v), near(0.0, 1.0)),
    "photons_per_setting": (
        lambda v: simulate_counts(0.25, 0.75, v),
        near(1, 2**63 - 1) + [0, 1, 2, 2**63 - 2, 2**63 - 1, 2**63, 1.5],
    ),
    "counts_per_basis": (
        lambda v: reversal_fidelity_sweep(FLAGSHIP, v, seed=None),
        near(100, 2**62 - 1) + [99, 100, 101, 2**62 - 2, 2**62 - 1, 2**62],
    ),
}


# Every accepted range, and float and integer entries at and beside each
# range's edges, with NaN, both infinities and both zeros.
RANGES = {
    "epsilon": UNIT_RANGE,
    "pbs_leakage": bench.LEAKAGE_RANGE,
    "detector_efficiency": bench.EFFICIENCY_RANGE,
    "photons_per_setting": bench.PHOTONS_RANGE,
    "counts_per_basis": bench.COUNTS_PER_BASIS_RANGE,
    "pooled_counts": bench.POOLED_COUNTS_RANGE,
}
EDGES = [0, 1, 100, 2**62 - 1, 2**63 - 1]
ENTRIES = [
    (np.float64, near(0.0, 0.01, 1.0, *map(float, EDGES)) + [-0.0, 0.5]),
    (np.int64, [-(2**63), -1] + [n + d for n in EDGES for d in (-1, 0, 1) if n + d < 2**63]),
    (np.uint64, [n + d for n in EDGES for d in (-1, 0, 1) if n + d >= 0] + [2**64 - 1]),
]


def _error(call, error_type):
    """The message of the ``error_type`` that ``call()`` raises, or None."""
    try:
        call()
    except error_type as exc:
        return str(exc)
    return None


class TestOneRangeSource:
    @pytest.mark.parametrize("key", sorted(SHARED_KEYS))
    @settings(max_examples=80, deadline=None)
    @given(data=strategies.data())
    def test_cli_accepts_exactly_what_the_library_accepts(self, key, data):
        library, values = SHARED_KEYS[key]
        value = data.draw(strategies.sampled_from(values))
        text = str(value) if isinstance(value, int) else repr(value)
        flag = "--" + key.replace("_", "-")
        # In exact mode: the sampled floor on photons x efficiency is a rule
        # of two keys, held by TestSampledFloor.
        argv = ["verify", "--exact-mode", "true", flag, text]
        cli_error = _error(lambda: parse_config(argv), ConfigError)
        library_error = _error(lambda: library(value), ValueError)
        assert (cli_error is None) == (library_error is None), (cli_error, library_error)
        # A value the CLI parses is refused with the library's own message.
        if cli_error is not None and " must lie in " in cli_error:
            assert cli_error == library_error

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: WeakMeasurement(1 + 5e-13, 0.5), "epsilon must lie in [0, 1]"),
            (lambda: WeakMeasurement(0.5, -5e-13), "eta must lie in [0, 1]"),
            (lambda: NoiseModel(pbs_leakage=math.nan), "pbs_leakage must lie in [0, 0.01]"),
            (lambda: NoiseModel(detector_efficiency=math.inf),
             "detector_efficiency must lie in (0, 1]"),
            (lambda: simulate_counts(0.25, 0.75, 2**63, key=(0, 0, 0)),
             "photons_per_setting must lie in [1, 2^63 - 1]"),
            (lambda: simulate_counts(0.25, 0.75, 1.5),
             "photons_per_setting must lie in [1, 2^63 - 1]"),
            # The count kernel refuses an operator outside the square, exact
            # or keyed, naming the first value outside [0, 1].
            (lambda: simulate_counts(1.5, 0.5, 1000), "epsilon must lie in [0, 1], got 1.5"),
            (lambda: simulate_counts(math.nan, 0.5, 1000), "epsilon must lie in [0, 1], got nan"),
            (lambda: simulate_counts(1.5, 0.5, 1000, key=(0, 0, 0)),
             "epsilon must lie in [0, 1], got 1.5"),
            (lambda: simulate_counts(math.nan, 0.5, 1000, key=(0, 0, 0)),
             "epsilon must lie in [0, 1], got nan"),
            (lambda: simulate_counts([0.5, -0.5, math.nan], 0.5, 1000),
             "epsilon must lie in [0, 1], got -0.5"),
            (lambda: channel_probabilities(1.5, 0.5, 0.5), "epsilon must lie in [0, 1], got 1.5"),
            (lambda: channel_probabilities(math.nan, 0.5, 0.5),
             "epsilon must lie in [0, 1], got nan"),
            (lambda: channel_probabilities(0.5, [0.5, 2.0], 0.5), "eta must lie in [0, 1], got 2.0"),
            (lambda: channel_probabilities(0.5, 0.5, 1.2), "alpha must lie in [0, 1], got 1.2"),
            (lambda: reversal_fidelity_sweep(FLAGSHIP, 99),
             "counts_per_basis must lie in [100, 2^62 - 1]"),
            (lambda: simulate_tomography(0.5, 2**63),
             "counts_per_basis must lie in [100, 2^63 - 1]"),
            (lambda: verify(grid_size=1), "grid size must be at least 2"),
            # The exact cross section runs the count kernel, which refuses N = 0.
            (lambda: cross_section([0.5], 0), "photons_per_setting must lie in [1, 2^63 - 1]"),
            # Refused before the battery runs, not as an estimator_consistency FAIL row.
            (lambda: verify(photons_per_setting=0, exact_mode=True),
             "photons_per_setting must lie in [1, 2^63 - 1]"),
            (lambda: verify(photons_per_setting=1.5, exact_mode=True),
             "photons_per_setting must lie in [1, 2^63 - 1]"),
            (lambda: verify(photons_per_setting=2**63, exact_mode=True),
             "photons_per_setting must lie in [1, 2^63 - 1]"),
            # An array is refused at its first entry outside, in C order.
            (lambda: simulate_tomography([0.2, 0.5, 1.5, 0.7, -0.1], 1000),
             "alpha must lie in [0, 1], got 1.5"),
            (lambda: simulate_tomography(0.5, [100, 2**40, 99, 100]),
             "counts_per_basis must lie in [100, 2^63 - 1], got 99"),
            # Cells lie on at most one axis: a (51, k) epsilon would otherwise
            # pair state i with row i.
            (lambda: simulate_counts(np.full((51, 2), 0.5), 0.5, 1000),
             "epsilon and eta must broadcast to at most one cell axis, got (51, 2)"),
            (lambda: simulate_counts(np.full((2, 3), 0.5), 0.5, 1000, key=(0, 0, 0)),
             "epsilon and eta must broadcast to at most one cell axis, got (2, 3)"),
            (lambda: cross_section([[0.0, 0.5]]),
             "eta_values must be one-dimensional, got shape (1, 2)"),
        ],
        ids=["epsilon-slack", "eta-slack", "leakage-nan", "efficiency-inf", "photons-2^63",
             "photons-fraction", "counts-epsilon-1.5", "counts-epsilon-nan",
             "keyed-counts-epsilon-1.5", "keyed-counts-epsilon-nan", "counts-first-bad-epsilon",
             "channels-epsilon-1.5", "channels-epsilon-nan", "channels-eta-2", "channels-alpha-1.2",
             "counts-99", "pooled-counts-2^63", "verify-grid-1",
             "exact-cross-section-photons-0", "verify-photons-0", "verify-photons-fraction",
             "verify-photons-2^63", "tomography-first-bad-alpha", "pooled-counts-99",
             "counts-epsilon-51x2", "counts-epsilon-2x3", "cross-section-2d"],
    )
    def test_library_refuses_by_name(self, call, message):
        error = _error(call, ValueError)
        assert error is not None and error.startswith(message), error

    @pytest.mark.parametrize("name", sorted(RANGES))
    @settings(max_examples=150, deadline=None)
    @given(data=strategies.data())
    def test_an_array_is_refused_at_its_first_entry_outside(self, name, data):
        accepted = RANGES[name]
        dtype, entries = data.draw(strategies.sampled_from(ENTRIES))
        shape = data.draw(strategies.lists(strategies.integers(0, 3), max_size=2))
        size = math.prod(shape)
        values = data.draw(strategies.lists(strategies.sampled_from(entries),
                                            min_size=size, max_size=size))
        array = np.array(values, dtype=dtype).reshape(shape)
        scalar_errors = [
            _error(lambda: check_range(name, v, accepted), ValueError) for v in array.ravel().tolist()
        ]
        first = next((error for error in scalar_errors if error is not None), None)
        assert _error(lambda: check_range(name, array, accepted), ValueError) == first


# (photons_per_setting, detector_efficiency) on the sampled floor N*d = 40, or
# just below it.
FLOOR_CASES = {
    "40x1": (40, 1.0, True),
    "39x1": (39, 1.0, False),
    "40x(1-ulp)": (40, math.nextafter(1.0, 0.0), False),
    "80x0.5": (80, 0.5, True),
    "80x(0.5-ulp)": (80, math.nextafter(0.5, 0.0), False),
    "1x1": (1, 1.0, False),
}


class TestSampledFloor:
    @pytest.mark.parametrize("case", sorted(FLOOR_CASES))
    def test_cli_and_verify_share_the_floor(self, case):
        photons, efficiency, accepted = FLOOR_CASES[case]
        argv = ["verify", "--grid-size", "2", "--photons-per-setting", str(photons),
                "--detector-efficiency", repr(efficiency)]
        cli_error = _error(lambda: parse_config(argv), ConfigError)
        noise = NoiseModel(detector_efficiency=efficiency)
        try:
            report, verify_error = verify(photons, noise, grid_size=2), None
        except ValueError as exc:
            verify_error = str(exc)
        assert cli_error == verify_error
        if accepted:
            assert cli_error is None
            # Every check ran to a verdict; none crashed.
            assert len(report["check"]) == 15 and all(map(math.isfinite, report["deviation"]))
        else:
            assert cli_error == (
                "sampled runs need photons_per_setting * detector_efficiency >= 40, "
                f"got {photons} * {efficiency!r}"
            )
        # Exact runs record expected counts: no floor.
        assert _error(lambda: parse_config(argv + ["--exact-mode", "true"]), ConfigError) is None
        exact = _error(lambda: verify(photons, noise, grid_size=2, exact_mode=True), ValueError)
        assert exact is None

    # At 7.8e-18 the ceiling of 40 / d and the integer after it both fall
    # short of the floor: above 2^53 the next count is the next float.
    @pytest.mark.parametrize(
        "efficiency",
        [1.0, 0.9, 0.5, 1 / 3, 0.001, 0.0004, 3e-7, 1e-12, 7.8e-18, 5e-18, 4.34e-18],
    )
    def test_least_count_is_the_edge_of_the_floor(self, efficiency):
        least = least_sampled_photons(efficiency)
        assert 40 <= least <= MAX_PHOTONS
        check_sampled_photons(least, efficiency)
        if least < 2**53:  # below it, a count one less is a different float
            with pytest.raises(ValueError, match="sampled runs need"):
                check_sampled_photons(least - 1, efficiency)

    @pytest.mark.parametrize("efficiency", [4.33e-18, 4.3e-18, 1e-20, 5e-324])
    def test_no_count_clears_the_floor(self, efficiency):
        with pytest.raises(ValueError, match="sampled runs need"):
            check_sampled_photons(MAX_PHOTONS, efficiency)
        with pytest.raises(ValueError, match=r"^detector_efficiency must let some"):
            least_sampled_photons(efficiency)

    def test_verify_below_the_floor_is_refused_not_a_crashed_row(self, capsys):
        assert main(["verify", "--photons-per-setting", "1"]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: sampled runs need photons_per_setting * detector_efficiency >= 40, "
            "got 1 * 1.0\n"
        )
