"""Every accepted input range has one source: the CLI accepts a value exactly
when the library does, and the library refuses the rest by name."""

import math

import pytest
from hypothesis import given, settings, strategies

from wmtradeoff import (
    NoiseModel,
    WeakMeasurement,
    reversal_fidelity_sweep,
    simulate_counts,
    simulate_tomography,
    verify,
)
from wmtradeoff.cli import ConfigError, parse_config

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
        lambda v: simulate_counts(0.25, 0.75, v, exact_mode=True),
        near(1, 2**63 - 1) + [0, 1, 2, 2**63 - 2, 2**63 - 1, 2**63, 1.5],
    ),
    "counts_per_basis": (
        lambda v: reversal_fidelity_sweep(FLAGSHIP, v, exact_mode=True),
        near(100, 2**62 - 1) + [99, 100, 101, 2**62 - 2, 2**62 - 1, 2**62],
    ),
}


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
        cli_error = _error(lambda: parse_config(["verify", flag, text]), ConfigError)
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
            (lambda: simulate_counts(0.25, 0.75, 2**63, first_key=(0, 0)),
             "photons_per_setting must lie in [1, 2^63 - 1]"),
            (lambda: simulate_counts(0.25, 0.75, 1.5, exact_mode=True),
             "photons_per_setting must lie in [1, 2^63 - 1]"),
            (lambda: reversal_fidelity_sweep(FLAGSHIP, 99),
             "counts_per_basis must lie in [100, 2^62 - 1]"),
            (lambda: simulate_tomography(0.5, 2**63, exact_mode=True),
             "counts_per_basis must lie in [100, 2^63 - 1]"),
            (lambda: verify(grid_size=1), "grid size must be at least 2"),
        ],
        ids=["epsilon-slack", "eta-slack", "leakage-nan", "efficiency-inf", "photons-2^63",
             "photons-fraction", "counts-99", "pooled-counts-2^63", "verify-grid-1"],
    )
    def test_library_refuses_by_name(self, call, message):
        error = _error(call, ValueError)
        assert error is not None and error.startswith(message), error
