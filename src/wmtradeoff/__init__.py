"""Simulator and analysis toolkit for the qubit weak-measurement tradeoff
between information gain and state reversibility (6*gmax + prev = 4 on the
boundary of the parameter square)."""

from types import ModuleType as _ModuleType

from ._version import __version__
from .qubit import Operator2, apply_operator
from .measurement import (
    WeakMeasurement,
    closed_forms,
    per_state_gain,
    per_state_reversal_prob,
    reversal_operators,
)
from .bench import (
    EstimationError,
    NoiseModel,
    channel_probabilities,
    estimate_gmax_from_counts,
    estimate_prev_from_counts,
    simulate_counts,
    simulate_tomography,
)
from .sweeps import (
    OracleEstimate,
    cross_section,
    grid_sweep,
    haar_average_oracle,
    reversal_fidelity_sweep,
    state_sweep,
    verify,
)

__all__ = ["__version__"] + sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
