"""Batch command-line front end.

Subcommands: verify, sweep-states, sweep-grid, cross-section,
reversal-fidelity. Flags override config-file keys, which override defaults.
Exit codes: 0 success, 1 configuration or I/O error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .bench import STREAM_SCHEME, NoiseModel
from .measurement import WeakMeasurement
from . import tables
from .sweeps import (
    corrupted_reversal_operators,
    cross_section,
    grid_sweep,
    reversal_fidelity_sweep,
    state_sweep,
    verify,
)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_VERIFY_FAIL = 2

# Largest accepted lattice side. A sweep holds grid_size^2 cells of 51 states
# each; on a 2-vCPU Xeon VM a sampled 256 x 256 lattice builds one Philox
# generator per kernel call, 256 in all, and takes 3.7-4.6 s in-process, the
# exact one 0.4 s. Anything larger is refused before it is allocated.
MAX_GRID_SIZE = 256

# Largest photon numbers the count path can represent: binomial draws take a
# signed 64-bit N, and a fidelity row pools the counts of up to two chains.
MAX_PHOTONS = 2**63 - 1
MAX_COUNTS_PER_BASIS = MAX_PHOTONS // 2


class ConfigError(ValueError):
    """Configuration input that cannot be accepted."""


@dataclass(frozen=True)
class RunConfig:
    epsilon: float = 0.25
    eta: float = 0.75
    photons_per_setting: int = 100_000
    counts_per_basis: int = 10_000
    seed: int = 42
    pbs_leakage: float = 0.0
    detector_efficiency: float = 1.0
    grid_size: int = 16
    exact_mode: bool = False
    output_path: str | None = None
    output_format: str | None = None


def _parse_float(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{name}: expected a number, got {text!r}") from None


def _parse_int(name: str, text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ConfigError(f"{name}: expected an integer, got {text!r}") from None


def _parse_bool(name: str, text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1"):
        return True
    if lowered in ("false", "0"):
        return False
    raise ConfigError(f"{name}: expected true/false, got {text!r}")


def _parse_format(name: str, text: str) -> str:
    lowered = text.strip().lower()
    if lowered in ("csv", "json"):
        return lowered
    raise ConfigError(f"{name}: expected csv or json, got {text!r}")


def _check_range(name: str, value, low, high, range_text: str, low_open: bool = False) -> None:
    ok = (value > low if low_open else value >= low) and value <= high
    if not ok:
        raise ConfigError(f"{name} must lie in {range_text}, got {value!r}")


# name -> (parse, validate)
_FIELD_SPECS = {
    "epsilon": (_parse_float, lambda v: _check_range("epsilon", v, 0.0, 1.0, "[0, 1]")),
    "eta": (_parse_float, lambda v: _check_range("eta", v, 0.0, 1.0, "[0, 1]")),
    "photons_per_setting": (
        _parse_int,
        lambda v: _check_range("photons_per_setting", v, 1, MAX_PHOTONS, "[1, 2^63 - 1]"),
    ),
    "counts_per_basis": (
        _parse_int,
        lambda v: _check_range(
            "counts_per_basis", v, 100, MAX_COUNTS_PER_BASIS, "[100, 2^62 - 1]"
        ),
    ),
    "seed": (_parse_int, lambda v: _check_range("seed", v, 0, 2**64 - 1, "[0, 2^64)")),
    "pbs_leakage": (
        _parse_float,
        lambda v: _check_range("pbs_leakage", v, 0.0, 0.01, "[0, 0.01]"),
    ),
    "detector_efficiency": (
        _parse_float,
        lambda v: _check_range("detector_efficiency", v, 0.0, 1.0, "(0, 1]", low_open=True),
    ),
    "grid_size": (
        _parse_int,
        lambda v: _check_range("grid_size", v, 2, MAX_GRID_SIZE, f"[2, {MAX_GRID_SIZE}]"),
    ),
    "exact_mode": (_parse_bool, lambda v: None),
    "output_path": (lambda name, text: text, lambda v: None),
    "output_format": (_parse_format, lambda v: None),
}


def _read_config_file(path: str) -> dict[str, str]:
    """Parse `key = value` lines; `#` starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_SPECS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        pairs[key] = value
    return pairs


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); keep our contract
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wmtradeoff", add_help=True)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="plain key = value config file")
    parser.add_argument(
        "--mutate-reversal",
        action="store_true",
        help="debug hook: corrupt the reversal operator so verify must fail",
    )
    for name in _FIELD_SPECS:
        parser.add_argument("--" + name.replace("_", "-"), default=None, dest=name)
    return parser


def parse_config(argv) -> tuple[str, RunConfig, bool]:
    """Resolve (subcommand, config, mutate flag) from argv.

    Precedence: command-line flags over config-file keys over defaults.
    """
    namespace = _build_parser().parse_args(argv)

    values: dict[str, object] = {}
    if namespace.config is not None:
        for key, text in _read_config_file(namespace.config).items():
            parse, _ = _FIELD_SPECS[key]
            values[key] = parse(key, text)
    for name in _FIELD_SPECS:
        text = getattr(namespace, name)
        if text is not None:
            parse, _ = _FIELD_SPECS[name]
            values[name] = parse(name, text)

    config = RunConfig(**values)
    for name, (_, validate) in _FIELD_SPECS.items():
        value = getattr(config, name)
        if value is not None:
            validate(value)
    return namespace.subcommand, config, namespace.mutate_reversal


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to stdout, or replace ``path`` with it in one step.

    The text goes to a temporary file beside the target, which is renamed
    over it only once fully written, so a failed write leaves no partial file.
    """
    if path is None:
        sys.stdout.write(text)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".wmtradeoff-")
    try:
        # mkstemp creates the file private; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _metadata(config: RunConfig) -> dict:
    meta = {"seed": config.seed, "version": __version__, "config": asdict(config)}
    if not config.exact_mode:
        meta["stream"] = STREAM_SCHEME
    return meta


# subcommand -> (run(config, noise, wm, mutate_reversal) -> column table, or
# verify's CheckResult list; column spec, JSON rows key, default format). Each
# runner looks its sweep up by name when it runs, so a patched module
# attribute takes effect.
_PRODUCTS = {
    "verify": (
        lambda c, noise, wm, mutate: verify(
            c.photons_per_setting, noise, c.seed, c.grid_size, c.exact_mode,
            reversal_fn=corrupted_reversal_operators if mutate else None,
        ),
        tables.VERIFY, "checks", "json",
    ),
    "sweep-states": (
        lambda c, noise, wm, mutate: state_sweep(
            wm, c.photons_per_setting, noise, c.seed, c.exact_mode
        ),
        tables.STATES, "rows", "csv",
    ),
    "sweep-grid": (
        lambda c, noise, wm, mutate: grid_sweep(
            c.grid_size, c.photons_per_setting, noise, c.seed, c.exact_mode
        ),
        tables.GRID, "rows", "csv",
    ),
    "cross-section": (
        lambda c, noise, wm, mutate: cross_section(
            np.linspace(0.0, 1.0, c.grid_size), c.photons_per_setting, noise, c.seed,
            c.exact_mode,
        ),
        tables.CROSS_SECTION, "rows", "csv",
    ),
    "reversal-fidelity": (
        lambda c, noise, wm, mutate: reversal_fidelity_sweep(
            wm, c.counts_per_basis, noise, c.seed, c.exact_mode
        ),
        tables.FIDELITIES, "rows", "csv",
    ),
}
SUBCOMMANDS = tuple(_PRODUCTS)


def dispatch(subcommand: str, config: RunConfig, mutate_reversal: bool = False) -> int:
    """Run one subcommand and write its product; returns the exit code."""
    if subcommand not in _PRODUCTS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    run, spec, rows_key, default_format = _PRODUCTS[subcommand]
    noise = NoiseModel(config.pbs_leakage, config.detector_efficiency)
    wm = WeakMeasurement(config.epsilon, config.eta)
    columns = run(config, noise, wm, mutate_reversal)
    failing = []
    if isinstance(columns, list):  # verify's CheckResult list, one row per check
        checks = columns
        failing = [r.name for r in checks if not r.passed]
        columns = {
            "check": [r.name for r in checks],
            "verdict": [r.verdict for r in checks],
            "deviation": [r.deviation for r in checks],
            "tolerance": [r.tolerance for r in checks],
            "detail": [r.detail for r in checks],
        }

    if (config.output_format or default_format) == "csv":
        text = tables.csv_table(spec, columns)
    else:
        text = tables.json_document(_metadata(config), rows_key, spec, columns)
    try:
        _emit(text, config.output_path)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    if failing:
        print(f"verification FAILED: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def main(argv=None) -> int:
    try:
        subcommand, config, mutate = parse_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        return dispatch(subcommand, config, mutate)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
