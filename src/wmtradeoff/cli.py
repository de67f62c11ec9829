"""Batch command-line front end.

Subcommands: verify, sweep-states, sweep-grid, cross-section,
reversal-fidelity. Flags override config-file keys, which override defaults.
Each config key's default, parser and accepted range live in one row of the
field table ``_FIELDS``, from which ``RunConfig``, the flags and the config
file's keys are all built; every range but seed's and the grid-size cap is
the library's own, so the CLI accepts exactly the values the library does.
Exit codes: 0 success, 1 configuration or I/O error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from collections import namedtuple

from ._version import __version__
from .bench import COUNTS_PER_BASIS_RANGE, EFFICIENCY_RANGE, LEAKAGE_RANGE, PHOTONS_RANGE
from .bench import STREAM_SCHEME, NoiseModel, check_sampled_photons
from .measurement import WeakMeasurement
from .qubit import UNIT_RANGE, check_range
from . import tables
from .sweeps import (
    DEFAULT_COUNTS_PER_BASIS,
    DEFAULT_GRID_SIZE,
    DEFAULT_PHOTONS,
    DEFAULT_SEED,
    MIN_GRID_SIZE,
    _grid_values,
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
# generator per kernel call, 256 in all, and takes 2.8-3.8 s in-process, the
# exact one 0.25-0.4 s. Its 22.6 MB JSON document peaks at about 38 MB of
# traced memory while it is rendered. Anything larger is refused before it
# is allocated.
MAX_GRID_SIZE = 256


class ConfigError(ValueError):
    """Configuration input that cannot be accepted."""


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


def _parse_path(name: str, text: str) -> str:
    if text:
        return text
    raise ConfigError(f"{name}: expected a file path, got {text!r}")


# One row per config key: name -> (default, parse(name, text), accepted range
# as ``check_range`` reads it, or None). Row order is RunConfig's field order
# and the order in which values are parsed from flags and range-checked.
_FIELDS = {
    "epsilon": (0.25, _parse_float, UNIT_RANGE),
    "eta": (0.75, _parse_float, UNIT_RANGE),
    "photons_per_setting": (DEFAULT_PHOTONS, _parse_int, PHOTONS_RANGE),
    "counts_per_basis": (DEFAULT_COUNTS_PER_BASIS, _parse_int, COUNTS_PER_BASIS_RANGE),
    "seed": (DEFAULT_SEED, _parse_int, ("[0, 2^64)", lambda v: 0 <= v < 2**64)),
    "pbs_leakage": (0.0, _parse_float, LEAKAGE_RANGE),
    "detector_efficiency": (1.0, _parse_float, EFFICIENCY_RANGE),
    "grid_size": (
        DEFAULT_GRID_SIZE, _parse_int,
        (f"[{MIN_GRID_SIZE}, {MAX_GRID_SIZE}]", lambda v: MIN_GRID_SIZE <= v <= MAX_GRID_SIZE),
    ),
    "exact_mode": (False, _parse_bool, None),
    "output_path": (None, _parse_path, None),
    "output_format": (None, _parse_format, None),
}
RunConfig = namedtuple("RunConfig", _FIELDS, defaults=[row[0] for row in _FIELDS.values()])


def _read_config_file(path: str) -> dict[str, str]:
    """Parse `key = value` lines; `#` starts a comment."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELDS:
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
    for name in _FIELDS:
        parser.add_argument("--" + name.replace("_", "-"), default=None, dest=name)
    return parser


def parse_config(argv) -> tuple[str, RunConfig, bool]:
    """Resolve (subcommand, config, mutate flag) from argv.

    Precedence: command-line flags over config-file keys over defaults. A
    sampled config must also clear ``bench.check_sampled_photons``.
    """
    namespace = _build_parser().parse_args(argv)
    # Every text is parsed, the file's in line order and then the flags' in
    # table order; only the values that end up in the config are range-checked.
    texts = [] if namespace.config is None else [*_read_config_file(namespace.config).items()]
    texts += [(name, getattr(namespace, name)) for name in _FIELDS]
    config = RunConfig(
        **{name: _FIELDS[name][1](name, text) for name, text in texts if text is not None}
    )
    try:
        for name, (_, _, accepted) in _FIELDS.items():
            if accepted is not None:
                check_range(name, getattr(config, name), accepted)
        if not config.exact_mode:
            check_sampled_photons(config.photons_per_setting, config.detector_efficiency)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
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
    meta = {"seed": config.seed, "version": __version__, "config": config._asdict()}
    if not config.exact_mode:
        meta["stream"] = STREAM_SCHEME
    return meta


# subcommand -> (run(config, noise, wm, seed, mutate_reversal) -> column table,
# column spec, JSON rows key, default format), seed None when exact. Each runner
# looks its sweep up by name when it runs, so a patched module attribute takes effect.
_PRODUCTS = {
    "verify": (
        lambda c, noise, wm, seed, mutate: verify(
            c.photons_per_setting, noise, c.seed, c.grid_size, c.exact_mode,
            reversal_fn=corrupted_reversal_operators if mutate else None,
        ),
        tables.VERIFY, "checks", "json",
    ),
    "sweep-states": (
        lambda c, noise, wm, seed, mutate: state_sweep(wm, c.photons_per_setting, noise, seed),
        tables.STATES, "rows", "csv",
    ),
    "sweep-grid": (
        lambda c, noise, wm, seed, mutate: grid_sweep(
            c.grid_size, c.photons_per_setting, noise, seed
        ),
        tables.GRID, "rows", "csv",
    ),
    "cross-section": (
        lambda c, noise, wm, seed, mutate: cross_section(
            _grid_values(c.grid_size), c.photons_per_setting, noise, seed
        ),
        tables.CROSS_SECTION, "rows", "csv",
    ),
    "reversal-fidelity": (
        lambda c, noise, wm, seed, mutate: reversal_fidelity_sweep(
            wm, c.counts_per_basis, noise, seed
        ),
        tables.FIDELITIES, "rows", "csv",
    ),
}
SUBCOMMANDS = tuple(_PRODUCTS)


def dispatch(subcommand: str, config: RunConfig, mutate_reversal: bool = False) -> int:
    """Run one subcommand and write its product; returns the exit code."""
    if subcommand not in _PRODUCTS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if mutate_reversal and subcommand != "verify":
        raise ConfigError(f"--mutate-reversal applies to verify only, not {subcommand}")
    run, spec, rows_key, default_format = _PRODUCTS[subcommand]
    noise = NoiseModel(config.pbs_leakage, config.detector_efficiency)
    wm = WeakMeasurement(config.epsilon, config.eta)
    columns = run(config, noise, wm, None if config.exact_mode else config.seed, mutate_reversal)
    # Only verify's table has check and verdict columns.
    failing = [
        name
        for name, verdict in zip(columns.get("check", ()), columns.get("verdict", ()))
        if verdict != "PASS"
    ]
    if (config.output_format or default_format) == "csv":
        text = tables.csv_table(spec, columns)
    else:
        text = tables.json_document(_metadata(config), rows_key, spec, columns)
    try:
        _emit(text, config.output_path)
    except OSError as exc:
        # Named by the path given: the error's own file may be the temporary one.
        target = "stdout" if config.output_path is None else config.output_path
        print(f"cannot write output to {target}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    if failing:
        print(f"verification FAILED: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return dispatch(*parse_config(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
