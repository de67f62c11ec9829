"""The benchmark's workloads and the correctness check each op must pass.

An op is one or more calls of ``wmtradeoff.cli.main(argv)``, each with the
op's own ``--seed``. A check returns an ``Outcome``: ``ok``, ``stat_fail``
(a legitimate statistical verdict of ``verify``, not an error) or ``error``.

Reference outputs live in ``reference/`` and were generated at the seed
commit by ``make_reference.py``. Exact-mode outputs do not depend on the
seed except where JSON metadata echoes it, so the stored JSON carries the
placeholder ``@SEED@`` there.
"""

from __future__ import annotations

import gzip
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SEED_PLACEHOLDER = "@SEED@"

PHOTONS = 100_000
LATTICE_SAMPLED_FLAGS = (
    "--grid-size", "16", "--photons-per-setting", str(PHOTONS),
    "--pbs-leakage", "0.001", "--detector-efficiency", "0.9",
)

EXACT_CALLS = {
    "exact_sweep_grid_64.json.gz": (
        "sweep-grid", "--exact-mode", "true", "--grid-size", "64", "--output-format", "json",
    ),
    "exact_cross_section_64.csv": ("cross-section", "--exact-mode", "true", "--grid-size", "64"),
    "exact_sweep_states.csv": ("sweep-states", "--exact-mode", "true"),
    "exact_reversal_fidelity.csv": ("reversal-fidelity", "--exact-mode", "true"),
}
LATTICE_REFERENCE = "lattice_exact_16.csv"

VERIFY_CHECKS = (
    "kraus_completeness", "boundary_law", "center_minimum", "pvnm_corners",
    "range_bounds", "parameter_symmetries", "phase_invariance", "reversal_exactness",
    "reversal_state_constancy", "state_grid_prev_mean", "state_grid_gain_gap",
    "cross_section_monotonicity", "oracle_agreement", "estimator_consistency",
    "rng_determinism",
)
# A verify run may fail these alone by chance: each compares a Monte Carlo
# estimate against a bound of a few standard errors.
STATISTICAL_CHECKS = frozenset({"oracle_agreement", "estimator_consistency"})


@dataclass(frozen=True)
class CallResult:
    argv: tuple[str, ...]
    exit_code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Outcome:
    kind: str  # "ok", "stat_fail" or "error"
    detail: str = ""


OK = Outcome("ok")


def _error(detail: str) -> Outcome:
    return Outcome("error", detail)


def read_reference(name: str) -> str:
    path = REFERENCE_DIR / name
    if name.endswith(".gz"):
        with gzip.open(path, "rt", encoding="utf-8", newline="") as fh:
            return fh.read()
    return path.read_text(encoding="utf-8")


def seed_template(text: str, seed: int) -> str:
    """Replace the metadata echo of ``seed`` in a JSON product by the placeholder."""
    return text.replace(f'"seed": {seed},', f'"seed": {SEED_PLACEHOLDER},')


def _expect_exit(result: CallResult, code: int) -> Outcome | None:
    if result.exit_code != code:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        return _error(f"{' '.join(result.argv)}: exit {result.exit_code}: {tail[0]}")
    return None


def check_exact(results: list[CallResult], seed: int, references: dict[str, str]) -> Outcome:
    """Every exact product must equal its seed-commit reference byte for byte."""
    for result, (name, expected) in zip(results, references.items()):
        bad = _expect_exit(result, 0)
        if bad:
            return bad
        want = expected.replace(SEED_PLACEHOLDER, str(seed))
        if result.stdout != want:
            at = next(
                (i for i, (a, b) in enumerate(zip(result.stdout, want)) if a != b),
                min(len(result.stdout), len(want)),
            )
            return _error(f"{name}: output differs from reference at character {at}")
    return OK


def check_lattice(results: list[CallResult], seed: int, reference: str) -> Outcome:
    """Sampled lattice: analytic columns exact, estimates within 5/sqrt(N).

    The reference is the exact-mode table of the same configuration; the
    tolerance is the one ``verify``'s estimator-consistency check uses.
    """
    (result,) = results
    bad = _expect_exit(result, 0)
    if bad:
        return bad
    got = result.stdout.splitlines()
    want = reference.splitlines()
    if len(got) != len(want) or got[0] != want[0]:
        return _error(f"sweep-grid: {len(got)} lines or header differ from reference")
    tol = 5.0 / math.sqrt(PHOTONS)
    for lineno, (g_line, w_line) in enumerate(zip(got[1:], want[1:]), start=2):
        g, w = g_line.split(","), w_line.split(",")
        if len(g) != 9 or g[:5] != w[:5] or g[8] != w[8]:
            return _error(f"sweep-grid line {lineno}: analytic columns {g_line!r} != {w_line!r}")
        try:
            gmax, prev, total = float(g[5]), float(g[6]), float(g[7])
        except ValueError:
            return _error(f"sweep-grid line {lineno}: non-numeric estimate in {g_line!r}")
        if not (abs(gmax - float(w[5])) <= tol and abs(prev - float(w[6])) <= tol):
            return _error(f"sweep-grid line {lineno}: estimate beyond {tol:.4f} of {w_line!r}")
        if abs(total - (6.0 * gmax + prev)) > 1e-8:
            return _error(f"sweep-grid line {lineno}: sum_mc != 6*gmax_mc + prev_mc")
    return OK


def classify_verify(result: CallResult) -> Outcome:
    """Sort a ``verify`` run into ok, statistical failure, or error.

    Exit 2 with only statistical checks failing is a legitimate outcome of a
    3-standard-error bound. Any deterministic check failing, any other exit
    code, or a malformed report is an error.
    """
    try:
        checks = json.loads(result.stdout)["checks"]
        verdicts = {c["check"]: c["verdict"] for c in checks}
        names = tuple(c["check"] for c in checks)
    except (ValueError, KeyError, TypeError) as exc:
        return _error(f"verify: malformed JSON report ({exc!r}), exit {result.exit_code}")
    if names != VERIFY_CHECKS or not set(verdicts.values()) <= {"PASS", "FAIL"}:
        return _error(f"verify: unexpected checks or verdicts {verdicts}")
    failing = {name for name, verdict in verdicts.items() if verdict == "FAIL"}
    if result.exit_code == 0 and not failing:
        return OK
    if result.exit_code == 2 and failing and failing <= STATISTICAL_CHECKS:
        return Outcome("stat_fail", ", ".join(sorted(failing)))
    return _error(f"verify: exit {result.exit_code}, failing {sorted(failing)}")


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[tuple[str, ...], ...]  # CLI argv of each call in one op, without --seed
    check: Callable[[list[CallResult], int], Outcome]
    rerun_check: bool  # rerun one op at the end and require identical bytes


def _lattice_sampled() -> Workload:
    reference = read_reference(LATTICE_REFERENCE)
    return Workload(
        "lattice_sampled",
        (("sweep-grid",) + LATTICE_SAMPLED_FLAGS,),
        lambda results, seed: check_lattice(results, seed, reference),
        rerun_check=True,
    )


def _exact_products() -> Workload:
    references = {name: read_reference(name) for name in EXACT_CALLS}
    return Workload(
        "exact_products",
        tuple(EXACT_CALLS.values()),
        lambda results, seed: check_exact(results, seed, references),
        rerun_check=False,
    )


def _verify_battery() -> Workload:
    return Workload(
        "verify_battery",
        (("verify",),),
        lambda results, seed: classify_verify(results[0]),
        rerun_check=False,
    )


_BUILDERS = {
    "lattice_sampled": _lattice_sampled,
    "exact_products": _exact_products,
    "verify_battery": _verify_battery,
}


def load_workload(name: str) -> Workload:
    """Build one workload, reading only its own reference outputs."""
    return _BUILDERS[name]()


WORKLOAD_NAMES = tuple(_BUILDERS)
