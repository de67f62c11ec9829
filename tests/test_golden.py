"""Golden bytes of the four sweep products in exact mode, CSV and JSON, and
of the ``verify`` check rows.

Exact mode replaces every binomial draw with its expected value, so these
products are fixed by the code alone; the ``-noisy`` ones add PBS leakage
and detector efficiency. The ``verify-*`` files hold the 15 check rows
(check, verdict, deviation, tolerance, detail) of the JSON report at full
float precision, without its metadata; sampled checks are fixed by the seed.
Any refactor of the sweeps, the count kernel, the Haar oracle, the checks,
the table schemas or the CLI must reproduce them byte for byte. After an
intended change of a product, regenerate the files from the repository root
with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/`` before committing it.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from wmtradeoff.cli import EXIT_OK, EXIT_VERIFY_FAIL, main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

NOISE = ["--pbs-leakage", "0.001", "--detector-efficiency", "0.9"]
PRODUCTS = {
    "sweep-grid": ["sweep-grid", "--grid-size", "6"],
    "sweep-states": ["sweep-states"],
    "cross-section": ["cross-section", "--grid-size", "6"],
    "reversal-fidelity": ["reversal-fidelity"],
    "sweep-grid-noisy": ["sweep-grid", "--grid-size", "6", *NOISE],
    "sweep-states-noisy": ["sweep-states", *NOISE],
    "reversal-fidelity-noisy": ["reversal-fidelity", *NOISE],
}
CASES = [(name, fmt) for name in PRODUCTS for fmt in ("csv", "json")]
# verify config -> (extra flags, expected exit code)
VERIFY_CONFIGS = {
    "verify": ([], EXIT_OK),
    "verify-exact": (["--exact-mode", "true"], EXIT_OK),
    "verify-grid33-leakage": (["--grid-size", "33", "--pbs-leakage", "0.001"], EXIT_OK),
    "verify-mutate-reversal": (["--mutate-reversal"], EXIT_VERIFY_FAIL),
}


def run_cli(argv: list[str], expected_code: int) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == expected_code, err.getvalue()
    return out.getvalue()


def render(name: str, fmt: str) -> str:
    return run_cli(PRODUCTS[name] + ["--exact-mode", "true", "--output-format", fmt], EXIT_OK)


def render_checks(name: str) -> str:
    flags, code = VERIFY_CONFIGS[name]
    document = json.loads(run_cli(["verify", "--output-format", "json", *flags], code))
    return json.dumps(document["checks"], indent=2) + "\n"


@pytest.mark.parametrize("name,fmt", CASES)
def test_exact_product_matches_golden_bytes(name, fmt):
    golden = (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()
    assert render(name, fmt).encode("utf-8") == golden


@pytest.mark.parametrize("name", VERIFY_CONFIGS)
def test_verify_checks_match_golden_bytes(name):
    golden = (GOLDEN_DIR / f"{name}.json").read_bytes()
    assert render_checks(name).encode("utf-8") == golden


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, fmt in CASES:
        (GOLDEN_DIR / f"{name}.{fmt}").write_bytes(render(name, fmt).encode("utf-8"))
    for name in VERIFY_CONFIGS:
        (GOLDEN_DIR / f"{name}.json").write_bytes(render_checks(name).encode("utf-8"))
