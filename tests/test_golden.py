"""Golden bytes of the four sweep products in exact mode, CSV and JSON, of
the sampled reversal-fidelity product, CSV, and of the ``verify`` check rows.

Exact mode replaces every binomial draw with its expected value, so these
products are fixed by the code alone; the ``-noisy`` ones add PBS leakage
and detector efficiency. The ``-sampled`` ones are fixed by the seed: they
pin the analyzer counts the tomography draws and the fidelity it
reconstructs from them. The ``verify-*`` files hold the 15 check rows
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
import hashlib
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
SAMPLED = {
    "reversal-fidelity-sampled": ["reversal-fidelity", "--seed", "42"],
    "reversal-fidelity-sampled-noisy": ["reversal-fidelity", "--seed", "42", *NOISE],
}
# verify config -> (extra flags, expected exit code)
VERIFY_CONFIGS = {
    "verify": ([], EXIT_OK),
    "verify-exact": (["--exact-mode", "true"], EXIT_OK),
    "verify-grid33-leakage": (["--grid-size", "33", "--pbs-leakage", "0.001"], EXIT_OK),
    "verify-mutate-reversal": (["--mutate-reversal"], EXIT_VERIFY_FAIL),
}
# sha256 of the exact products of the largest lattice the CLI accepts,
# 256 x 256: 6.4 MB of CSV and 22.6 MB of JSON, too large to store.
LARGEST_LATTICE_SHA256 = {
    "csv": "7bac0a06e05066b7d77900a613c2cc71d7aacee35248a601bc064b54b65b35a1",
    "json": "80c27acdfc895db0630d5ae0cb79893f1d477aafb4c88eeb7facf8739b2ccdd1",
}


def run_cli(argv: list[str], expected_code: int) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == expected_code, err.getvalue()
    return out.getvalue()


def render(name: str, fmt: str) -> str:
    return run_cli(PRODUCTS[name] + ["--exact-mode", "true", "--output-format", fmt], EXIT_OK)


def render_sampled(name: str) -> str:
    return run_cli(SAMPLED[name] + ["--output-format", "csv"], EXIT_OK)


def render_checks(name: str) -> str:
    flags, code = VERIFY_CONFIGS[name]
    document = json.loads(run_cli(["verify", "--output-format", "json", *flags], code))
    return json.dumps(document["checks"], indent=2) + "\n"


@pytest.mark.parametrize("name,fmt", CASES)
def test_exact_product_matches_golden_bytes(name, fmt):
    golden = (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()
    assert render(name, fmt).encode("utf-8") == golden


@pytest.mark.parametrize("name", SAMPLED)
def test_sampled_product_matches_golden_bytes(name):
    golden = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    assert render_sampled(name).encode("utf-8") == golden


@pytest.mark.parametrize("name", VERIFY_CONFIGS)
def test_verify_checks_match_golden_bytes(name):
    golden = (GOLDEN_DIR / f"{name}.json").read_bytes()
    assert render_checks(name).encode("utf-8") == golden


@pytest.mark.parametrize("fmt", LARGEST_LATTICE_SHA256)
def test_largest_lattice_matches_pinned_hash(fmt):
    argv = ["sweep-grid", "--grid-size", "256", "--exact-mode", "true", "--output-format", fmt]
    digest = hashlib.sha256(run_cli(argv, EXIT_OK).encode("utf-8")).hexdigest()
    assert digest == LARGEST_LATTICE_SHA256[fmt]


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, fmt in CASES:
        (GOLDEN_DIR / f"{name}.{fmt}").write_bytes(render(name, fmt).encode("utf-8"))
    for name in SAMPLED:
        (GOLDEN_DIR / f"{name}.csv").write_bytes(render_sampled(name).encode("utf-8"))
    for name in VERIFY_CONFIGS:
        (GOLDEN_DIR / f"{name}.json").write_bytes(render_checks(name).encode("utf-8"))
