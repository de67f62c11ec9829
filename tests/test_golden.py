"""Golden bytes of the four sweep products in exact mode, CSV and JSON.

Exact mode replaces every binomial draw with its expected value, so these
products are fixed by the code alone; the ``-noisy`` ones add PBS leakage
and detector efficiency. Any refactor of the sweeps, the count kernel, the
table schemas or the CLI must reproduce them byte for byte. After an intended
change of a product, regenerate the files from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/`` before committing it.
"""

import contextlib
import io
from pathlib import Path

import pytest

from wmtradeoff.cli import EXIT_OK, main

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


def render(name: str, fmt: str) -> str:
    argv = PRODUCTS[name] + ["--exact-mode", "true", "--output-format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == EXIT_OK
    return out.getvalue()


@pytest.mark.parametrize("name,fmt", CASES)
def test_exact_product_matches_golden_bytes(name, fmt):
    golden = (GOLDEN_DIR / f"{name}.{fmt}").read_bytes()
    assert render(name, fmt).encode("utf-8") == golden


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, fmt in CASES:
        (GOLDEN_DIR / f"{name}.{fmt}").write_bytes(render(name, fmt).encode("utf-8"))
