"""Write the reference outputs that the benchmark's correctness checks compare against.

Run from the repository root, and only at a commit whose exact-mode outputs
are known good (the references were made at the seed commit):

    python3 perfbench/make_reference.py

Each product is generated under two seeds; after the seed echo in JSON
metadata is replaced by a placeholder, both must be identical, which shows
the exact outputs do not depend on the seed.
"""

from __future__ import annotations

import gzip
import sys

from run import SRC_DIR, run_call
from workloads import (
    EXACT_CALLS,
    LATTICE_REFERENCE,
    LATTICE_SAMPLED_FLAGS,
    REFERENCE_DIR,
    seed_template,
)


def _template(argv: tuple[str, ...]) -> str:
    from wmtradeoff import cli

    texts = []
    for seed in (0, 1):
        result = run_call(cli.main, argv + ("--seed", str(seed)))
        if result.exit_code != 0:
            raise SystemExit(f"{' '.join(argv)}: exit {result.exit_code}: {result.stderr}")
        texts.append(seed_template(result.stdout, seed))
    if texts[0] != texts[1]:
        raise SystemExit(f"{' '.join(argv)}: exact output depends on the seed")
    return texts[0]


def main() -> None:
    sys.path.insert(0, str(SRC_DIR))
    REFERENCE_DIR.mkdir(exist_ok=True)
    products = dict(EXACT_CALLS)
    products[LATTICE_REFERENCE] = ("sweep-grid", "--exact-mode", "true") + LATTICE_SAMPLED_FLAGS
    for name, argv in products.items():
        text = _template(argv)
        path = REFERENCE_DIR / name
        if name.endswith(".gz"):
            # mtime=0 keeps the compressed file identical across regenerations
            with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(text.encode("utf-8"))
        else:
            path.write_text(text, encoding="utf-8", newline="")
        print(f"wrote {path.name}: {len(text)} characters")


if __name__ == "__main__":
    main()
