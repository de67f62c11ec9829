"""Fixed CSV and JSON table schemas shared by the sweep drivers and the CLI.

Each product has one column spec: a tuple of (column name, row attribute,
kind). Headers are bit-exact contracts; numeric fields print with nine digits
after the decimal point and flags print as 0/1. JSON documents carry the
same columns as objects under a stable metadata header, with non-finite
numbers as null; ``NOTE`` columns appear in JSON only.
"""

from __future__ import annotations

import json
import math

NUMBER, FLAG, TEXT, NOTE = "number", "flag", "text", "note"


def format_number(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    # +0.0 normalizes a negative zero
    return f"{float(value) + 0.0:.9f}"


def _json_number(value: float | None) -> float | None:
    return value if value is not None and math.isfinite(value) else None


# kind -> (CSV cell, or None for a JSON-only column; JSON value)
_KINDS = {
    NUMBER: (format_number, _json_number),
    FLAG: (lambda v: "1" if v else "0", int),
    TEXT: (str, str),
    NOTE: (None, str),
}

GRID = (
    ("epsilon", "epsilon", NUMBER),
    ("eta", "eta", NUMBER),
    ("gmax_analytic", "gmax_analytic", NUMBER),
    ("prev_analytic", "prev_analytic", NUMBER),
    ("sum_analytic", "sum_analytic", NUMBER),
    ("gmax_mc", "gmax_estimated", NUMBER),
    ("prev_mc", "prev_estimated", NUMBER),
    ("sum_mc", "sum_estimated", NUMBER),
    ("diagonal_flag", "diagonal_flag", FLAG),
)
STATES = (
    ("alpha", "alpha", NUMBER),
    ("gain_analytic", "gain_analytic", NUMBER),
    ("rev_analytic", "rev_analytic", NUMBER),
    ("gain_mc", "gain_mc", NUMBER),
    ("rev_mc", "rev_mc", NUMBER),
)
CROSS_SECTION = (
    ("eta", "eta", NUMBER),
    ("six_gmax", "six_gmax", NUMBER),
    ("prev", "prev", NUMBER),
    ("sum", "total", NUMBER),
)
FIDELITIES = (
    ("alpha", "alpha", NUMBER),
    ("fidelity", "fidelity", NUMBER),
    ("low_stats_flag", "low_stats", FLAG),
)
VERIFY = (
    ("check", "name", TEXT),
    ("verdict", "verdict", TEXT),
    ("deviation", "deviation", NUMBER),
    ("tolerance", "tolerance", NUMBER),
    ("detail", "detail", NOTE),
)


def csv_table(spec, rows) -> str:
    columns = [(name, attr, _KINDS[kind][0]) for name, attr, kind in spec if _KINDS[kind][0]]
    lines = [",".join(name for name, _, _ in columns)]
    lines += [",".join(cell(getattr(r, attr)) for _, attr, cell in columns) for r in rows]
    return "\n".join(lines) + "\n"


def json_rows(spec, rows) -> list[dict]:
    return [
        {name: _KINDS[kind][1](getattr(r, attr)) for name, attr, kind in spec} for r in rows
    ]


def json_document(metadata: dict, rows_key: str, rows: list[dict]) -> str:
    # json_rows already writes non-finite numbers as null; one left over
    # is a bug and fails here instead of producing invalid JSON.
    return json.dumps({"metadata": metadata, rows_key: rows}, indent=2, allow_nan=False) + "\n"
