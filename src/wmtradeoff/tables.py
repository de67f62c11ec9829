"""Fixed CSV and JSON table schemas shared by the sweep drivers and the CLI.

Each product has one column spec: a tuple of (column name, row attribute,
kind). Headers are bit-exact contracts; numeric fields print with nine digits
after the decimal point and flags print as 0/1. JSON documents carry the
same columns as objects under a stable metadata header, with non-finite
numbers as null; ``NOTE`` columns appear in JSON only.

JSON rows are rendered by column: each column's cells are turned into JSON
text in one pass, and each row fills one indented template. The document
equals ``json.dumps({"metadata": ..., key: rows}, indent=2,
allow_nan=False)`` byte for byte, without the pure-Python encoder that
``json.dumps`` falls back to whenever ``indent`` is set.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from operator import attrgetter

NUMBER, FLAG, TEXT, NOTE = "number", "flag", "text", "note"


def format_number(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    # +0.0 normalizes a negative zero
    return f"{float(value) + 0.0:.9f}"


def _json_numbers(values) -> list[str]:
    # float.__repr__ is what json.dumps prints for a float, subclasses included.
    return [
        "null" if v is None or not math.isfinite(v)
        else float.__repr__(v) if isinstance(v, float) else json.dumps(v)
        for v in values
    ]


def _json_flags(values) -> list[str]:
    return ["1" if v else "0" for v in values]


def _json_strings(values) -> list[str]:
    return list(map(encode_basestring_ascii, map(str, values)))


# kind -> (CSV cell, or None for a JSON-only column; JSON text of a column)
_KINDS = {
    NUMBER: (format_number, _json_numbers),
    FLAG: (lambda v: "1" if v else "0", _json_flags),
    TEXT: (str, _json_strings),
    NOTE: (None, _json_strings),
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


def json_document(metadata: dict, rows_key: str, spec, rows) -> str:
    """The document {"metadata": metadata, rows_key: [one object per row]}.

    The metadata head goes through ``json.dumps``, so a non-finite value
    there raises ``ValueError`` instead of producing invalid JSON.
    """
    head = json.dumps({"metadata": metadata, rows_key: []}, indent=2, allow_nan=False)
    if not rows:
        return head + "\n"
    fields = ",\n".join(
        "      " + encode_basestring_ascii(name).replace("%", "%%") + ": %s" for name, _, _ in spec
    )
    template = "    {\n" + fields + "\n    }"
    columns = [_KINDS[kind][1](map(attrgetter(attr), rows)) for _, attr, kind in spec]
    body = ",\n".join(template % cells for cells in zip(*columns))
    # head ends with `[]\n}`: the empty rows list and the closing brace.
    return head[:-4] + "[\n" + body + "\n  ]\n}\n"
