"""Fixed CSV and JSON table schemas shared by the sweep drivers and the CLI.

A table is a column table: a dict that maps each column name of a spec to
one sequence of cells, all of one length. Each product has one column spec:
a tuple of (column name, kind). Headers are bit-exact contracts; numeric
fields print with nine digits after the decimal point (NaN as ``nan``) and
flags print as 0/1. JSON documents carry the same columns as objects under
a stable metadata header, with non-finite numbers as null; ``NOTE`` columns
appear in JSON only.

Both writers turn each column into text in one pass and fill one row
template over all rows with a single ``%``. A ``NUMBER`` column is read as
float64 and each distinct bit pattern in it is formatted once, by one
C-level ``map`` over the distinct values, so -0.0 and 0.0 stay apart where
JSON tells them apart. The JSON document equals
``json.dumps({"metadata": ..., key: rows}, indent=2, allow_nan=False)`` byte
for byte, without the pure-Python encoder that ``json.dumps`` falls back to
whenever ``indent`` is set.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

NUMBER, FLAG, TEXT, NOTE = "number", "flag", "text", "note"


def _column_text(kind: str, values, csv: bool) -> np.ndarray:
    """The text of every cell of one column, as an object array."""
    if kind == NUMBER:
        bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        numbers = distinct.view(np.float64)
        if csv:
            # +0.0 normalizes a negative zero; "%.9f" prints NaN as nan.
            text = np.array(list(map("%.9f".__mod__, (numbers + 0.0).tolist())), dtype=object)
        else:
            # float.__repr__ is what json.dumps prints for a float.
            text = np.array(list(map(float.__repr__, numbers.tolist())), dtype=object)
            text[~np.isfinite(numbers)] = "null"
        return text[inverse]
    if kind == FLAG:
        return np.array(["0", "1"], dtype=object)[np.asarray(values, dtype=bool).astype(np.intp)]
    text = list(map(str, values))
    if not csv:
        text = list(map(encode_basestring_ascii, text))
    return np.array(text, dtype=object)


def _fill(spec, columns: dict, csv: bool, row_template: str, separator: str) -> str:
    """Every row of ``columns`` through ``row_template``, joined by ``separator``."""
    cells = [_column_text(kind, columns[name], csv) for name, kind in spec]
    flat = np.stack(cells, axis=-1).ravel().tolist()
    return separator.join([row_template] * len(cells[0])) % tuple(flat)


def csv_table(spec, columns: dict) -> str:
    spec = [(name, kind) for name, kind in spec if kind != NOTE]
    # Each row starts a line, so no rows leave the header alone.
    body = _fill(spec, columns, True, "\n" + ",".join(["%s"] * len(spec)), "")
    return ",".join(name for name, _ in spec) + body + "\n"


def json_document(metadata: dict, rows_key: str, spec, columns: dict) -> str:
    """The document {"metadata": metadata, rows_key: [one object per row]}.

    The metadata head goes through ``json.dumps``, so a non-finite value
    there raises ``ValueError`` instead of producing invalid JSON.
    """
    head = json.dumps({"metadata": metadata, rows_key: []}, indent=2, allow_nan=False)
    fields = ",\n".join(
        "      " + encode_basestring_ascii(name).replace("%", "%%") + ": %s" for name, _ in spec
    )
    body = _fill(spec, columns, False, "    {\n" + fields + "\n    }", ",\n")
    if not body:
        return head + "\n"
    # head ends with `[]\n}`: the empty rows list and the closing brace.
    return head[:-4] + "[\n" + body + "\n  ]\n}\n"


GRID = (
    ("epsilon", NUMBER),
    ("eta", NUMBER),
    ("gmax_analytic", NUMBER),
    ("prev_analytic", NUMBER),
    ("sum_analytic", NUMBER),
    ("gmax_mc", NUMBER),
    ("prev_mc", NUMBER),
    ("sum_mc", NUMBER),
    ("diagonal_flag", FLAG),
)
STATES = (
    ("alpha", NUMBER),
    ("gain_analytic", NUMBER),
    ("rev_analytic", NUMBER),
    ("gain_mc", NUMBER),
    ("rev_mc", NUMBER),
)
CROSS_SECTION = (
    ("eta", NUMBER),
    ("six_gmax", NUMBER),
    ("prev", NUMBER),
    ("sum", NUMBER),
)
FIDELITIES = (
    ("alpha", NUMBER),
    ("fidelity", NUMBER),
    ("low_stats_flag", FLAG),
)
VERIFY = (
    ("check", TEXT),
    ("verdict", TEXT),
    ("deviation", NUMBER),
    ("tolerance", NUMBER),
    ("detail", NOTE),
)
