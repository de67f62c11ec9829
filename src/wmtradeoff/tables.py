"""Fixed CSV and JSON table schemas shared by the sweep drivers and the CLI.

A table is a column table: a dict that maps each column name of a spec to
one sequence of cells, all of one length. Each product has one column spec:
a tuple of (column name, kind). Headers are bit-exact contracts; numeric
fields print with nine digits after the decimal point (NaN as ``nan``) and
flags print as 0/1. JSON documents carry the same columns as objects under
a stable metadata header, with non-finite numbers as null; ``NOTE`` columns
appear in JSON only.

Both writers turn each column into a list of cell texts in one pass and
render the document with one ``"".join`` over one preallocated flat list:
each column's cells, and the literal piece before each cell (a separator or
a JSON key), go into their places by strided slice assignment, with the
header or JSON head in the first slot and the closing text in the last. The
document is built once, so rendering holds little more than the document
itself and one reference per cell. A ``NUMBER`` column is read as float64
and each distinct bit pattern in it is formatted once, by one C-level
``map`` over the distinct values, so -0.0 and 0.0 stay apart where JSON
tells them apart. The JSON document equals
``json.dumps({"metadata": ..., key: rows}, indent=2, allow_nan=False)`` byte
for byte, without the pure-Python encoder that ``json.dumps`` falls back to
whenever ``indent`` is set.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

NUMBER, FLAG, TEXT, NOTE = "number", "flag", "text", "note"


def _column_text(kind: str, values, csv: bool) -> list:
    """The text of every cell of one column, as a list of str."""
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
        return text[inverse].tolist()
    if kind == FLAG:
        flags = np.asarray(values, dtype=bool).astype(np.intp)
        return np.array(["0", "1"], dtype=object)[flags].tolist()
    text = list(map(str, values))
    return text if csv else list(map(encode_basestring_ascii, text))


def _flat(spec, columns: dict, csv: bool, pieces: list) -> list:
    """Every cell of ``columns`` row by row, each after its column's piece of
    ``pieces``, in one flat list whose first and last slots are left for the
    caller's head and tail."""
    cells = [_column_text(kind, columns[name], csv) for name, kind in spec]
    lengths = {len(column) for column in cells}
    if len(lengths) != 1:
        raise ValueError(f"table columns must have one length, got {sorted(lengths)}")
    rows, stride = lengths.pop(), 2 * len(cells)
    flat = [None] * (rows * stride + 2)
    for j, (piece, column) in enumerate(zip(pieces, cells)):
        flat[1 + 2 * j : -1 : stride] = [piece] * rows
        flat[2 + 2 * j : -1 : stride] = column
    return flat


def csv_table(spec, columns: dict) -> str:
    spec = [(name, kind) for name, kind in spec if kind != NOTE]
    # Each row starts a line, so no rows leave the header alone.
    flat = _flat(spec, columns, True, ["\n"] + [","] * (len(spec) - 1))
    flat[0], flat[-1] = ",".join(name for name, _ in spec), "\n"
    return "".join(flat)


def json_document(metadata: dict, rows_key: str, spec, columns: dict) -> str:
    """The document {"metadata": metadata, rows_key: [one object per row]}.

    The metadata head goes through ``json.dumps``, so a non-finite value
    there raises ``ValueError`` instead of producing invalid JSON.
    """
    head = json.dumps({"metadata": metadata, rows_key: []}, indent=2, allow_nan=False)
    keys = [encode_basestring_ascii(name) + ": " for name, _ in spec]
    # A row's first key closes the object before it; the first row's has none.
    pieces = ["\n    },\n    {\n      " + keys[0]] + [",\n      " + key for key in keys[1:]]
    flat = _flat(spec, columns, False, pieces)
    if len(flat) == 2:
        return head + "\n"
    # head ends with `[]\n}`: the empty rows list and the closing brace.
    flat[0], flat[1], flat[-1] = head[:-3], "\n    {\n      " + keys[0], "\n    }\n  ]\n}\n"
    return "".join(flat)


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
