"""Tests for the table writers: the column-wise CSV writer against a per-cell
reference, the JSON writer against json.dumps, and the header and column
types every driver hands them."""

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from wmtradeoff import tables
from wmtradeoff.bench import NoiseModel
from wmtradeoff.measurement import WeakMeasurement
from wmtradeoff.sweeps import (
    cross_section,
    grid_sweep,
    reversal_fidelity_sweep,
    state_sweep,
    verify,
)

# The kinds of cell a driver hands over, each as one dtype: float64 numbers,
# bool flags and str text.
NUMBER, FLAG, TEXT = "number", "flag", "text"
# Each product's header, in order, with the kind of each column: the writers
# take both from the drivers' column tables, so these pin them.
LAYOUTS = {
    "grid": (
        ("epsilon", NUMBER),
        ("eta", NUMBER),
        ("gmax_analytic", NUMBER),
        ("prev_analytic", NUMBER),
        ("sum_analytic", NUMBER),
        ("gmax_mc", NUMBER),
        ("prev_mc", NUMBER),
        ("sum_mc", NUMBER),
        ("diagonal_flag", FLAG),
    ),
    "states": (
        ("alpha", NUMBER),
        ("gain_analytic", NUMBER),
        ("rev_analytic", NUMBER),
        ("gain_mc", NUMBER),
        ("rev_mc", NUMBER),
    ),
    "cross_section": (("eta", NUMBER), ("six_gmax", NUMBER), ("prev", NUMBER), ("sum", NUMBER)),
    "fidelities": (("alpha", NUMBER), ("fidelity", NUMBER), ("low_stats_flag", FLAG)),
    "verify": (
        ("check", TEXT),
        ("verdict", TEXT),
        ("deviation", NUMBER),
        ("tolerance", NUMBER),
        ("detail", TEXT),
    ),
    # Column names that need escaping, including a printf directive.
    "odd_names": (
        ('qu"ote %s 100%', NUMBER),
        ("back\\slash\ttab", TEXT),
        ("café ☃", FLAG),
        ("%", TEXT),
    ),
}

# A quiet NaN with a payload and a negative NaN: other bit patterns than math.nan.
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
EDGE_NUMBERS = [
    0.0, -0.0, -1e-12, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-7, 1e16,
    math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf,
]
# None stands for a missing number; a float64 column holds it as NaN.
EDGE_CELLS = dict.fromkeys([name for name, _ in LAYOUTS["cross_section"]], EDGE_NUMBERS + [None])
numbers = strategies.one_of(
    strategies.floats(), strategies.sampled_from(EDGE_NUMBERS), strategies.none()
)
# A trailing NUL, which a numpy str array would drop, is kept in a text list.
texts = strategies.one_of(
    strategies.text(),
    strategies.sampled_from(['"', "\\", "\x00\x1f\x7f", "nul\x00", "%s %d %%", "é☃\U0001f600"]),
)
CELLS = {NUMBER: numbers, FLAG: strategies.booleans(), TEXT: texts}
metadata = strategies.dictionaries(
    strategies.text(),
    strategies.recursive(
        strategies.none()
        | strategies.booleans()
        | strategies.integers()
        | strategies.floats(allow_nan=False, allow_infinity=False)
        | texts,
        lambda children: strategies.lists(children, max_size=3)
        | strategies.dictionaries(strategies.text(), children, max_size=3),
        max_leaves=8,
    ),
    max_size=4,
)


def _column(kind, cells):
    """A column as a driver hands it over: float64 numbers, bool flags, text lists."""
    if kind == NUMBER:
        return np.array([math.nan if v is None else v for v in cells], dtype=np.float64)
    if kind == FLAG:
        return np.array(cells, dtype=bool)
    return list(cells)


@strategies.composite
def column_tables(draw):
    layout = LAYOUTS[draw(strategies.sampled_from(sorted(LAYOUTS)))]
    n = draw(strategies.integers(0, 6))
    cells = {
        name: draw(strategies.lists(CELLS[kind], min_size=n, max_size=n)) for name, kind in layout
    }
    return layout, cells


@strategies.composite
def documents(draw):
    layout, cells = draw(column_tables())
    # A rows key of "metadata" would replace the metadata in the reference dict.
    key = draw(
        strategies.sampled_from(["rows", "checks"])
        | strategies.text().filter(lambda k: k != "metadata")
    )
    return draw(metadata), key, layout, cells


def _typed(layout, cells):
    """The column table of ``cells``, each column of its kind's type."""
    return {name: _column(kind, cells[name]) for name, kind in layout}


def _csv_cell(kind, value):
    """The CSV text of one cell, written out one cell at a time."""
    if kind == NUMBER:
        if value is None or math.isnan(value):
            return "nan"
        return f"{value + 0.0:.9f}"
    if kind == FLAG:
        return "1" if value else "0"
    return str(value)


def _json_value(kind, value):
    """What a cell of ``kind`` holds in the JSON document, as json.dumps input."""
    if kind == NUMBER:
        return value if value is not None and math.isfinite(value) else None
    if kind == FLAG:
        return int(value)
    return str(value)


def _rows(layout, cells):
    n = len(cells[layout[0][0]])
    return [{name: cells[name][i] for name, _ in layout} for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(column_tables())
@example((LAYOUTS["cross_section"], EDGE_CELLS))
def test_csv_table_equals_per_cell_reference(table):
    layout, cells = table
    lines = [",".join(name for name, _ in layout)] + [
        ",".join(_csv_cell(kind, row[name]) for name, kind in layout)
        for row in _rows(layout, cells)
    ]
    assert tables.csv_table(_typed(layout, cells)) == "\n".join(lines) + "\n"


def test_csv_negative_zero_and_tiny_negatives():
    column = np.array([-0.0, 0.0, -1e-12, -5e-324, 1e16])
    text = tables.csv_table({"x": column})
    assert text == "x\n0.000000000\n0.000000000\n-0.000000000\n-0.000000000\n" + (
        "10000000000000000.000000000\n"
    )


@settings(max_examples=200, deadline=None)
@given(documents())
@example(({}, "rows", LAYOUTS["cross_section"], EDGE_CELLS))
def test_json_document_equals_json_dumps(document):
    meta, key, layout, cells = document
    expected_rows = [
        {name: _json_value(kind, row[name]) for name, kind in layout}
        for row in _rows(layout, cells)
    ]
    expected = json.dumps({"metadata": meta, key: expected_rows}, indent=2, allow_nan=False)
    assert tables.json_document(meta, key, _typed(layout, cells)) == expected + "\n"


@pytest.mark.parametrize("short", [name for name, _ in LAYOUTS["cross_section"]])
@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("writer", ["csv", "json"])
def test_ragged_columns_refused(writer, delta, short):
    # A writer that paired cells row by row up to the shortest column would
    # silently drop rows; one column of another length must be refused.
    columns = {name: np.zeros(3) for name, _ in LAYOUTS["cross_section"]}
    columns[short] = np.zeros(3 + delta)
    with pytest.raises(ValueError):
        if writer == "csv":
            tables.csv_table(columns)
        else:
            tables.json_document({}, "rows", columns)


@pytest.mark.parametrize(
    "writer, bound",
    [
        (lambda columns: tables.json_document({"seed": 1}, "rows", columns), 2.0),
        (lambda columns: tables.csv_table(columns), 4.0),
    ],
    ids=["json", "csv"],
)
def test_writer_peak_memory_is_bounded_by_document_length(writer, bound):
    # Rendering holds the document once plus per-cell references, not several
    # whole-document copies: the 256 x 256 cap bounds memory through this ratio.
    columns = grid_sweep(64, 1_000, NoiseModel(), None)
    tracemalloc.start()
    try:
        text = writer(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * len(text), peak / len(text)


NOISY = NoiseModel(pbs_leakage=0.001, detector_efficiency=0.9)
WM = WeakMeasurement(0.3, 0.6)
DRIVERS = {
    "grid": ("grid", lambda seed: grid_sweep(3, 1_000, NOISY, seed)),
    "states": ("states", lambda seed: state_sweep(WM, 1_000, NOISY, seed)),
    "cross_section": (
        "cross_section", lambda seed: cross_section([0.0, 0.5, 1.0], 1_000, NOISY, seed)
    ),
    "fidelities": ("fidelities", lambda seed: reversal_fidelity_sweep(WM, 1_000, NOISY, seed)),
    # (0, 1) flags every state LOW_STATS: a column of NaN fidelities.
    "fidelities_low_stats": (
        "fidelities",
        lambda seed: reversal_fidelity_sweep(WeakMeasurement(0.0, 1.0), 1_000, NOISY, seed),
    ),
    "verify": (
        "verify",
        lambda seed: verify(1_000, NOISY, 1 if seed is None else seed, 2, seed is None),
    ),
}
DTYPES = {NUMBER: np.float64, FLAG: np.bool_}


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("product", DRIVERS)
def test_every_sweep_emits_float64_number_columns(product, exact):
    # The writers read a column's kind from its dtype and the header from the
    # table's keys: a driver that handed over Python ints or objects, or its
    # columns in another order, would print differently.
    layout, driver = DRIVERS[product]
    table = driver(None if exact else 1)
    assert list(table) == [name for name, _ in LAYOUTS[layout]]
    assert len({len(column) for column in table.values()}) == 1
    for name, kind in LAYOUTS[layout]:
        assert isinstance(table[name], np.ndarray), name
        if kind == TEXT:
            assert table[name].dtype.kind == "U", name
        else:
            assert table[name].dtype == DTYPES[kind], name
