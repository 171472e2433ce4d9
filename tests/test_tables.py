import csv
import io
import json
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kerrpol as kp
from kerrpol import tables as tables_module
from kerrpol.tables import OutputTable

FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308]),
                   st.floats(allow_nan=False, allow_infinity=False))
INTS = st.integers(-2 ** 63, 2 ** 63 - 1)
# one type per column; None marks a missing cell in any of them
CELLS = {
    "str": st.text(),
    "int": INTS,
    "bool": st.booleans(),
    "float": FLOATS,
    "np.float64": FLOATS.map(np.float64),
    "np.int64": INTS.map(np.int64),
    "np.bool_": st.booleans().map(np.bool_),
}


def plain(value):
    return value.item() if isinstance(value, np.generic) else value


def csv_text(value) -> str:
    value = plain(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1,
                          max_size=5))
    data = []
    for kind in kinds:
        cell = CELLS[kind]
        if draw(st.booleans()):
            cell = st.one_of(st.none(), cell)
        column = draw(st.lists(cell, min_size=n_rows, max_size=n_rows))
        if kind != "str" and None not in column and draw(st.booleans()):
            column = np.array(column)     # a typed array, as the CLI passes
        data.append(column)
    names = draw(st.lists(st.text(), min_size=len(kinds),
                          max_size=len(kinds)))
    units = draw(st.lists(st.text("1abs/-"), min_size=len(kinds),
                          max_size=len(kinds)))
    # metadata is written one value per comment line
    meta = draw(st.dictionaries(
        st.text("abc_", min_size=1, max_size=6),
        st.one_of(st.none(), INTS, FLOATS, st.booleans(),
                  FLOATS.map(np.float64), st.text("kerpol 0.1-", max_size=9)),
        max_size=3))
    return OutputTable(name="t", columns=names, units=units, meta=meta,
                       data=data)


@settings(max_examples=300, deadline=None)
@given(table=tables())
def test_columnar_json_equals_json_dumps_of_the_rows(table):
    payload = {"table": table.name,
               "meta": {k: plain(v) for k, v in table.meta.items()},
               "columns": table.columns, "units": table.units,
               "rows": [[plain(v) for v in row] for row in table.rows]}
    text = table.to_json_text()
    assert text == json.dumps(payload, indent=2, allow_nan=False) + "\n"


@settings(max_examples=300, deadline=None)
@given(table=tables())
def test_csv_round_trips_through_the_csv_module(table):
    text = table.to_csv_text()
    header = 2 + len(table.meta)          # table, meta and units lines
    head = text.split("\n", header)
    assert head[0] == "# table: t"
    assert head[1:header - 1] == [f"# {k}: {csv_text(v)}"
                                  for k, v in table.meta.items()]
    parsed = list(csv.reader(io.StringIO(head[header], newline="")))
    assert parsed[0] == table.columns
    assert parsed[1:] == [[csv_text(v) for v in row] for row in table.rows]


def test_columnar_table_renders_each_cell_kind():
    # ints of every width and sign through their distinct values as str(v),
    # bools as one of two shared texts, masked cells empty (CSV) or null
    table = OutputTable(
        "t", list("abcdefgh"), list("11111111"),
        meta={"seed": np.int64(7), "s": np.float64(0.25)},
        data=[np.array([1.5, -0.0, 0.0, 1.5]), [2, -3, None, 2],
              np.array([-3, 0, 2 ** 62, -2 ** 62]),
              np.array([0, 7, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64),
              np.array([True, False, False, True]),
              np.array([-128, 127, 0, -1], dtype=np.int8),
              [None, "x", None, "y"], ["a,b", 'q"', "", "z"]],
        missing={"d": np.array([False, True, False, False]),
                 "e": np.array([False, False, True, False])})
    assert table.rows == [
        (1.5, 2, -3, 0, True, -128, None, "a,b"),
        (-0.0, -3, 0, None, False, 127, "x", 'q"'),
        (0.0, None, 2 ** 62, 2 ** 63, None, 0, None, ""),
        (1.5, 2, -2 ** 62, 2 ** 64 - 1, True, -1, "y", "z")]
    assert table.to_csv_text().splitlines()[1:] == [
        "# seed: 7", "# s: 0.25", "# units: 1,1,1,1,1,1,1,1",
        "a,b,c,d,e,f,g,h", '1.5,2,-3,0,true,-128,,"a,b"',
        '-0.0,-3,0,,false,127,x,"q"""',
        "0.0,,4611686018427387904,9223372036854775808,,0,,",
        "1.5,2,-4611686018427387904,18446744073709551615,true,-1,y,z"]
    text = table.to_json_text()
    assert text == json.dumps(
        {"table": "t", "meta": {"seed": 7, "s": 0.25},
         "columns": table.columns, "units": table.units,
         "rows": [list(row) for row in table.rows]}, indent=2) + "\n"
    assert ("-0.0,\n      -3,\n      0,\n      null,\n      false,\n"
            "      127,\n") in text


def test_masked_cells_are_missing_and_only_they_may_be_non_finite():
    values = np.array([1.5, np.nan, -0.0, np.inf])
    table = OutputTable("t", ["a", "k"], ["1", "1"],
                        data=[values, [1, 2, 3, 4]],
                        missing={"a": ~np.isfinite(values)})
    assert table.rows == [(1.5, 1), (None, 2), (-0.0, 3), (None, 4)]
    assert table.to_csv_text().splitlines()[-4:] == ["1.5,1", ",2", "-0.0,3",
                                                     ",4"]
    assert json.loads(table.to_json_text())["rows"][1] == [None, 2]
    for missing, error in (({"a": np.isnan(values)}, kp.NumericalError),
                           ({"b": np.isnan(values)}, kp.ValidationError),
                           ({"a": np.isnan(values[:3])}, kp.ValidationError),
                           ({"a": np.isnan(values) * 1}, kp.ValidationError)):
        with pytest.raises(error):
            OutputTable("t", ["a"], ["1"], data=[values], missing=missing)


@st.composite
def float_columns(draw):
    """A float64 or float32 column, with few distinct values or many, past
    one render block or within it, with or without missing cells."""
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    info = np.finfo(dtype)
    special = [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
               info.smallest_normal / 3.0, info.max, -info.max,
               np.nextafter(info.max, 0, dtype=dtype)]
    drawn = draw(st.lists(st.floats(width=np.finfo(dtype).bits,
                                    allow_nan=False, allow_infinity=False),
                          max_size=30))
    pool = np.array(special + drawn, dtype=dtype)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    block = tables_module._BLOCK_CELLS // 2    # rows of the two-column table
    n_rows = draw(st.sampled_from([0, 1, 7, block, block + 1,
                                   2 * block + 5]))
    values = pool[rng.integers(0, draw(st.integers(1, pool.size)), n_rows)]
    if draw(st.booleans()):
        return values
    return [None if gone else v
            for gone, v in zip(rng.random(n_rows) < 0.3, values.tolist())]


@settings(max_examples=60, deadline=None)
@given(column=float_columns())
def test_each_float_cell_renders_as_its_own_repr(column):
    # one repr per distinct float of a block, indexed back, gives every cell
    # the text of float.__repr__ on that cell alone
    cells = [None if v is None else float.__repr__(float(v)) for v in column]
    table = OutputTable("t", ["x", "i"], ["1", "1"],
                        data=[column, np.arange(len(cells))])
    csv_rows = table.to_csv_text().split("\n")[3:-1]
    assert csv_rows == [f"{c or ''},{i}" for i, c in enumerate(cells)]
    rows = json.loads(table.to_json_text(), parse_float=str)["rows"]
    assert rows == [[c, i] for i, c in enumerate(cells)]


@st.composite
def streamed_tables(draw):
    """(cells, table): a block bound of ``cells`` cells and a table of 1-3
    columns whose row count is 0, 1 or next to a multiple of its block."""
    n_columns = draw(st.integers(1, 3))
    cells = draw(st.sampled_from([1, 5, 12]))
    block = max(1, cells // n_columns)
    n_rows = draw(st.sampled_from([0, 1, block - 1, block, block + 1,
                                   2 * block + 1]))
    data, missing = [], {}
    for i in range(n_columns):
        kind = draw(st.sampled_from(["str", "float", "masked"]))
        if kind == "str":    # quotes, commas, line breaks and empty texts
            cell = st.one_of(st.none(), st.text('a,"\n-', max_size=4))
        else:
            cell = st.one_of(st.none(), st.sampled_from([-0.0, 0.0]), FLOATS)
        column = draw(st.lists(cell, min_size=n_rows, max_size=n_rows))
        if kind == "masked":     # a float array, NaN under its missing mask
            missing[f"c{i}"] = np.array([v is None for v in column], bool)
            column = np.array([np.nan if v is None else v for v in column],
                              dtype=float)
        data.append(column)
    return cells, OutputTable("t", [f"c{i}" for i in range(n_columns)],
                              ["1"] * n_columns, data=data, missing=missing,
                              meta={"seed": 3})


@settings(max_examples=150, deadline=None)
@given(drawn=streamed_tables(), fmt=st.sampled_from(["csv", "json"]))
def test_streamed_file_equals_the_joined_text(drawn, fmt):
    # write renders each file block by block into its temporary name; the
    # file must hold the bytes of the text rendered in one block
    cells, table = drawn
    render = table.to_csv_text if fmt == "csv" else table.to_json_text
    text = render()              # at most 7 rows: one block of the default
    with mock.patch.object(tables_module, "_BLOCK_CELLS", cells), \
            tempfile.TemporaryDirectory() as out:
        [path] = table.write(out, fmt)
        with open(path, "rb") as fh:
            assert fh.read() == text.encode()
        assert render() == text


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_memory_does_not_grow_with_the_table(tmp_path, fmt):
    # numpy reports its buffers to tracemalloc: a write holds the cell texts
    # of one block, never a whole file's text, so its peak above what the
    # table already holds is the same at N and at 4N rows
    def peak(n_rows):
        rng = np.random.default_rng(5)
        table = OutputTable("t", ["x", "k"], ["1", "1"],
                            data=[rng.standard_normal(n_rows),
                                  np.arange(n_rows)])
        tracemalloc.start()
        try:
            table.write(tmp_path, fmt)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n_rows = 2 * (tables_module._BLOCK_CELLS // 2) + 100   # past two blocks
    small, large = peak(n_rows), peak(4 * n_rows)
    assert large < 1.2 * small


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_array_in_two_columns_is_rendered_once_per_block(tmp_path, fmt):
    # the scan writes one array as both i_plus and i_minus: a values array
    # with one mask renders once per block, the same array without the
    # mask apart, and the file's bytes are those of two equal copies
    n_rows = 2 * (tables_module._BLOCK_CELLS // 4) + 5     # three blocks
    values = np.linspace(-3.0, 7.0, n_rows)
    mask = values > 5.0
    columns, units = ["a", "b", "c", "k"], ["1"] * 4

    def write(data, missing, out):
        table = OutputTable("t", columns, units, data, missing=missing)
        with mock.patch.object(tables_module, "_texts",
                               wraps=tables_module._texts) as texts:
            [path] = table.write(tmp_path / out, fmt)
        with open(path, "rb") as fh:
            return fh.read(), texts.call_count

    shared = write([values, values, values, np.arange(n_rows)],
                   {"a": mask, "b": mask}, "shared")
    copies = write([values, values.copy(), values.copy(), np.arange(n_rows)],
                   {"a": mask, "b": mask.copy()}, "copies")
    assert shared[0] == copies[0]
    assert (shared[1], copies[1]) == (3 * 3, 3 * 4)


@pytest.mark.parametrize("data, error", [
    ([[1.0, 2.0], [1.0]], kp.ValidationError),          # ragged
    ([[1.0, "x"], [1.0, 2.0]], kp.ValidationError),     # mixed kinds
    ([np.zeros((2, 2)), [1.0, 2.0]], kp.ValidationError),
    ([[1j, 2j], [1.0, 2.0]], kp.ValidationError),
    ([np.array([1.0, np.inf]), [1.0, 2.0]], kp.NumericalError),
    ([float("nan"), [1.0, 2.0]], kp.NumericalError),   # a scalar NaN
])
def test_tables_reject_bad_columns(data, error):
    with pytest.raises(error):
        OutputTable("t", ["a", "b"], ["1", "1"], data=data)
