import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migrec.cells import (
    ColumnSchema,
    assemble_records,
    cell_text,
    fill_repetitions,
    is_date_text,
    is_numeric_text,
    read_schema_file,
    realign_columns,
    write_schema_file,
)
from migrec.gridrec import Band, GridCell, GridTable
from migrec.interchange import (
    Box,
    CellHypothesis,
    CellLine,
    TextHypothesis,
    ValidationError,
    dominant_class,
    normalize_class_probs,
)

from oracles import assemble_records_reference, fill_repetitions_reference, realign_columns_reference


def probs_for(kind):
    return {
        "single_line": (1.0, 0.0, 0.0, 0.0),
        "multi_line": (0.0, 1.0, 0.0, 0.0),
        "repetition": (0.0, 0.0, 1.0, 0.0),
        "empty": (0.0, 0.0, 0.0, 1.0),
    }[kind]


def make_grid(spec, x0=0.0, y0=0.0, cw=100.0, ch=40.0, provenance=None):
    """spec: matrix of (kind, text_or_None) pairs; text may embed '|' for lines."""
    n_rows, n_cols = len(spec), len(spec[0])
    rows = tuple(Band(y0 + r * ch, y0 + (r + 1) * ch, 2 * n_cols) for r in range(n_rows))
    cols = tuple(Band(x0 + c * cw, x0 + (c + 1) * cw, 2 * n_rows) for c in range(n_cols))
    matrix = []
    for r in range(n_rows):
        row = []
        for c in range(n_cols):
            kind, text = spec[r][c]
            box = Box(x0 + c * cw, y0 + r * ch, x0 + (c + 1) * cw, y0 + (r + 1) * ch, 0.9)
            lines = ()
            cell_text_hyp = None
            if kind == "multi_line" and text is not None:
                parts = text.split("|")
                lines = tuple(
                    CellLine(box, TextHypothesis(part, 0.9)) for part in parts
                )
            elif text is not None:
                cell_text_hyp = TextHypothesis(text, 0.9)
            prov = provenance[r][c] if provenance else "detected"
            row.append(
                GridCell(
                    CellHypothesis(box=box, class_probs=probs_for(kind), text=cell_text_hyp, lines=lines),
                    prov,
                )
            )
        matrix.append(tuple(row))
    return GridTable(
        table_box=Box(x0, y0, x0 + n_cols * cw, y0 + n_rows * ch, 1.0),
        rows=rows,
        cols=cols,
        cells=tuple(matrix),
    )


# --- cell type ----------------------------------------------------------------
# Assembly reads a cell's type with ``dominant_class``; its ``class_probs``
# were checked by ``normalize_class_probs`` when the document was read.


def test_classify_clear_posterior():
    assert dominant_class((0.9, 0.05, 0.03, 0.02)) == "single_line"


def test_classify_tie_priority():
    assert dominant_class((0.25, 0.25, 0.25, 0.25)) == "single_line"
    assert dominant_class((0.0, 0.5, 0.5, 0.0)) == "multi_line"


def test_classify_rejects_bad_distribution():
    with pytest.raises(ValidationError):
        normalize_class_probs((0.9, 0.5, 0.0, 0.0))


@pytest.mark.parametrize(
    "probs, path",
    [
        ((0.9, 0.0, 0.0, 0.0), "class_probs"),
        ((1.0, 0.0, 0.0), "class_probs"),
        ((1.2, -0.2, 0.0, 0.0), "class_probs[0]"),
    ],
)
def test_classify_raises_validation_error_with_path(probs, path):
    with pytest.raises(ValidationError) as err:
        normalize_class_probs(probs)
    assert err.value.path == path


@given(st.lists(st.floats(0.001, 1.0, width=64), min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_classify_matches_argmax_with_priority(raw):
    total = sum(raw)
    probs = tuple(v / total for v in raw)
    got = dominant_class(probs)
    best = max(range(4), key=lambda i: (probs[i], -i))
    assert got == ("single_line", "multi_line", "repetition", "empty")[best]


# --- fill_repetitions -----------------------------------------------------------


def test_fill_basic_chain():
    column = [("single_line", "Turku"), ("repetition", None), ("repetition", None)]
    assert fill_repetitions(column) == ["Turku", "Turku", "Turku"]


def test_fill_no_predecessor_stays_empty():
    column = [("repetition", None), ("single_line", "Pori")]
    assert fill_repetitions(column) == [None, "Pori"]


def test_fill_skips_empty_cells_without_breaking_chain():
    column = [
        ("single_line", "Oulu"),
        ("empty", None),
        ("repetition", None),
    ]
    assert fill_repetitions(column) == ["Oulu", None, "Oulu"]


def test_fill_is_idempotent():
    column = [("single_line", "Kotka"), ("repetition", None), ("empty", None)]
    once = fill_repetitions(column)
    again = fill_repetitions(
        [(kind, text) for (kind, _), text in zip(column, once)]
    )
    assert once == again


@given(
    st.lists(
        st.tuples(
            st.sampled_from(("single_line", "multi_line", "repetition", "empty")),
            st.one_of(st.none(), st.text(alphabet="abc", max_size=3)),
        ),
        max_size=30,
    )
)
@settings(max_examples=150, deadline=None)
def test_fill_matches_scan_back_oracle(raw):
    column = [
        (kind, text if kind in ("single_line", "multi_line") else None) for kind, text in raw
    ]
    assert fill_repetitions(column) == fill_repetitions_reference(column)


# --- realign_columns --------------------------------------------------------------


SCHEMA = ColumnSchema(
    labels=("ref_no", "date", "name", "parish"),
    kinds=("numeric", "date", "text", "parish"),
    avg_lens=(2.0, 5.0, 16.0, 8.0),
)


def test_kind_detectors():
    assert is_numeric_text("296")
    assert is_numeric_text("s. 296") is False
    assert is_date_text("9.1.")
    assert is_date_text("12/3")
    assert not is_date_text("45.99.")
    assert is_date_text("14 maaliskuuta")


def test_realign_expected_positional():
    row = ["12", "9.1.", "Maria Sirkka, piika", "Rautalampi"]
    result = realign_columns(row, SCHEMA)
    assert result.status == "expected"
    assert result.shift == 0
    assert result.mapping["parish"] == "Rautalampi"


def test_realign_shift_plus_one():
    schema = ColumnSchema(labels=("n", "d", "t"), kinds=("numeric", "date", "text"))
    row = ["xx", "12", "3.4.", "piika"]
    result = realign_columns(row, schema)
    assert result.status == "realigned"
    assert result.shift == 1
    assert result.mapping == {"n": "12", "d": "3.4.", "t": "piika"}


def test_realign_failure_leaves_parish_empty():
    schema = ColumnSchema(
        labels=("a", "b", "c", "parish"),
        kinds=("text", "text", "text", "parish"),
        avg_lens=(10.0, 10.0, 10.0, 10.0),
    )
    row = ["123", "456", "789", "12"]
    result = realign_columns(row, schema)
    assert result.status == "failed"
    assert result.mapping["parish"] is None


def test_realign_zero_shift_on_perfect_row_is_identity():
    row = ["7", "28.12.", "Johan Berg, smed", "Helsingfors"]
    result = realign_columns(row, SCHEMA)
    assert result.status == "expected"
    assert result.mapping == dict(zip(SCHEMA.labels, row))


# Texts of every data kind: numbers, dates, words, punctuation and blanks.
CELL_TEXTS = st.one_of(
    st.sampled_from(("12", "296", "9.1.", "12/3", "45.99.", "14 maaliskuuta", "Rautalampi",
                     "Maria Sirkka, piika", "s. 296", "H:fors", "-", "", " ")),
    st.text(alphabet="0123456789./ aåb", max_size=12),
)
FIVE_COLUMNS = ColumnSchema(
    labels=("ref_no", "date", "name", "parish", "comm_book"),
    kinds=("numeric", "date", "text", "parish", "any"),
    avg_lens=(2.0, 5.0, 20.0, 9.0, 3.0),
)
# Without lengths, and with alternating kinds, shifts often score alike.
FIVE_KINDS = ColumnSchema(FIVE_COLUMNS.labels, FIVE_COLUMNS.kinds)
ALTERNATING = ColumnSchema(
    labels=("a", "b", "c", "d", "e"), kinds=("text", "numeric", "parish", "numeric", "text")
)
SCHEMAS = (None, FIVE_COLUMNS, FIVE_KINDS, ALTERNATING)


@given(st.lists(st.one_of(st.none(), CELL_TEXTS), min_size=3, max_size=7), st.sampled_from(SCHEMAS[1:]))
@settings(max_examples=400, deadline=None)
def test_realign_matches_reference(row, schema):
    got, want = realign_columns(row, schema), realign_columns_reference(row, schema)
    assert got == want
    assert list(got.mapping) == list(want.mapping)


@pytest.mark.parametrize(
    "row, shift",  # the shifts that tie for the best score, in the order tried
    [
        (["9.1.", "Anna", "9.1.", "Anna", "Anna"], 0),  # 0, -1 and +1
        (["9.1.", "Anna", "9.1.", "12", "Anna", "12"], -1),  # -1 and +1
        (["Anna", "Anna", "12", "9.1.", "Anna"], -2),  # -2 and +2
        (["Anna", "Anna", "9.1.", "Anna", "Anna"], 1),  # +1 and -2
        (["Anna", "Anna", "Anna", "Anna", "Anna", "Anna", "12"], 0),  # all five
    ],
)
def test_realign_ties_take_the_first_shift_in_order(row, shift):
    assert realign_columns(row, FIVE_KINDS) == realign_columns_reference(row, FIVE_KINDS)
    assert realign_columns(row, FIVE_KINDS).shift == shift


GRID_CELLS = st.tuples(
    st.sampled_from(("single_line", "multi_line", "repetition", "empty")),
    st.one_of(st.none(), CELL_TEXTS, st.lists(CELL_TEXTS, min_size=1, max_size=3).map("|".join)),
    st.sampled_from(("detected", "detected", "inferred")),
)


@st.composite
def grids(draw):
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(3, 7))
    cells = [draw(st.lists(GRID_CELLS, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    for r in draw(st.sets(st.integers(0, n_rows - 1))):
        cells[r] = [("empty", None, "detected")] * n_cols
    spec = [[(kind, text) for kind, text, _ in row] for row in cells]
    provenance = [[prov for _, _, prov in row] for row in cells]
    return make_grid(spec, provenance=provenance)


@given(grids(), st.sampled_from(SCHEMAS), st.sampled_from((None, 1881)), st.booleans())
@settings(max_examples=300, deadline=None)
def test_assemble_matches_reference(grid, schema, year, year_inferred):
    args = (grid, year, "in", schema, "left")
    kwargs = dict(book_id="b", opening_id="o", year_inferred=year_inferred)
    got, want = assemble_records(*args, **kwargs), assemble_records_reference(*args, **kwargs)
    assert got == want
    assert [list(r.fields) for r in got] == [list(r.fields) for r in want]


# --- schema files ------------------------------------------------------------------


def test_schema_file_round_trip(tmp_path):
    path = tmp_path / "preprinted.tsv"
    write_schema_file(SCHEMA, str(path))
    assert read_schema_file(str(path)) == SCHEMA


def test_schema_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        ColumnSchema(labels=("a", "a"), kinds=("text", "text"))


# --- assemble_records --------------------------------------------------------------


def test_assemble_skips_all_empty_rows():
    grid = make_grid(
        [
            [("single_line", "1"), ("single_line", "Turku")],
            [("empty", None), ("empty", None)],
            [("single_line", "2"), ("single_line", "Pori")],
        ]
    )
    records = assemble_records(grid, 1880, "in", None, "left", book_id="b", opening_id="o")
    assert len(records) == 2
    assert records[0].fields == {"col_0": "1", "col_1": "Turku"}


def test_assemble_applies_repetition_fill_and_flags():
    grid = make_grid(
        [
            [("single_line", "1"), ("single_line", "Turku")],
            [("single_line", "2"), ("repetition", None)],
        ]
    )
    records = assemble_records(grid, None, "out", None, "right")
    assert records[1].fields["col_1"] == "Turku"
    assert "repetition_filled" in records[1].flags
    assert "repetition_filled" not in records[0].flags


def test_assemble_flags_inferred_cells():
    grid = make_grid(
        [[("single_line", "1"), ("empty", None)]],
        provenance=[["detected", "inferred"]],
    )
    records = assemble_records(grid, 1899, "in", None, "left")
    assert records[0].flags == frozenset({"inferred_cell"})


def test_assemble_year_inferred_flag():
    grid = make_grid([[("single_line", "1")]])
    records = assemble_records(
        grid, 1900, "in", None, "left", year_inferred=True
    )
    assert "year_inferred" in records[0].flags
    no_year = assemble_records(grid, None, "in", None, "left", year_inferred=True)
    assert "year_inferred" not in no_year[0].flags


def test_assemble_with_schema_sets_parish():
    schema = ColumnSchema(labels=("ref", "parish"), kinds=("numeric", "parish"))
    grid = make_grid([[("single_line", "3"), ("single_line", "Åbo")]])
    records = assemble_records(grid, 1881, "in", schema, "left")
    assert records[0].parish_raw == "Åbo"
    assert records[0].fields == {"ref": "3", "parish": "Åbo"}


def test_cell_text_joins_lines():
    cell = CellHypothesis(
        box=Box(0, 0, 10, 10, 1.0),
        class_probs=probs_for("multi_line"),
        lines=(
            CellLine(Box(0, 0, 10, 5, 1.0), TextHypothesis("Maria Sirkka,", 0.9)),
            CellLine(Box(0, 5, 10, 10, 1.0), TextHypothesis("piika", 0.9)),
        ),
    )
    assert cell_text(cell) == "Maria Sirkka, piika"
