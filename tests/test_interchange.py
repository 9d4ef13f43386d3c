import copy
import csv
import dataclasses
import json
import math
import pickle
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migrec import interchange
from migrec.gridrec import GridCell
from migrec.interchange import (
    Box,
    CellHypothesis,
    CellLine,
    DetectionDocument,
    InterchangeError,
    MigrationRecord,
    OpeningKeypoints,
    ParseError,
    Point,
    TableDetection,
    TextHypothesis,
    ValidationError,
    YearDetection,
    content_lines,
    decode_json_line,
    dominant_class,
    normalize_class_probs,
    read_document,
    read_records,
    validate_document,
    value_type,
    write_document,
    write_json,
    write_records,
)
from oracles import read_document_reference, read_records_reference


def make_cell(x0, y0, x1, y1, probs=(1.0, 0.0, 0.0, 0.0), text="x"):
    return CellHypothesis(
        box=Box(x0, y0, x1, y1, 0.9),
        class_probs=probs,
        text=TextHypothesis(text, 0.8) if text is not None else None,
    )


def make_document(cells=None, **overrides):
    cells = cells if cells is not None else (make_cell(10, 10, 50, 30),)
    fields = dict(
        opening_id="op1",
        book_id="book1",
        image_width=1000,
        image_height=800,
        layout_type="preprinted",
        keypoints=OpeningKeypoints(
            a=Point(0, 0),
            b=Point(500, 0),
            c=Point(1000, 0),
            d=Point(0, 800),
            e=Point(500, 800),
            f=Point(1000, 800),
        ),
        tables=(TableDetection(box=Box(5, 5, 400, 300, 1.0), cells=tuple(cells)),),
        year_detections=(YearDetection(Box(100, 1, 160, 4, 0.9), TextHypothesis("1878", 0.9)),),
    )
    fields.update(overrides)
    return DetectionDocument(**fields)


def test_minimal_document_round_trip(tmp_path):
    doc = make_document()
    path = tmp_path / "doc.jsonl"
    write_document(doc, str(path))
    assert read_document(str(path)) == doc


def test_empty_tables_round_trip(tmp_path):
    doc = make_document(tables=(), year_detections=())
    path = tmp_path / "doc.jsonl"
    write_document(doc, str(path))
    assert read_document(str(path)) == doc


def test_utf8_text_preserved(tmp_path):
    doc = make_document(cells=(make_cell(10, 10, 50, 30, text="Hämeenlinna"),))
    path = tmp_path / "doc.jsonl"
    write_document(doc, str(path))
    raw = path.read_bytes()
    assert "Hämeenlinna".encode("utf-8") in raw
    assert read_document(str(path)) == doc


def test_inverted_cell_box_names_the_cell():
    bad = make_cell(50, 10, 10, 30)  # x_min > x_max
    doc = make_document(tables=(TableDetection(Box(5, 5, 400, 300, 1.0), (bad,)),))
    with pytest.raises(ValidationError) as err:
        validate_document(doc)
    assert "tables[0].cells[0]" in str(err.value)


def test_cell_outside_table_rejected_beyond_tolerance():
    inside_tolerance = make_cell(3.5, 5.0, 50.0, 30.0)  # 1.5 px overhang
    probs_as_list = make_cell(10, 10, 50, 30, probs=[0.25, 0.75, 0.0, 0.0])  # normalized
    validate_document(make_document(cells=(inside_tolerance, probs_as_list)))
    outgrown = make_cell(1.0, 5.0, 50.0, 30.0)  # 4 px overhang
    with pytest.raises(ValidationError):
        validate_document(make_document(cells=(outgrown,)))


def test_lines_require_multi_line_class():
    line = CellLine(Box(10, 10, 50, 20, 1.0), TextHypothesis("a", 1.0))
    cell = CellHypothesis(
        box=Box(10, 10, 50, 30, 0.9), class_probs=(1.0, 0.0, 0.0, 0.0), lines=(line,)
    )
    with pytest.raises(ValidationError):
        validate_document(make_document(cells=(cell,)))


def test_malformed_json_is_a_parse_error(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"kind": "document", \n', encoding="utf-8")
    with pytest.raises(ParseError):
        read_document(str(path))


def test_unknown_layout_rejected():
    with pytest.raises(ValidationError) as err:
        validate_document(make_document(layout_type="scroll"))
    assert "layout_type" in str(err.value)


def test_class_probs_renormalized_within_tolerance():
    probs = normalize_class_probs((0.5004, 0.4999, 0.0, 0.0))
    assert abs(sum(probs) - 1.0) <= 1e-9
    with pytest.raises(ValidationError):
        normalize_class_probs((0.7, 0.7, 0.0, 0.0))


def test_dominant_class_priority_order():
    assert dominant_class((0.25, 0.25, 0.25, 0.25)) == "single_line"
    assert dominant_class((0.0, 0.0, 0.0, 1.0)) == "empty"


# --- value types -----------------------------------------------------------

_BOX = Box(1.0, 2.0, 30.0, 40.0, 0.5)
_TEXT = TextHypothesis("Anna", 0.8)
_CELL = CellHypothesis(_BOX, (0.7, 0.1, 0.1, 0.1), _TEXT, (CellLine(_BOX, _TEXT),))
# each value type with arguments for every field and a changed first field
VALUE_TYPE_ARGS = {
    Point: ((3.0, -4.5), 7.0),
    Box: ((1.0, 2.0, 30.0, 40.0, 0.5), 0.0),
    TextHypothesis: (("Anna", 0.8), "Anders"),
    CellLine: ((_BOX, _TEXT), Box(0.0, 0.0, 1.0, 1.0)),
    CellHypothesis: ((_BOX, (0.7, 0.1, 0.1, 0.1), _TEXT, (CellLine(_BOX, _TEXT),)), Box(5, 5, 9, 9)),
    TableDetection: ((_BOX, (_CELL, _CELL)), Box(0.0, 0.0, 100.0, 100.0)),
    YearDetection: ((_BOX, TextHypothesis("1787")), Box(0.0, 0.0, 10.0, 10.0)),
    GridCell: ((_CELL, "detected"), CellHypothesis(_BOX, (0.0, 0.0, 0.0, 1.0))),
}


def frozen_twin(cls):
    """A plain ``@dataclass(frozen=True)`` with the fields and defaults of ``cls``."""
    specs = [
        (f.name, f.type) if f.default is dataclasses.MISSING
        else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


@pytest.mark.parametrize("cls", list(VALUE_TYPE_ARGS), ids=lambda cls: cls.__name__)
def test_value_types_behave_as_plain_frozen_dataclasses(cls):
    args, other_first = VALUE_TYPE_ARGS[cls]
    twin = frozen_twin(cls)
    value, changed = cls(*args), cls(other_first, *args[1:])
    twin_value, twin_changed = twin(*args), twin(other_first, *args[1:])
    assert (value == cls(*args), value == changed) == (True, False)
    assert (twin_value == twin(*args), twin_value == twin_changed) == (True, False)
    assert hash(value) == hash(twin_value) and hash(changed) == hash(twin_changed)
    assert repr(value) == repr(twin_value) and repr(changed) == repr(twin_changed)
    assert value == cls(**{f.name: a for f, a in zip(dataclasses.fields(cls), args)})
    # fields, defaults and replace
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == [f.name for f in dataclasses.fields(twin)]
    required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(cls))
    assert repr(cls(*args[:required])) == repr(twin(*args[:required]))
    assert dataclasses.replace(value, **{names[0]: other_first}) == changed
    # frozen, pickled, slotted
    for name in [*names, "extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError) as assigned:
            setattr(value, name, other_first)
        with pytest.raises(dataclasses.FrozenInstanceError) as twin_assigned:
            setattr(twin_value, name, other_first)
        assert str(assigned.value) == str(twin_assigned.value)
        with pytest.raises(dataclasses.FrozenInstanceError) as deleted:
            delattr(value, name)
        with pytest.raises(dataclasses.FrozenInstanceError) as twin_deleted:
            delattr(twin_value, name)
        assert str(deleted.value) == str(twin_deleted.value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) == value
    assert copy.copy(value) == value and copy.deepcopy(value) == value
    assert not hasattr(value, "__dict__")
    # the constructor stores through the slots, not object.__setattr__
    assert "__setattr__" not in cls.__init__.__code__.co_names
    assert "__setattr__" in twin.__init__.__code__.co_names


@pytest.mark.parametrize(
    "body, message",
    [("x: list = dataclasses.field(default_factory=list)", "default_factory"),
     ("x: float\n    def __post_init__(self): pass", "__post_init__"),
     ("x: dataclasses.InitVar[int]", "plain positional"),
     ("x: float = dataclasses.field(default=0.0, kw_only=True)", "plain positional"),
     ("x: float = dataclasses.field(default=0.0, init=False)", "plain positional")],
    ids=["default-factory", "post-init", "initvar", "kw-only", "no-init"],
)
def test_value_type_refuses_what_its_constructor_would_skip(body, message):
    namespace = {"dataclasses": dataclasses}
    exec(f"class Refused:\n    {body}", namespace)
    with pytest.raises(TypeError, match=message):
        value_type(namespace["Refused"])


# --- generated documents -------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)
confidence = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)


@st.composite
def documents(draw):
    n_tables = draw(st.integers(0, 2))
    tables = []
    for t in range(n_tables):
        x0 = draw(st.floats(0, 400, width=64))
        y0 = draw(st.floats(0, 300, width=64))
        w = draw(st.floats(50, 500, width=64))
        h = draw(st.floats(50, 400, width=64))
        n_cells = draw(st.integers(0, 5))
        cells = []
        for c in range(n_cells):
            fx0 = draw(st.floats(0.0, 0.8, width=64))
            fy0 = draw(st.floats(0.0, 0.8, width=64))
            fx1 = draw(st.floats(min_value=fx0 + 0.05, max_value=1.0, width=64))
            fy1 = draw(st.floats(min_value=fy0 + 0.05, max_value=1.0, width=64))
            kind = draw(st.integers(0, 3))
            probs = [0.0, 0.0, 0.0, 0.0]
            probs[kind] = 1.0
            text = draw(st.one_of(st.none(), st.text(max_size=12)))
            cells.append(
                CellHypothesis(
                    box=Box(x0 + fx0 * w, y0 + fy0 * h, x0 + fx1 * w, y0 + fy1 * h,
                            draw(confidence)),
                    class_probs=tuple(probs),
                    text=None if text is None else TextHypothesis(text, draw(confidence)),
                    lines=(),
                )
            )
        tables.append(TableDetection(Box(x0, y0, x0 + w, y0 + h, 1.0), tuple(cells)))
    years = tuple(
        YearDetection(Box(10, 10, 60, 30, 0.5), TextHypothesis(draw(st.text(max_size=6)), 0.5))
        for _ in range(draw(st.integers(0, 2)))
    )
    return DetectionDocument(
        opening_id=draw(st.text(min_size=1, max_size=8, alphabet="abc019_")),
        book_id=draw(st.text(min_size=1, max_size=8, alphabet="abc019_")),
        image_width=1000,
        image_height=800,
        layout_type=draw(st.sampled_from(("handdrawn", "preprinted", "half_table"))),
        keypoints=None,
        tables=tuple(tables),
        year_detections=years,
    )


@settings(max_examples=40, deadline=None)
@given(documents())
def test_document_round_trip_property(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("docs") / "doc.jsonl"
    write_document(doc, str(path))
    assert read_document(str(path)) == doc


# --- records --------------------------------------------------------------


def make_record(i=0, **overrides):
    fields = dict(
        book_id="book1",
        opening_id=f"op{i}",
        page_side="left",
        direction="in",
        year=1880 + i % 20,
        fields={"ref_no": str(i), "name": f"Person {i}", "parish": "Turku"},
        parish_raw="Åbo",
        parish_canonical="Turku",
        flags=frozenset({"repetition_filled"} if i % 3 == 0 else set()),
    )
    fields.update(overrides)
    return MigrationRecord(**fields)


def test_empty_records_csv_is_header_only(tmp_path):
    path = tmp_path / "records.csv"
    write_records([], str(path), format="csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("book_id,opening_id,")


def test_comma_in_field_is_quoted(tmp_path):
    record = make_record(fields={"name": "Sirkka, Maria"})
    path = tmp_path / "records.csv"
    write_records([record], str(path), format="csv")
    assert '"Sirkka, Maria"' in path.read_text(encoding="utf-8")
    assert read_records(str(path), format="csv")[0].fields["name"] == "Sirkka, Maria"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_thousand_records_round_trip(tmp_path, fmt):
    records = [make_record(i) for i in range(1000)]
    path = tmp_path / f"records.{fmt}"
    write_records(records, str(path), format=fmt)
    assert read_records(str(path), format=fmt) == records


def test_jsonl_round_trip_with_heterogeneous_fields(tmp_path):
    records = [
        make_record(0, fields={"a": "1"}),
        make_record(1, fields={"b": "2", "c": ""}),
    ]
    path = tmp_path / "records.jsonl"
    write_records(records, str(path), format="jsonl")
    assert read_records(str(path), format="jsonl") == records


@pytest.mark.parametrize("name", ["x.jsonl", "x.csv", "x.txt", "x.jsonl.bak"])
def test_records_format_follows_the_path_unless_given(tmp_path, name):
    records = [make_record(i, fields={"name": f"n{i}"}) for i in range(3)]
    fmt = "jsonl" if name.endswith(".jsonl") else "csv"
    path, given = tmp_path / name, tmp_path / f"given_{name}"
    write_records(records, str(path))
    write_records(records, str(given), format=fmt)
    assert path.read_bytes() == given.read_bytes()
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith("{") == (fmt == "jsonl")
    assert read_records(str(path)) == records
    # a given format wins over the path
    other = "csv" if fmt == "jsonl" else "jsonl"
    write_records(records, str(path), format=other)
    assert read_records(str(path), format=other) == records
    with pytest.raises(ParseError):
        read_records(str(path))


def test_records_reject_an_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown record format 'xml'"):
        write_records([make_record(0)], str(tmp_path / "x.jsonl"), format="xml")
    with pytest.raises(ValueError, match="unknown record format 'xml'"):
        read_records(str(tmp_path / "x.jsonl"), format="xml")


def test_record_validation_rejects_unknown_flag(tmp_path):
    record = make_record(flags=frozenset({"bogus"}))
    with pytest.raises(ValidationError):
        write_records([record], str(tmp_path / "x.csv"), format="csv")


# --- malformed record files -------------------------------------------------


def write_csv_records(tmp_path, *rows):
    path = tmp_path / "records.csv"
    write_records([make_record(0)], str(path), format="csv")
    header = path.read_text(encoding="utf-8").splitlines()[0]
    path.write_text("\n".join((header,) + rows) + "\n", encoding="utf-8")
    return path


def test_short_csv_row_names_line_and_field(tmp_path):
    path = write_csv_records(tmp_path, "book1,op0,left,1880,in,Åbo,Turku,", "book1,op1,left")
    with pytest.raises(ParseError) as err:
        read_records(str(path), format="csv")
    assert err.value.path == "line 2: field:ref_no"
    with pytest.raises(ParseError) as err:
        read_records(str(write_csv_records(tmp_path, "book1,op1,left")), format="csv")
    assert err.value.path == "line 2: year"


def test_csv_cell_beyond_header_is_an_error(tmp_path):
    path = write_csv_records(tmp_path, "book1,op0,left,1880,in,Åbo,Turku,,0,P,Turku,extra")
    with pytest.raises(ParseError) as err:
        read_records(str(path), format="csv")
    assert err.value.path == "line 2: column 12"


def test_csv_non_integer_year_names_line_and_field(tmp_path):
    path = write_csv_records(tmp_path, "book1,op0,left,18x0,in,Åbo,Turku,,0,P,Turku")
    with pytest.raises(ParseError) as err:
        read_records(str(path), format="csv")
    assert err.value.path == "line 2: year"


@pytest.mark.parametrize(
    "tail, column",
    [("field:name,remarks", "remarks"), ("field:name,field:name", "field:name"),
     ("field:name,", "")],
    ids=["no-prefix", "repeated-label", "empty-column"],
)
def test_csv_field_columns_need_the_prefix_and_one_column_per_label(tmp_path, tail, column):
    path = tmp_path / "records.csv"
    write_records([make_record(0, fields={"name": "Anna"})], str(path), format="csv")
    head, row = path.read_text(encoding="utf-8").splitlines()
    path.write_text(f"{head.replace('field:name', tail)}\n{row},moved\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_records(str(path), format="csv")
    assert err.value.path == f"line 1: {column}"


def test_csv_blank_lines_are_skipped(tmp_path):
    path = write_csv_records(tmp_path, "", "book1,op0,left,1880,in,Åbo,Turku,,0,P,Turku", "")
    assert [r.year for r in read_records(str(path), format="csv")] == [1880]


def test_jsonl_missing_key_names_line_and_field(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records([make_record(0), make_record(1)], str(path), format="jsonl")
    first, second = path.read_text(encoding="utf-8").splitlines()
    path.write_text(first + "\n" + second.replace('"year"', '"yr"') + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_records(str(path), format="jsonl")
    assert err.value.path == "line 2: year"


def test_jsonl_non_integer_year_names_line_and_field(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records([make_record(0)], str(path), format="jsonl")
    text = path.read_text(encoding="utf-8").replace('"year": 1880', '"year": "1880"')
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_records(str(path), format="jsonl")
    assert err.value.path == "line 1: year"


def test_csv_invalid_record_names_its_line(tmp_path):
    path = write_csv_records(
        tmp_path,
        "book1,op0,left,1880,in,Åbo,Turku,,0,P,Turku",
        "book1,op1,left,1880,sideways,Åbo,Turku,,0,P,Turku",
    )
    with pytest.raises(ValidationError) as err:
        read_records(str(path), format="csv")
    assert err.value.path == "line 3: record.direction"


def test_jsonl_invalid_record_names_its_line(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records([make_record(0), make_record(1)], str(path), format="jsonl")
    first, second = path.read_text(encoding="utf-8").splitlines()
    bad = second.replace('"flags": []', '"flags": ["bogus"]')
    path.write_text(first + "\n\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        read_records(str(path), format="jsonl")
    assert err.value.path == "line 3: record.flags"


@pytest.mark.parametrize(
    "bad, message",
    [
        ('{"year": ' + "9" * 5001 + "}", "invalid JSON (Exceeds the limit"),
        ("[" * 200_000, "invalid JSON (maximum recursion depth exceeded"),
    ],
    ids=["too-many-digits", "nested-past-the-recursion-limit"],
)
def test_jsonl_line_json_cannot_decode_is_a_parse_error(tmp_path, bad, message):
    path = tmp_path / "records.jsonl"
    write_records([make_record(0)], str(path), format="jsonl")
    path.write_text(path.read_text(encoding="utf-8") + bad + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_records(str(path), format="jsonl")
    assert err.value.path == "line 2"
    assert err.value.message.startswith(message)


def test_content_lines_skip_blank_and_comment_lines(tmp_path):
    path = tmp_path / "settings.tsv"
    path.write_text("# header\n\nÅbo\tTurku\n   \n  # indented comment\n\tlead\r\n", encoding="utf-8")
    assert list(content_lines(str(path))) == [(3, "Åbo\tTurku"), (6, "\tlead")]


def test_write_json_is_indented_utf8_with_a_final_newline(tmp_path):
    obj = {"parish": "Åbo", "counts": {"b": 2, "a": 1}, "failures": []}
    path = tmp_path / "summary.json"
    write_json(path, obj)
    expected = (
        '{\n  "parish": "Åbo",\n  "counts": {\n    "b": 2,\n    "a": 1\n  },\n'
        '  "failures": []\n}\n'
    )
    assert path.read_bytes() == expected.encode("utf-8")


# --- class distributions: validated once, same error paths --------------------


def write_cell_probs(tmp_path, probs):
    path = tmp_path / "doc.jsonl"
    write_document(make_document(), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert '"kind": "cell"' in lines[2]
    lines[2] = lines[2].replace('"class_probs": [1.0, 0.0, 0.0, 0.0]', f'"class_probs": {probs}')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_document_probabilities_off_by_a_tenth_fail_at_their_line(tmp_path):
    path = write_cell_probs(tmp_path, [0.9, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError) as err:
        read_document(str(path))
    assert err.value.path == "line 3: class_probs"


def test_document_probability_drift_is_renormalized_on_read(tmp_path):
    path = write_cell_probs(tmp_path, [0.5004, 0.4999, 0.0, 0.0])
    (cell,) = read_document(str(path)).tables[0].cells
    assert cell.class_probs == normalize_class_probs((0.5004, 0.4999, 0.0, 0.0))
    assert cell.class_probs != (0.5004, 0.4999, 0.0, 0.0)


def test_in_memory_unnormalized_probabilities_fail_validation():
    doc = make_document(cells=(make_cell(10, 10, 50, 30, probs=(0.5004, 0.4999, 0.0, 0.0)),))
    with pytest.raises(ValidationError) as err:
        validate_document(doc)
    assert err.value.path == "tables[0].cells[0].class_probs"


# --- malformed documents: every failure is a typed error -----------------------


def write_lines(tmp_path, objs, name="doc.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n", encoding="utf-8")
    return path


def document_lines(tmp_path):
    line = CellLine(Box(12, 12, 48, 20, 0.9), TextHypothesis("Anna", 0.8))
    multi = CellHypothesis(
        box=Box(10, 40, 50, 60, 0.9), class_probs=(0.0, 1.0, 0.0, 0.0), lines=(line, line)
    )
    path = tmp_path / "source.jsonl"
    write_document(make_document(cells=(make_cell(10, 10, 50, 30), multi)), str(path))
    return [json.loads(raw) for raw in path.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize(
    "line, key, value, error, where",
    [
        (0, "image_width", True, ValidationError, "line 1: image_width"),
        (0, "opening_id", 5, ValidationError, "line 1: opening_id"),
        (0, "book_id", ["x"], ValidationError, "line 1: book_id"),
    ],
    ids=["bool-width", "int-opening-id", "list-book-id"],
)
def test_header_field_types_are_checked(tmp_path, line, key, value, error, where):
    objs = document_lines(tmp_path)
    objs[line][key] = value
    with pytest.raises(error) as err:
        read_document(str(write_lines(tmp_path, objs)))
    assert err.value.path == where


@pytest.mark.parametrize(
    "line, keys, value, error, where",
    [
        (3, ("lines",), 5, ParseError, "line 4: lines"),
        (3, ("lines",), 1.5, ParseError, "line 4: lines"),
        (3, ("lines",), True, ParseError, "line 4: lines"),
        (2, ("box", "x_max"), 10**400, ValidationError, "line 3: box.x_max"),
        (2, ("class_probs", 0), 10**400, ValidationError, "line 3: class_probs[0]"),
        (3, ("lines", 1, "text", "confidence"), -(10**400), ValidationError,
         "line 4: lines[1].text.confidence"),
        (0, ("keypoints", "e", "y"), 10**400, ValidationError, "line 1: keypoints.e.y"),
    ],
    ids=["int-lines", "float-lines", "bool-lines", "huge-box-field", "huge-probability",
         "huge-line-confidence", "huge-keypoint"],
)
def test_bad_values_raise_typed_errors_naming_the_field(tmp_path, line, keys, value, error, where):
    objs = document_lines(tmp_path)
    target = objs[line]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(error) as err:
        read_document(str(write_lines(tmp_path, objs)))
    assert err.value.path == where


def test_json_nested_past_the_recursion_limit_is_a_parse_error(tmp_path):
    path = tmp_path / "doc.jsonl"
    path.write_text("\n[" + "[" * 100_000 + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_document(str(path))
    assert err.value.path == "line 2"
    assert err.value.message.startswith("invalid JSON (maximum recursion depth exceeded")


def test_int_literal_beyond_the_digit_limit_is_a_parse_error(tmp_path):
    path = tmp_path / "doc.jsonl"
    write_document(make_document(), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace('"confidence": 1.0', '"confidence": ' + "9" * 5000)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_document(str(path))
    assert err.value.path == "line 2"


MUTATION_VALUES = (
    None, True, False, 0, -1, 5, 1.5, -0.0, 5e-324, float("inf"), float("-inf"),
    float("nan"), 10**400, -(10**400), "", "x", [], [1], [0.5, 0.5], {}, {"a": 1},
)


def field_paths(obj, prefix=()):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def test_single_field_mutations_read_or_raise_interchange_errors(tmp_path):
    rng = random.Random(20261018)
    objs = document_lines(tmp_path)
    fields = [(i, path) for i, obj in enumerate(objs) for path in field_paths(obj)]
    outcomes = Counter()
    for n in range(4000):
        mutated = copy.deepcopy(objs)
        line, keys = rng.choice(fields)
        target = mutated[line]
        for key in keys[:-1]:
            target = target[key]
        if isinstance(target, dict) and rng.random() < 0.1:
            del target[keys[-1]]
        else:
            target[keys[-1]] = rng.choice(MUTATION_VALUES)
        path = write_lines(tmp_path, mutated, name=f"m{n % 8}.jsonl")
        try:
            read_document(str(path))
            outcomes["read"] += 1
        except InterchangeError as exc:
            outcomes[type(exc).__name__] += 1
    # the mutations reach both kinds of error and leave some documents valid
    assert outcomes["read"] and outcomes["ParseError"] and outcomes["ValidationError"]


# --- one validated pass: the same outcomes as the two-pass reader ---------------

DELETE = object()


def mutate(objs, line, keys, value):
    mutated = copy.deepcopy(objs)
    target = mutated[line]
    for key in keys[:-1]:
        target = target[key]
    if value is DELETE:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    return mutated


def object_lines(objs):
    """Line numbers of the header, tables, cells and years as a reader files them."""
    where = {"header": 1, "tables": [], "cells": {}, "years": []}
    for lineno, obj in enumerate(objs, start=1):
        kind = obj.get("kind") if isinstance(obj, dict) else None
        if kind == "document":
            where["header"] = lineno
        elif kind == "table":
            where["tables"].append(lineno)
            where["cells"][len(where["tables"]) - 1] = []
        elif kind == "cell" and isinstance(obj.get("table"), int):
            where["cells"].setdefault(obj["table"], []).append(lineno)
        elif kind == "year":
            where["years"].append(lineno)
    return where


def line_form(path, objs):
    """A document path of the two-pass reader as ``line N: field``."""
    if path.startswith("line "):
        return path
    where = object_lines(objs)
    match = re.fullmatch(r"tables\[(\d+)\]\.cells\[(\d+)\]\.(.+)", path)
    if match:
        t, c, field = match.groups()
        return f"line {where['cells'][int(t)][int(c)]}: {field}"
    match = re.fullmatch(r"tables\[(\d+)\]\.(.+)", path)
    if match:
        return f"line {where['tables'][int(match.group(1))]}: {match.group(2)}"
    match = re.fullmatch(r"year_detections\[(\d+)\]\.(.+)", path)
    if match:
        return f"line {where['years'][int(match.group(1))]}: {match.group(2)}"
    return f"line {where['header']}: {path}"


def read_outcome(reader, path):
    try:
        return ("read", repr(reader(str(path))))
    except InterchangeError as exc:
        return (type(exc).__name__, exc.message, exc.path)


def two_pass_differences(tmp_path, objs, values):
    """Read every single-field mutation of ``objs`` by both readers and assert
    the same outcome; returns the two-pass reader's outcomes where the two
    differ by design, which is only for a bool table index."""
    fields = [(i, keys) for i, obj in enumerate(objs) for keys in field_paths(obj)]
    differences = Counter()
    for line, keys in fields:
        parent = objs[line]
        for key in keys[:-1]:
            parent = parent[key]
        deletable = isinstance(parent, dict)
        for value in values + ((DELETE,) if deletable else ()):
            mutated = mutate(objs, line, keys, value)
            path = write_lines(tmp_path, mutated, name="mutated.jsonl")
            new = read_outcome(read_document, path)
            ref = read_outcome(read_document_reference, path)
            if keys == ("table",) and type(value) is bool:
                # the two-pass reader took a bool as table 0 or 1
                assert new == ("ParseError", f"cell references unknown table {value!r}",
                               f"line {line + 1}")
                differences[ref[0]] += 1
                continue
            if ref[0] == "read":
                assert new == ref, (line, keys, value)
            else:
                assert new == (ref[0], ref[1], line_form(ref[2], mutated)), (line, keys, value)
    return differences


def test_every_single_field_mutation_reads_as_the_two_pass_reader(tmp_path):
    differences = two_pass_differences(tmp_path, document_lines(tmp_path), MUTATION_VALUES)
    # False was filed under table 0; True named a table that does not exist
    assert differences == {"read": 2, "ParseError": 2}


def float_document_lines(tmp_path):
    """The objects of a document whose every coordinate and confidence is a
    float: a cell with text, one without and a multi-line cell."""
    line = CellLine(Box(12.5, 42.5, 48.5, 50.25, 0.9), TextHypothesis("Anna", 0.8))
    cells = (
        CellHypothesis(Box(10.5, 10.25, 50.75, 30.125, 0.9), (0.7, 0.2, 0.1, 0.0),
                       TextHypothesis("Kaukaanpää", 0.8)),
        CellHypothesis(Box(60.5, 10.5, 120.25, 30.5, 0.95), (0.0, 0.0, 0.25, 0.75)),
        CellHypothesis(Box(10.5, 40.5, 50.5, 60.5, 0.9), (0.1, 0.9, 0.0, 0.0), lines=(line, line)),
    )
    corners = [Point(x, y) for y in (0.5, 799.5) for x in (0.5, 500.25, 999.5)]
    doc = make_document(
        keypoints=OpeningKeypoints(*corners),
        tables=(TableDetection(Box(5.5, 5.5, 400.5, 300.5, 1.0), cells),),
        year_detections=(YearDetection(Box(100.5, 1.5, 160.5, 4.5, 0.9),
                                       TextHypothesis("1878", 0.9)),),
    )
    path = tmp_path / "source.jsonl"
    write_document(doc, str(path))
    return [json.loads(raw) for raw in path.read_text(encoding="utf-8").splitlines()]


FLOAT_EDGE_VALUES = (
    # class probabilities summing to 1 +- 1e-6 (kept as they are) and
    # 1 +- 1e-3 (renormalized), five of them, and each one just outside
    # [0, 1] (clamped)
    [0.5 + 1e-6, 0.5, 0.0, 0.0], [0.5 - 1e-6, 0.5, 0.0, 0.0],
    [0.5 + 1e-3, 0.5, 0.0, 0.0], [0.5 - 1e-3, 0.5, 0.0, 0.0], [0.2] * 5,
    *([1.0 + 1e-7 if i == j else 0.0 for j in range(4)] for i in range(4)),
    *([-1e-7 if i == j else 1.0 if j == (i + 1) % 4 else 0.0 for j in range(4)] for i in range(4)),
    1.0 + 1e-7, -1e-7,
    # coordinates at and just past the clamp tolerance of the table box
    # (5.5, 5.5, 400.5, 300.5)
    3.5, math.nextafter(3.5, 0.0), 402.5, math.nextafter(402.5, math.inf),
    302.5, math.nextafter(302.5, math.inf),
    # an empty box: the x_min of the text cell, the y_min of the one without
    10.5,
    1.0, 0.25,
    # a box and a text with a misspelt key
    {"x_min": 1.0, "y_min": 1.0, "x_max": 2.0, "y_max": 2.0, "conf": 1.0},
    {"text": "x", "conf": 0.5},
)


def test_every_single_field_mutation_of_a_float_document_reads_as_the_two_pass_reader(
    tmp_path, monkeypatch
):
    objs = float_document_lines(tmp_path)
    built = Counter()
    plain_cell = interchange._plain_cell

    def counted(*args):
        cell = plain_cell(*args)
        built[cell is not None] += 1
        return cell

    monkeypatch.setattr(interchange, "_plain_cell", counted)
    read_document(str(write_lines(tmp_path, objs)))
    # the cell with text and the one without are plain; the multi-line one is not
    assert built == {True: 2, False: 1}
    differences = two_pass_differences(tmp_path, objs, MUTATION_VALUES + FLOAT_EDGE_VALUES)
    assert differences == {"read": 3, "ParseError": 3}
    assert built[True] > 2000  # the mutations that keep a cell plain take the one check


def test_the_header_is_the_first_non_blank_line(tmp_path):
    objs = document_lines(tmp_path)
    path = tmp_path / "doc.jsonl"
    path.write_text("\n \n" + "\n".join(json.dumps(o) for o in objs) + "\n", encoding="utf-8")
    assert read_document(str(path)) == read_document(str(write_lines(tmp_path, objs)))
    for moved in (objs[1:2] + objs[:1] + objs[2:], objs[1:] + objs[:1]):
        with pytest.raises(ParseError) as err:
            read_document(str(write_lines(tmp_path, moved)))
        assert str(err.value) == "line 1: the document header must be the first non-blank line"


def test_a_bool_table_index_is_a_parse_error_naming_the_line(tmp_path):
    objs = document_lines(tmp_path)
    objs.insert(2, {"kind": "table", "box": objs[1]["box"]})
    for value in (False, True):
        objs[3]["table"] = value
        path = write_lines(tmp_path, objs)
        read_document_reference(str(path))  # filed under table 0 or 1
        with pytest.raises(ParseError) as err:
            read_document(str(path))
        assert str(err.value) == f"line 4: cell references unknown table {value}"


def test_lines_that_fail_alone_fail_at_the_first_one(tmp_path):
    text = '{"kind": "document", "pad": "\n"}\n{"kind": "year"}, {"kind": "year"}\n'
    lines = text.split("\n")[:3]
    # each line fails alone, but joined into one array they decode to three objects
    assert len(json.loads("[" + ",".join(lines) + "]")) == 3
    path = tmp_path / "doc.jsonl"
    path.write_text(text, encoding="utf-8")
    for reader in (read_document, read_document_reference):
        with pytest.raises(ParseError) as err:
            reader(str(path))
        assert err.value.path == "line 1"
        assert err.value.message.startswith("invalid JSON (Unterminated string")


# --- whitespace around a line: decoded as json.loads decodes it ----------------

# (name, layout of the lines, whether it reads, lines json.loads decodes)
WHITESPACE_LAYOUTS = [
    ("leading-spaces", lambda lines: ["  " + line for line in lines], True, "all"),
    ("trailing-tabs", lambda lines: [line + "\t\t" for line in lines], True, 0),
    # open() reads a CR before a newline as the line end
    ("trailing-cr", lambda lines: [line + "\r" for line in lines], True, 0),
    ("whitespace-only-line", lambda lines: lines[:2] + [" \t "] + lines[2:], True, 0),
    # U+3000 is whitespace to str.strip, not to JSON
    ("trailing-ideographic-space", lambda lines: lines[:2] + [lines[2] + "\u3000"] + lines[3:],
     False, 1),
    ("bom-before-the-first-line", lambda lines: ["\ufeff" + lines[0]] + lines[1:], False, 1),
]


@pytest.fixture
def loads_calls(monkeypatch):
    """The lines decoded by ``json.loads`` rather than by one scanner call."""
    calls = []
    loads = json.loads

    def counted(s, *args, **kwargs):
        calls.append(s)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    return calls


@pytest.mark.parametrize(
    "layout, reads, decoded_by_loads", [case[1:] for case in WHITESPACE_LAYOUTS],
    ids=[case[0] for case in WHITESPACE_LAYOUTS],
)
def test_whitespace_around_a_document_line_reads_as_the_two_pass_reader(
    tmp_path, loads_calls, layout, reads, decoded_by_loads
):
    objs = document_lines(tmp_path)
    lines = [json.dumps(o) for o in objs]
    plain = read_document(str(write_lines(tmp_path, objs)))
    path = tmp_path / "padded.jsonl"
    path.write_text("\n".join(layout(lines)) + "\n", encoding="utf-8")
    del loads_calls[:]
    new = read_outcome(read_document, path)
    assert len(loads_calls) == (len(lines) if decoded_by_loads == "all" else decoded_by_loads)
    ref = read_outcome(read_document_reference, path)
    assert new == ref
    if reads:
        assert new == ("read", repr(plain))
    else:
        assert new[0] == "ParseError" and new[1].startswith("invalid JSON (")


@pytest.mark.parametrize(
    "layout, reads, decoded_by_loads", [case[1:] for case in WHITESPACE_LAYOUTS],
    ids=[case[0] for case in WHITESPACE_LAYOUTS],
)
def test_whitespace_around_a_jsonl_record_line_reads_as_json_loads_reads_it(
    tmp_path, loads_calls, layout, reads, decoded_by_loads
):
    records = [make_record(i) for i in range(3)]
    path = tmp_path / "records.jsonl"
    write_records(records, str(path), format="jsonl")
    assert read_records(str(path), format="jsonl") == records
    assert loads_calls == []  # each line still ends in its newline
    lines = path.read_text(encoding="utf-8").splitlines()
    padded = layout(lines)
    path.write_text("\n".join(padded) + "\n", encoding="utf-8")
    if reads:
        assert read_records(str(path), format="jsonl") == records
    else:
        lineno, raw = next((n, new) for n, (new, old) in enumerate(zip(padded, lines), 1)
                           if new != old)
        with pytest.raises(ValueError) as expected:
            json.loads(raw)
        del loads_calls[:]
        with pytest.raises(ParseError) as err:
            read_records(str(path), format="jsonl")
        assert (err.value.message, err.value.path) == (
            f"invalid JSON ({expected.value.msg})", f"line {lineno}")
    assert len(loads_calls) == (len(lines) if decoded_by_loads == "all" else decoded_by_loads)


@pytest.mark.parametrize(
    "raw",
    ['{"a": [1, 2.5]}', '{"a": 1}\n', '[1]\r\n', "[1] \t\r\n ", "  [1]", "\t[1]\n",
     "[1]\u3000", "[1]\x0b", "[1]\x0c", "[1]\u00a0", "\ufeff[1]", "1 2", "[1]x", '"a"b',
     "", "  ", "-", "[Infinity, -Infinity]", "1e400", '{"a": 1, "a": 2}'],
)
def test_decode_json_line_returns_or_rejects_what_json_loads_does(raw):
    try:
        expected = ("value", repr(json.loads(raw)))
    except ValueError as exc:
        expected = ("ParseError", f"invalid JSON ({exc.msg})", "line 7")
    try:
        got = ("value", repr(decode_json_line(raw, 7)))
    except ParseError as exc:
        got = ("ParseError", exc.message, exc.path)
    assert got == expected


def test_an_error_after_a_blank_line_names_its_line_in_the_file(tmp_path):
    objs = document_lines(tmp_path)
    objs[2]["box"]["x_max"] = 1.0
    path = tmp_path / "doc.jsonl"
    path.write_text("\n".join(json.dumps(o) for o in objs[:2]) + "\n\n"
                    + "\n".join(json.dumps(o) for o in objs[2:]) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        read_document(str(path))
    assert str(err.value) == "line 4: box: x_min must be < x_max"


@pytest.mark.parametrize("bad_line", [1, 3])
def test_a_document_that_is_not_utf8_is_a_parse_error_naming_the_line(tmp_path, bad_line):
    path = tmp_path / "doc.jsonl"
    write_document(make_document(), str(path))
    lines = path.read_bytes().split(b"\n")
    lines[bad_line - 1] = b"\xff\xfe" + lines[bad_line - 1]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ParseError) as err:
        read_document(str(path))
    assert err.value.path == f"line {bad_line}"
    assert err.value.message == "not UTF-8 text (invalid start byte, byte 0xff)"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_records_file_that_is_not_utf8_is_a_parse_error_naming_the_line(tmp_path, fmt):
    path = tmp_path / f"records.{fmt}"
    write_records([make_record(i) for i in range(3)], str(path), format=fmt)
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b"Person", b"P\xe4rson")  # Latin-1, not UTF-8
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ParseError) as err:
        read_records(str(path), format=fmt)
    assert err.value.path == "line 3"
    assert err.value.message == "not UTF-8 text (invalid continuation byte, byte 0xe4)"


# --- one record check for both formats: the same outcomes as the two readers ----


def record_lines(tmp_path):
    """The objects of a two-record JSONL file: one with a parish and flags,
    one without a year or parish."""
    records = [
        make_record(0, flags=frozenset({"repetition_filled", "realigned"})),
        make_record(1, year=None, parish_raw=None, parish_canonical=None, direction="out"),
    ]
    path = tmp_path / "source.jsonl"
    write_records(records, str(path), format="jsonl")
    return [json.loads(raw) for raw in path.read_text(encoding="utf-8").splitlines()]


def records_outcome(reader, path, fmt):
    try:
        return ("read", repr(reader(str(path), format=fmt)))
    except InterchangeError as exc:
        return (type(exc).__name__, exc.message, exc.path)
    except Exception as exc:  # the two readers raised some bare errors
        return (type(exc).__name__, str(exc))


def not_a_string(value):
    return value is not DELETE and not isinstance(value, str)


def newly_rejected(keys, value):
    """The field a JSONL value is now rejected at, or None: the two readers
    took any JSON value for ids, parish names, field values and flags."""
    key = keys[0]
    if key in ("book_id", "opening_id") and len(keys) == 1 and not_a_string(value):
        return key
    if key in ("parish_raw", "parish_canonical") and value is not None and not_a_string(value):
        return key
    if key == "fields" and len(keys) == 2 and not_a_string(value):
        return f"fields.{keys[1]}"
    if key == "fields" and len(keys) == 1 and isinstance(value, dict):
        bad = [label for label, v in value.items() if not isinstance(v, str)]
        return f"fields.{bad[0]}" if bad else None
    if key == "flags" and len(keys) == 2 and not_a_string(value):
        return "flags"
    if key == "flags" and len(keys) == 1 and isinstance(value, list):
        return "flags" if any(not isinstance(v, str) for v in value) else None
    return None


def test_every_single_field_jsonl_record_mutation_reads_as_the_two_readers(tmp_path):
    objs = record_lines(tmp_path)
    differences = Counter()
    for line, obj in enumerate(objs):
        for keys in field_paths(obj):
            parent = obj
            for key in keys[:-1]:
                parent = parent[key]
            values = MUTATION_VALUES + ("left", "in", "realigned", ["realigned"], ["bogus"])
            for value in values + ((DELETE,) if isinstance(parent, dict) else ()):
                path = write_lines(tmp_path, mutate(objs, line, keys, value), name="r.jsonl")
                new = records_outcome(read_records, path, "jsonl")
                ref = records_outcome(read_records_reference, path, "jsonl")
                field = newly_rejected(keys, value)
                if field is None:
                    assert new == ref, (line, keys, value)
                    continue
                assert new[0] == "ParseError" and new[2] == f"line {line + 1}: {field}", (
                    keys, value, new)
                differences[ref[0]] += 1
    # values the two readers took, non-string flags they named "unknown flags
    # [5]", and unhashable flags they raised a bare TypeError for
    assert differences == {"read": 292, "ValidationError": 32, "TypeError": 14}


CSV_CELL_VALUES = (
    "", "x", "0", "-1", "1.5", " 1880", "1880 ", "+1880", "1_880", "True", "9" * 5000,
    "left", "right", "in", "out", "unknown", "realigned", "realigned;bogus", ";;",
    "a,b", 'say "x"', "two\nlines", DELETE,
)


def test_every_single_cell_csv_record_mutation_reads_as_the_two_readers(tmp_path):
    source = tmp_path / "source.csv"
    records = [make_record(0, flags=frozenset({"realigned"})),
               make_record(1, year=None, parish_raw=None, parish_canonical=None)]
    write_records(records, str(source), format="csv")
    with open(source, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    fixed = sum(not column.startswith("field:") for column in rows[0])
    outcomes = Counter()
    differences = Counter()
    for r, row in enumerate(rows):
        for c in range(len(row) + 1):
            for value in CSV_CELL_VALUES:
                mutated = copy.deepcopy(rows)
                if c == len(row):
                    if value is DELETE:
                        continue
                    mutated[r].append(value)  # a cell beyond the header
                elif value is DELETE:
                    del mutated[r][c]
                else:
                    mutated[r][c] = value
                path = tmp_path / "r.csv"
                with open(path, "w", encoding="utf-8", newline="") as handle:
                    csv.writer(handle, lineterminator="\n").writerows(mutated)
                new = records_outcome(read_records, path, "csv")
                ref = records_outcome(read_records_reference, path, "csv")
                outcomes[new[0]] += 1
                if r == 0 and c >= fixed and value is not DELETE:
                    # a field column without the "field:" prefix, which the
                    # two readers took under its text less six characters
                    assert new[0] == "ParseError" and new[2] == f"line 1: {value}", (c, value)
                    differences[ref[0]] += 1
                    continue
                assert new == ref, (r, c, value)
    assert outcomes["read"] and outcomes["ParseError"] and outcomes["ValidationError"]
    assert set(outcomes) == {"read", "ParseError", "ValidationError"}
    # each of the 22 values in each of the three field columns was read, and
    # as a column beyond the header it made every record row short
    assert differences == {"read": 66, "ParseError": 22}


@pytest.mark.parametrize(
    "keys, value, where",
    [
        (("book_id",), 7, "line 1: book_id"),
        (("opening_id",), None, "line 1: opening_id"),
        (("parish_raw",), 3, "line 1: parish_raw"),
        (("fields", "name"), 5, "line 1: fields.name"),
        (("flags",), [["realigned"]], "line 1: flags"),
        (("flags",), [1], "line 1: flags"),
    ],
    ids=["int-book-id", "null-opening-id", "int-parish", "int-field-value", "list-flag",
         "int-flag"],
)
def test_jsonl_non_string_values_are_parse_errors_naming_the_field(tmp_path, keys, value, where):
    objs = record_lines(tmp_path)
    path = write_lines(tmp_path, mutate(objs, 0, keys, value), name="r.jsonl")
    with pytest.raises(ParseError) as err:
        read_records(str(path), format="jsonl")
    assert err.value.path == where


def test_a_csv_cell_past_the_size_limit_is_a_parse_error_naming_the_line(tmp_path):
    path = tmp_path / "records.csv"
    write_records([make_record(0), make_record(1, fields={"name": "x" * 200_000})],
                  str(path), format="csv")
    with pytest.raises(ParseError) as err:
        read_records(str(path), format="csv")
    assert err.value.path == "line 3"
    assert err.value.message.startswith("invalid CSV (field larger than field limit")


FUZZ_CHARS = ',;"\n\r\\{}[]:0123456789 -.abe_' + "\x00\x85 "
FUZZ_VALUES = MUTATION_VALUES + (
    "left", "in", "realigned", ["realigned", "realigned"], {"x": "1"}, [[1]], {"a": None},
)


def fuzz_text(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(chars) + 1)
        action = rng.random()
        if action < 0.4 and i < len(chars):
            del chars[i]
        elif action < 0.7 and i < len(chars):
            chars[i] = rng.choice(FUZZ_CHARS)
        else:
            chars.insert(i, rng.choice(FUZZ_CHARS))
    return "".join(chars)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_mutated_record_files_read_or_raise_interchange_errors(tmp_path, fmt):
    rng = random.Random(20261018 + len(fmt))
    source = tmp_path / f"source.{fmt}"
    write_records([make_record(i) for i in range(3)], str(source), format=fmt)
    text = source.read_text(encoding="utf-8")
    objs = record_lines(tmp_path)
    fields = [(i, keys) for i, obj in enumerate(objs) for keys in field_paths(obj)]
    outcomes = Counter()
    for n in range(1500):
        path = tmp_path / f"m{n % 8}.{fmt}"
        if fmt == "jsonl" and rng.random() < 0.5:
            mutated = objs
            for _ in range(rng.randint(1, 3)):
                line, keys = rng.choice(fields)
                try:
                    mutated = mutate(mutated, line, keys, rng.choice(FUZZ_VALUES))
                except (KeyError, IndexError, TypeError):
                    pass  # an earlier mutation removed the path
            write_lines(tmp_path, mutated, name=path.name)
        else:
            path.write_text(fuzz_text(rng, text), encoding="utf-8", newline="")
        try:
            records = read_records(str(path), format=fmt)
        except InterchangeError as exc:
            outcomes[type(exc).__name__] += 1
            continue
        outcomes["read"] += 1
        # whatever reads writes back and reads again as the same records
        write_records(records, str(tmp_path / f"again.{fmt}"), format=fmt)
        assert read_records(str(tmp_path / f"again.{fmt}"), format=fmt) == records
    assert outcomes["read"] and outcomes["ParseError"] and outcomes["ValidationError"]
