import argparse
import csv
import json
import shutil
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from migrec.cells import ColumnSchema, read_schema_file
from migrec.chrono import ChronoConfig
from migrec.cli import (
    EXIT_FATAL,
    EXIT_OK,
    EXIT_PARTIAL,
    _config_value,
    _load_book_directions,
    build_parser,
    cmd_aggregate,
    cmd_eval,
    cmd_extract,
    cmd_normalize,
    cmd_report,
    cmd_synth,
    cmd_years,
    main,
)
from migrec.geometry import Homography, transform_box
from migrec.gridrec import GridConfig
from migrec.interchange import (
    Box,
    CellHypothesis,
    DetectionDocument,
    MigrationRecord,
    TableDetection,
    TextHypothesis,
    read_document,
    read_records,
    write_document,
    write_records,
)
from migrec import pipeline
from migrec.normalize import Gazetteer, detect_duplicate_books, match_parish
from migrec.pipeline import (
    EVAL_REPORTS,
    PipelineOptions,
    deskew_document,
    eval_reports,
    group_documents_by_book,
    process_book,
    process_opening,
    score_opening,
)
from migrec.synth import DEFAULT_SCHEMA, SynthConfig, generate_book, sample_gazetteer, write_corpus
from oracles import cmd_eval_reference


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    books = [generate_book(SynthConfig(seed=s), 5) for s in (0, 1, 2)]
    paths = write_corpus(books, out)
    gold_records = [r for b in books for fx in b.openings for r in fx.gold_records]
    return {"paths": paths, "books": books, "gold_records": gold_records, "dir": out}


def standard_options(paths):
    return PipelineOptions(
        schemas={"preprinted": read_schema_file(str(Path(paths["schemas"]) / "preprinted.tsv"))},
        gazetteer=Gazetteer.from_file(paths["gazetteer"]),
    )


def sort_key(record):
    return (record.book_id, record.opening_id, record.page_side, record.fields.get("ref_no", ""))


def test_extract_matches_gold_records(corpus, tmp_path):
    out_path = tmp_path / "records.jsonl"
    code = cmd_extract(
        corpus["paths"]["observed"],
        str(out_path),
        standard_options(corpus["paths"]),
        workers=1,
        records_format="jsonl",
    )
    assert code == EXIT_OK
    got = sorted(read_records(str(out_path), format="jsonl"), key=sort_key)
    gold = sorted(corpus["gold_records"], key=sort_key)
    assert got == gold
    summary = json.loads((tmp_path / "records.jsonl.summary.json").read_text())
    assert summary["openings_total"] == 15
    assert summary["counts"]["openings_processed"] == 15
    assert summary["failures"] == []


def test_extract_is_worker_count_invariant(corpus, tmp_path):
    outputs = []
    for workers in (1, 2):
        out_path = tmp_path / f"records_{workers}.jsonl"
        code = cmd_extract(
            corpus["paths"]["observed"],
            str(out_path),
            standard_options(corpus["paths"]),
            workers=workers,
            records_format="jsonl",
        )
        assert code == EXIT_OK
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]


def test_extract_starts_no_more_workers_than_books(corpus, cli_corpus, tmp_path, monkeypatch):
    import concurrent.futures

    started = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    for name, observed, pools in (("one", cli_corpus / "observed", []),
                                  ("three", corpus["paths"]["observed"], [3])):
        outputs = []
        for workers in (1, 4):
            out_path = tmp_path / f"{name}_{workers}.jsonl"
            assert cmd_extract(str(observed), str(out_path), PipelineOptions(), workers=workers) == EXIT_OK
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert started == pools, name  # one book runs in this process, three get three workers
        started.clear()


def test_parish_memo_gives_the_unmemoized_records(tmp_path, monkeypatch):
    book = generate_book(SynthConfig(seed=7, char_noise_prob=0.05), 6)
    paths = write_corpus([book], tmp_path / "corpus")
    options = standard_options(paths)
    ((book_id, files),) = group_documents_by_book(
        [str(p) for p in Path(paths["observed"]).glob("*.jsonl")]
    ).items()

    # every record matched on its own, as without the memo
    bare = process_book(book_id, files, replace(options, gazetteer=None))
    expected = []
    for record in bare.records:
        if record.parish_raw:
            result = match_parish(record.parish_raw, options.gazetteer, options.max_rel_dist)
            if result.canonical is not None:
                record = replace(record, parish_canonical=result.canonical)
            else:
                record = record.with_flags("unmatched_parish")
        expected.append(record)
    raws = Counter(r.parish_raw for r in bare.records if r.parish_raw)
    assert max(raws.values()) > 1  # the book repeats a raw parish string

    calls = []

    def counted(raw, *args):
        calls.append(raw)
        return match_parish(raw, *args)

    monkeypatch.setattr("migrec.pipeline.match_parish", counted)
    assert process_book(book_id, files, options).records == expected
    assert sorted(calls) == sorted(raws)  # one match per distinct string

    # normalize shares the memoized loop
    calls.clear()
    write_records(bare.records, str(tmp_path / "bare.jsonl"), format="jsonl")
    code = cmd_normalize(
        str(tmp_path / "bare.jsonl"),
        str(tmp_path / "normalized.jsonl"),
        paths["gazetteer"],
        max_rel_dist=options.max_rel_dist,
    )
    assert code == EXIT_OK
    normalized = read_records(str(tmp_path / "normalized.jsonl"), format="jsonl")
    assert [(r.parish_canonical, r.flags) for r in normalized] == [
        (r.parish_canonical, r.flags) for r in expected
    ]
    assert sorted(calls) == sorted(raws)
    monkeypatch.undo()

    write_records(expected, str(tmp_path / "expected.jsonl"), format="jsonl")
    for workers in (1, 2):
        out_path = tmp_path / f"records_{workers}.jsonl"
        code = cmd_extract(
            paths["observed"], str(out_path), options, workers=workers, records_format="jsonl"
        )
        assert code == EXIT_OK
        assert out_path.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


def test_extract_isolates_malformed_documents(corpus, tmp_path):
    broken_dir = tmp_path / "docs"
    broken_dir.mkdir()
    source = sorted(Path(corpus["paths"]["observed"]).glob("*.jsonl"))
    for path in source:
        (broken_dir / path.name).write_bytes(path.read_bytes())
    (broken_dir / "zz_broken.jsonl").write_text('{"kind": "document"\n', encoding="utf-8")
    out_path = tmp_path / "records.csv"
    code = cmd_extract(broken_dir, str(out_path), standard_options(corpus["paths"]), workers=1)
    assert code == EXIT_PARTIAL
    summary = json.loads((tmp_path / "records.csv.summary.json").read_text())
    assert summary["counts"]["openings_failed"] == 1
    assert summary["counts"]["openings_processed"] == 15
    assert len(summary["failures"]) == 1


def test_a_failed_grid_costs_only_its_table(corpus, tmp_path, monkeypatch):
    path = sorted(Path(corpus["paths"]["observed"]).glob("*.jsonl"))[2]
    doc = read_document(str(path))
    tables, _ = deskew_document(doc)
    index, failing_cells = next(
        (i, table.cells) for i, (side, table) in enumerate(tables) if side == "right"
    )
    grid = pipeline.complete_grid_with_retry

    def right_grid_fails(table_box, cells, cfg):
        if cells == failing_cells:
            raise ValueError("no bands")
        return grid(table_box, cells, cfg)

    def extract(name):
        out_path = tmp_path / f"{name}.jsonl"
        code = cmd_extract(corpus["paths"]["observed"], str(out_path),
                           standard_options(corpus["paths"]), workers=1, records_format="jsonl")
        summary = json.loads((tmp_path / f"{name}.jsonl.summary.json").read_text())
        return code, read_records(str(out_path), format="jsonl"), summary

    _, all_records, full = extract("full")
    monkeypatch.setattr("migrec.pipeline.complete_grid_with_retry", right_grid_fails)
    code, records, summary = extract("failed")
    assert code == EXIT_PARTIAL
    lost = [r for r in all_records if r.opening_id == doc.opening_id and r.page_side == "right"]
    assert lost and any(r.opening_id == doc.opening_id and r.page_side == "left" for r in records)
    assert records == [r for r in all_records if r not in lost]
    # the opening's pages stay observed in the year DP
    assert {k: n for k, n in summary["counts"].items() if k.startswith("year_")} == {
        k: n for k, n in full["counts"].items() if k.startswith("year_")
    }
    assert summary["counts"]["grids_failed"] == 1
    assert summary["counts"]["openings_processed"] == 15
    assert summary["failures"] == [
        [str(path), f"table {index}: grid reconstruction failed: no bands"]
    ]


@pytest.mark.parametrize("truncated", [False, True])
def test_extract_summary_counts_hold_no_zero(corpus, tmp_path, truncated):
    in_dir = tmp_path / "docs"
    shutil.copytree(corpus["paths"]["observed"], in_dir)
    if truncated:
        path = sorted(in_dir.glob("*.jsonl"))[3]
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
    out_path = tmp_path / "records.csv"
    code = cmd_extract(str(in_dir), str(out_path), standard_options(corpus["paths"]), workers=1)
    assert code == (EXIT_PARTIAL if truncated else EXIT_OK)
    counts = json.loads((tmp_path / "records.csv.summary.json").read_text())["counts"]
    assert counts.get("openings_failed", 0) == int(truncated)
    assert {key: n for key, n in counts.items() if n == 0} == {}


def test_a_row_that_fails_realignment_is_flagged_and_counted(tmp_path):
    # two rows of four cells; the second holds only numbers, which fits no
    # shift of an all-text schema, so it fails realignment and loses its parish
    schema = ColumnSchema(labels=("a", "b", "c", "parish"), kinds=("text", "text", "text", "parish"),
                          avg_lens=(10.0, 10.0, 10.0, 10.0))
    rows = (("Anna Berg", "piika", "Maria", "Turku"), ("123", "456", "789", "12"))
    cells = tuple(
        CellHypothesis(Box(100.0 * c, 50.0 + 40.0 * r, 100.0 * (c + 1), 90.0 + 40.0 * r, 0.9),
                       (1.0, 0.0, 0.0, 0.0), TextHypothesis(text, 0.9))
        for r, row in enumerate(rows) for c, text in enumerate(row)
    )
    doc = DetectionDocument("b_op0001", "b", 1000, 400, "handdrawn",
                            tables=(TableDetection(Box(0.0, 50.0, 400.0, 130.0, 0.9), cells),))
    write_document(doc, str(tmp_path / "b_op0001.jsonl"))
    result = process_book("b", [str(tmp_path / "b_op0001.jsonl")],
                          PipelineOptions(schemas={"handdrawn": schema}))
    assert result.summary["rows_realign_failed"] == 1
    assert "rows_realigned" not in result.summary  # no count is written as 0
    expected, failed = result.records
    assert (expected.parish_raw, expected.flags) == ("Turku", frozenset())
    assert failed.parish_raw is None
    assert failed.flags == {"realign_failed"}


def test_extract_empty_directory_is_fatal(tmp_path):
    assert cmd_extract(str(tmp_path), str(tmp_path / "r.csv"), PipelineOptions()) == EXIT_FATAL


def test_group_documents_by_book(corpus):
    files = sorted(str(p) for p in Path(corpus["paths"]["observed"]).glob("*.jsonl"))
    groups = group_documents_by_book(files)
    assert set(groups) == {"book0000", "book0001", "book0002"}
    assert all(len(v) == 5 for v in groups.values())


def test_eval_gold_against_itself_is_perfect(corpus, tmp_path):
    out_dir = tmp_path / "eval"
    code = cmd_eval(corpus["paths"]["gold"], corpus["paths"]["gold"], str(out_dir))
    assert code == EXIT_OK
    detection = (out_dir / "detection_metrics.csv").read_text().splitlines()
    assert detection[0] == "category,layout,accuracy,recall,precision,f1,tp,fp,fn"
    for line in detection[1:]:
        parts = line.split(",")
        assert parts[2:6] == ["100.0", "100.0", "100.0", "100.0"], line
        assert parts[7:9] == ["0", "0"]
    text = {row.split(",")[0]: row.split(",") for row in (out_dir / "text_metrics.csv").read_text().splitlines()[1:]}
    assert float(text["all"][1]) == 100.0
    assert float(text["all"][2]) == 0.0
    years = (out_dir / "year_metrics.csv").read_text().splitlines()
    for line in years[1:]:
        parts = line.split(",")
        assert parts[1:4] == ["100.0", "100.0", "100.0"], line
    cells = (out_dir / "cell_classification.csv").read_text().splitlines()
    for line in cells[1:]:
        label, *rest = line.split(",")
        if label in ("single_line", "multi_line", "repetition", "empty"):
            assert rest[0] == "100.0" and rest[1] == "100.0" and rest[2] == "100.0"
    skew = (out_dir / "skew_angles.csv").read_text().splitlines()
    assert any(row.startswith("deskewed,") for row in skew[1:])


def test_eval_leaves_out_a_text_class_with_no_lines(tmp_path):
    # two-column hand-drawn tables hold numbers only, so no line is textual
    corpus = tmp_path / "c"
    assert main(["synth", str(corpus), "--seed", "0", "--rows", "2", "2", "--cols", "2", "2",
                 "--layout", "handdrawn", "--count", "2"]) == EXIT_OK
    assert cmd_eval(str(corpus / "gold"), str(corpus / "gold"), str(tmp_path / "eval")) == EXIT_OK
    rows = read_csv_rows(tmp_path / "eval" / "text_metrics.csv")
    assert [(row["class"], row["exact_match"], row["cer"], row["support"]) for row in rows] == [
        ("numeric", "100.0", "0.0", "16"), ("all", "100.0", "0.0", "16")
    ]


def test_eval_observed_against_gold_reports_skew(tmp_path):
    skew_dir = tmp_path / "skewed"
    books = [generate_book(SynthConfig(seed=21, skew_degrees=(1.0, 3.0)), 4)]
    paths = write_corpus(books, skew_dir)
    out_dir = tmp_path / "eval"
    assert cmd_eval(paths["observed"], paths["gold"], str(out_dir)) == EXIT_OK
    rows = [r.split(",") for r in (out_dir / "skew_angles.csv").read_text().splitlines()[1:]]
    base = {r[1]: abs(float(r[2])) for r in rows if r[0] == "base"}
    deskewed = {r[1]: abs(float(r[2])) for r in rows if r[0] == "deskewed"}
    assert max(base.values()) > 0.5  # visible skew before correction
    assert max(deskewed.values()) < 1e-6


def read_csv_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def test_years_csv(corpus, tmp_path):
    # a book id with a comma must stay one quoted field
    comma_book = generate_book(SynthConfig(seed=5), 3, book_id="Elimäki, book 3")
    comma_paths = write_corpus([comma_book], tmp_path / "comma")
    for paths, books in ((corpus["paths"], corpus["books"]), (comma_paths, [comma_book])):
        out_path = tmp_path / "years.csv"
        assert cmd_years(paths["observed"], str(out_path), ChronoConfig()) == EXIT_OK
        rows = read_csv_rows(out_path)
        assert len(rows) == 2 * sum(len(book.openings) for book in books)
        truth = {
            (opening, side): year for book in books for opening, side, year in book.page_years
        }
        book_ids = {book.book_id for book in books}
        for row in rows:
            assert row["book_id"] in book_ids
            assert int(row["year"]) == truth[(row["opening_id"], row["side"])]
            assert row["source"] == "observed"
        gold = read_csv_rows(paths["years"])
        assert {(r["opening_id"], r["side"]): int(r["year"]) for r in gold} == truth


def test_years_builds_no_grids(corpus, tmp_path, monkeypatch):
    expected = tmp_path / "expected.csv"
    assert cmd_years(corpus["paths"]["observed"], str(expected), ChronoConfig()) == EXIT_OK

    def no_grid(*args, **kwargs):
        raise AssertionError("years reconstructed a grid")

    monkeypatch.setattr("migrec.pipeline.complete_grid_with_retry", no_grid)
    monkeypatch.setattr("migrec.cli.complete_grid_with_retry", no_grid)
    out_path = tmp_path / "years.csv"
    assert cmd_years(corpus["paths"]["observed"], str(out_path), ChronoConfig()) == EXIT_OK
    assert out_path.read_bytes() == expected.read_bytes()


def test_records_take_the_page_years_of_the_years_command(tmp_path):
    books = [generate_book(SynthConfig(seed=s, **NOISY), 8) for s in (71, 72)]
    paths = write_corpus(books, tmp_path / "corpus")
    records_path, years_path = tmp_path / "records.jsonl", tmp_path / "years.csv"
    options = standard_options(paths)
    assert cmd_extract(paths["observed"], str(records_path), options, workers=1,
                       records_format="jsonl") == EXIT_OK
    assert cmd_years(paths["observed"], str(years_path), ChronoConfig()) == EXIT_OK
    pages = {(row["opening_id"], row["side"]): row for row in read_csv_rows(years_path)}
    assert {row["source"] for row in pages.values()} > {"observed"}  # the DP does some work
    records = read_records(str(records_path), format="jsonl")
    assert {(r.opening_id, r.page_side) for r in records} == set(pages)
    for record in records:
        page = pages[(record.opening_id, record.page_side)]
        assert str(record.year) == page["year"]
        assert ("year_inferred" in record.flags) == (page["source"] != "observed")


def broken_document(observed_dir, kind):
    if kind == "truncated-json":
        return b'{"kind": "document", "opening_id": "zz", "book_id": "book0000"\n'
    if kind == "deep-header":  # nested past the recursion limit
        return b"[" * 200_000 + b"\n"
    source = sorted(Path(observed_dir).glob("*.jsonl"))[0].read_bytes()
    if kind == "not-utf8":
        return b"\xff\xfe" + source
    lines = source.decode("utf-8").split("\n")
    if kind == "header-second":
        return "\n".join([lines[1], lines[0]] + lines[2:]).encode("utf-8")
    header = json.loads(lines[0])
    header["book_id"] = ["x"]
    return "\n".join([json.dumps(header)] + lines[1:]).encode("utf-8")


@pytest.mark.parametrize(
    "kind", ["truncated-json", "list-book-id", "not-utf8", "deep-header", "header-second"]
)
def test_years_skips_a_malformed_document(corpus, tmp_path, caplog, kind):
    in_dir = tmp_path / "docs"
    shutil.copytree(corpus["paths"]["observed"], in_dir)
    expected = tmp_path / "expected.csv"
    assert cmd_years(str(in_dir), str(expected), ChronoConfig()) == EXIT_OK
    broken = in_dir / "zz_broken.jsonl"
    broken.write_bytes(broken_document(in_dir, kind))

    out_path = tmp_path / "years.csv"
    with caplog.at_level("WARNING", logger="migrec.cli"):
        assert main(["years", str(in_dir), str(out_path)]) == EXIT_PARTIAL
    assert str(broken) in caplog.text
    assert out_path.read_bytes() == expected.read_bytes()
    # extract skips the same document
    assert main(["extract", str(in_dir), str(tmp_path / "records.csv")]) == EXIT_PARTIAL


def test_a_repeated_opening_id_is_skipped_and_named(tmp_path, caplog):
    synth_dir = tmp_path / "c"
    assert main(["synth", str(synth_dir), "--seed", "3", "--count", "6"]) == EXIT_OK
    observed = synth_dir / "observed"
    first, last = observed / "book0003_op0000.jsonl", observed / "book0003_op0005.jsonl"
    rest = tmp_path / "rest"  # the corpus without the last document
    shutil.copytree(observed, rest)
    (rest / last.name).unlink()
    for command in ("extract", "years"):
        assert main([command, str(rest), str(tmp_path / f"{command}_rest.csv")]) == EXIT_OK
    last.write_text(last.read_text(encoding="utf-8").replace("book0003_op0005", "book0003_op0000"),
                    encoding="utf-8")

    failure = f"opening book0003_op0000 repeats {first}"
    for command in ("extract", "years"):
        out = tmp_path / f"{command}.csv"
        assert main([command, str(observed), str(out)]) == EXIT_PARTIAL
        assert out.read_bytes() == (tmp_path / f"{command}_rest.csv").read_bytes()
    assert f"skipping {last}: {failure}" in caplog.text
    summary = json.loads((tmp_path / "extract.csv.summary.json").read_text(encoding="utf-8"))
    assert summary["failures"] == [[str(last), failure]]
    assert "year_interpolated" not in summary["counts"]


def test_a_leading_blank_line_keeps_a_document_in_its_book(corpus, tmp_path):
    in_dir = tmp_path / "docs"
    shutil.copytree(corpus["paths"]["observed"], in_dir)
    outputs = []
    for name in ("plain", "blank"):
        if name == "blank":
            first = sorted(in_dir.glob("*.jsonl"))[0]
            first.write_text("\n" + first.read_text(encoding="utf-8"), encoding="utf-8")
        years, records = tmp_path / f"{name}_years.csv", tmp_path / f"{name}_records.csv"
        assert cmd_years(str(in_dir), str(years), ChronoConfig()) == EXIT_OK
        options = standard_options(corpus["paths"])
        assert cmd_extract(str(in_dir), str(records), options, workers=1) == EXIT_OK
        outputs.append((years.read_bytes(), records.read_bytes()))
    assert outputs[1] == outputs[0]
    assert b"<unreadable>" not in outputs[1][0]


def test_a_year_token_of_superscript_digits_loses_no_opening(corpus, tmp_path):
    in_dir = tmp_path / "docs"
    shutil.copytree(corpus["paths"]["observed"], in_dir)
    first = sorted(in_dir.glob("*.jsonl"))[0]
    lines = first.read_text(encoding="utf-8").split("\n")
    year_line = next(i for i, line in enumerate(lines) if '"kind": "year"' in line)
    obj = json.loads(lines[year_line])
    obj["text"]["text"] = "¹⁹¹⁴"
    lines[year_line] = json.dumps(obj, ensure_ascii=False)
    first.write_text("\n".join(lines), encoding="utf-8")
    opening_id = read_document(str(first)).opening_id
    years, records = tmp_path / "years.csv", tmp_path / "records.csv"
    assert main(["years", str(in_dir), str(years)]) == EXIT_OK
    assert opening_id in {row["opening_id"] for row in read_csv_rows(years)}
    assert main(["extract", str(in_dir), str(records), "--workers", "1"]) == EXIT_OK
    assert opening_id in {record.opening_id for record in read_records(str(records))}


def test_eval_fatal_error_names_the_file(corpus, tmp_path, caplog):
    pred_dir = tmp_path / "pred"
    shutil.copytree(corpus["paths"]["observed"], pred_dir)
    broken = sorted(pred_dir.glob("*.jsonl"))[1]
    broken.write_text(broken.read_text(encoding="utf-8")[:300], encoding="utf-8")
    with caplog.at_level("ERROR", logger="migrec.cli"):
        code = main(["eval", str(pred_dir), corpus["paths"]["gold"], str(tmp_path / "eval")])
    assert code == EXIT_FATAL
    assert f"fatal: {broken}: line 1: invalid JSON" in caplog.text


def test_deskew_document_without_keypoints_keeps_tables(corpus):
    path = sorted(Path(corpus["paths"]["observed"]).glob("*.jsonl"))[0]
    doc = replace(read_document(str(path)), keypoints=None)
    tables, transforms = deskew_document(doc)
    assert transforms == (None, None)
    assert [table for _, table in tables] == list(doc.tables)
    assert [side for side, _ in tables] == [
        doc.page_side(t.box.center.x, t.box.center.y) for t in doc.tables
    ]


def test_deskew_document_moves_every_box_by_its_side(tmp_path):
    book = generate_book(SynthConfig(seed=21, skew_degrees=(1.0, 3.0)), 1)
    paths = write_corpus([book], tmp_path / "skewed")
    path = sorted(Path(paths["observed"]).glob("*.jsonl"))[0]
    doc = read_document(str(path))
    tables, (h_left, h_right) = deskew_document(doc)
    assert h_left is not None and h_right is not None
    assert len(tables) == len(doc.tables)
    for (side, table), raw in zip(tables, doc.tables):
        assert side == doc.page_side(raw.box.center.x, raw.box.center.y)
        h = h_left if side == "left" else h_right
        assert table.box == transform_box(h, raw.box)
        for cell, raw_cell in zip(table.cells, raw.cells, strict=True):
            assert cell.box == transform_box(h, raw_cell.box)
            assert [line.box for line in cell.lines] == [
                transform_box(h, line.box) for line in raw_cell.lines
            ]
            assert (cell.class_probs, cell.text) == (raw_cell.class_probs, raw_cell.text)


def test_extract_to_a_jsonl_path_writes_what_normalize_and_aggregate_read(corpus, tmp_path):
    paths = corpus["paths"]
    records_path = str(tmp_path / "records.jsonl")
    code = main([
        "extract", paths["observed"], records_path, "--workers", "1",
        "--schema-dir", paths["schemas"], "--gazetteer", paths["gazetteer"],
    ])
    assert code == EXIT_OK
    got = sorted(read_records(records_path, format="jsonl"), key=sort_key)
    assert got == sorted(corpus["gold_records"], key=sort_key)
    normalized = str(tmp_path / "normalized.jsonl")
    assert main(["normalize", records_path, normalized, "--gazetteer", paths["gazetteer"]]) == EXIT_OK
    assert len(read_records(normalized, format="jsonl")) == len(got)
    assert main(["aggregate", records_path, str(tmp_path / "agg")]) == EXIT_OK


@pytest.mark.parametrize("how", ["flag", "config", "argument"])
def test_a_given_records_format_wins_over_the_path_suffix(corpus, tmp_path, how):
    paths = corpus["paths"]
    records_path = str(tmp_path / "records.jsonl")
    argv = ["extract", paths["observed"], records_path, "--workers", "1"]
    if how == "argument":
        code = cmd_extract(paths["observed"], records_path, PipelineOptions(), records_format="csv")
    elif how == "flag":
        code = main(argv + ["--format", "csv"])
    else:
        config = tmp_path / "run.cfg"
        config.write_text("format = csv\n", encoding="utf-8")
        code = main(["--config", str(config)] + argv)
    assert code == EXIT_OK
    assert len(read_records(records_path, format="csv")) == len(corpus["gold_records"])


def test_normalize_detects_planted_duplicate(tmp_path):
    book = generate_book(SynthConfig(seed=31), 4, book_id="book_orig")
    clone = generate_book(SynthConfig(seed=31), 4, book_id="book_copy")
    records = [r for fx in book.openings for r in fx.gold_records]
    records += [r for fx in clone.openings for r in fx.gold_records]
    records_path = tmp_path / "records.jsonl"
    write_records(records, str(records_path), format="jsonl")
    gaz_path = tmp_path / "gaz.tsv"
    sample_gazetteer().to_file(str(gaz_path))
    out_path = tmp_path / "normalized.jsonl"
    code = cmd_normalize(
        str(records_path), str(out_path), str(gaz_path), usable_only=True
    )
    assert code == EXIT_OK
    report = json.loads((tmp_path / "normalized.jsonl.report.json").read_text())
    assert [pair["removed"] for pair in report["duplicate_pairs"]] == ["book_orig"]
    kept = read_records(str(out_path), format="jsonl")
    assert {r.book_id for r in kept} == {"book_copy"}
    assert report["rejections"]["missing_direction"] == 0


def test_aggregate_counts_match_planted(tmp_path, corpus):
    records = corpus["gold_records"]
    records_path = tmp_path / "records.jsonl"
    write_records(records, str(records_path), format="jsonl")
    out_dir = tmp_path / "agg"
    assert cmd_aggregate(str(records_path), str(out_dir)) == EXIT_OK
    rows = list(csv.DictReader((out_dir / "aggregate_years.csv").open()))
    got = {(int(r["year"]), r["direction"]): int(r["count"]) for r in rows}
    expected = {}
    for r in records:
        key = (r.year, r.direction)
        expected[key] = expected.get(key, 0) + 1
    assert got == expected
    parish_rows = list(csv.DictReader((out_dir / "aggregate_parishes.csv").open()))
    assert sum(int(r["count"]) for r in parish_rows) == len(records)


def test_aggregate_excludes_unknown_direction(tmp_path):
    from migrec.interchange import MigrationRecord

    records = [
        MigrationRecord("b", "o1", "left", "in", 1880, {"x": "1"}, "Turku", "Turku"),
        MigrationRecord("b", "o2", "left", "unknown", 1880, {"x": "2"}, "Turku", "Turku"),
    ]
    path = tmp_path / "r.jsonl"
    write_records(records, str(path), format="jsonl")
    out_dir = tmp_path / "agg"
    cmd_aggregate(str(path), str(out_dir))
    summary = json.loads((out_dir / "aggregate_summary.json").read_text())
    assert summary["excluded_unknown_direction"] == 1
    rows = list(csv.DictReader((out_dir / "aggregate_years.csv").open()))
    assert sum(int(r["count"]) for r in rows) == 1


def test_aggregate_parish_filter(tmp_path, corpus):
    records_path = tmp_path / "records.jsonl"
    write_records(corpus["gold_records"], str(records_path), format="jsonl")
    target = corpus["gold_records"][0].parish_canonical
    out_dir = tmp_path / "agg"
    cmd_aggregate(str(records_path), str(out_dir), parish=target)
    rows = list(csv.DictReader((out_dir / "aggregate_parishes.csv").open()))
    assert {r["parish"] for r in rows} == {target}


def test_aggregate_csv_round_trips_a_comma_in_a_parish(tmp_path):
    records = [
        MigrationRecord("b", "o1", "left", "in", 1880, {"x": "1"}, "Pyhäjärvi", "Pyhäjärvi, Ol"),
        MigrationRecord("b", "o2", "left", "out", 1881, {"x": "2"}, "Turku", "Turku"),
    ]
    path = tmp_path / "r.jsonl"
    write_records(records, str(path), format="jsonl")
    out_dir = tmp_path / "agg"
    assert cmd_aggregate(str(path), str(out_dir)) == EXIT_OK
    with (out_dir / "aggregate_parishes.csv").open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows == [
        ["parish", "direction", "count"],
        ["Pyhäjärvi, Ol", "in", "1"],
        ["Turku", "out", "1"],
    ]
    text = (out_dir / "aggregate_years.csv").read_text(encoding="utf-8")
    assert text == "year,direction,count\n1880,in,1\n1881,out,1\n"


def test_cmd_report_reads_quoted_cells(tmp_path, capsys):
    (tmp_path / "text_metrics.csv").write_text(
        'split,support\n"Pyhäjärvi, Ol",12\n', encoding="utf-8"
    )
    assert cmd_report(str(tmp_path)) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:3] == ["split          support", "Pyhäjärvi, Ol  12     "]


def test_cmd_report_skips_empty_csv(tmp_path, capsys, caplog):
    (tmp_path / "detection_metrics.csv").write_text("", encoding="utf-8")
    (tmp_path / "text_metrics.csv").write_text("class,support\nall,3\n", encoding="utf-8")
    with caplog.at_level("WARNING", logger="migrec.cli"):
        assert cmd_report(str(tmp_path)) == EXIT_OK
    output = capsys.readouterr().out
    assert "detection_metrics.csv" not in output
    assert output.splitlines()[:3] == ["== text_metrics.csv", "class  support", "all    3      "]
    assert any("detection_metrics.csv" in r.getMessage() for r in caplog.records)


def test_cmd_synth_writes_corpus(tmp_path):
    code = cmd_synth(str(tmp_path / "c"), SynthConfig(seed=1), books=2, openings_per_book=2)
    assert code == EXIT_OK
    assert len(list((tmp_path / "c" / "observed").glob("*.jsonl"))) == 4
    assert (tmp_path / "c" / "gold_records.jsonl").exists()
    assert (tmp_path / "c" / "schemas" / "preprinted.tsv").exists()


@pytest.mark.parametrize("cols, layout", [((2, 2), "preprinted"), ((4, 4), "preprinted"), ((3, 3), "handdrawn")])
def test_narrow_layouts_extract_their_gold_records(tmp_path, cols, layout):
    # below five columns a table keeps the first template columns; read
    # without schemas, its records are col_<i> fields
    cfg = SynthConfig(seed=0, cols=cols, layout=layout)
    assert cmd_synth(str(tmp_path / "c"), cfg, openings_per_book=5) == EXIT_OK
    # no five-column schema ships with narrow preprinted tables
    assert (tmp_path / "c" / "schemas" / "preprinted.tsv").exists() is (layout != "preprinted")
    out_path = tmp_path / "records.jsonl"
    assert cmd_extract(str(tmp_path / "c" / "observed"), str(out_path), PipelineOptions()) == EXIT_OK
    gold = read_records(str(tmp_path / "c" / "gold_records.jsonl"), format="jsonl")
    assert gold and {len(r.fields) for r in gold} == {cols[0]}
    assert read_records(str(out_path), format="jsonl") == gold


def test_cmd_report_renders(tmp_path, corpus, capsys):
    out_dir = tmp_path / "eval"
    cmd_eval(corpus["paths"]["gold"], corpus["paths"]["gold"], str(out_dir))
    assert cmd_report(str(out_dir)) == EXIT_OK
    output = capsys.readouterr().out
    assert "detection_metrics.csv" in output
    assert "tables" in output


def test_main_cli_round_trip(tmp_path):
    synth_dir = tmp_path / "c"
    assert main(["synth", str(synth_dir), "--seed", "3", "--books", "1", "--count", "2"]) == EXIT_OK
    records = tmp_path / "records.csv"
    code = main(
        [
            "extract",
            str(synth_dir / "observed"),
            str(records),
            "--workers", "1",
            "--schema-dir", str(synth_dir / "schemas"),
            "--gazetteer", str(synth_dir / "gazetteer.tsv"),
        ]
    )
    assert code == EXIT_OK
    assert records.exists()
    parsed = read_records(str(records), format="csv")
    assert parsed and all(r.parish_canonical for r in parsed if r.parish_raw)


def test_main_config_file_defaults(tmp_path):
    synth_dir = tmp_path / "c"
    main(["synth", str(synth_dir), "--seed", "4", "--books", "1", "--count", "2"])
    config = tmp_path / "run.cfg"
    config.write_text(
        f"workers = 1\nschema_dir = {synth_dir / 'schemas'}\n"
        f"gazetteer = {synth_dir / 'gazetteer.tsv'}\nmin_year = 1700\n",
        encoding="utf-8",
    )
    records = tmp_path / "records.csv"
    code = main(["--config", str(config), "extract", str(synth_dir / "observed"), str(records)])
    assert code == EXIT_OK
    assert records.exists()


def test_config_booleans_are_strict(tmp_path, caplog):
    flag = argparse.ArgumentParser().add_argument(
        "--drop-duplicates", action=argparse.BooleanOptionalAction
    )
    for raw, value in (("1", True), ("TRUE", True), ("Yes", True), ("on", True),
                       ("0", False), ("false", False), ("NO", False), ("Off", False)):
        assert _config_value(flag, raw) is value
    with pytest.raises(ValueError, match="drop_duplicates.*'ture'"):
        _config_value(flag, "ture")

    synth_dir = tmp_path / "c"
    main(["synth", str(synth_dir), "--seed", "4", "--books", "1", "--count", "2"])
    config = tmp_path / "run.cfg"
    config.write_text("max_rel_dist = 0.2\ndrop_duplicates = ture\n", encoding="utf-8")
    out = tmp_path / "normalized.jsonl"
    code = main(["--config", str(config), "normalize", str(synth_dir / "gold_records.jsonl"),
                 str(out), "--gazetteer", str(synth_dir / "gazetteer.tsv")])
    assert code == EXIT_FATAL
    assert "drop_duplicates" in caplog.text and "'ture'" in caplog.text
    assert not out.exists()


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    synth_dir = tmp_path_factory.mktemp("cli") / "c"
    assert main(["synth", str(synth_dir), "--seed", "4", "--books", "1", "--count", "2",
                 "--skew", "-3", "3", "--cell-dropout-prob", "0.1"]) == EXIT_OK
    return synth_dir


def extract_args(synth_dir, records):
    return ["extract", str(synth_dir / "observed"), str(records), "--workers", "1",
            "--schema-dir", str(synth_dir / "schemas"), "--gazetteer", str(synth_dir / "gazetteer.tsv")]


def write_config(tmp_path, text):
    config = tmp_path / "run.cfg"
    config.write_text(text, encoding="utf-8")
    return str(config)


@pytest.mark.parametrize("kind", ["missing", "no-tsv"])
def test_a_schema_dir_without_schemas_is_fatal(cli_corpus, tmp_path, caplog, kind):
    schema_dir = tmp_path / "schemaz"
    if kind == "no-tsv":
        schema_dir.mkdir()
        (schema_dir / "preprinted.txt").write_text("ref\tnumeric\n", encoding="utf-8")
    records = tmp_path / "records.csv"
    args = ["extract", str(cli_corpus / "observed"), str(records), "--schema-dir", str(schema_dir)]
    assert main(args) == EXIT_FATAL
    assert f"fatal: schema directory {schema_dir} " in caplog.text
    assert not records.exists()


def test_a_schema_file_named_for_no_layout_is_fatal(cli_corpus, tmp_path, caplog):
    schema_dir = tmp_path / "schemas"
    schema_dir.mkdir()
    shutil.copy(cli_corpus / "schemas" / "preprinted.tsv", schema_dir / "preprint.tsv")
    records = tmp_path / "records.csv"
    args = ["extract", str(cli_corpus / "observed"), str(records), "--schema-dir", str(schema_dir)]
    assert main(args) == EXIT_FATAL
    assert f"fatal: schema file {schema_dir / 'preprint.tsv'} names no layout type" in caplog.text
    assert "handdrawn.tsv, preprinted.tsv, half_table.tsv, free_text.tsv, other.tsv" in caplog.text
    assert not records.exists()


@pytest.mark.parametrize(
    "name, text, message",
    [("schema", "ref\tnumeric;x\n", ":1: avg_len 'x' is not a number"),
     ("schema", "ref\tnumeric\n# note\nname\ttext\nref\ttext\n",
      ":4: column labels must be unique: 'ref' repeats"),
     ("schema", "ref\tnumeric\nname\tnames\n", ":2: unknown column kind 'names'"),
     ("schema", b"ref\tnumeric\n\xffname\ttext\n", ": line 2: not UTF-8 text"),
     ("schema", "# columns to come\n", ": no column lines"),
     ("gazetteer", "Turku\tÅbo\tAbo\n", ":1: expected at most one tab"),
     ("gazetteer", "Turku\tÅbo\n\nHelsinki\tÅbo\n",
      ":3: variant 'Åbo' maps to both 'Turku' and 'Helsinki'"),
     ("gazetteer", "Turku\nTurku\n", ":2: duplicate canonical name 'Turku'"),
     ("gazetteer", b"Turku\t\xc5bo\n", ": line 1: not UTF-8 text")],
    ids=["avg-len", "repeated-label", "unknown-kind", "schema-not-utf8", "no-columns", "two-tabs",
         "shared-variant", "repeated-parish", "gazetteer-not-utf8"],
)
def test_a_bad_schema_or_gazetteer_names_its_file_and_line(
    cli_corpus, tmp_path, caplog, name, text, message
):
    schema_dir, gazetteer = cli_corpus / "schemas", tmp_path / "gazetteer.tsv"
    path = gazetteer
    if name == "schema":
        schema_dir = tmp_path / "schemas"
        schema_dir.mkdir()
        path = schema_dir / "preprinted.tsv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    records = tmp_path / "records.csv"
    args = ["extract", str(cli_corpus / "observed"), str(records), "--workers", "1",
            "--schema-dir", str(schema_dir)]
    if name == "gazetteer":
        args += ["--gazetteer", str(path)]
    assert main(args) == EXIT_FATAL
    assert f"fatal: {path}{message}" in caplog.text
    assert not records.exists()


def test_eps_flags_take_a_number(cli_corpus, tmp_path):
    records = tmp_path / "records.csv"
    assert main([*extract_args(cli_corpus, records), "--eps-col", "25.5"]) == EXIT_OK
    assert records.exists()
    observed, gold = str(cli_corpus / "observed"), str(cli_corpus / "gold")
    assert main(["eval", observed, gold, str(tmp_path / "e"), "--eps-row", "30"]) == EXIT_OK


def test_an_eps_flag_and_the_same_config_key_write_the_same_records(cli_corpus, tmp_path):
    by_flag, by_config = tmp_path / "flag.csv", tmp_path / "config.csv"
    assert main([*extract_args(cli_corpus, by_flag), "--eps-row", "30"]) == EXIT_OK
    config = write_config(tmp_path, "eps_row = 30\n")
    assert main(["--config", config, *extract_args(cli_corpus, by_config)]) == EXIT_OK
    assert by_flag.read_bytes() == by_config.read_bytes()


def test_eval_ignores_the_config_keys_of_extract(cli_corpus, tmp_path, monkeypatch):
    def no_corrector(endpoint):
        raise AssertionError("eval built a corrector")

    monkeypatch.setattr("migrec.cli.HttpCorrectorClient", no_corrector)
    config = write_config(
        tmp_path, "workers = many\ncorrector_endpoint = http://127.0.0.1:9/\n"
    )
    out = tmp_path / "e"
    code = main(["--config", config, "eval", str(cli_corpus / "observed"), str(cli_corpus / "gold"),
                 str(out)])
    assert code == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == sorted(EVAL_REPORTS)


@pytest.mark.parametrize(
    "flag, read, default, by_config, by_flag",
    [
        ("--eps-row", lambda options: options.grid.eps_row, GridConfig().eps_row, 30.0, 40.5),
        ("--max-year", lambda options: options.chrono.max_year, ChronoConfig().max_year, 1900, 1910),
        ("--max-rel-dist", lambda options: options.max_rel_dist, PipelineOptions().max_rel_dist,
         0.1, 0.2),
    ],
    ids=["grid", "year", "max-rel-dist"],
)
def test_a_flag_beats_the_config_and_the_config_beats_the_default(
    cli_corpus, tmp_path, monkeypatch, flag, read, default, by_config, by_flag
):
    seen = []
    monkeypatch.setattr("migrec.cli.cmd_extract", lambda _in, _out, options, **kw: seen.append(options))
    key = flag[2:].replace("-", "_")
    config = write_config(tmp_path, f"{key} = {by_config}\n")
    args = extract_args(cli_corpus, tmp_path / "records.csv")
    for argv in (args, ["--config", config, *args], ["--config", config, *args, flag, str(by_flag)]):
        assert main(argv) is None  # what the stand-in returned
    assert [read(options) for options in seen] == [default, by_config, by_flag]


def test_workers_and_format_come_from_the_flag_then_the_config(cli_corpus, tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr("migrec.cli.cmd_extract", lambda *a, **kw: seen.append(kw))
    config = write_config(tmp_path, "workers = 3\nformat = jsonl\n")
    observed, records = str(cli_corpus / "observed"), str(tmp_path / "r")
    main(["--config", config, "extract", observed, records])
    main(["--config", config, "extract", observed, records, "--workers", "0", "--format", "csv"])
    assert [(kw["workers"], kw["records_format"]) for kw in seen] == [(3, "jsonl"), (0, "csv")]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_a_worker_count_below_one_is_fatal(cli_corpus, tmp_path, caplog, workers):
    records = tmp_path / "r.csv"
    with pytest.raises(ValueError, match="workers must be at least 1"):
        cmd_extract(str(cli_corpus / "observed"), str(records), PipelineOptions(), workers=int(workers))
    code = main(["extract", str(cli_corpus / "observed"), str(records), "--workers", workers])
    assert code == EXIT_FATAL
    assert "fatal: workers must be at least 1" in caplog.text
    assert not records.exists()


def test_a_config_value_a_command_rejects_names_its_line(cli_corpus, tmp_path, caplog):
    config = write_config(tmp_path, "workers = 0\n")
    records = tmp_path / "r.csv"
    assert main(["--config", config, "extract", str(cli_corpus / "observed"), str(records)]) == EXIT_FATAL
    assert caplog.text.rstrip().endswith(f"fatal: {config}:1: workers must be at least 1")
    assert not records.exists()


def test_the_default_worker_count_is_the_cpus_this_process_may_run_on(
    cli_corpus, tmp_path, monkeypatch
):
    seen = []
    monkeypatch.setattr("migrec.cli.cmd_extract", lambda *a, **kw: seen.append(kw["workers"]))
    monkeypatch.setattr("migrec.cli.os.cpu_count", lambda: 64)
    args = ["extract", str(cli_corpus / "observed"), str(tmp_path / "r.csv")]
    monkeypatch.setattr("migrec.cli.os.sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    main(args)
    monkeypatch.delattr("migrec.cli.os.sched_getaffinity")  # a platform without affinity
    main(args)
    assert seen == [3, 64]


@pytest.mark.parametrize(
    "text, message",
    [(None, "No such file or directory"),
     ("workers = 1\n# note\nworkers 2\n", ":3: expected key = value"),
     ("workers = 1\nmin_yaer = 1800\n", ":2: unknown config key 'min_yaer'"),
     ("workers = 1\nmerge_split_tables = yes\n", ":2: unknown config key 'merge_split_tables'")],
    ids=["missing", "no-equals", "unknown-key", "removed-merge-key"],
)
def test_a_bad_config_file_is_fatal_and_names_its_line(cli_corpus, tmp_path, caplog, text, message):
    config = write_config(tmp_path, text) if text else str(tmp_path / "absent.cfg")
    records = tmp_path / "years.csv"
    assert main(["--config", config, "years", str(cli_corpus / "observed"), str(records)]) == EXIT_FATAL
    assert "fatal: " in caplog.text and config in caplog.text and message in caplog.text
    if text:
        assert f"{config}{message}" in caplog.text
    assert not records.exists()


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_synth_without_flags_writes_synth_configs_defaults(tmp_path):
    assert main(["synth", str(tmp_path / "a"), "--count", "2"]) == EXIT_OK
    assert cmd_synth(str(tmp_path / "b"), SynthConfig(), openings_per_book=2) == EXIT_OK
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")


@pytest.mark.parametrize(
    "flags, call",
    [(["--skew", "-2", "1.5"], {"cfg": SynthConfig(skew_degrees=(-2.0, 1.5))}),
     (["--count", "3"], {"cfg": SynthConfig(), "openings_per_book": 3}),
     (["--format", "csv"], {"cfg": SynthConfig(), "records_format": "csv"}),
     (["--rows", "2", "4", "--cols", "3", "5", "--books", "2"],
      {"cfg": SynthConfig(rows=(2, 4), cols=(3, 5)), "books": 2})],
    ids=["skew", "count", "format", "ranges"],
)
def test_each_synth_flag_reaches_its_field(monkeypatch, flags, call):
    seen = {}
    monkeypatch.setattr("migrec.cli.cmd_synth", lambda out_dir, cfg, **kw: seen.update(cfg=cfg, **kw))
    main(["synth", "out", *flags])
    assert seen == call  # a range is a tuple: SynthConfig(cols=[3, 5]) != SynthConfig(cols=(3, 5))


@pytest.mark.parametrize(
    "flags, name, value",
    [(["--border-jitter", "nan"], "border_jitter", "nan"),
     (["--border-jitter", "inf"], "border_jitter", "inf"),
     (["--skew", "nan", "nan"], "skew_degrees", "nan"),
     (["--skew", "0", "inf"], "skew_degrees", "inf")],
    ids=["jitter-nan", "jitter-inf", "skew-nan", "skew-inf"],
)
def test_a_non_finite_synth_setting_is_rejected(tmp_path, caplog, flags, name, value):
    message = f"{name} must be a finite number, not {value}"
    setting = float(value) if name == "border_jitter" else (0.0, float(value))
    with pytest.raises(ValueError, match=f"^{message}$"):
        SynthConfig(**{name: setting})
    out = tmp_path / "c"
    assert main(["synth", str(out), "--count", "2", *flags]) == EXIT_FATAL
    assert caplog.text.rstrip().endswith(f"fatal: {message}")
    assert not out.exists()


@pytest.mark.parametrize("key", ["seed", "openings_per_book", "skew_degrees"])
def test_synth_options_are_flags_only(tmp_path, caplog, key):
    config = write_config(tmp_path, f"format = csv\n{key} = 3\n")
    assert main(["--config", config, "synth", str(tmp_path / "c")]) == EXIT_FATAL
    assert f"{config}:2: unknown config key '{key}'" in caplog.text
    assert not (tmp_path / "c").exists()
    # extract's format key sets nothing on synth
    config = write_config(tmp_path, "format = csv\n")
    assert main(["--config", config, "synth", str(tmp_path / "c"), "--count", "1"]) == EXIT_OK
    assert (tmp_path / "c" / "gold_records.jsonl").exists()


def test_one_config_file_serves_every_subcommand(cli_corpus, tmp_path):
    config = write_config(
        tmp_path,
        f"workers = 1\nschema_dir = {cli_corpus / 'schemas'}\ngazetteer = {cli_corpus / 'gazetteer.tsv'}\n"
        "eps_row = auto\nmin_year = 1750\ndrop_duplicates = no\ndup_threshold = 0.8\n",
    )
    observed, gold = str(cli_corpus / "observed"), str(cli_corpus / "gold")
    for command in (["extract", observed, str(tmp_path / "r.csv")],
                    ["years", observed, str(tmp_path / "y.csv")],
                    ["eval", observed, gold, str(tmp_path / "e")]):
        assert main(["--config", config, *command]) == EXIT_OK, command


@pytest.mark.parametrize(
    "text, lines, message",
    [("workers = 1\neps_row = -1\n", (2,), "eps_row must be positive"),
     ("min_pts = 0\n", (1,), "min_pts must be at least 1"),
     ("min_year = 1950\n", (1,), "min_year must not exceed max_year"),
     ("max_year = 1690\n# both named\nmin_year = 1750\n", (3, 1),
      "min_year must not exceed max_year"),
     ("max_jump = -2\n", (1,), "max_jump must be non-negative"),
     ("eps_row = nan\n", (1,), "eps_row must be a finite number, not nan"),
     ("workers = 1\neps_col = inf\n", (2,), "eps_col must be a finite number, not inf")],
    ids=["eps-row", "min-pts", "min-year", "both-years", "max-jump", "eps-row-nan", "eps-col-inf"],
)
def test_a_config_value_the_library_rejects_names_its_line(
    cli_corpus, tmp_path, caplog, text, lines, message
):
    config = write_config(tmp_path, text)
    where = ", ".join(f"{config}:{line}" for line in lines)
    out = tmp_path / "e"
    args = ["eval", str(cli_corpus / "observed"), str(cli_corpus / "gold"), str(out)]
    assert main(["--config", config, *args]) == EXIT_FATAL
    assert caplog.text.rstrip().endswith(f"fatal: {where}: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [(["--eps-row", "-1"], "eps_row must be positive"),
     (["--min-year", "1950"], "min_year must not exceed max_year")],
    ids=["eps-row", "min-year"],
)
def test_a_flag_value_the_library_rejects_keeps_its_message(
    cli_corpus, tmp_path, caplog, flags, message
):
    config = write_config(tmp_path, "workers = 1\n")
    args = ["eval", str(cli_corpus / "observed"), str(cli_corpus / "gold"), str(tmp_path / "e")]
    assert main(["--config", config, *args, *flags]) == EXIT_FATAL
    assert caplog.text.rstrip().endswith(f"fatal: {message}")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["eps_row", "eps_col"])
def test_a_non_finite_eps_is_rejected(cli_corpus, tmp_path, caplog, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a finite number, not {value}$"):
        GridConfig(**{name: value})
    records = tmp_path / "records.csv"
    flag = f"--{name.replace('_', '-')}={value}"  # "=" keeps argparse from reading "-inf" as a flag
    assert main([*extract_args(cli_corpus, records), flag]) == EXIT_FATAL
    assert caplog.text.rstrip().endswith(f"fatal: {name} must be a finite number, not {value}")
    assert not records.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_max_rel_dist_is_rejected(corpus, cli_corpus, tmp_path, caplog, value):
    message = f"max_rel_dist must be a finite number, not {value}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        PipelineOptions(max_rel_dist=value)
    gazetteer = Gazetteer.from_file(corpus["paths"]["gazetteer"])
    with pytest.raises(ValueError, match=f"^{message}$"):
        pipeline.match_parishes(corpus["gold_records"], gazetteer, value)
    records = tmp_path / "records.csv"
    assert main([*extract_args(cli_corpus, records), f"--max-rel-dist={value}"]) == EXIT_FATAL
    assert caplog.text.rstrip().endswith(f"fatal: {message}")
    assert not records.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_dup_threshold_is_rejected(value):
    books = {"a": [], "b": []}
    with pytest.raises(ValueError, match=f"^dup_threshold must be a finite number, not {value}$"):
        detect_duplicate_books(books, value)


@pytest.mark.parametrize(
    "command, key",
    [("extract", "max_rel_dist"), ("normalize", "max_rel_dist"), ("normalize", "dup_threshold")],
)
def test_a_non_finite_parish_setting_names_its_config_line(corpus, tmp_path, caplog, command, key):
    paths = corpus["paths"]
    records = str(tmp_path / "records.jsonl")
    write_records(corpus["gold_records"], records)
    config = write_config(tmp_path, f"drop_duplicates = yes\n{key} = nan\n")
    out = tmp_path / "out.jsonl"
    args = {"extract": ["extract", paths["observed"], str(out), "--workers", "1",
                        "--gazetteer", paths["gazetteer"]],
            "normalize": ["normalize", records, str(out), "--gazetteer", paths["gazetteer"]]}
    assert main(["--config", config, *args[command]]) == EXIT_FATAL
    assert caplog.text.rstrip().endswith(f"fatal: {config}:2: {key} must be a finite number, not nan")
    assert not out.exists()


def moved(table: TableDetection, h: Homography) -> TableDetection:
    """The table with its own, cell and line boxes moved by ``h``."""
    cells = tuple(
        replace(cell, box=transform_box(h, cell.box),
                lines=tuple(replace(line, box=transform_box(h, line.box)) for line in cell.lines))
        for cell in table.cells
    )
    return TableDetection(transform_box(h, table.box), cells)


def test_tables_near_the_spine_keep_every_record(tmp_path):
    book = generate_book(SynthConfig(seed=5, rows=(8, 8)), 4)
    paths = write_corpus([book], tmp_path / "c")
    for fixture in book.openings:  # move each page's table 110 px toward the spine
        doc = fixture.document
        shift = {"left": Homography.translation(110.0, 0.0),
                 "right": Homography.translation(-110.0, 0.0)}
        tables = tuple(moved(t, shift[doc.page_side(t.box.center.x, t.box.center.y)])
                       for t in doc.tables)
        write_document(replace(doc, tables=tables),
                       str(Path(paths["observed"]) / f"{doc.opening_id}.jsonl"))

    out_path = tmp_path / "records.jsonl"
    code = cmd_extract(paths["observed"], str(out_path), standard_options(paths),
                       workers=1, records_format="jsonl")
    assert code == EXIT_OK
    got = sorted(read_records(str(out_path), format="jsonl"), key=sort_key)
    gold = sorted((r for fx in book.openings for r in fx.gold_records), key=sort_key)
    assert len(gold) == 62
    assert got == gold
    assert {(r.page_side, r.direction) for r in got} == {("left", "in"), ("right", "out")}

    with pytest.raises(SystemExit) as exc:  # the merge switch is gone with the merge
        main(["extract", paths["observed"], str(tmp_path / "r.csv"), "--merge-split-tables"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "right_first, raise_right, sides",
    [(True, 40.0, ["right", "left"]), (False, 40.0, ["right", "left"]),
     (True, 0.0, ["left", "right"])],
    ids=["right-listed-first-and-higher", "right-higher", "right-listed-first"],
)
def test_grids_come_in_deskewed_reading_order(right_first, raise_right, sides):
    book = generate_book(SynthConfig(seed=21, skew_degrees=(1.0, 3.0)), 1)
    doc = book.openings[0].document
    left, right = sorted(doc.tables, key=lambda t: t.box.x_min)
    right = moved(right, Homography.translation(0.0, -raise_right))
    doc = replace(doc, tables=(right, left) if right_first else (left, right))
    grids = process_opening(doc, GridConfig(), ChronoConfig()).grids
    assert [side for side, _ in grids] == sides
    deskewed = [table.box for _, table in deskew_document(doc)[0]]
    assert [grid.table_box for _, grid in grids] == sorted(
        deskewed, key=lambda box: (box.y_min, box.x_min)
    )


@pytest.mark.parametrize(
    "line", ["book0004\tinward\n", "book0004 in\n"], ids=["unknown-mode", "no-tab"]
)
def test_bad_book_directions_file_fails_before_any_book(tmp_path, caplog, line):
    synth_dir = tmp_path / "c"
    main(["synth", str(synth_dir), "--seed", "4", "--books", "1", "--count", "2"])
    directions = tmp_path / "directions.tsv"
    directions.write_text("# book\tmode\nbook0003\tin\n" + line, encoding="utf-8")
    records = tmp_path / "records.csv"
    code = main(
        ["extract", str(synth_dir / "observed"), str(records), "--workers", "1",
         "--book-directions", str(directions)]
    )
    assert code == EXIT_FATAL
    assert f"{directions}:3:" in caplog.text
    assert "in, out, mixed" in caplog.text
    assert not records.exists()  # no book was processed
    with pytest.raises(ValueError, match=r"directions\.tsv:3: "):
        _load_book_directions(str(directions))


def test_book_directions_set_the_direction_of_every_record_of_a_listed_book(tmp_path):
    synth_dir = tmp_path / "c"
    assert main(["synth", str(synth_dir), "--seed", "4", "--books", "3", "--count", "2"]) == EXIT_OK
    directions = tmp_path / "directions.tsv"
    directions.write_text("book0004\tin\nbook0005\tout\n", encoding="utf-8")
    records = tmp_path / "records.jsonl"
    assert main(["extract", str(synth_dir / "observed"), str(records), "--workers", "1",
                 "--book-directions", str(directions)]) == EXIT_OK
    seen: dict[str, set] = {}
    for record in read_records(str(records)):
        seen.setdefault(record.book_id, set()).add((record.page_side, record.direction))
    assert seen == {
        "book0004": {("left", "in"), ("right", "in")},
        "book0005": {("left", "out"), ("right", "out")},
        "book0006": {("left", "in"), ("right", "out")},  # unlisted: mixed
    }


def test_pipeline_options_reject_an_unknown_direction_mode():
    with pytest.raises(ValueError, match="^unknown direction mode 'sideways' for book b$"):
        PipelineOptions(book_directions={"b": "sideways"})


def test_extract_without_keypoints(corpus, tmp_path):
    # documents missing keypoints skip de-skew and assign sides by midline
    from dataclasses import replace

    from migrec.interchange import read_document, write_document

    plain_dir = tmp_path / "plain"
    plain_dir.mkdir()
    for path in sorted(Path(corpus["paths"]["observed"]).glob("book0000_*.jsonl")):
        doc = read_document(str(path))
        write_document(replace(doc, keypoints=None), str(plain_dir / path.name))
    out_path = tmp_path / "records.jsonl"
    code = cmd_extract(
        str(plain_dir), str(out_path), standard_options(corpus["paths"]),
        workers=1, records_format="jsonl",
    )
    assert code == EXIT_OK
    got = sorted(read_records(str(out_path), format="jsonl"), key=sort_key)
    gold = sorted(
        (r for r in corpus["gold_records"] if r.book_id == "book0000"), key=sort_key
    )
    assert got == gold  # zero-noise corpus needs no de-skew to begin with


def test_eval_splits_handdrawn_layout(tmp_path):
    books = [generate_book(SynthConfig(seed=51, layout="handdrawn"), 3)]
    paths = write_corpus(books, tmp_path / "hand")
    out_dir = tmp_path / "eval"
    assert cmd_eval(paths["observed"], paths["gold"], str(out_dir)) == EXIT_OK
    rows = (out_dir / "detection_metrics.csv").read_text().splitlines()[1:]
    layouts = {line.split(",")[1] for line in rows}
    assert layouts == {"handdrawn", "all"}


def test_extract_handdrawn_uses_positional_labels(tmp_path):
    books = [generate_book(SynthConfig(seed=52, layout="handdrawn"), 2)]
    paths = write_corpus(books, tmp_path / "hand")
    out_path = tmp_path / "records.jsonl"
    code = cmd_extract(
        paths["observed"], str(out_path),
        PipelineOptions(gazetteer=sample_gazetteer()),
        workers=1, records_format="jsonl",
    )
    assert code == EXIT_OK
    got = sorted(read_records(str(out_path), format="jsonl"), key=sort_key)
    gold = sorted((r for b in books for fx in b.openings for r in fx.gold_records), key=sort_key)
    assert [r.fields for r in got] == [r.fields for r in gold]
    assert all(set(r.fields) == {f"col_{i}" for i in range(5)} for r in got)
    assert all(r.parish_raw is None for r in got)  # no schema, no parish column


def test_process_book_with_mock_corrector(corpus):
    class DecreasingClient:
        def correct_years(self, pages_raw):
            return list(range(1900, 1900 - len(pages_raw), -1))

    options = PipelineOptions(
        schemas={"preprinted": DEFAULT_SCHEMA},
        gazetteer=sample_gazetteer(),
        corrector=DecreasingClient(),
    )
    files = sorted(
        str(p)
        for p in Path(corpus["paths"]["observed"]).glob("book0000_*.jsonl")
    )
    result = process_book("book0000", files, options)
    # the decreasing answer was rejected; rule-based inference still fills years
    truth = {
        (opening, side): year
        for opening, side, year in corpus["books"][0].page_years
    }
    for record in result.records:
        assert record.year == truth[(record.opening_id, record.page_side)]


# --- eval: per-opening scores and one merge ---------------------------------

NOISY = dict(
    skew_degrees=(-3.0, 3.0),
    cell_dropout_prob=0.1,
    char_noise_prob=0.05,
    year_corruption_prob=0.1,
    border_jitter=2.0,
)


@pytest.fixture(scope="module")
def eval_corpus(tmp_path_factory):
    """Two noisy books, a handdrawn one, predicted cells of the wrong class, a
    prediction without keypoints and a gold document without a prediction."""
    books = [generate_book(SynthConfig(seed=s, **NOISY), 4) for s in (61, 62)]
    books.append(generate_book(SynthConfig(seed=63, layout="handdrawn", **NOISY), 3))
    paths = write_corpus(books, tmp_path_factory.mktemp("eval_corpus"))
    observed = sorted(Path(paths["observed"]).glob("*.jsonl"))
    doc = read_document(str(observed[0]))
    table = doc.tables[0]
    cells = [replace(c, class_probs=(0.0, 0.0, 1.0, 0.0)) if i % 4 == 0 and not c.lines else c
             for i, c in enumerate(table.cells)]
    tables = (replace(table, cells=tuple(cells)),) + doc.tables[1:]
    write_document(replace(doc, tables=tables), str(observed[0]))
    doc = read_document(str(observed[1]))
    write_document(replace(doc, keypoints=None), str(observed[1]))
    observed[2].unlink()
    return paths


def test_eval_reports_are_the_bytes_of_the_inline_reference(eval_corpus, tmp_path):
    for run, out_dir in ((cmd_eval, tmp_path / "new"), (cmd_eval_reference, tmp_path / "ref")):
        assert run(eval_corpus["observed"], eval_corpus["gold"], str(out_dir)) == EXIT_OK
    for name in EVAL_REPORTS:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
    detection = read_csv_rows(tmp_path / "new" / "detection_metrics.csv")
    assert {row["layout"] for row in detection} == {"preprinted", "handdrawn", "all"}
    skew = read_csv_rows(tmp_path / "new" / "skew_angles.csv")
    # 10 openings scored, one prediction without keypoints
    assert [int(row["n"]) for row in skew] == [9] * 6


def test_score_opening_of_gold_against_itself_is_perfect(eval_corpus):
    path = sorted(Path(eval_corpus["gold"]).glob("*.jsonl"))[0]
    doc = read_document(str(path))
    assert doc.keypoints is not None
    score = score_opening(doc, doc, GridConfig(), ChronoConfig())
    assert score.detections["tables"].tp == len(doc.tables)
    for kind in ("tables", "rows", "columns"):
        counts = score.detections[kind]
        assert counts.tp > 0 and counts.fp == counts.fn == 0, kind
    assert sum(score.confusion.values()) == sum(len(t.cells) for t in doc.tables)
    assert all(gold == pred for gold, pred in score.confusion)
    assert all(pred == gold for pred, gold in score.text_pairs)
    assert [(stage, edge) for stage, edge, _ in score.angles] == [
        (stage, edge) for edge in ("left", "middle", "right") for stage in ("base", "deskewed")
    ]
    assert score.pred_pages == score.gold_pages


def test_eval_reports_of_no_openings():
    reports = eval_reports([], ChronoConfig())
    assert {name: header for name, (header, _) in reports.items()} == EVAL_REPORTS
    assert reports["detection_metrics.csv"][1] == []
    assert reports["cell_classification.csv"][1] == []
    assert reports["skew_angles.csv"][1] == []
    assert reports["text_metrics.csv"][1] == []
    assert reports["year_metrics.csv"][1] == [
        ("raw", 0.0, 0.0, 0.0, 0), ("rule_corrected", 0.0, 0.0, 0.0, 0)
    ]


def test_a_gold_class_never_predicted_scores_zero_precision():
    # 3 gold single-line cells: 2 read as single-line, 1 as empty; the one
    # gold multi-line cell reads as single-line, so nothing is multi-line
    confusion = Counter({
        ("single_line", "single_line"): 2, ("single_line", "empty"): 1,
        ("multi_line", "single_line"): 1,
    })
    score = pipeline.OpeningScore(
        book_id="b", layout_type="preprinted", detections={}, confusion=confusion,
        text_pairs=[], pred_pages={}, gold_pages={}, angles=[], failures=[],
    )
    rows = {row[0]: row for row in eval_reports([score], ChronoConfig())["cell_classification.csv"][1]}
    # label, precision, recall, f1, support
    assert rows["multi_line"] == ("multi_line", 0.0, 0.0, 0.0, 1)
    assert rows["single_line"] == ("single_line", 66.7, 66.7, 66.7, 3)
    assert "empty" not in rows and "repetition" not in rows  # no gold support


def test_eval_rejects_two_documents_with_one_name(corpus, tmp_path, caplog):
    gold_dir = tmp_path / "gold"
    shutil.copytree(corpus["paths"]["gold"], gold_dir / "s1")
    shutil.copytree(corpus["paths"]["gold"], gold_dir / "s2")
    with caplog.at_level("ERROR", logger="migrec.cli"):
        code = cmd_eval(corpus["paths"]["observed"], str(gold_dir), str(tmp_path / "eval"))
    assert code == EXIT_FATAL
    name = sorted(p.name for p in (gold_dir / "s1").glob("*.jsonl"))[0]
    assert str(gold_dir / "s1" / name) in caplog.text
    assert str(gold_dir / "s2" / name) in caplog.text


def test_eval_has_detection_rows_for_every_layout(eval_corpus, tmp_path):
    gold_dir = tmp_path / "gold"
    shutil.copytree(eval_corpus["gold"], gold_dir)
    for path, layout in zip(sorted(gold_dir.glob("*.jsonl")), ("half_table", "other")):
        write_document(replace(read_document(str(path)), layout_type=layout), str(path))
    out_dir = tmp_path / "eval"
    assert cmd_eval(eval_corpus["observed"], str(gold_dir), str(out_dir)) == EXIT_OK
    rows = read_csv_rows(out_dir / "detection_metrics.csv")
    layouts = ["preprinted", "handdrawn", "half_table", "other", "all"]
    for kind in ("tables", "rows", "columns"):
        assert [row["layout"] for row in rows if row["category"] == kind] == layouts
    by_layout = {row["layout"]: int(row["tp"]) + int(row["fn"]) for row in rows
                 if row["category"] == "tables"}
    assert by_layout["all"] == sum(n for layout, n in by_layout.items() if layout != "all")


def test_eval_grid_failure_names_the_opening(corpus, tmp_path, caplog, monkeypatch):
    def failing_grid(*args, **kwargs):
        raise ValueError("no bands")

    monkeypatch.setattr("migrec.pipeline.complete_grid_with_retry", failing_grid)
    with caplog.at_level("WARNING", logger="migrec.pipeline"):
        code = cmd_eval(corpus["paths"]["observed"], corpus["paths"]["gold"], str(tmp_path))
    assert code == EXIT_PARTIAL
    opening_id = read_document(sorted(Path(corpus["paths"]["gold"]).glob("*.jsonl"))[0]).opening_id
    assert f"opening {opening_id}: table 0: grid reconstruction failed: no bands" in caplog.text
    assert "grid reconstruction failed for 60 tables" in caplog.text  # 15 openings, both documents
    rows = read_csv_rows(tmp_path / "detection_metrics.csv")
    assert [row["category"] for row in rows] == ["tables", "tables"]


def test_eval_warns_of_a_prediction_without_gold(corpus, tmp_path, caplog):
    pred_dir = tmp_path / "pred"
    shutil.copytree(corpus["paths"]["gold"], pred_dir)
    shutil.copy(sorted(pred_dir.glob("*.jsonl"))[0], pred_dir / "zz_extra.jsonl")
    with caplog.at_level("WARNING", logger="migrec.cli"):
        assert cmd_eval(str(pred_dir), corpus["paths"]["gold"], str(tmp_path / "eval")) == EXIT_OK
    assert "no gold document for zz_extra.jsonl" in caplog.text
    assert "no prediction" not in caplog.text


def test_eval_keys_a_page_by_its_book(tmp_path):
    # two books whose openings share their ids (op0000..op0002) score as
    # they do with the synth ids, which are unique across books
    books = [generate_book(SynthConfig(seed=s, year_corruption_prob=0.3), 3) for s in (3, 40)]
    paths = write_corpus(books, tmp_path / "unique")
    for kind in ("observed", "gold"):
        repeated = tmp_path / "repeated" / kind
        repeated.mkdir(parents=True)
        for path in Path(paths[kind]).glob("*.jsonl"):
            doc = read_document(str(path))
            opening = doc.opening_id.rsplit("_", 1)[1]
            write_document(replace(doc, opening_id=opening), str(repeated / path.name))
    runs = []
    for name in ("unique", "repeated"):
        out_dir = tmp_path / f"eval_{name}"
        assert cmd_eval(str(tmp_path / name / "observed"), str(tmp_path / name / "gold"),
                        str(out_dir)) == EXIT_OK
        runs.append({report: (out_dir / report).read_bytes() for report in EVAL_REPORTS})
    assert runs[1] == runs[0]
    years = read_csv_rows(tmp_path / "eval_repeated" / "year_metrics.csv")
    assert [row["pages"] for row in years] == ["12", "12"]


@pytest.mark.parametrize("rename", [False, True], ids=["synth-ids", "a-book-named-unreadable"])
def test_extract_counts_no_book_for_an_unreadable_file(tmp_path, rename):
    assert main(["synth", str(tmp_path / "c"), "--seed", "0", "--books", "2", "--count", "2"]) == EXIT_OK
    if rename:  # a book id that reads like a placeholder is still a book
        for path in (tmp_path / "c" / "observed").glob("book0001_*.jsonl"):
            doc = read_document(str(path))
            write_document(replace(doc, book_id="<unreadable>"), str(path))
    broken = tmp_path / "c" / "observed" / "zz_broken.jsonl"
    broken.write_text("not json\n", encoding="utf-8")
    records = tmp_path / "records.csv"
    assert main(["extract", str(tmp_path / "c" / "observed"), str(records)]) == EXIT_PARTIAL
    summary = json.loads((tmp_path / "records.csv.summary.json").read_text(encoding="utf-8"))
    assert summary["books"] == 2
    assert summary["openings_total"] == 5
    assert summary["counts"]["openings_failed"] == 1
    assert [path for path, _error in summary["failures"]] == [str(broken)]


@pytest.mark.parametrize(
    "flag",
    [["--workers", "2"], ["--book-directions", "d.tsv"], ["--corrector-endpoint", "http://x"]],
    ids=["workers", "book-directions", "corrector"],
)
def test_eval_rejects_flags_it_does_not_use(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["eval", "pred", "gold", "out", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    args = build_parser().parse_args(["extract", "in", "out.csv", *flag])
    dest = flag[0][2:].replace("-", "_")
    assert getattr(args, dest) == (int(flag[1]) if dest == "workers" else flag[1])


# a book id and a parish that need every kind of CSV quoting
AWKWARD_BOOK = 'Elimäki, "kirja"\n3'
AWKWARD_PARISH = 'Pyhäjärvi, "Ol"\nläänin'


def csv_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def test_csv_outputs_read_back_as_the_rows_written(tmp_path):
    book = generate_book(SynthConfig(seed=5), 2, book_id=AWKWARD_BOOK)
    paths = write_corpus([book], tmp_path / "corpus")
    pages = sorted(book.page_years)
    assert csv_rows(paths["years"]) == [["opening_id", "side", "year"]] + [
        [opening, side, str(year)] for opening, side, year in book.page_years
    ]

    years = tmp_path / "years.csv"
    assert cmd_years(paths["observed"], str(years), ChronoConfig()) == EXIT_OK
    assert csv_rows(years) == [["book_id", "opening_id", "side", "year", "source"]] + [
        [AWKWARD_BOOK, opening, side, str(year), "observed"] for opening, side, year in pages
    ]

    extracted = tmp_path / "extracted.csv"
    assert cmd_extract(paths["observed"], str(extracted), standard_options(paths), workers=1) == 0
    gold = [r for fixture in book.openings for r in fixture.gold_records]
    assert [row[0] for row in csv_rows(extracted)[1:]] == [AWKWARD_BOOK] * len(gold)

    records = [replace(r, parish_raw=AWKWARD_PARISH, parish_canonical=AWKWARD_PARISH) for r in gold]
    path = tmp_path / "records.csv"
    write_records(records, str(path), format="csv")
    labels = list(records[0].fields)
    assert csv_rows(path) == [
        ["book_id", "opening_id", "page_side", "year", "direction", "parish_raw",
         "parish_canonical", "flags"] + [f"field:{label}" for label in labels]
    ] + [
        [r.book_id, r.opening_id, r.page_side, str(r.year), r.direction, AWKWARD_PARISH,
         AWKWARD_PARISH, ";".join(sorted(r.flags))] + [r.fields[label] for label in labels]
        for r in records
    ]
    assert read_records(str(path), format="csv") == records

    write_records(records, str(tmp_path / "records.jsonl"), format="jsonl")
    assert cmd_aggregate(str(tmp_path / "records.jsonl"), str(tmp_path / "agg")) == EXIT_OK
    directions = Counter(r.direction for r in records)
    assert csv_rows(tmp_path / "agg" / "aggregate_parishes.csv") == [
        ["parish", "direction", "count"]
    ] + [[AWKWARD_PARISH, d, str(directions[d])] for d in ("in", "out")]
