"""The generator as oracle: properties that hold across the whole accepted
``SynthConfig`` space, each example one book of two openings run through
every command in-process.

1. With ``cell_dropout_prob`` at most 0.1 generation never raises; up to
   0.3 it raises only ``SynthesisError``.
2. Every command exits 0, and ``extract`` writes the same bytes with 1 and
   2 workers.
3. An unperturbed config's records equal its gold, as multisets, in every
   field but the year (and the ``year_inferred`` flag).
4. Records read back equal from JSON lines, and from CSV under README's
   rule: a field a record never had reads back as ``''``.
5. ``eval`` of the gold documents against themselves scores 100 on every
   classification, detection and text figure, with CER 0, and writes no
   row with support 0.

Years are left out of 3 and 5: the year DP resolves a book's first page that
also mentions the next year to the later year, on gold documents too.
"""

import csv
from collections import Counter
from dataclasses import replace
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from migrec.cli import EXIT_OK, cmd_synth, main
from migrec.interchange import read_records, write_records
from migrec.synth import SynthConfig, SynthesisError

MAX_EXAMPLES = 50

# Above this dropout a draw may keep emptying a row or column.
SAFE_DROPOUT = 0.1


def _range(lo, hi, values):
    return st.tuples(values(lo, hi), values(lo, hi)).map(sorted).map(tuple)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


@st.composite
def configs(draw):
    cfg = SynthConfig(
        seed=draw(st.integers(0, 10_000)),
        rows=draw(_range(2, 12, st.integers)),
        cols=draw(_range(2, 5, st.integers)),
        layout=draw(st.sampled_from(("handdrawn", "preprinted"))),
    )
    if draw(st.booleans()):
        return cfg  # unperturbed: property 3 applies
    return replace(
        cfg,
        skew_degrees=draw(_range(-5.0, 5.0, _floats)),
        cell_dropout_prob=draw(_floats(0.0, 0.3)),
        char_noise_prob=draw(_floats(0.0, 0.1)),
        year_corruption_prob=draw(_floats(0.0, 0.2)),
        border_jitter=draw(_floats(0.0, 2.0)),
    )


def _unperturbed(cfg: SynthConfig) -> bool:
    return cfg == SynthConfig(seed=cfg.seed, rows=cfg.rows, cols=cfg.cols, layout=cfg.layout)


def _run(*argv: str) -> None:
    assert main(list(argv)) == EXIT_OK, argv


def _without_year(r):
    return (r.book_id, r.opening_id, r.page_side, r.direction, tuple(sorted(r.fields.items())),
            r.parish_raw, r.parish_canonical, r.flags - {"year_inferred"})


def _csv_reads_back(records, path: Path) -> bool:
    write_records(records, str(path), format="csv")
    labels = dict.fromkeys((label for r in records for label in r.fields), "")
    return read_records(str(path), format="csv") == [replace(r, fields={**labels, **r.fields}) for r in records]


def check_properties(cfg: SynthConfig, work: Path) -> None:
    """Assert the module's five properties for one config under ``work``."""
    corpus = work / "c"
    try:
        assert cmd_synth(str(corpus), cfg, openings_per_book=2) == EXIT_OK
    except SynthesisError:
        assert cfg.cell_dropout_prob > SAFE_DROPOUT, cfg
        return

    observed, gold = str(corpus / "observed"), str(corpus / "gold")
    inputs = ["--gazetteer", str(corpus / "gazetteer.tsv")]
    if any((corpus / "schemas").glob("*.tsv")):
        inputs += ["--schema-dir", str(corpus / "schemas")]
    outputs = {}
    for workers in ("1", "2"):
        out = work / f"records_{workers}.jsonl"
        _run("extract", observed, str(out), "--workers", workers, *inputs)
        outputs[workers] = out.read_bytes()
    assert outputs["1"] == outputs["2"]
    records_path = str(work / "records_1.jsonl")
    _run("years", observed, str(work / "years.csv"))
    _run("normalize", records_path, str(work / "norm.jsonl"), "--gazetteer", str(corpus / "gazetteer.tsv"))
    _run("aggregate", records_path, str(work / "agg"))
    _run("eval", observed, gold, str(work / "eval"))
    _run("report", str(work / "eval"))

    records = read_records(records_path, format="jsonl")
    gold_records = read_records(str(corpus / "gold_records.jsonl"), format="jsonl")
    if _unperturbed(cfg):
        assert Counter(map(_without_year, records)) == Counter(map(_without_year, gold_records))

    for name, rs in (("records", records), ("gold", gold_records)):
        path = work / f"{name}_again.jsonl"
        write_records(rs, str(path), format="jsonl")
        assert read_records(str(path), format="jsonl") == rs
        assert _csv_reads_back(rs, work / f"{name}_again.csv")

    _run("eval", gold, gold, str(work / "self_eval"))
    for report in sorted((work / "self_eval").glob("*.csv")):
        if report.name == "year_metrics.csv":
            continue
        with open(report, encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                assert row.get("support") != "0", (report.name, row)
                for column, value in row.items():
                    if column in ("accuracy", "precision", "recall", "f1", "exact_match") and value:
                        assert value == "100.0", (report.name, row)
                    elif column == "cer":
                        assert value == "0.0", (report.name, row)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(configs())
# branches where the generator once failed: dropout in two-column and two-row
# tables (both seeds draw a drop there), and a mixed-width preprinted corpus
@example(cfg=SynthConfig(seed=0, cols=(2, 2), cell_dropout_prob=SAFE_DROPOUT))
@example(cfg=SynthConfig(seed=2, rows=(2, 2), cell_dropout_prob=SAFE_DROPOUT))
@example(cfg=SynthConfig(seed=0, cols=(3, 5)))
def test_generator_properties(tmp_path_factory, cfg):
    check_properties(cfg, tmp_path_factory.mktemp("props"))
