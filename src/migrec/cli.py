"""Command line interface: extract, eval, synth, years, normalize, aggregate, report.

``extract`` runs the full record-extraction pipeline over a directory of
detection documents, book-parallel with deterministic output.  ``eval``
scores predicted documents against gold documents and emits CSV reports.
``synth`` writes a synthetic fixture corpus with full ground truth.  The
remaining subcommands operate on record files: year resolution, parish
normalization and de-duplication, and per-year/per-parish aggregation.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace as dc_replace
from pathlib import Path

from . import evaluation as ev
from .cells import cell_text, read_schema_file
from .chrono import (
    ChronoConfig,
    HttpCorrectorClient,
    PageObservations,
    evaluate_years,
    infer_sequence,
)
from .geometry import angle_stats, apply_point, edge_angle_from_vertical
from .gridrec import GridConfig, complete_grid_with_retry
from .interchange import Box, dominant_class, read_document, read_records, write_csv, write_records
from .normalize import Gazetteer, detect_duplicate_books, filter_usable
from .pipeline import (
    DIRECTION_MODES,
    PipelineOptions,
    collect_years,
    deskew_document,
    group_documents_by_book,
    match_parishes,
    process_book,
    resolve_years,
)
# Not called here; perfbench/tracing.py wraps these names on this module too.
from .pipeline import deskew_transforms, normalize_year_token, transform_box  # noqa: F401
from .synth import SynthConfig, generate_book, write_corpus

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2


def _read_config_file(path: str) -> dict[str, str]:
    """Plain key = value configuration; '#' comments and blank lines ignored."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = stripped.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _setting(args: argparse.Namespace, config: dict[str, str], key: str, default, cast):
    """Flag value if given, else config file value, else the default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        raw = config[key]
        if cast is bool:
            if raw.lower() not in _BOOLEANS:
                raise ValueError(
                    f"config key {key}: expected one of {', '.join(_BOOLEANS)}, not {raw!r}"
                )
            return _BOOLEANS[raw.lower()]
        return cast(raw)
    return default


def _grid_config(args, config) -> GridConfig:
    def eps(value):
        return value if value == "auto" else float(value)

    return GridConfig(
        eps_row=_setting(args, config, "eps_row", "auto", eps),
        eps_col=_setting(args, config, "eps_col", "auto", eps),
        min_pts=_setting(args, config, "min_pts", 2, int),
        center_line_merge=_setting(args, config, "merge_split_tables", True, bool),
    )


def _chrono_config(args, config) -> ChronoConfig:
    return ChronoConfig(
        min_year=_setting(args, config, "min_year", 1700, int),
        max_year=_setting(args, config, "max_year", 1930, int),
        max_jump=_setting(args, config, "max_jump", 5, int),
    )


def _load_schemas(schema_dir: str | None) -> dict:
    if not schema_dir:
        return {}
    schemas = {}
    for path in sorted(Path(schema_dir).glob("*.tsv")):
        schemas[path.stem] = read_schema_file(str(path))
    return schemas


def _load_book_directions(path: str | None) -> dict[str, str]:
    """``book_id<TAB>mode`` lines; '#' comments and blank lines ignored."""
    if not path:
        return {}
    directions = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            book_id, tab, mode = stripped.partition("\t")
            if not tab or mode.strip() not in DIRECTION_MODES:
                raise ValueError(
                    f"{path}:{lineno}: expected book_id<TAB>mode with mode one of "
                    f"{', '.join(DIRECTION_MODES)}, not {stripped!r}"
                )
            directions[book_id.strip()] = mode.strip()
    return directions


def _document_paths(in_dir: str) -> list[str]:
    return sorted(str(p) for p in Path(in_dir).rglob("*.jsonl"))


def _run_book(task: tuple[str, list[str], PipelineOptions]):
    book_id, paths, options = task
    return process_book(book_id, paths, options)


def cmd_extract(
    in_dir: str,
    out_path: str,
    options: PipelineOptions,
    workers: int = 1,
    records_format: str = "csv",
    summary_path: str | None = None,
) -> int:
    """Extract records from every document under ``in_dir``; book-parallel.

    Output is deterministic for any worker count: books are processed
    share-nothing and merged in sorted order.  Per-opening failures are
    isolated and tallied; the run continues.
    """
    paths = _document_paths(in_dir)
    if not paths:
        log.error("no document files (*.jsonl) under %s", in_dir)
        return EXIT_FATAL
    groups = group_documents_by_book(paths)
    tasks = [(book_id, files, options) for book_id, files in groups.items()]

    results = []
    if workers <= 1:
        for task in tasks:
            results.append(_run_book(task))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_book, tasks))
    results.sort(key=lambda r: r.book_id)

    records = []
    summary: Counter = Counter()
    failures = []
    for result in results:
        records.extend(result.records)
        summary.update(result.summary)
        failures.extend(result.failures)
    records.sort(key=lambda r: (r.book_id, r.opening_id))

    write_records(records, out_path, format=records_format)
    summary_obj = {
        "books": len(results),
        "openings_total": len(paths),
        "records": len(records),
        "counts": dict(sorted(summary.items())),
        "failures": failures,
    }
    if summary_path is None:
        summary_path = out_path + ".summary.json"
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary_obj, handle, ensure_ascii=False, indent=2)
        handle.write("\n")
    log.info(
        "extracted %d records from %d openings (%d failed)",
        len(records),
        summary.get("openings_processed", 0),
        summary.get("openings_failed", 0),
    )
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _grid_boxes(tables, grid_cfg: GridConfig):
    """Row and column boxes derived from grid reconstruction per table."""
    row_boxes: list[Box] = []
    col_boxes: list[Box] = []
    for _side, table in tables:
        if not table.cells:
            continue
        box = table.box
        try:
            grid = complete_grid_with_retry(box, table.cells, grid_cfg)
        except Exception as exc:
            log.warning("grid reconstruction failed during eval: %s", exc)
            continue
        for band in grid.rows:
            row_boxes.append(Box(box.x_min, band.start, box.x_max, band.end, 1.0))
        for band in grid.cols:
            col_boxes.append(Box(band.start, box.y_min, band.end, box.y_max, 1.0))
    return row_boxes, col_boxes


_CLASS_LABELS = ("single_line", "multi_line", "repetition", "empty")


def cmd_eval(
    pred_dir: str,
    gold_dir: str,
    out_dir: str,
    grid_cfg: GridConfig | None = None,
    chrono_cfg: ChronoConfig | None = None,
) -> int:
    """Score predicted documents against gold documents, table by table.

    Emits detection metrics (tables, rows, columns; split by layout type),
    a cell classification report, text EM/CER metrics, year extraction
    P/R/F1 and skew-angle statistics as CSV files under ``out_dir``.
    """
    grid_cfg = grid_cfg or GridConfig()
    chrono_cfg = chrono_cfg or ChronoConfig()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    gold_files = {Path(p).name: p for p in _document_paths(gold_dir)}
    pred_files = {Path(p).name: p for p in _document_paths(pred_dir)}
    shared = sorted(set(gold_files) & set(pred_files))
    if not shared:
        log.error("no overlapping document files between %s and %s", pred_dir, gold_dir)
        return EXIT_FATAL
    missing = sorted(set(gold_files) - set(pred_files))
    for name in missing:
        log.warning("no prediction for %s", name)

    det_counts: dict[tuple[str, str], ev.EvalCounts] = {}
    confusion: Counter = Counter()
    class_support: Counter = Counter()
    text_pairs: list[tuple[str, str]] = []
    years_pred_raw: dict[tuple[str, str], set[int]] = {}
    years_pred_rule: dict[tuple[str, str], set[int]] = {}
    years_gold: dict[tuple[str, str], set[int]] = {}
    base_angles: dict[str, list[float]] = {"left": [], "middle": [], "right": []}
    deskew_angles: dict[str, list[float]] = {"left": [], "middle": [], "right": []}
    books_pages: dict[str, list[PageObservations]] = {}

    def add_counts(kind: str, layout: str, counts: ev.EvalCounts) -> None:
        for split in (layout, "all"):
            key = (kind, split)
            det_counts[key] = det_counts.get(key, ev.EvalCounts()) + counts

    for name in shared:
        try:
            path = gold_files[name]
            gold_doc = read_document(path)
            path = pred_files[name]
            pred_doc = read_document(path)
        except (OSError, ValueError) as exc:
            log.error("fatal: %s: %s", path, exc)
            return EXIT_FATAL
        layout = gold_doc.layout_type

        gold_tables, _ = deskew_document(gold_doc)
        pred_tables, (h_left, h_right) = deskew_document(pred_doc)

        counts, _ = ev.match_detections(
            [t.box for _, t in pred_tables], [t.box for _, t in gold_tables]
        )
        add_counts("tables", layout, counts)

        pred_rows, pred_cols = _grid_boxes(pred_tables, grid_cfg)
        gold_rows, gold_cols = _grid_boxes(gold_tables, grid_cfg)
        row_counts, _ = ev.match_detections(pred_rows, gold_rows)
        add_counts("rows", layout, row_counts)
        col_counts, _ = ev.match_detections(pred_cols, gold_cols)
        add_counts("columns", layout, col_counts)

        pred_cells = [c for _, t in pred_tables for c in t.cells]
        gold_cells = [c for _, t in gold_tables for c in t.cells]
        _, pairing = ev.match_detections([c.box for c in pred_cells], [c.box for c in gold_cells])
        for pi, gi, _score in pairing:
            pred_class = dominant_class(pred_cells[pi].class_probs)
            gold_class = dominant_class(gold_cells[gi].class_probs)
            confusion[(gold_class, pred_class)] += 1
            class_support[gold_class] += 1
            gold_text = cell_text(gold_cells[gi])
            if gold_text:
                text_pairs.append((cell_text(pred_cells[pi]) or "", gold_text))

        pred_pages = collect_years(pred_doc, chrono_cfg)
        gold_pages = collect_years(gold_doc, chrono_cfg)
        for by_side, target in ((pred_pages, years_pred_raw), (gold_pages, years_gold)):
            for page in by_side.values():
                target.setdefault((page.opening_id, page.side), set()).update(page.years())
        books_pages.setdefault(pred_doc.book_id, []).extend(pred_pages.values())

        if pred_doc.keypoints is not None:
            kp = pred_doc.keypoints
            base_angles["left"].append(edge_angle_from_vertical(kp.a, kp.d))
            base_angles["middle"].append(edge_angle_from_vertical(kp.b, kp.e))
            base_angles["right"].append(edge_angle_from_vertical(kp.c, kp.f))
            deskew_angles["left"].append(
                edge_angle_from_vertical(apply_point(h_left, kp.a), apply_point(h_left, kp.d))
            )
            deskew_angles["middle"].append(
                edge_angle_from_vertical(apply_point(h_left, kp.b), apply_point(h_left, kp.e))
            )
            deskew_angles["right"].append(
                edge_angle_from_vertical(apply_point(h_right, kp.c), apply_point(h_right, kp.f))
            )

    for book_id, pages in books_pages.items():
        pages.sort(key=lambda p: (p.opening_id, p.side))
        sequence = infer_sequence(pages, chrono_cfg)
        resolved = [p.year for p in sequence.pages]
        for i, (page, obs) in enumerate(zip(sequence.pages, pages)):
            key = (page.opening_id, page.side)
            if page.year is None:
                years_pred_rule[key] = set()
                continue
            # a page may legitimately state the following year too (mid-page
            # change); keep observations consistent with the resolved sequence
            upper = page.year
            if i + 1 < len(resolved) and resolved[i + 1] is not None:
                upper = max(upper, resolved[i + 1])
            kept = {y for y in obs.years() if page.year <= y <= upper}
            years_pred_rule[key] = {page.year} | kept

    r = ev.round_half_up

    # --- detection metrics CSV
    rows = []
    for kind in ("tables", "rows", "columns"):
        for split in ("preprinted", "handdrawn", "all"):
            counts = det_counts.get((kind, split))
            if counts is None or counts.tp + counts.fp + counts.fn == 0:
                continue
            row = ev.metrics(counts, category=f"{kind}/{split}")
            rows.append(
                (kind, split, r(row.accuracy), r(row.recall), r(row.precision), r(row.f1),
                 counts.tp, counts.fp, counts.fn)
            )
    write_csv(
        out / "detection_metrics.csv",
        ("category", "layout", "accuracy", "recall", "precision", "f1", "tp", "fp", "fn"),
        rows,
    )

    # --- cell classification report CSV
    rows = []
    class_rows = []
    for label in _CLASS_LABELS:
        support = class_support[label]
        if support == 0:
            continue
        tp = confusion[(label, label)]
        predicted = sum(confusion[(g, label)] for g in _CLASS_LABELS)
        precision = 100.0 * tp / predicted if predicted else 0.0
        recall = 100.0 * tp / support
        class_rows.append(
            ev.ClassRow(label, precision, recall, ev.f1_score(precision, recall), support)
        )
    if class_rows:
        report = ev.class_report(class_rows)
        for row in report.rows:
            rows.append((row.label, r(row.precision), r(row.recall), r(row.f1), row.support))
        total = report.total_support
        correct = sum(confusion[(label, label)] for label in _CLASS_LABELS)
        rows.append(("accuracy", "", "", r(100.0 * correct / total), total))
        rows.append(
            ("macro_avg", r(report.macro_precision), r(report.macro_recall),
             r(report.macro_f1), total)
        )
        rows.append(
            ("weighted_avg", r(report.weighted_precision), r(report.weighted_recall),
             r(report.weighted_f1), total)
        )
    write_csv(
        out / "cell_classification.csv", ("label", "precision", "recall", "f1", "support"), rows
    )

    # --- text metrics CSV ('?' references excluded, numeric/textual split)
    write_csv(
        out / "text_metrics.csv",
        ("class", "exact_match", "cer", "avg_ref_length", "support"),
        (
            (row.label, r(row.exact_match), round(row.cer, 4), r(row.avg_ref_length), row.support)
            for row in ev.split_metrics(ev.filter_unreadable(text_pairs))
        ),
    )

    # --- year metrics CSV
    rows = []
    for method, pred in (("raw", years_pred_raw), ("rule_corrected", years_pred_rule)):
        result = evaluate_years(pred, years_gold)
        rows.append(
            (method, r(result.precision), r(result.recall), r(result.f1), result.pages_scored)
        )
    write_csv(out / "year_metrics.csv", ("method", "precision", "recall", "f1", "pages"), rows)

    # --- skew angle statistics CSV
    rows = []
    for stage, angles in (("base", base_angles), ("deskewed", deskew_angles)):
        for edge in ("left", "middle", "right"):
            values = angles[edge]
            if not values:
                continue
            mean, sd = angle_stats(values)
            rows.append((stage, edge, f"{mean:.6g}", f"{sd:.6g}", len(values)))
    write_csv(out / "skew_angles.csv", ("stage", "edge", "mean_deg", "sd_deg", "n"), rows)

    log.info("evaluation reports written to %s", out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# years / normalize / aggregate / synth / report
# ---------------------------------------------------------------------------


def cmd_years(
    in_dir: str,
    out_path: str,
    chrono_cfg: ChronoConfig,
    corrector=None,
) -> int:
    """Resolve page-side years for every book under ``in_dir``.

    A document that cannot be read is skipped with a warning naming its
    file; the other documents' years are written and the run is partial.
    """
    paths = _document_paths(in_dir)
    if not paths:
        log.error("no document files under %s", in_dir)
        return EXIT_FATAL
    options = PipelineOptions(chrono=chrono_cfg, corrector=corrector)
    rows = []
    skipped = 0
    for book_id, files in group_documents_by_book(paths).items():
        pages = []
        for path in files:
            try:
                doc = read_document(path)
            except (OSError, ValueError) as exc:
                log.warning("skipping %s: %s", path, exc)
                skipped += 1
                continue
            pages.extend(collect_years(doc, chrono_cfg).values())
        pages.sort(key=lambda p: (p.opening_id, p.side))
        for page in resolve_years(pages, options).pages:
            rows.append((book_id, page.opening_id, page.side, page.year, page.source))
    write_csv(out_path, ("book_id", "opening_id", "side", "year", "source"), rows)
    return EXIT_PARTIAL if skipped else EXIT_OK


def _records_format(path: str) -> str:
    return "jsonl" if path.endswith(".jsonl") else "csv"


def cmd_normalize(
    records_path: str,
    out_path: str,
    gazetteer_path: str,
    max_rel_dist: float = 0.25,
    dup_threshold: float = 0.9,
    drop_duplicates: bool = True,
    usable_only: bool = False,
    report_path: str | None = None,
) -> int:
    """Normalize parish names, drop duplicated books, filter usable records."""
    gazetteer = Gazetteer.from_file(gazetteer_path)
    records = read_records(records_path, format=_records_format(records_path))

    normalized, method_tally = match_parishes(records, gazetteer, max_rel_dist)

    books: dict[str, list] = {}
    for record in normalized:
        books.setdefault(record.book_id, []).append(record)
    duplicates = detect_duplicate_books(books, threshold=dup_threshold)
    removed_books = {pair.remove for pair in duplicates} if drop_duplicates else set()
    kept = [r for r in normalized if r.book_id not in removed_books]

    tally: dict[str, int] = {}
    if usable_only:
        kept, tally = filter_usable(kept)

    write_records(kept, out_path, format=_records_format(out_path))
    report = {
        "input_records": len(records),
        "output_records": len(kept),
        "parish_match_methods": dict(sorted(method_tally.items())),
        "duplicate_pairs": [
            {"book_a": p.book_a, "book_b": p.book_b, "jaccard": round(p.jaccard, 4), "removed": p.remove}
            for p in duplicates
        ],
        "rejections": tally,
    }
    if report_path is None:
        report_path = out_path + ".report.json"
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, ensure_ascii=False, indent=2)
        handle.write("\n")
    return EXIT_OK


def cmd_aggregate(
    records_path: str,
    out_dir: str,
    parish: str | None = None,
) -> int:
    """Histogram-ready per-year and per-parish in/out counts from records."""
    records = read_records(records_path, format=_records_format(records_path))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    excluded_direction = 0
    excluded_year = 0
    excluded_parish = 0
    year_counts: Counter = Counter()
    parish_counts: Counter = Counter()
    for record in records:
        if record.direction not in ("in", "out"):
            excluded_direction += 1
            continue
        if parish is not None and record.parish_canonical != parish:
            continue
        if record.year is None:
            excluded_year += 1
        else:
            year_counts[(record.year, record.direction)] += 1
        if record.parish_canonical is None:
            excluded_parish += 1
        else:
            parish_counts[(record.parish_canonical, record.direction)] += 1

    for name, header, counts in (
        ("aggregate_years.csv", ("year", "direction", "count"), year_counts),
        ("aggregate_parishes.csv", ("parish", "direction", "count"), parish_counts),
    ):
        write_csv(out / name, header, ((*key, count) for key, count in sorted(counts.items())))

    summary = {
        "records": len(records),
        "excluded_unknown_direction": excluded_direction,
        "excluded_missing_year": excluded_year,
        "excluded_unmatched_parish": excluded_parish,
    }
    with open(out / "aggregate_summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    return EXIT_OK


def cmd_synth(
    out_dir: str,
    cfg: SynthConfig,
    books: int = 1,
    openings_per_book: int = 10,
    records_format: str = "jsonl",
) -> int:
    """Generate a synthetic corpus with ground truth under ``out_dir``."""
    fixtures = []
    for b in range(books):
        book_cfg = dc_replace(cfg, seed=cfg.seed + b)
        fixtures.append(generate_book(book_cfg, openings_per_book, book_id=f"book{cfg.seed + b:04d}"))
    paths = write_corpus(fixtures, out_dir, records_format=records_format)
    log.info("synthetic corpus written: %s", paths)
    return EXIT_OK


def cmd_report(eval_dir: str, stream=None) -> int:
    """Render the eval CSV reports as aligned text tables."""
    stream = stream or sys.stdout
    directory = Path(eval_dir)
    names = (
        "detection_metrics.csv",
        "cell_classification.csv",
        "text_metrics.csv",
        "year_metrics.csv",
        "skew_angles.csv",
    )
    found = False
    for name in names:
        path = directory / name
        if not path.exists():
            continue
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        if not rows:
            log.warning("skipping empty report %s", path)
            continue
        found = True
        widths = [max(len(row[i]) if i < len(row) else 0 for row in rows) for i in range(max(map(len, rows)))]
        print(f"== {name}", file=stream)
        for row in rows:
            print(
                "  ".join((row[i] if i < len(row) else "").ljust(widths[i]) for i in range(len(widths))),
                file=stream,
            )
        print("", file=stream)
    if not found:
        log.error("no report CSVs found under %s", eval_dir)
        return EXIT_FATAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps-row", dest="eps_row", default=None)
    parser.add_argument("--eps-col", dest="eps_col", default=None)
    parser.add_argument("--min-pts", dest="min_pts", type=int, default=None)
    parser.add_argument(
        "--merge-split-tables",
        dest="merge_split_tables",
        action=argparse.BooleanOptionalAction,
        default=None,
    )


def _add_chrono_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-year", dest="min_year", type=int, default=None)
    parser.add_argument("--max-year", dest="max_year", type=int, default=None)
    parser.add_argument("--max-jump", dest="max_jump", type=int, default=None)
    parser.add_argument("--corrector-endpoint", dest="corrector_endpoint", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="migrec",
        description="Reconstruct structured migration records from detection documents.",
    )
    parser.add_argument("--config", default=None, help="key = value configuration file")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="run the extraction pipeline over a document directory")
    p.add_argument("in_dir")
    p.add_argument("out_path")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--format", choices=("csv", "jsonl"), default=None)
    p.add_argument("--schema-dir", dest="schema_dir", default=None)
    p.add_argument("--gazetteer", default=None)
    p.add_argument("--max-rel-dist", dest="max_rel_dist", type=float, default=None)
    p.add_argument("--book-directions", dest="book_directions", default=None)
    p.add_argument("--summary", dest="summary_path", default=None)
    _add_grid_flags(p)
    _add_chrono_flags(p)

    p = sub.add_parser("eval", help="score predicted documents against gold documents")
    p.add_argument("pred_dir")
    p.add_argument("gold_dir")
    p.add_argument("out_dir")
    _add_grid_flags(p)
    _add_chrono_flags(p)

    p = sub.add_parser("synth", help="generate a synthetic fixture corpus")
    p.add_argument("out_dir")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--books", type=int, default=1)
    p.add_argument("--count", type=int, default=10, help="openings per book")
    p.add_argument("--rows", type=int, nargs=2, default=(6, 12))
    p.add_argument("--cols", type=int, nargs=2, default=(5, 5))
    p.add_argument("--skew", type=float, nargs=2, default=(0.0, 0.0))
    p.add_argument("--cell-dropout-prob", type=float, default=0.0)
    p.add_argument("--char-noise-prob", type=float, default=0.0)
    p.add_argument("--year-corruption-prob", type=float, default=0.0)
    p.add_argument("--border-jitter", type=float, default=0.0)
    p.add_argument("--layout", choices=("handdrawn", "preprinted"), default="preprinted")
    p.add_argument("--format", choices=("csv", "jsonl"), default="jsonl")

    p = sub.add_parser("years", help="resolve page years for every book in a directory")
    p.add_argument("in_dir")
    p.add_argument("out_path")
    _add_chrono_flags(p)

    p = sub.add_parser("normalize", help="normalize parishes, drop duplicates, filter records")
    p.add_argument("records_path")
    p.add_argument("out_path")
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--max-rel-dist", dest="max_rel_dist", type=float, default=None)
    p.add_argument("--dup-threshold", dest="dup_threshold", type=float, default=None)
    p.add_argument(
        "--drop-duplicates",
        dest="drop_duplicates",
        action=argparse.BooleanOptionalAction,
        default=True,
    )
    p.add_argument("--usable-only", dest="usable_only", action="store_true")
    p.add_argument("--report", dest="report_path", default=None)

    p = sub.add_parser("aggregate", help="per-year and per-parish counts from a records file")
    p.add_argument("records_path")
    p.add_argument("out_dir")
    p.add_argument("--parish", default=None)

    p = sub.add_parser("report", help="render eval CSV reports as text tables")
    p.add_argument("eval_dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    config = _read_config_file(args.config) if args.config else {}

    endpoint = _setting(args, config, "corrector_endpoint", None, str)
    corrector = HttpCorrectorClient(endpoint) if endpoint else None

    try:
        if args.command == "extract":
            options = PipelineOptions(
                grid=_grid_config(args, config),
                chrono=_chrono_config(args, config),
                schemas=_load_schemas(_setting(args, config, "schema_dir", None, str)),
                gazetteer=(
                    Gazetteer.from_file(g)
                    if (g := _setting(args, config, "gazetteer", None, str))
                    else None
                ),
                max_rel_dist=_setting(args, config, "max_rel_dist", 0.25, float),
                book_directions=_load_book_directions(
                    _setting(args, config, "book_directions", None, str)
                ),
                corrector=corrector,
            )
            workers = _setting(args, config, "workers", os.cpu_count() or 1, int)
            fmt = _setting(args, config, "format", "csv", str)
            return cmd_extract(
                args.in_dir,
                args.out_path,
                options,
                workers=workers,
                records_format=fmt,
                summary_path=args.summary_path,
            )
        if args.command == "eval":
            return cmd_eval(
                args.pred_dir,
                args.gold_dir,
                args.out_dir,
                grid_cfg=_grid_config(args, config),
                chrono_cfg=_chrono_config(args, config),
            )
        if args.command == "synth":
            cfg = SynthConfig(
                seed=args.seed,
                rows=tuple(args.rows),
                cols=tuple(args.cols),
                skew_degrees=tuple(args.skew),
                cell_dropout_prob=args.cell_dropout_prob,
                char_noise_prob=args.char_noise_prob,
                year_corruption_prob=args.year_corruption_prob,
                border_jitter=args.border_jitter,
                layout=args.layout,
            )
            return cmd_synth(
                args.out_dir,
                cfg,
                books=args.books,
                openings_per_book=args.count,
                records_format=args.format,
            )
        if args.command == "years":
            return cmd_years(
                args.in_dir, args.out_path, _chrono_config(args, config), corrector=corrector
            )
        if args.command == "normalize":
            return cmd_normalize(
                args.records_path,
                args.out_path,
                args.gazetteer,
                max_rel_dist=_setting(args, config, "max_rel_dist", 0.25, float),
                dup_threshold=_setting(args, config, "dup_threshold", 0.9, float),
                drop_duplicates=args.drop_duplicates,
                usable_only=args.usable_only,
                report_path=args.report_path,
            )
        if args.command == "aggregate":
            return cmd_aggregate(args.records_path, args.out_dir, parish=args.parish)
        if args.command == "report":
            return cmd_report(args.eval_dir)
    except Exception as exc:
        log.error("fatal: %s", exc)
        return EXIT_FATAL
    return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
