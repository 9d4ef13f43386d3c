"""Per-book processing: de-skew, grid reconstruction, years, records.

A book is the unit of work: year inference is sequential over its pages,
while distinct books are independent and can run in parallel workers.  Each
opening goes through coordinate de-skew, grid completion (with one
relaxed-eps retry), repetition fill and record assembly;
years are resolved once per book and parish names matched against the
gazetteer at the end.

The steps the commands share live here, once each, and each takes only the
settings it reads:

- :func:`read_book` reads a book's documents in path order, applies one
  step to each (``extract``: :func:`process_opening`, ``years``:
  :func:`collect_years`), and logs, lists and skips a file that fails;
- :func:`process_opening` de-skews an opening's tables, builds one grid
  per table under the grid settings and collects its year pages under the
  year range (``extract`` through :func:`process_book`, and ``eval``
  through :func:`score_opening`); a failed grid costs only its own table.
  It counts nothing; ``extract`` counts the grids, tables and failures it
  returns;
- :func:`collect_years` turns an opening's year detections into page
  observations under the year range (:func:`process_opening`, and ``years``);
- :func:`book_years` orders a book's pages by (opening, side) and runs the
  external corrector, when one is given, or the rule-based DP under the
  year settings over them (``extract``, ``years``, and ``eval`` through
  :func:`eval_reports`, which gives no corrector);
- :func:`match_parishes` matches raw parish names against a gazetteer with
  a per-call memo (``extract`` through :func:`process_book`, and
  ``normalize``);
- :func:`score_opening` scores one opening against its gold document and
  :func:`eval_reports` merges the scores into the report rows (``eval``).

:class:`PipelineOptions` holds ``extract``'s settings alone and rejects a
bad one when it is made; :func:`process_book` passes each step the ones it reads.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from . import evaluation as ev
from .cells import ColumnSchema, assemble_records, cell_text
from .chrono import (
    BookYearSequence, ChronoConfig, CorrectorClient, PageObservations, YearObservation,
    evaluate_years, external_correct, infer_sequence, normalize_year_token,
)
from .geometry import (
    Homography, angle_stats, apply_point, deskew_transforms, edge_angle_from_vertical,
    transform_box,
)
from .gridrec import GridConfig, GridTable, complete_grid_with_retry
# Not called here; perfbench/tracing.py wraps this name on this module.
from .gridrec import merge_split_tables  # noqa: F401
from .interchange import (
    CELL_CLASSES, LAYOUT_TYPES, Box, CellHypothesis, CellLine, DetectionDocument, MigrationRecord,
    TableDetection, check_finite, decode_json_line, dominant_class, parse_header, read_document,
)
from .normalize import MAX_REL_DIST, Gazetteer, MatchResult, match_parish

log = logging.getLogger(__name__)

DIRECTION_MODES = ("in", "out", "mixed")
T = TypeVar("T")


@dataclass(frozen=True)
class PipelineOptions:
    grid: GridConfig = GridConfig()
    chrono: ChronoConfig = ChronoConfig()
    schemas: dict[str, ColumnSchema] = field(default_factory=dict)
    gazetteer: Gazetteer | None = None
    max_rel_dist: float = MAX_REL_DIST
    book_directions: dict[str, str] = field(default_factory=dict)
    corrector: CorrectorClient | None = None

    def __post_init__(self) -> None:
        check_finite("max_rel_dist", self.max_rel_dist)
        for book_id, mode in self.book_directions.items():
            if mode not in DIRECTION_MODES:
                raise ValueError(f"unknown direction mode {mode!r} for book {book_id}")


def deskew_document(
    doc: DetectionDocument,
) -> tuple[list[tuple[str, TableDetection]], tuple[Homography | None, Homography | None]]:
    """Solve an opening's page transforms once and de-skew every table.

    Returns ``(tables, (h_left, h_right))``.  Each table comes as
    ``(side, table)``: the side is taken from the raw table centre, and the
    table's box, cell boxes and line boxes are in de-skewed coordinates.
    Without keypoints the tables come back unchanged and both transforms
    are None.
    """
    h_left = h_right = None
    if doc.keypoints is not None:
        h_left, h_right = deskew_transforms(doc.keypoints, doc.image_width, doc.image_height)
    tables = []
    for table in doc.tables:
        center = table.box.center
        side = doc.page_side(center.x, center.y)
        h = h_left if side == "left" else h_right
        if h is not None:
            cells = tuple(
                CellHypothesis(
                    transform_box(h, cell.box),
                    cell.class_probs,
                    cell.text,
                    tuple(
                        CellLine(transform_box(h, line.box), line.text) for line in cell.lines
                    ) if cell.lines else (),
                )
                for cell in table.cells
            )
            table = TableDetection(transform_box(h, table.box), cells)
        tables.append((side, table))
    return tables, (h_left, h_right)


def collect_years(doc: DetectionDocument, chrono: ChronoConfig) -> dict[str, PageObservations]:
    """An opening's year detections as normalized observations, by page side."""
    found: dict[str, list[YearObservation]] = {"left": [], "right": []}
    for det in doc.year_detections:
        center = det.box.center
        side = doc.page_side(center.x, center.y)
        found[side].append(
            YearObservation(det.text.text, normalize_year_token(det.text.text, chrono), det.box)
        )
    return {
        side: PageObservations(opening_id=doc.opening_id, side=side, observations=tuple(obs))
        for side, obs in found.items()
    }


def book_years(pages_by_opening: Iterable[Mapping[str, PageObservations]], chrono: ChronoConfig,
               corrector: CorrectorClient | None = None) -> BookYearSequence:
    """A book's page years, from one ``side -> page`` map per opening.

    The pages are ordered by (opening, side).  The external corrector
    answers when one is given (it falls back to the rule-based DP itself);
    otherwise the DP runs alone.
    """
    pages = sorted((p for by_side in pages_by_opening for p in by_side.values()),
                   key=lambda p: (p.opening_id, p.side))
    if corrector is not None:
        return external_correct(pages, corrector, chrono)
    return infer_sequence(pages, chrono)


def read_book(
    paths: Iterable[str], step: Callable[[DetectionDocument], T]
) -> tuple[dict[str, T], list[tuple[str, str]]]:
    """Apply ``step`` to each of a book's documents, read in path order.

    Returns ``(done, failures)``: ``done`` maps each path to its result, in
    path order.  A file that cannot be read or processed, or whose opening id
    an earlier file of the book has, is logged as ``skipping <path>: <error>``
    and listed in ``failures`` as ``(path, error)``.
    """
    done: dict[str, T] = {}
    failures: list[tuple[str, str]] = []
    first: dict[str, str] = {}  # opening id -> the first path that has it
    for path in sorted(paths):
        try:
            doc = read_document(path)
            if (earlier := first.setdefault(doc.opening_id, str(path))) != str(path):
                raise ValueError(f"opening {doc.opening_id} repeats {earlier}")
            done[str(path)] = step(doc)
        except Exception as exc:
            log.warning("skipping %s: %s", path, exc)
            failures.append((str(path), str(exc)))
    return done, failures


def match_parishes(
    records: Sequence[MigrationRecord], gazetteer: Gazetteer, max_rel_dist: float
) -> tuple[list[MigrationRecord], Counter]:
    """Match every raw parish name that has no canonical name yet.

    Returns the records, matched or flagged ``unmatched_parish``, and a
    tally of match methods.  A book repeats few distinct parish strings,
    so each distinct string is matched once; the memo lives for this call
    only, so every call does the work a fresh run does.  A NaN or infinite
    ``max_rel_dist`` is a ``ValueError``.
    """
    check_finite("max_rel_dist", max_rel_dist)
    memo: dict[str, MatchResult] = {}
    methods: Counter = Counter()
    matched = []
    for record in records:
        if record.parish_raw and record.parish_canonical is None:
            result = memo.get(record.parish_raw)
            if result is None:
                result = memo[record.parish_raw] = match_parish(
                    record.parish_raw, gazetteer, max_rel_dist
                )
            methods[result.method] += 1
            if result.canonical is not None:
                record = replace(record, parish_canonical=result.canonical)
            else:
                record = record.with_flags("unmatched_parish")
        matched.append(record)
    return matched, methods


@dataclass
class OpeningResult:
    opening_id: str
    tables: list[tuple[str, TableDetection]]  # (side, de-skewed table), document order
    transforms: tuple[Homography | None, Homography | None]  # (h_left, h_right)
    grids: list[tuple[str, GridTable]]  # (side, grid), reading order
    pages: dict[str, PageObservations]
    layout_type: str
    failures: list[str]  # "table <i>: grid reconstruction failed: <error>"


def process_opening(doc: DetectionDocument, grid: GridConfig, chrono: ChronoConfig) -> OpeningResult:
    """De-skew one opening's coordinates and reconstruct one grid per table.

    Grids come in de-skewed reading order: by the table box's top edge, then
    its left edge, ties in document order.  A table whose grid cannot be
    reconstructed is logged and listed in ``failures``; the other tables and
    the opening's year pages are kept.  A table without cells gets no grid.
    """
    failures: list[str] = []
    tables, transforms = deskew_document(doc)
    grids: list[tuple[str, GridTable]] = []
    for i, (side, table) in enumerate(tables):
        if not table.cells:
            continue
        try:
            grids.append((side, complete_grid_with_retry(table.box, table.cells, grid)))
        except Exception as exc:
            failures.append(f"table {i}: grid reconstruction failed: {exc}")
            log.warning("opening %s: %s", doc.opening_id, failures[-1])
    grids.sort(key=lambda g: (g[1].table_box.y_min, g[1].table_box.x_min))
    return OpeningResult(doc.opening_id, tables, transforms, grids,
                         collect_years(doc, chrono), doc.layout_type, failures)


EVAL_REPORTS = {  # eval report file name -> header
    "detection_metrics.csv": ("category", "layout", "accuracy", "recall", "precision", "f1",
                              "tp", "fp", "fn"),
    "cell_classification.csv": ("label", "precision", "recall", "f1", "support"),
    "text_metrics.csv": ("class", "exact_match", "cer", "avg_ref_length", "support"),
    "year_metrics.csv": ("method", "precision", "recall", "f1", "pages"),
    "skew_angles.csv": ("stage", "edge", "mean_deg", "sd_deg", "n"),
}
# detection report splits: preprinted and handdrawn first, so reports keep their row order
_SPLITS = ("preprinted", "handdrawn")
_SPLITS += tuple(t for t in LAYOUT_TYPES if t not in _SPLITS) + ("all",)


@dataclass
class OpeningScore:
    """One opening scored against its gold document; see :func:`eval_reports`."""

    book_id: str
    layout_type: str  # the gold document's
    detections: dict[str, ev.EvalCounts]  # "tables", "rows", "columns"
    confusion: Counter  # (gold class, predicted class) of matched cells
    text_pairs: list[tuple[str, str]]  # (predicted, gold) text of matched cells
    pred_pages: dict[str, PageObservations]
    gold_pages: dict[str, PageObservations]
    angles: list[tuple[str, str, float]]  # (stage, edge, degrees from vertical)
    failures: list[str]  # failed grids of the predicted, then of the gold document


def _detection_boxes(opening: OpeningResult) -> tuple[list[Box], list[Box], list[Box]]:
    """An opening's table, grid row and grid column boxes; a band spans its table."""
    row_boxes, col_boxes = [], []
    for _side, grid in opening.grids:
        box = grid.table_box
        row_boxes += [Box(box.x_min, band.start, box.x_max, band.end, 1.0) for band in grid.rows]
        col_boxes += [Box(band.start, box.y_min, band.end, box.y_max, 1.0) for band in grid.cols]
    return [table.box for _, table in opening.tables], row_boxes, col_boxes


def score_opening(
    pred_doc: DetectionDocument,
    gold_doc: DetectionDocument,
    grid_cfg: GridConfig,
    chrono_cfg: ChronoConfig,
) -> OpeningScore:
    """Score one predicted opening against its gold document.

    Both go through :func:`process_opening`.  Tables, grid rows and grid
    columns are matched box to box; matched cells give the class confusion
    and, where the gold cell has text, a text pair.
    """
    pred, gold = (process_opening(doc, grid_cfg, chrono_cfg) for doc in (pred_doc, gold_doc))
    kinds = zip(("tables", "rows", "columns"), _detection_boxes(pred), _detection_boxes(gold))
    detections = {kind: ev.match_detections(p, g)[0] for kind, p, g in kinds}

    pred_cells = [c for _, t in pred.tables for c in t.cells]
    gold_cells = [c for _, t in gold.tables for c in t.cells]
    _, pairing = ev.match_detections([c.box for c in pred_cells], [c.box for c in gold_cells])
    confusion: Counter = Counter()
    text_pairs = []
    for pi, gi, _score in pairing:
        pred_cell, gold_cell = pred_cells[pi], gold_cells[gi]
        confusion[dominant_class(gold_cell.class_probs), dominant_class(pred_cell.class_probs)] += 1
        if gold_text := cell_text(gold_cell):
            text_pairs.append((cell_text(pred_cell) or "", gold_text))

    angles = []
    kp = pred_doc.keypoints
    if kp is not None:
        h_left, h_right = pred.transforms
        edges = (("left", kp.a, kp.d, h_left), ("middle", kp.b, kp.e, h_left),
                 ("right", kp.c, kp.f, h_right))
        for edge, top, bottom, h in edges:
            angles.append(("base", edge, edge_angle_from_vertical(top, bottom)))
            deskewed = edge_angle_from_vertical(apply_point(h, top), apply_point(h, bottom))
            angles.append(("deskewed", edge, deskewed))

    return OpeningScore(
        pred_doc.book_id, gold.layout_type, detections, confusion, text_pairs,
        pred.pages, gold.pages, angles, pred.failures + gold.failures,
    )


def eval_reports(
    scores: Iterable[OpeningScore], chrono_cfg: ChronoConfig
) -> dict[str, tuple[tuple[str, ...], list[tuple]]]:
    """Merge opening scores into the eval reports: file name -> (header, rows).

    The rule-corrected years come from one year DP per book, and every
    year set is keyed by (book, opening, side), so books that repeat an
    opening id keep their own pages.  Give the scores in file-name order:
    skew angles are summed as floats in the order the scores come.
    """
    det_counts: dict[tuple[str, str], ev.EvalCounts] = {}
    confusion: Counter = Counter()
    text_pairs: list[tuple[str, str]] = []
    years_pred_raw: dict[tuple[str, str, str], set[int]] = {}  # (book, opening, side) -> years
    years_pred_rule: dict[tuple[str, str, str], set[int]] = {}
    years_gold: dict[tuple[str, str, str], set[int]] = {}
    books_pages: dict[str, list[dict[str, PageObservations]]] = {}
    angles: dict[tuple[str, str], list[float]] = {}  # (stage, edge) -> degrees
    for score in scores:
        for kind, counts in score.detections.items():
            for key in ((kind, score.layout_type), (kind, "all")):
                det_counts[key] = det_counts.get(key, ev.EvalCounts()) + counts
        confusion.update(score.confusion)
        text_pairs.extend(score.text_pairs)
        for by_side, target in ((score.pred_pages, years_pred_raw), (score.gold_pages, years_gold)):
            for page in by_side.values():
                key = (score.book_id, page.opening_id, page.side)
                target.setdefault(key, set()).update(page.years())
        books_pages.setdefault(score.book_id, []).append(score.pred_pages)
        for stage, edge, degrees in score.angles:
            angles.setdefault((stage, edge), []).append(degrees)

    for book_id, pages in books_pages.items():
        resolved = book_years(pages, chrono_cfg).pages
        # a page may legitimately state the following year too (mid-page
        # change): keep its observed years up to the next page's year.  In a
        # book every page has a year or none has, and years never fall.
        for page, after in zip(resolved, resolved[1:] + resolved[-1:]):
            key = (book_id, page.opening_id, page.side)
            if page.year is None:
                years_pred_rule[key] = set()
            else:
                kept = {y for y in years_pred_raw[key] if page.year <= y <= after.year}
                years_pred_rule[key] = {page.year} | kept

    r = ev.round_half_up
    detection = []
    for kind in ("tables", "rows", "columns"):
        for split in _SPLITS:
            counts = det_counts.get((kind, split))
            if counts is None or counts.tp + counts.fp + counts.fn == 0:
                continue
            m = ev.metrics(counts)
            detection.append((kind, split, r(m.accuracy), r(m.recall), r(m.precision), r(m.f1),
                              counts.tp, counts.fp, counts.fn))

    class_rows = []
    for label in CELL_CLASSES:
        if support := sum(confusion[(label, pred)] for pred in CELL_CLASSES):
            tp = confusion[(label, label)]
            predicted = sum(confusion[(gold, label)] for gold in CELL_CLASSES)
            m = ev.metrics(ev.EvalCounts(tp, predicted - tp, support - tp))
            class_rows.append(ev.ClassRow(label, m.precision, m.recall, m.f1, support))
    classes = []
    if class_rows:
        report = ev.class_report(class_rows)
        total = report.total_support
        correct = sum(confusion[(label, label)] for label in CELL_CLASSES)
        classes = [(c.label, r(c.precision), r(c.recall), r(c.f1), c.support) for c in report.rows]
        classes += [
            ("accuracy", "", "", r(100.0 * correct / total), total),
            ("macro_avg", r(report.macro_precision), r(report.macro_recall),
             r(report.macro_f1), total),
            ("weighted_avg", r(report.weighted_precision), r(report.weighted_recall),
             r(report.weighted_f1), total),
        ]

    text = [  # '?' references excluded, numeric/textual split, classes with no lines left out
        (t.label, r(t.exact_match), round(t.cer, 4), r(t.avg_ref_length), t.support)
        for t in ev.split_metrics(ev.filter_unreadable(text_pairs)) if t.support
    ]
    years = []
    for method, pred in (("raw", years_pred_raw), ("rule_corrected", years_pred_rule)):
        y = evaluate_years(pred, years_gold)
        years.append((method, r(y.precision), r(y.recall), r(y.f1), y.pages_scored))
    skew = []
    for stage in ("base", "deskewed"):
        for edge in ("left", "middle", "right"):
            if values := angles.get((stage, edge)):
                mean, sd = angle_stats(values)
                skew.append((stage, edge, f"{mean:.6g}", f"{sd:.6g}", len(values)))

    rows = (detection, classes, text, years, skew)
    return {name: (header, body) for (name, header), body in zip(EVAL_REPORTS.items(), rows)}


@dataclass
class BookResult:
    book_id: str
    records: list[MigrationRecord]
    summary: Counter
    failures: list[tuple[str, str]]  # (opening path or id, error)


def process_book(
    book_id: str, paths: Sequence[str], options: PipelineOptions
) -> BookResult:
    """Run the full extraction pipeline over one book's document files.

    The summary counts only what happened: it holds no zero value.
    """
    done, read_failures = read_book(
        paths, lambda doc: process_opening(doc, options.grid, options.chrono))
    openings = sorted(done.values(), key=lambda o: o.opening_id)
    sequence = book_years((opening.pages for opening in openings), options.chrono,
                          options.corrector)
    resolved = {(p.opening_id, p.side): p for p in sequence.pages}

    mode = options.book_directions.get(book_id, "mixed")
    records: list[MigrationRecord] = []
    for opening in openings:
        schema = options.schemas.get(opening.layout_type)
        for side, grid in opening.grids:
            page = resolved[(opening.opening_id, side)]  # every opening's pages are resolved
            year_inferred = page.source != "observed"
            direction = mode if mode in ("in", "out") else ("in" if side == "left" else "out")
            records += assemble_records(grid, page.year, direction, schema, side, book_id=book_id,
                                        opening_id=opening.opening_id, year_inferred=year_inferred)
    methods: Counter = Counter()
    if options.gazetteer is not None:
        records, methods = match_parishes(records, options.gazetteer, options.max_rel_dist)

    grids = [grid for opening in openings for _, grid in opening.grids]
    grid_failures = [(path, failure) for path, o in done.items() for failure in o.failures]
    flags = Counter(flag for record in records for flag in record.flags)
    summary = Counter(
        openings_processed=len(openings),
        openings_failed=len(read_failures),
        tables=len(grids),
        tables_without_cells=sum(not t.cells for o in openings for _, t in o.tables),
        grids_failed=len(grid_failures),
        cells_detected=sum(grid.count_provenance("detected") for grid in grids),
        cells_inferred=sum(grid.count_provenance("inferred") for grid in grids),
        cells_residual=sum(len(grid.residual) for grid in grids),
        records=len(records),
        rows_realigned=flags["realigned"],
        rows_realign_failed=flags["realign_failed"],
        rows_repetition_filled=flags["repetition_filled"],
        rows_with_inferred_cells=flags["inferred_cell"],
    )
    summary.update(f"year_{page.source}" for page in sequence.pages)
    summary.update({f"parish_{method}": n for method, n in methods.items()})
    failures = sorted(grid_failures + read_failures, key=lambda f: f[0])  # in path order
    return BookResult(book_id=book_id, records=records, summary=+summary, failures=failures)


UNREADABLE = ""  # the group of files whose header cannot be read; no book id is empty


def group_documents_by_book(paths: Sequence[str]) -> dict[str, list[str]]:
    """Group document file paths by the book id of their header.

    The header is a file's first non-blank line, read by the parser that
    :func:`read_document` uses.  A file whose header cannot be read goes
    under :data:`UNREADABLE`; reading the document later reports what is wrong.
    """
    groups: dict[str, list[str]] = {}
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lineno, raw = next(((n, l) for n, l in enumerate(handle, 1) if l.strip()), (1, ""))
            book_id = parse_header(decode_json_line(raw, lineno)).book_id
        except (OSError, ValueError):
            book_id = UNREADABLE
        groups.setdefault(book_id, []).append(str(path))
    return {book: sorted(files) for book, files in sorted(groups.items())}
