"""Per-book processing: de-skew, grid reconstruction, years, records.

A book is the unit of work: year inference is sequential over its pages,
while distinct books are independent and can run in parallel workers.  Each
opening goes through coordinate de-skew, grid completion (with one
relaxed-eps retry), an optional split-table merge pass, cell routing and
repetition fill, then record assembly; years are resolved once per book and
parish names matched against the gazetteer at the end.

The steps the commands share live here, once each:

- :func:`deskew_document` solves an opening's page transforms and de-skews
  its tables (``extract`` through :func:`process_opening`, and ``eval``);
- :func:`collect_years` turns its year detections into page observations
  (``extract``, ``eval`` and ``years``);
- :func:`resolve_years` runs the external corrector or the rule-based DP
  over a book's pages (``extract`` through :func:`process_book`, and
  ``years``);
- :func:`match_parishes` matches raw parish names against a gazetteer with
  a per-call memo (``extract`` through :func:`process_book`, and
  ``normalize``).
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

from .cells import ColumnSchema, assemble_records
from .chrono import (
    BookYearSequence,
    ChronoConfig,
    CorrectorClient,
    PageObservations,
    YearObservation,
    external_correct,
    infer_sequence,
    normalize_year_token,
)
from .geometry import Homography, apply_point, deskew_transforms, transform_box
from .gridrec import GridConfig, GridTable, complete_grid_with_retry, merge_split_tables
from .interchange import (
    CellHypothesis,
    CellLine,
    DetectionDocument,
    MigrationRecord,
    TableDetection,
    read_document,
)
from .normalize import Gazetteer, MatchResult, match_parish

log = logging.getLogger(__name__)

DIRECTION_MODES = ("in", "out", "mixed")


@dataclass(frozen=True)
class PipelineOptions:
    grid: GridConfig = GridConfig()
    chrono: ChronoConfig = ChronoConfig()
    schemas: dict[str, ColumnSchema] = field(default_factory=dict)
    gazetteer: Gazetteer | None = None
    max_rel_dist: float = 0.25
    book_directions: dict[str, str] = field(default_factory=dict)
    corrector: CorrectorClient | None = None

    def direction_mode(self, book_id: str) -> str:
        mode = self.book_directions.get(book_id, "mixed")
        if mode not in DIRECTION_MODES:
            raise ValueError(f"unknown direction mode {mode!r} for book {book_id}")
        return mode


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
                    tuple(CellLine(transform_box(h, line.box), line.text) for line in cell.lines),
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
            YearObservation(
                opening_id=doc.opening_id,
                side=side,
                raw=det.text.text,
                normalized=normalize_year_token(det.text.text, chrono),
                box=det.box,
            )
        )
    return {
        side: PageObservations(opening_id=doc.opening_id, side=side, observations=tuple(obs))
        for side, obs in found.items()
    }


def resolve_years(pages: Sequence[PageObservations], options: PipelineOptions) -> BookYearSequence:
    """A book's page years, pages in the order given.

    The external corrector answers when one is set (it falls back to the
    rule-based DP itself); otherwise the DP runs alone.
    """
    if options.corrector is not None:
        return external_correct(pages, options.corrector, options.chrono)
    return infer_sequence(pages, options.chrono)


def match_parishes(
    records: Sequence[MigrationRecord], gazetteer: Gazetteer, max_rel_dist: float
) -> tuple[list[MigrationRecord], Counter]:
    """Match every raw parish name that has no canonical name yet.

    Returns the records, matched or flagged ``unmatched_parish``, and a
    tally of match methods.  A book repeats few distinct parish strings,
    so each distinct string is matched once; the memo lives for this call
    only, so every call does the work a fresh run does.
    """
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
    grids: list[tuple[str, bool, GridTable]]  # (side, merged, grid)
    pages: dict[str, PageObservations]
    layout_type: str
    stats: Counter


def process_opening(doc: DetectionDocument, options: PipelineOptions) -> OpeningResult:
    """De-skew one opening's coordinates and reconstruct its table grids."""
    stats: Counter = Counter()
    tables, (h_left, _) = deskew_document(doc)
    center_x = doc.image_width / 2.0
    if h_left is not None:
        center_x = apply_point(h_left, doc.keypoints.b).x

    grids: list[tuple[str, bool, GridTable]] = []
    plain: list[GridTable] = []
    sides: dict[int, str] = {}
    for side, table in tables:
        if not table.cells:
            stats["tables_without_cells"] += 1
            continue
        grid = complete_grid_with_retry(table.box, table.cells, options.grid)
        sides[id(grid)] = side
        plain.append(grid)
        stats["tables"] += 1

    if options.grid.center_line_merge and len(plain) > 1:
        merged_list = merge_split_tables(plain, center_x, options.grid)
    else:
        merged_list = plain
    original = {id(g) for g in plain}
    for grid in merged_list:
        merged = id(grid) not in original
        if merged:
            stats["tables_merged"] += 1
            side = "left"
        else:
            side = sides[id(grid)]
        stats["cells_detected"] += grid.count_provenance("detected")
        stats["cells_inferred"] += grid.count_provenance("inferred")
        stats["cells_residual"] += len(grid.residual)
        grids.append((side, merged, grid))

    return OpeningResult(
        opening_id=doc.opening_id,
        grids=grids,
        pages=collect_years(doc, options.chrono),
        layout_type=doc.layout_type,
        stats=stats,
    )


def _record_direction(mode: str, side: str, merged: bool) -> str:
    if mode in ("in", "out"):
        return mode
    if merged:
        # full-opening tables mix both directions in separate columns;
        # without column semantics the direction stays unresolved
        return "unknown"
    return "in" if side == "left" else "out"


@dataclass
class BookResult:
    book_id: str
    records: list[MigrationRecord]
    summary: Counter
    failures: list[tuple[str, str]]  # (opening path or id, error)


def process_book(
    book_id: str, paths: Sequence[str], options: PipelineOptions
) -> BookResult:
    """Run the full extraction pipeline over one book's document files."""
    summary: Counter = Counter()
    failures: list[tuple[str, str]] = []
    openings: list[OpeningResult] = []
    for path in sorted(paths):
        try:
            doc = read_document(path)
            openings.append(process_opening(doc, options))
            summary["openings_processed"] += 1
        except Exception as exc:
            log.warning("opening %s failed: %s", path, exc)
            failures.append((str(path), str(exc)))
            summary["openings_failed"] += 1
    openings.sort(key=lambda o: o.opening_id)
    for opening in openings:
        summary.update(opening.stats)

    sequence = resolve_years(
        [opening.pages[side] for opening in openings for side in ("left", "right")], options
    )
    resolved = {(p.opening_id, p.side): p for p in sequence.pages}
    for page in sequence.pages:
        summary[f"year_{page.source}"] += 1

    mode = options.direction_mode(book_id)
    records: list[MigrationRecord] = []
    for opening in openings:
        schema = options.schemas.get(opening.layout_type)
        for side, merged, grid in opening.grids:
            page = resolved.get((opening.opening_id, side))
            year = page.year if page is not None else None
            year_inferred = page is not None and page.source != "observed" and year is not None
            direction = _record_direction(mode, side, merged)
            rows = assemble_records(
                grid,
                year,
                direction,
                schema,
                side,
                book_id=book_id,
                opening_id=opening.opening_id,
                year_inferred=year_inferred,
            )
            records.extend(rows)
    summary["records"] += len(records)
    for record in records:
        if "realigned" in record.flags:
            summary["rows_realigned"] += 1
        if "repetition_filled" in record.flags:
            summary["rows_repetition_filled"] += 1
        if "inferred_cell" in record.flags:
            summary["rows_with_inferred_cells"] += 1

    if options.gazetteer is not None:
        records, methods = match_parishes(records, options.gazetteer, options.max_rel_dist)
        summary.update({f"parish_{method}": n for method, n in methods.items()})

    return BookResult(book_id=book_id, records=records, summary=summary, failures=failures)


def group_documents_by_book(paths: Sequence[str]) -> dict[str, list[str]]:
    """Group document file paths by their book id (header line peek).

    A file whose header cannot be read or has no string book id goes under
    ``<unreadable>``; reading the document later reports what is wrong.
    """
    import json

    groups: dict[str, list[str]] = {}
    for path in paths:
        book_id = None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                first = handle.readline()
            obj = json.loads(first)
            if isinstance(obj, dict) and isinstance(obj.get("book_id"), str):
                book_id = obj["book_id"]
        except (OSError, ValueError):
            book_id = None
        groups.setdefault(book_id or "<unreadable>", []).append(str(path))
    return {book: sorted(files) for book, files in sorted(groups.items())}
