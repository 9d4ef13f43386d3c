"""Per-book processing: de-skew, grid reconstruction, years, records.

A book is the unit of work: year inference is sequential over its pages,
while distinct books are independent and can run in parallel workers.  Each
opening goes through coordinate de-skew, grid completion (with one
relaxed-eps retry), an optional split-table merge pass, cell routing and
repetition fill, then record assembly; years are resolved once per book and
parish names matched against the gazetteer at the end.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

from .cells import ColumnSchema, assemble_records
from .chrono import (
    ChronoConfig,
    CorrectorClient,
    PageObservations,
    YearObservation,
    external_correct,
    infer_sequence,
    normalize_year_token,
)
from .geometry import apply_point, deskew_transforms, transform_box
from .gridrec import GridConfig, GridTable, complete_grid_with_retry, merge_split_tables
from .interchange import (
    DetectionDocument,
    MigrationRecord,
    read_document,
)
from .normalize import Gazetteer, MatchResult, match_parish

log = logging.getLogger(__name__)


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
        if mode not in ("in", "out", "mixed"):
            raise ValueError(f"unknown direction mode {mode!r} for book {book_id}")
        return mode


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
    h_left = h_right = None
    center_x = doc.image_width / 2.0
    if doc.keypoints is not None:
        h_left, h_right = deskew_transforms(
            doc.keypoints, doc.image_width, doc.image_height
        )
        center_x = apply_point(h_left, doc.keypoints.b).x

    grids: list[tuple[str, bool, GridTable]] = []
    plain: list[GridTable] = []
    sides: dict[int, str] = {}
    for table in doc.tables:
        if not table.cells:
            stats["tables_without_cells"] += 1
            continue
        center = table.box.center
        side = doc.page_side(center.x, center.y)
        h = h_left if side == "left" else h_right
        if h is not None:
            cells = tuple(
                replace(
                    cell,
                    box=transform_box(h, cell.box),
                    lines=tuple(
                        replace(line, box=transform_box(h, line.box)) for line in cell.lines
                    ),
                )
                for cell in table.cells
            )
            box = transform_box(h, table.box)
        else:
            cells, box = table.cells, table.box
        grid = complete_grid_with_retry(box, cells, options.grid)
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

    pages = {
        side: PageObservations(opening_id=doc.opening_id, side=side) for side in ("left", "right")
    }
    for det in doc.year_detections:
        center = det.box.center
        side = doc.page_side(center.x, center.y)
        obs = YearObservation(
            opening_id=doc.opening_id,
            side=side,
            raw=det.text.text,
            normalized=normalize_year_token(det.text.text, options.chrono),
            box=det.box,
        )
        pages[side] = replace(pages[side], observations=pages[side].observations + (obs,))

    return OpeningResult(
        opening_id=doc.opening_id,
        grids=grids,
        pages=pages,
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

    page_list: list[PageObservations] = []
    for opening in openings:
        for side in ("left", "right"):
            page_list.append(opening.pages[side])
    if options.corrector is not None:
        sequence = external_correct(page_list, options.corrector, options.chrono)
    else:
        sequence = infer_sequence(page_list, options.chrono)
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
        # A book repeats few distinct parish strings.  The memo lives for
        # this call only, so every call does the work a fresh run does.
        memo: dict[str, MatchResult] = {}
        matched = []
        for record in records:
            if record.parish_raw:
                result = memo.get(record.parish_raw)
                if result is None:
                    result = memo[record.parish_raw] = match_parish(
                        record.parish_raw, options.gazetteer, options.max_rel_dist
                    )
                summary[f"parish_{result.method}"] += 1
                if result.canonical is not None:
                    record = replace(record, parish_canonical=result.canonical)
                else:
                    record = record.with_flags("unmatched_parish")
            matched.append(record)
        records = matched

    return BookResult(book_id=book_id, records=records, summary=summary, failures=failures)


def group_documents_by_book(paths: Sequence[str]) -> dict[str, list[str]]:
    """Group document file paths by their book id (header line peek)."""
    import json

    groups: dict[str, list[str]] = {}
    for path in paths:
        book_id = None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                first = handle.readline()
            obj = json.loads(first)
            if isinstance(obj, dict):
                book_id = obj.get("book_id")
        except (OSError, ValueError):
            book_id = None
        groups.setdefault(book_id or "<unreadable>", []).append(str(path))
    return {book: sorted(files) for book, files in sorted(groups.items())}
