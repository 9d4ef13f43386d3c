"""Synthetic register openings with full ground truth.

The generator builds an ideal, axis-aligned opening (two tables, keypoints,
year headers, records drawn from small Finnish/Swedish vocabularies) and
then derives the observed detection document by applying a perturbation log:
a page-wise projective skew, cell dropout, border jitter, character
substitutions within visually confusable sets, and year-token corruption.
The log is complete: replaying it on the gold opening (its document plus
one ``GoldTable`` per table) reproduces the observed document exactly,
which is what makes these fixtures usable as oracles.  A table of fewer
than five columns keeps the first columns of the five-column template.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cache
from importlib import resources
from pathlib import Path

from .cells import ColumnSchema, write_schema_file
from .geometry import Homography, estimate_homography, transform_box
from .gridrec import Band, GridCell, GridTable
from .interchange import (
    CELL_CLASSES,
    Box,
    CellHypothesis,
    CellLine,
    DetectionDocument,
    MigrationRecord,
    OpeningKeypoints,
    Point,
    TableDetection,
    TextHypothesis,
    YearDetection,
    check_finite,
    write_csv,
    write_document,
    write_records,
)
from .normalize import Gazetteer

IMAGE_WIDTH = 2400
IMAGE_HEIGHT = 1600

# Fractions of the table width taken by the default five columns.
_COLUMN_FRACTIONS = (0.10, 0.14, 0.38, 0.24, 0.14)

DEFAULT_SCHEMA = ColumnSchema(
    labels=("ref_no", "date", "name", "parish", "comm_book"),
    kinds=("numeric", "date", "text", "parish", "numeric"),
    avg_lens=(2.0, 5.0, 20.0, 9.0, 3.0),
)


def _preprinted_schema(cfg: SynthConfig) -> ColumnSchema | None:
    """``DEFAULT_SCHEMA`` if every table of ``cfg`` is preprinted with five columns, else ``None``:
    one rule per corpus for gold records and ``schemas/``, as README's synth paragraph states."""
    return DEFAULT_SCHEMA if cfg.layout == "preprinted" and cfg.cols == (5, 5) else None


# Visually confusable substitutions used for character noise; year tokens use
# the digit-only subset so every corruption is either repairable, out of
# range, or far enough off to violate the sequence constraints.
CHAR_CONFUSABLES: dict[str, tuple[str, ...]] = {
    "1": ("7", "/"),
    "7": ("1",),
    "0": ("6",),
    "6": ("0",),
    "4": ("/",),
    "a": ("o",),
    "o": ("a",),
    "n": ("u",),
    "u": ("n",),
    "e": ("c",),
    "c": ("e",),
}
YEAR_CONFUSABLES: dict[str, tuple[str, ...]] = {
    "1": ("7", "/"),
    "7": ("1",),
    "0": ("6",),
    "6": ("0",),
}

_P_REPETITION = 0.4
_P_EMPTY_COMM = 0.15
_P_MULTILINE_NAME = 0.15
_P_EMPTY_ROW = 0.06
_P_VARIANT_SPELLING = 0.4
_P_EXTRA_YEAR_MENTION = 0.45
_P_YEAR_ADVANCE = 0.10
_P_MIDPAGE_MENTION = 0.25
_DROPOUT_RETRIES = 20


class SynthesisError(RuntimeError):
    """Raised when a configuration cannot produce a valid opening."""


@dataclass(frozen=True)
class SynthConfig:
    """Ranges and probabilities of one synthetic corpus.  Cell dropout keeps
    two cells in every table row and column: a table of two rows or two
    columns draws none.  ``layout`` and ``cols`` decide the schema (:func:`_preprinted_schema`)."""

    seed: int = 0
    rows: tuple[int, int] = (6, 12)
    cols: tuple[int, int] = (5, 5)
    skew_degrees: tuple[float, float] = (0.0, 0.0)
    cell_dropout_prob: float = 0.0
    char_noise_prob: float = 0.0
    year_corruption_prob: float = 0.0
    border_jitter: float = 0.0
    layout: str = "preprinted"

    def __post_init__(self) -> None:
        for name in ("cell_dropout_prob", "char_noise_prob", "year_corruption_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.rows[0] > self.rows[1] or self.cols[0] > self.cols[1]:
            raise ValueError("rows/cols ranges must be non-empty")
        if self.rows[0] < 2 or self.cols[0] < 2:
            raise ValueError("tables need at least 2 rows and 2 columns")
        if self.cols[1] > 5:
            raise ValueError("the column template supports at most 5 columns")
        for value in self.skew_degrees:
            check_finite("skew_degrees", value)
        check_finite("border_jitter", self.border_jitter)
        if self.skew_degrees[0] > self.skew_degrees[1]:
            raise ValueError("skew range must be non-empty")
        if self.border_jitter < 0:
            raise ValueError("border_jitter must be non-negative")
        if self.layout not in ("handdrawn", "preprinted"):
            raise ValueError("layout must be handdrawn or preprinted")


@cache
def _vocab(name: str) -> tuple[str, ...]:
    text = resources.files("migrec.data").joinpath(name).read_text(encoding="utf-8")
    return tuple(line.strip() for line in text.splitlines() if line.strip())


@cache
def sample_gazetteer() -> Gazetteer:
    """The packaged sample gazetteer (50 parishes, variants included)."""
    with resources.as_file(resources.files("migrec.data").joinpath("parishes.tsv")) as p:
        return Gazetteer.from_file(str(p))


# ---------------------------------------------------------------------------
# Perturbation log
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharSubstitution:
    table: int
    row: int
    col: int
    line: int | None  # None: the cell-level text
    index: int
    replacement: str


@dataclass(frozen=True)
class YearSubstitution:
    detection: int
    index: int
    replacement: str


@dataclass(frozen=True)
class PerturbationLog:
    """Everything separating the observed document from the gold opening."""

    keypoints: OpeningKeypoints
    dropped: tuple[tuple[int, int, int], ...] = ()
    jitter: tuple[tuple[int, int, int, tuple[float, float, float, float]], ...] = ()
    char_subs: tuple[CharSubstitution, ...] = ()
    year_subs: tuple[YearSubstitution, ...] = ()


@dataclass(frozen=True)
class GoldTable:
    side: str
    grid: GridTable


@dataclass(frozen=True)
class OpeningFixture:
    """One synthetic opening: the observed document plus its ground truth."""

    document: DetectionDocument
    gold_document: DetectionDocument
    gold_tables: tuple[GoldTable, ...]
    gold_records: tuple[MigrationRecord, ...]
    perturbations: PerturbationLog


@dataclass(frozen=True)
class BookFixture:
    book_id: str
    openings: tuple[OpeningFixture, ...]
    page_years: tuple[tuple[str, str, int], ...]  # (opening_id, side, year)
    config: SynthConfig


def _rotate(p: Point, center: Point, theta: float) -> Point:
    c, s = math.cos(theta), math.sin(theta)
    dx, dy = p.x - center.x, p.y - center.y
    return Point(center.x + c * dx - s * dy, center.y + s * dx + c * dy)


def _skewed_keypoints(
    kp: OpeningKeypoints, theta_left: float, theta_right: float
) -> OpeningKeypoints:
    if theta_left == 0.0 and theta_right == 0.0:
        return kp
    left_center = Point((kp.a.x + kp.e.x) / 2.0, (kp.a.y + kp.e.y) / 2.0)
    right_center = Point((kp.b.x + kp.f.x) / 2.0, (kp.b.y + kp.f.y) / 2.0)

    def shared(p: Point) -> Point:
        l = _rotate(p, left_center, theta_left)
        r = _rotate(p, right_center, theta_right)
        return Point((l.x + r.x) / 2.0, (l.y + r.y) / 2.0)

    return OpeningKeypoints(
        a=_rotate(kp.a, left_center, theta_left),
        b=shared(kp.b),
        c=_rotate(kp.c, right_center, theta_right),
        d=_rotate(kp.d, left_center, theta_left),
        e=shared(kp.e),
        f=_rotate(kp.f, right_center, theta_right),
    )


def _page_homographies(
    gold: OpeningKeypoints, observed: OpeningKeypoints
) -> tuple[Homography | None, Homography | None]:
    if observed == gold:
        return None, None
    left = estimate_homography(
        (gold.a, gold.b, gold.e, gold.d), (observed.a, observed.b, observed.e, observed.d)
    )
    right = estimate_homography(
        (gold.b, gold.c, gold.f, gold.e), (observed.b, observed.c, observed.f, observed.e)
    )
    return left, right


def _substitute(text: TextHypothesis, subs: Sequence[CharSubstitution | YearSubstitution]) -> TextHypothesis:
    """``text`` with ``subs`` applied in log order; ``text`` itself when there are none."""
    raw = text.text
    for sub in subs:
        raw = raw[: sub.index] + sub.replacement + raw[sub.index + 1 :]
    return TextHypothesis(raw, text.confidence) if subs else text


def apply_perturbations(
    gold_document: DetectionDocument,
    gold_tables: tuple[GoldTable, ...],
    log: PerturbationLog,
) -> DetectionDocument:
    """Derive the observed document from the gold opening and a log.

    The gold opening is ``gold_document`` (keypoints, year detections) and
    its ``GoldTable``s (side, cells and box of each table).  Each perturbed
    value is built once, and a cell the log leaves alone stays the gold
    object.  This is the generator's own construction path, so replaying a
    log always reproduces the observed document bit for bit.
    """
    h_left, h_right = _page_homographies(gold_document.keypoints, log.keypoints)
    dropped = set(log.dropped)
    jitter = {(t, r, c): deltas for t, r, c, deltas in log.jitter}
    subs_by_cell: dict[tuple[int, int, int], list[CharSubstitution]] = {}
    for sub in log.char_subs:
        subs_by_cell.setdefault((sub.table, sub.row, sub.col), []).append(sub)

    tables = []
    for t, gold_table in enumerate(gold_tables):
        h = h_left if gold_table.side == "left" else h_right
        cells = []
        for r, row in enumerate(gold_table.grid.cells):
            for c, gcell in enumerate(row):
                if (t, r, c) in dropped:
                    continue
                cell = gcell.hyp
                deltas = jitter.get((t, r, c))
                subs = subs_by_cell.get((t, r, c), ())
                if h is not None or deltas is not None or subs:
                    box = cell.box if h is None else transform_box(h, cell.box)
                    if deltas is not None:
                        box = Box(
                            box.x_min + deltas[0],
                            box.y_min + deltas[1],
                            box.x_max + deltas[2],
                            box.y_max + deltas[3],
                            box.confidence,
                        )
                    text = cell.text and _substitute(cell.text, [s for s in subs if s.line is None])
                    lines = tuple(
                        CellLine(
                            line.box if h is None else transform_box(h, line.box),
                            _substitute(line.text, [s for s in subs if s.line == i]),
                        )
                        for i, line in enumerate(cell.lines)
                    )
                    cell = CellHypothesis(box, cell.class_probs, text, lines)
                cells.append(cell)
        box = gold_table.grid.table_box if h is None else transform_box(h, gold_table.grid.table_box)
        if cells:
            box = Box(
                min(box.x_min, *(c.box.x_min for c in cells)),
                min(box.y_min, *(c.box.y_min for c in cells)),
                max(box.x_max, *(c.box.x_max for c in cells)),
                max(box.y_max, *(c.box.y_max for c in cells)),
                box.confidence,
            )
        tables.append(TableDetection(box=box, cells=tuple(cells)))

    year_subs: dict[int, list[YearSubstitution]] = {}
    for sub in log.year_subs:
        year_subs.setdefault(sub.detection, []).append(sub)
    years = []
    for i, det in enumerate(gold_document.year_detections):
        center = det.box.center
        h = h_left if gold_document.page_side(center.x, center.y) == "left" else h_right
        box = det.box if h is None else transform_box(h, det.box)
        years.append(YearDetection(box, _substitute(det.text, year_subs.get(i, ()))))

    return replace(
        gold_document,
        keypoints=log.keypoints,
        tables=tuple(tables),
        year_detections=tuple(years),
    )


# ---------------------------------------------------------------------------
# Gold opening construction
# ---------------------------------------------------------------------------


def _gold_keypoints() -> OpeningKeypoints:
    w, h = float(IMAGE_WIDTH), float(IMAGE_HEIGHT)
    return OpeningKeypoints(
        a=Point(0.0, 0.0),
        b=Point(w / 2.0, 0.0),
        c=Point(w, 0.0),
        d=Point(0.0, h),
        e=Point(w / 2.0, h),
        f=Point(w, h),
    )


def _column_edges(x0: float, x1: float, n_cols: int) -> list[float]:
    width = x1 - x0
    if n_cols == len(_COLUMN_FRACTIONS):
        fractions = _COLUMN_FRACTIONS
    else:
        fractions = tuple(1.0 / n_cols for _ in range(n_cols))
    edges = [x0]
    acc = 0.0
    for f in fractions[:-1]:
        acc += f
        edges.append(x0 + acc * width)
    edges.append(x1)
    return edges


@dataclass
class _GoldRow:
    types: list[str]
    texts: list[str | None]       # raw text on the cell (None for repetition/empty)
    resolved: list[str | None]    # after repetition fill
    parish_canonical: str | None


def _make_rows(rng: random.Random, n_rows: int, n_cols: int, gazetteer: Gazetteer) -> list[_GoldRow]:
    givens = _vocab("given_names.txt")
    surnames = _vocab("surnames.txt")
    occupations = _vocab("occupations.txt")
    canonicals = sorted(gazetteer.entries)

    rows: list[_GoldRow] = []
    carry_parish: str | None = None
    carry_canonical: str | None = None
    for r in range(n_rows):
        if r > 0 and rng.random() < _P_EMPTY_ROW:
            rows.append(
                _GoldRow(
                    types=["empty"] * n_cols,
                    texts=[None] * n_cols,
                    resolved=[None] * n_cols,
                    parish_canonical=None,
                )
            )
            continue
        types = ["single_line"] * 5
        texts: list[str | None] = [None] * 5

        texts[0] = str(r + 1)
        texts[1] = f"{rng.randint(1, 28)}.{rng.randint(1, 12)}."
        name = f"{rng.choice(givens)} {rng.choice(surnames)}"
        occupation = rng.choice(occupations)
        if rng.random() < _P_MULTILINE_NAME:
            types[2] = "multi_line"
        texts[2] = f"{name}, {occupation}"

        canonical = rng.choice(canonicals)
        variants = sorted(gazetteer.entries[canonical])
        if variants and rng.random() < _P_VARIANT_SPELLING:
            parish_text = rng.choice(variants)
        else:
            parish_text = canonical
        # a repetition mark stands for the parish of the last row that wrote one
        if carry_parish is not None and rng.random() < _P_REPETITION:
            types[3] = "repetition"
        else:
            texts[3] = carry_parish = parish_text
            carry_canonical = canonical

        if rng.random() < _P_EMPTY_COMM:
            types[4] = "empty"
        else:
            texts[4] = str(rng.randint(1, 420))

        resolved = [*texts[:3], carry_parish, *texts[4:]]
        # narrower layouts reuse the first n_cols template columns
        rows.append(
            _GoldRow(
                types=types[:n_cols],
                texts=texts[:n_cols],
                resolved=resolved[:n_cols],
                parish_canonical=carry_canonical,
            )
        )
    return rows


# The class distribution of a gold cell: all its mass on its own class.
_ONE_HOT = {cls: tuple(float(other == cls) for other in CELL_CLASSES) for cls in CELL_CLASSES}


def _build_gold_table(
    table_area: Box,
    rows_spec: list[_GoldRow],
    n_cols: int,
) -> GridTable:
    n_rows = len(rows_spec)
    col_edges = _column_edges(table_area.x_min, table_area.x_max, n_cols)
    row_height = (table_area.y_max - table_area.y_min) / n_rows
    row_edges = [table_area.y_min + i * row_height for i in range(n_rows)] + [table_area.y_max]

    bands_rows = tuple(
        Band(start=row_edges[i], end=row_edges[i + 1], support=2 * n_cols) for i in range(n_rows)
    )
    bands_cols = tuple(
        Band(start=col_edges[i], end=col_edges[i + 1], support=2 * n_rows) for i in range(n_cols)
    )

    matrix = []
    for r, spec in enumerate(rows_spec):
        row_cells = []
        for c in range(n_cols):
            box = Box(col_edges[c], row_edges[r], col_edges[c + 1], row_edges[r + 1], 1.0)
            cell_type = spec.types[c]
            text = spec.texts[c]
            lines: tuple[CellLine, ...] = ()
            hyp_text = None
            if cell_type == "single_line":
                hyp_text = TextHypothesis(text, 0.9)
            elif cell_type == "multi_line":
                head, _, tail = text.rpartition(", ")
                mid_y = (row_edges[r] + row_edges[r + 1]) / 2.0
                lines = (
                    CellLine(
                        Box(col_edges[c], row_edges[r], col_edges[c + 1], mid_y, 1.0),
                        TextHypothesis(head + ",", 0.9),
                    ),
                    CellLine(
                        Box(col_edges[c], mid_y, col_edges[c + 1], row_edges[r + 1], 1.0),
                        TextHypothesis(tail, 0.9),
                    ),
                )
            row_cells.append(
                GridCell(
                    CellHypothesis(box=box, class_probs=_ONE_HOT[cell_type], text=hyp_text, lines=lines),
                    "detected",
                )
            )
        matrix.append(tuple(row_cells))
    return GridTable(
        table_box=table_area,
        rows=bands_rows,
        cols=bands_cols,
        cells=tuple(matrix),
    )


def _gold_records(
    book_id: str,
    opening_id: str,
    side: str,
    direction: str,
    year: int,
    rows_spec: list[_GoldRow],
    schema: ColumnSchema | None,
) -> list[MigrationRecord]:
    """The records of one table, under the corpus's ``schema`` (:func:`_preprinted_schema`)."""
    records = []
    for spec in rows_spec:
        if spec.types[0] == "empty":
            continue  # a row with an entry starts with its single-line ref_no cell
        flags = {"repetition_filled"} if "repetition" in spec.types else set()
        if schema is not None:
            fields = {label: text or "" for label, text in zip(schema.labels, spec.resolved)}
            parish_raw = spec.resolved[3]
            parish_canonical = spec.parish_canonical
        else:
            fields = {f"col_{c}": text or "" for c, text in enumerate(spec.resolved)}
            parish_raw = None
            parish_canonical = None
        records.append(
            MigrationRecord(
                book_id=book_id,
                opening_id=opening_id,
                page_side=side,
                direction=direction,
                year=year,
                fields=fields,
                parish_raw=parish_raw,
                parish_canonical=parish_canonical,
                flags=frozenset(flags),
            )
        )
    return records


def _sample_dropout(
    rng: random.Random, grids: tuple[GridTable, ...], prob: float
) -> tuple[tuple[int, int, int], ...]:
    if prob <= 0.0:
        return ()
    for _ in range(_DROPOUT_RETRIES):
        dropped = []
        for t, grid in enumerate(grids):
            if grid.n_rows == 2 or grid.n_cols == 2:
                continue  # a drop would leave a column or row one cell: no draw could be kept
            kept_per_row = [grid.n_cols] * grid.n_rows
            kept_per_col = [grid.n_rows] * grid.n_cols
            table_drops = []
            for r in range(grid.n_rows):
                for c in range(grid.n_cols):
                    if rng.random() < prob:
                        table_drops.append((t, r, c))
                        kept_per_row[r] -= 1
                        kept_per_col[c] -= 1
            if min(kept_per_row) < 2 or min(kept_per_col) < 2:
                break
            dropped.extend(table_drops)
        else:
            return tuple(dropped)
    raise SynthesisError(
        "cell dropout kept emptying a row or column below the minimum support; "
        "lower cell_dropout_prob or enlarge the tables"
    )


def _sample_char_subs(
    rng: random.Random, grids: tuple[GridTable, ...], dropped: set[tuple[int, int, int]], prob: float
) -> tuple[CharSubstitution, ...]:
    if prob <= 0.0:
        return ()
    subs = []
    for t, grid in enumerate(grids):
        for r, row in enumerate(grid.cells):
            for c, gcell in enumerate(row):
                if (t, r, c) in dropped:
                    continue
                targets: list[tuple[int | None, str]] = []
                if gcell.hyp.text is not None:
                    targets.append((None, gcell.hyp.text.text))
                for li, line in enumerate(gcell.hyp.lines):
                    targets.append((li, line.text.text))
                for line_idx, text in targets:
                    for i, ch in enumerate(text):
                        if ch in CHAR_CONFUSABLES and rng.random() < prob:
                            repl = rng.choice(CHAR_CONFUSABLES[ch])
                            subs.append(CharSubstitution(t, r, c, line_idx, i, repl))
    return tuple(subs)


def _sample_year_subs(
    rng: random.Random, detections: tuple[YearDetection, ...], prob: float
) -> tuple[YearSubstitution, ...]:
    if prob <= 0.0:
        return ()
    subs = []
    for i, det in enumerate(detections):
        if rng.random() >= prob:
            continue
        options = [
            (pos, repl)
            for pos, ch in enumerate(det.text.text)
            if ch in YEAR_CONFUSABLES
            for repl in YEAR_CONFUSABLES[ch]
        ]
        if options:
            pos, repl = rng.choice(options)
            subs.append(YearSubstitution(i, pos, repl))
    return tuple(subs)


def _year_boxes(side: str, mentions: int, rng: random.Random) -> list[Box]:
    x0 = 480.0 if side == "left" else 480.0 + IMAGE_WIDTH / 2.0
    boxes = [Box(x0, 60.0, x0 + 160.0, 130.0, 0.95)]
    for i in range(1, mentions):
        y = 300.0 + 250.0 * i + rng.uniform(0.0, 80.0)
        boxes.append(Box(x0 + rng.uniform(-60.0, 60.0), y, x0 + 160.0, y + 60.0, 0.9))
    return boxes


def _generate_opening(
    cfg: SynthConfig,
    rng: random.Random,
    book_id: str,
    opening_index: int,
    year_mentions: dict[str, list[int]],
    page_years: dict[str, int],
) -> OpeningFixture:
    opening_id = f"{book_id}_op{opening_index:04d}"
    n_cols = rng.randint(*cfg.cols)
    kp = _gold_keypoints()
    half = IMAGE_WIDTH / 2.0
    margin_x = 0.10 * half
    table_areas = {
        "left": Box(margin_x, 200.0, half - margin_x, 1450.0, 1.0),
        "right": Box(half + margin_x, 200.0, IMAGE_WIDTH - margin_x, 1450.0, 1.0),
    }

    gold_tables = []
    gold_records: list[MigrationRecord] = []
    sides = ("left", "right")
    for side in sides:
        n_rows = rng.randint(*cfg.rows)
        rows_spec = _make_rows(rng, n_rows, n_cols, sample_gazetteer())
        grid = _build_gold_table(table_areas[side], rows_spec, n_cols)
        gold_tables.append(GoldTable(side=side, grid=grid))
        direction = "in" if side == "left" else "out"
        gold_records.extend(
            _gold_records(
                book_id,
                opening_id,
                side,
                direction,
                page_years[side],
                rows_spec,
                _preprinted_schema(cfg),
            )
        )

    year_detections = []
    for side in sides:
        mentions = year_mentions[side]
        boxes = _year_boxes(side, len(mentions), rng)
        for box, year in zip(boxes, mentions):
            year_detections.append(YearDetection(box=box, text=TextHypothesis(str(year), 0.95)))

    gold_document = DetectionDocument(
        opening_id=opening_id,
        book_id=book_id,
        image_width=IMAGE_WIDTH,
        image_height=IMAGE_HEIGHT,
        layout_type=cfg.layout,
        keypoints=kp,
        tables=tuple(
            TableDetection(box=gt.grid.table_box, cells=tuple(
                cell.hyp for row in gt.grid.cells for cell in row
            ))
            for gt in gold_tables
        ),
        year_detections=tuple(year_detections),
    )

    theta_left = math.radians(rng.uniform(*cfg.skew_degrees))
    theta_right = math.radians(rng.uniform(*cfg.skew_degrees))
    observed_kp = _skewed_keypoints(kp, theta_left, theta_right)

    gold = tuple(gold_tables)
    grids = tuple(gt.grid for gt in gold)
    dropped = _sample_dropout(rng, grids, cfg.cell_dropout_prob)
    dropped_set = set(dropped)
    jitter = ()
    if cfg.border_jitter > 0.0:
        jitter = tuple(
            (t, r, c, tuple(rng.uniform(-cfg.border_jitter, cfg.border_jitter) for _ in range(4)))
            for t, grid in enumerate(grids)
            for r in range(grid.n_rows)
            for c in range(grid.n_cols)
            if (t, r, c) not in dropped_set
        )
    log = PerturbationLog(
        keypoints=observed_kp,
        dropped=dropped,
        jitter=jitter,
        char_subs=_sample_char_subs(rng, grids, dropped_set, cfg.char_noise_prob),
        year_subs=_sample_year_subs(rng, gold_document.year_detections, cfg.year_corruption_prob),
    )
    return OpeningFixture(
        document=apply_perturbations(gold_document, gold, log),
        gold_document=gold_document,
        gold_tables=gold,
        gold_records=tuple(gold_records),
        perturbations=log,
    )


def generate_opening(cfg: SynthConfig) -> OpeningFixture:
    """Generate one standalone opening of book ``book0000`` (both page-sides share one year)."""
    rng = random.Random(cfg.seed * 1_000_003)
    year = rng.randint(1790, 1905)
    return _generate_opening(cfg, rng, "book0000", 0,
                             year_mentions={"left": [year], "right": [year]},
                             page_years={"left": year, "right": year})


def generate_book(cfg: SynthConfig, n_openings: int, book_id: str | None = None) -> BookFixture:
    """Generate a book of openings with a monotone page-year ground truth.

    Years advance by one between some adjacent page-sides; a page sometimes
    carries an extra mention of its own year, and a page just before an
    advance sometimes already mentions the next year (a mid-page change).
    The true year of a page is the year in effect at its top.
    """
    if book_id is None:
        book_id = f"book{cfg.seed:04d}"
    rng = random.Random(cfg.seed * 1_000_003 + 17)
    year = rng.randint(1790, 1900)

    years = []
    for _ in range(2 * n_openings):
        years.append(year)
        if rng.random() < _P_YEAR_ADVANCE:
            year += 1

    mentions: list[list[int]] = []
    for idx, y in enumerate(years):
        m = [y]
        if rng.random() < _P_EXTRA_YEAR_MENTION:
            m.append(y)
        next_y = years[idx + 1] if idx + 1 < len(years) else y
        if next_y == y + 1 and rng.random() < _P_MIDPAGE_MENTION:
            m.append(next_y)
        mentions.append(m)

    openings = []
    page_years_out = []
    for i in range(n_openings):
        left_idx, right_idx = 2 * i, 2 * i + 1
        fixture = _generate_opening(
            cfg,
            random.Random(cfg.seed * 1_000_003 + 31 * (i + 1)),
            book_id,
            i,
            year_mentions={"left": mentions[left_idx], "right": mentions[right_idx]},
            page_years={"left": years[left_idx], "right": years[right_idx]},
        )
        openings.append(fixture)
        page_years_out.append((fixture.document.opening_id, "left", years[left_idx]))
        page_years_out.append((fixture.document.opening_id, "right", years[right_idx]))
    return BookFixture(book_id, tuple(openings), tuple(page_years_out), cfg)


# ---------------------------------------------------------------------------
# Corpus writing (fixture directories consumed by the CLI)
# ---------------------------------------------------------------------------


def write_corpus(
    books: list[BookFixture],
    out_dir: str | Path,
    records_format: str = "jsonl",
) -> dict[str, str]:
    """Write observed/gold documents plus ground truth under one directory.

    Returns the paths of the pieces: observed and gold document directories,
    gold records, gold page years, the column schema directory and the
    sample gazetteer.  The schema directory holds ``preprinted.tsv`` unless the
    books' preprinted tables have no schema (:func:`_preprinted_schema`); books
    that disagree on it raise ``ValueError``, as no one directory reaches their gold.
    """
    schemas = {b.book_id: _preprinted_schema(b.config) for b in books if b.config.layout == "preprinted"}
    if len(set(schemas.values())) > 1:
        raise ValueError(
            "books disagree on the schema of their preprinted tables; these have none: "
            + ", ".join(book_id for book_id, schema in schemas.items() if schema is None)
        )
    out = Path(out_dir)
    observed_dir = out / "observed"
    gold_dir = out / "gold"
    schema_dir = out / "schemas"
    for d in (observed_dir, gold_dir, schema_dir):
        d.mkdir(parents=True, exist_ok=True)

    all_records = []
    page_years = []
    for book in books:
        for fixture in book.openings:
            name = f"{fixture.document.opening_id}.jsonl"
            write_document(fixture.document, str(observed_dir / name))
            write_document(fixture.gold_document, str(gold_dir / name))
            all_records.extend(fixture.gold_records)
        page_years.extend(book.page_years)

    records_path = out / f"gold_records.{records_format}"
    write_records(all_records, str(records_path), format=records_format)
    years_path = out / "gold_years.csv"
    write_csv(years_path, ("opening_id", "side", "year"), page_years)

    if None not in schemas.values():
        write_schema_file(DEFAULT_SCHEMA, str(schema_dir / "preprinted.tsv"))
    gazetteer_path = out / "gazetteer.tsv"
    sample_gazetteer().to_file(str(gazetteer_path))
    return {
        "observed": str(observed_dir),
        "gold": str(gold_dir),
        "records": str(records_path),
        "years": str(years_path),
        "schemas": str(schema_dir),
        "gazetteer": str(gazetteer_path),
    }
