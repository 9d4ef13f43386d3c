"""Table grid reconstruction from incomplete cell detections.

Cell detectors miss cells.  Because every surviving cell still contributes
four border coordinates, clustering the left/right borders gives the column
bands and the top/bottom borders the row bands of the table; every band
intersection is then a slot, and slots without a detected cell are filled
with inferred placeholder cells.  Clustering is 1-D DBSCAN over border
coordinates with the |a - b| metric.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from statistics import median
from typing import Literal, Sequence

from .interchange import Box, CellHypothesis, check_finite, value_type

log = logging.getLogger(__name__)

NOISE = -1

Axis = Literal["row", "col"]


class GridError(ValueError):
    """Base error for grid reconstruction failures."""


class BandPairingError(GridError):
    """Start- and end-border clusterings disagree on the band count.

    Carrying both counts lets callers retry with a relaxed eps instead of
    silently misaligning every downstream record.
    """

    def __init__(self, axis: str, start_clusters: int, end_clusters: int) -> None:
        self.axis = axis
        self.start_clusters = start_clusters
        self.end_clusters = end_clusters
        super().__init__(
            f"{axis} band pairing failed: {start_clusters} start clusters vs "
            f"{end_clusters} end clusters"
        )


AUTO_EPS = "auto"


def parse_eps(text: str) -> float | str:
    """An eps setting written as text: ``auto`` or a number."""
    return text if text == AUTO_EPS else float(text)


@dataclass(frozen=True)
class GridConfig:
    """Clustering parameters; ``auto`` ties eps to the detected cell scale."""

    eps_row: float | str = AUTO_EPS
    eps_col: float | str = AUTO_EPS
    min_pts: int = 2

    def __post_init__(self) -> None:
        for name in ("eps_row", "eps_col"):
            value = getattr(self, name)
            if isinstance(value, str):
                if value != AUTO_EPS:
                    raise ValueError(f"{name} must be a positive number or {AUTO_EPS!r}")
            else:
                check_finite(name, value)
                if value <= 0:
                    raise ValueError(f"{name} must be positive")
        if self.min_pts < 1:
            raise ValueError("min_pts must be at least 1")


# Auto eps as a fraction of the median detected cell extent along the axis;
# resolution-invariant and well below one cell pitch.
AUTO_EPS_FRACTION = 0.4


@dataclass(frozen=True)
class Band:
    """Pixel interval occupied by one row or column after clustering."""

    start: float
    end: float
    support: int

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError("band start must be < end")

    @property
    def center(self) -> float:
        return (self.start + self.end) / 2.0


@value_type
class GridCell:
    hyp: CellHypothesis
    provenance: str  # "detected" or "inferred"


@dataclass(frozen=True)
class GridTable:
    """Reconstructed table: sorted bands and a complete cell matrix.

    ``residual`` holds detected cells that could not be placed (center in no
    band, or displaced from an occupied slot); they are reported rather than
    silently dropped.
    """

    table_box: Box
    rows: tuple[Band, ...]
    cols: tuple[Band, ...]
    cells: tuple[tuple[GridCell, ...], ...]
    residual: tuple[CellHypothesis, ...] = ()

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.cols)

    def count_provenance(self, provenance: str) -> int:
        return sum(1 for row in self.cells for cell in row if cell.provenance == provenance)


def dbscan_1d(values: Sequence[float], eps: float, min_pts: int) -> list[int]:
    """DBSCAN on the real line; returns a cluster id (or -1) per input value.

    Standard DBSCAN semantics with the |a - b| metric and closed eps balls;
    a point is core when its neighborhood (itself included) holds at least
    ``min_pts`` points.  Determinism: seed points are processed in ascending
    value order (ties by input position) and cluster ids are assigned in
    discovery order, so border points between two clusters always go to the
    lower-valued cluster.

    On a sorted line every cluster is a contiguous run of core points whose
    consecutive gaps are at most eps, plus the border points within eps of
    the run's extreme cores, which allows a linear scan instead of the
    generic seed-expansion search.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    n = len(values)
    if n == 0:
        return []
    # a stable sort: equal values (0.0 and -0.0 among them) keep input order
    order = sorted(range(n), key=values.__getitem__)
    sv = [values[i] for i in order]

    # Neighborhood sizes via two monotone pointers, using the same
    # subtract-and-compare predicate as a direct |a-b| test.
    counts = [0] * n
    left = 0
    right = 0
    for i in range(n):
        while not (sv[i] - sv[left] <= eps):
            left += 1
        if right < i:
            right = i
        while right + 1 < n and sv[right + 1] - sv[i] <= eps:
            right += 1
        counts[i] = right + 1 - left

    labels = [NOISE] * n
    cluster = -1
    prev_core = -1
    for i in range(n):
        if counts[i] < min_pts:
            continue
        if prev_core < 0 or not (sv[i] - sv[prev_core] <= eps):
            cluster += 1
        labels[i] = cluster
        prev_core = i

    # Border points join the cluster of the nearest core to their left when
    # within eps (that cluster's expansion reaches them first); otherwise the
    # nearest core to their right.
    prev_core = -1
    for i in range(n):
        if counts[i] >= min_pts:
            prev_core = i
        elif prev_core >= 0 and sv[i] - sv[prev_core] <= eps:
            labels[i] = labels[prev_core]
    next_core = -1
    for i in range(n - 1, -1, -1):
        if counts[i] >= min_pts:
            next_core = i
        elif labels[i] == NOISE and next_core >= 0 and sv[next_core] - sv[i] <= eps:
            labels[i] = labels[next_core]

    out = [0] * n
    for pos, idx in enumerate(order):
        out[idx] = labels[pos]
    return out


def _cluster_centroids(values: Sequence[float], labels: Sequence[int]) -> list[tuple[float, int]]:
    # labels run 0..k-1 with noise at -1; each cluster sums in input order
    k = max(labels, default=NOISE) + 1
    sums = [0.0] * k
    counts = [0] * k
    for v, lab in zip(values, labels):
        if lab != NOISE:
            sums[lab] += v
            counts[lab] += 1
    return sorted((total / count, count) for total, count in zip(sums, counts))


def resolve_eps(cfg_eps: float | str, cells: Sequence[Box], axis: Axis) -> float:
    """Resolve an explicit or ``auto`` eps against the detected cell scale."""
    if not isinstance(cfg_eps, str):
        return float(cfg_eps)
    if axis == "col":
        extents = [c.x_max - c.x_min for c in cells]
    else:
        extents = [c.y_max - c.y_min for c in cells]
    return AUTO_EPS_FRACTION * median(extents)


def cluster_bands(cells: Sequence[Box], axis: Axis, cfg: GridConfig) -> list[Band]:
    """Cluster cell borders along one axis into sorted, paired bands.

    Start borders (left or top) and end borders (right or bottom) are
    clustered independently; the i-th sorted start centroid is paired with
    the i-th sorted end centroid.  Noise borders are ignored.  ``min_pts``
    is clamped to the number of cells so degenerate tables (down to a single
    cell) still yield bands.
    """
    if not cells:
        raise GridError("cluster_bands requires at least one cell")
    if axis == "col":
        starts = [c.x_min for c in cells]
        ends = [c.x_max for c in cells]
        eps = resolve_eps(cfg.eps_col, cells, axis)
    elif axis == "row":
        starts = [c.y_min for c in cells]
        ends = [c.y_max for c in cells]
        eps = resolve_eps(cfg.eps_row, cells, axis)
    else:
        raise ValueError(f"unknown axis {axis!r}")
    min_pts = min(cfg.min_pts, len(cells))
    start_cent = _cluster_centroids(starts, dbscan_1d(starts, eps, min_pts))
    end_cent = _cluster_centroids(ends, dbscan_1d(ends, eps, min_pts))
    if len(start_cent) != len(end_cent):
        raise BandPairingError(axis, len(start_cent), len(end_cent))
    bands = []
    for (s, s_n), (e, e_n) in zip(start_cent, end_cent):
        if not s < e:
            raise BandPairingError(axis, len(start_cent), len(end_cent))
        bands.append(Band(start=s, end=e, support=s_n + e_n))
    for prev, cur in zip(bands, bands[1:]):
        if cur.start < prev.end - eps:
            raise BandPairingError(axis, len(start_cent), len(end_cent))
    return bands


def _band_overlap(box: Box, row: Band, col: Band) -> float:
    """Overlap area of ``box`` with the slot where ``row`` and ``col`` cross."""
    w = min(box.x_max, col.end) - max(box.x_min, col.start)
    h = min(box.y_max, row.end) - max(box.y_min, row.start)
    return max(w, 0.0) * max(h, 0.0)


def _slot_box(rows: Sequence[Band], cols: Sequence[Band], r: int, c: int) -> Box:
    return Box(cols[c].start, rows[r].start, cols[c].end, rows[r].end, 0.0)


EMPTY_PRIOR = (0.0, 0.0, 0.0, 1.0)


def complete_grid(table_box: Box, cells: Sequence[CellHypothesis], cfg: GridConfig) -> GridTable:
    """Reconstruct the full slot matrix of a table from detected cells.

    Every band intersection becomes a slot.  Detected cells land in the slot
    containing their center (band-edge ties resolved by overlap area); when
    two cells claim one slot the higher-confidence one wins (then larger
    overlap with the slot, then earlier input order) and the loser joins the
    residual list.  Unfilled slots receive an inferred cell whose box is the
    band intersection and whose class distribution is the empty prior.
    """
    if not cells:
        raise GridError("complete_grid requires at least one detected cell")
    boxes = [c.box for c in cells]
    rows = cluster_bands(boxes, "row", cfg)
    cols = cluster_bands(boxes, "col", cfg)
    slots: list[list[tuple[CellHypothesis, int] | None]] = [
        [None] * len(cols) for _ in rows
    ]
    residual: list[CellHypothesis] = []
    # Bands come from cluster_bands with both their starts and their ends
    # sorted, so the bands with start <= c <= end are one index range.
    row_starts, row_ends = [b.start for b in rows], [b.end for b in rows]
    col_starts, col_ends = [b.start for b in cols], [b.end for b in cols]
    for idx, cell in enumerate(cells):
        box = cell.box
        cy = (box.y_min + box.y_max) / 2.0
        cx = (box.x_min + box.x_max) / 2.0
        row_hits = range(bisect_left(row_ends, cy), bisect_right(row_starts, cy))
        col_hits = range(bisect_left(col_ends, cx), bisect_right(col_starts, cx))
        if not row_hits or not col_hits:
            residual.append(cell)
            continue
        if len(row_hits) == 1 and len(col_hits) == 1:
            r, c = row_hits[0], col_hits[0]
        else:
            r, c = max(
                ((rr, cc) for rr in row_hits for cc in col_hits),
                key=lambda rc: _band_overlap(box, rows[rc[0]], cols[rc[1]]),
            )
        incumbent = slots[r][c]
        if incumbent is None:
            slots[r][c] = (cell, idx)
            continue
        challenger_key = (box.confidence, _band_overlap(box, rows[r], cols[c]), -idx)
        incumbent_key = (
            incumbent[0].box.confidence,
            _band_overlap(incumbent[0].box, rows[r], cols[c]),
            -incumbent[1],
        )
        if challenger_key > incumbent_key:
            residual.append(incumbent[0])
            slots[r][c] = (cell, idx)
        else:
            residual.append(cell)

    matrix = []
    for r in range(len(rows)):
        row_cells = []
        for c in range(len(cols)):
            placed = slots[r][c]
            if placed is not None:
                row_cells.append(GridCell(placed[0], "detected"))
            else:
                row_cells.append(
                    GridCell(
                        CellHypothesis(box=_slot_box(rows, cols, r, c), class_probs=EMPTY_PRIOR),
                        "inferred",
                    )
                )
        matrix.append(tuple(row_cells))
    return GridTable(
        table_box=table_box,
        rows=tuple(rows),
        cols=tuple(cols),
        cells=tuple(matrix),
        residual=tuple(residual),
    )


# The retry after a band pairing failure scales both eps values by this.
RETRY_EPS_FACTOR = 1.5


def complete_grid_with_retry(
    table_box: Box, cells: Sequence[CellHypothesis], cfg: GridConfig
) -> GridTable:
    """Run :func:`complete_grid`, retrying once with relaxed eps on pairing failure."""
    try:
        return complete_grid(table_box, cells, cfg)
    except BandPairingError as exc:
        boxes = [c.box for c in cells]
        relaxed = GridConfig(
            eps_row=resolve_eps(cfg.eps_row, boxes, "row") * RETRY_EPS_FACTOR,
            eps_col=resolve_eps(cfg.eps_col, boxes, "col") * RETRY_EPS_FACTOR,
            min_pts=cfg.min_pts,
        )
        log.warning("band pairing failed (%s); retrying with eps x %.2f", exc, RETRY_EPS_FACTOR)
        return complete_grid(table_box, cells, relaxed)


ROW_ALIGN_FRACTION = 0.8
# A split table piece must end within this fraction of its width of the
# center line for the pieces to count as abutting.  The test uses the
# clustered column-band extremes rather than the table hull: under skew the
# hull of a whole table inflates by its height times sin(angle), while cell
# borders inflate only by a cell height's worth.
ABUT_TOLERANCE_FRACTION = 0.05


def _detected_cells(table: GridTable) -> list[CellHypothesis]:
    out = [cell.hyp for row in table.cells for cell in row if cell.provenance == "detected"]
    out.extend(table.residual)
    return out


def _rows_aligned(a: GridTable, b: GridTable, eps_row: float) -> bool:
    centers_b = [band.center for band in b.rows]
    used = [False] * len(centers_b)
    matched = 0
    for band in a.rows:
        best = None
        for j, cb in enumerate(centers_b):
            if used[j]:
                continue
            d = abs(band.center - cb)
            if d <= eps_row and (best is None or d < best[0]):
                best = (d, j)
        if best is not None:
            used[best[1]] = True
            matched += 1
    return matched / max(len(a.rows), len(b.rows)) >= ROW_ALIGN_FRACTION


def merge_split_tables(
    tables: Sequence[GridTable], center_x: float, cfg: GridConfig | None = None
) -> list[GridTable]:
    """Re-join full-opening tables that were detected as two per-page halves.

    Two tables merge when their row bands align pairwise (at least 80% of
    rows within eps_row) and their boxes abut the center line from opposite
    sides.  The merged table is rebuilt by re-running grid completion on the
    combined detected cells, concatenating the column sets.  Non-matching
    tables pass through unchanged.
    """
    cfg = cfg or GridConfig()
    ordered = sorted(
        range(len(tables)), key=lambda i: (tables[i].table_box.y_min, tables[i].table_box.x_min)
    )
    lefts = [i for i in ordered if tables[i].table_box.center.x < center_x]
    rights = [i for i in ordered if tables[i].table_box.center.x >= center_x]
    merged_away: set[int] = set()
    merged_tables: dict[int, GridTable] = {}
    for li in lefts:
        if li in merged_away:
            continue
        a = tables[li]
        tol = ABUT_TOLERANCE_FRACTION * max(a.table_box.width, 1.0)
        for ri in rights:
            if ri in merged_away:
                continue
            b = tables[ri]
            tol_b = ABUT_TOLERANCE_FRACTION * max(b.table_box.width, 1.0)
            a_right = a.cols[-1].end
            b_left = b.cols[0].start
            if abs(a_right - center_x) > tol or abs(b_left - center_x) > tol_b:
                continue
            combined = _detected_cells(a) + _detected_cells(b)
            eps_row = resolve_eps(cfg.eps_row, [c.box for c in combined], "row")
            if not _rows_aligned(a, b, eps_row):
                continue
            union_box = Box(
                min(a.table_box.x_min, b.table_box.x_min),
                min(a.table_box.y_min, b.table_box.y_min),
                max(a.table_box.x_max, b.table_box.x_max),
                max(a.table_box.y_max, b.table_box.y_max),
                max(a.table_box.confidence, b.table_box.confidence),
            )
            try:
                merged = complete_grid_with_retry(union_box, combined, cfg)
            except GridError as exc:
                log.warning("split-table merge failed, keeping halves: %s", exc)
                continue
            merged_tables[li] = merged
            merged_away.update({li, ri})
            break
    out = []
    for i in ordered:
        if i in merged_tables:
            out.append(merged_tables[i])
        elif i not in merged_away:
            out.append(tables[i])
    return out
