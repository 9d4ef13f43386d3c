"""Independent brute-force reference implementations used as test oracles.

These deliberately avoid the library's code paths: quadratic neighbor
search for DBSCAN, a full-matrix edit distance, all-pairs and exhaustive
box matching and exhaustive year-sequence search.  Keep them dumb.

The per-box references and the document reader at the end keep the
library's earlier, slower validation, projection, IoU and parsing code
verbatim: the rewritten functions must give the same results and raise the
same errors; ``read_records_reference`` keeps the two record readers, one
per format, as they were before one record check served both.
``cmd_eval_reference`` keeps the eval command as it was when
it scored every document inline, verbatim: the eval reports must stay the
same bytes.  ``complete_grid_reference`` keeps grid completion's slot
placement as it was when it scored every candidate slot through a slot
``Box``: the placed cells and the residuals must stay the same.
``assemble_records_reference`` and ``realign_columns_reference`` keep
record assembly as it was when it built per-cell type, text and fill
matrices and wrote a row's column mapping once per outcome: the records
and alignments must stay the same.  ``normalize_year_token_reference`` and
``infer_sequence_reference`` keep the year step as it was when token repair
tested its candidates for digits and the DP backfilled a book's leading
pages in a second pass: every token and every book must resolve the same.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from migrec import evaluation as ev
from migrec.cells import (
    REALIGN_THRESHOLD,
    ColumnSchema,
    RowAlignment,
    cell_text,
    fill_repetitions,
    is_date_text,
)
from migrec.chrono import (
    BookYearSequence,
    ChronoConfig,
    PageObservations,
    ResolvedPage,
    evaluate_years,
    infer_sequence,
)
from migrec.cli import EXIT_FATAL, EXIT_OK, _document_paths
from migrec.geometry import PointAtInfinityError, angle_stats, apply_point, edge_angle_from_vertical
from migrec.gridrec import (
    EMPTY_PRIOR,
    GridConfig,
    GridCell,
    GridError,
    GridTable,
    cluster_bands,
    complete_grid_with_retry,
)
from migrec.interchange import (
    CELL_CLAMP_TOLERANCE,
    LAYOUT_TYPES,
    PROB_RENORM_LIMIT,
    PROB_SUM_TOLERANCE,
    Box,
    CellHypothesis,
    CellLine,
    DetectionDocument,
    MigrationRecord,
    OpeningKeypoints,
    ParseError,
    Point,
    TableDetection,
    TextHypothesis,
    ValidationError,
    YearDetection,
    _not_utf8,
    decode_json_line,
    dominant_class,
    normalize_class_probs,
    read_document,
    validate_box,
    validate_keypoints,
    validate_record,
    validate_text,
    write_csv,
)
from migrec.pipeline import collect_years, deskew_document


def dbscan_reference(values, eps, min_pts):
    """Quadratic-neighbor-search DBSCAN on the line.

    Same contract as the library: seeds visited in ascending (value, index)
    order, cluster ids in discovery order, closed eps balls, a point counts
    itself toward min_pts.
    """
    n = len(values)
    order = sorted(range(n), key=lambda i: (values[i], i))
    UNVISITED, NOISE = -2, -1
    labels = {i: UNVISITED for i in range(n)}

    def neighbors(i):
        return [j for j in order if abs(values[j] - values[i]) <= eps]

    cluster = 0
    for i in order:
        if labels[i] != UNVISITED:
            continue
        seed_neighbors = neighbors(i)
        if len(seed_neighbors) < min_pts:
            labels[i] = NOISE
            continue
        labels[i] = cluster
        queue = list(seed_neighbors)
        k = 0
        while k < len(queue):
            j = queue[k]
            k += 1
            if labels[j] == NOISE:
                labels[j] = cluster
            if labels[j] != UNVISITED:
                continue
            labels[j] = cluster
            j_neighbors = neighbors(j)
            if len(j_neighbors) >= min_pts:
                queue.extend(j_neighbors)
        cluster += 1
    return [labels[i] for i in range(n)]


def edit_distance_reference(a: str, b: str) -> int:
    """Full-matrix Levenshtein distance."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[-1][-1]


def iou_reference(a, b) -> float:
    """IoU from explicit interval overlaps."""
    ix = max(0.0, min(a.x_max, b.x_max) - max(a.x_min, b.x_min))
    iy = max(0.0, min(a.y_max, b.y_max) - max(a.y_min, b.y_min))
    inter = ix * iy
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def optimal_matching_tp(pred, gold, thr, iou_fn) -> int:
    """Maximum number of one-to-one matches with IoU above the threshold.

    Exhaustive over injections of the smaller set into the larger one;
    only usable for tiny instances.
    """
    if len(pred) > len(gold):
        pred, gold = gold, pred
    best = 0
    indices = range(len(gold))
    for assignment in itertools.permutations(indices, len(pred)):
        tp = sum(
            1
            for pi, gi in enumerate(assignment)
            if iou_fn(pred[pi], gold[gi]) > thr
        )
        best = max(best, tp)
    return best


def match_detections_reference(pred, gold, thr, iou_fn):
    """All-pairs greedy box matching: the contract of ``match_detections``.

    Scores every (pred, gold) pair, keeps IoU strictly above the threshold,
    and takes pairs by descending IoU, then earlier prediction, then earlier
    ground truth, each box at most once.  Returns ((tp, fp, fn), pairing)
    with pairing as (pred index, gold index, IoU) in the order taken.
    """
    scored = sorted(
        (-iou_fn(p, g), pi, gi)
        for pi, p in enumerate(pred)
        for gi, g in enumerate(gold)
        if iou_fn(p, g) > thr
    )
    used_pred, used_gold, pairing = set(), set(), []
    for neg_score, pi, gi in scored:
        if pi not in used_pred and gi not in used_gold:
            used_pred.add(pi)
            used_gold.add(gi)
            pairing.append((pi, gi, -neg_score))
    tp = len(pairing)
    return (tp, len(pred) - tp, len(gold) - tp), pairing


def split_metrics_reference(pairs, edit_distance_fn):
    """Text metric rows scored subset by subset, as (label, EM %, CER,
    average reference length, support): textual references contain a
    letter, numeric ones do not, and "all" is every pair."""
    subsets = (
        ("textual", [(p, r) for p, r in pairs if any(ch.isalpha() for ch in r)]),
        ("numeric", [(p, r) for p, r in pairs if not any(ch.isalpha() for ch in r)]),
        ("all", list(pairs)),
    )
    rows = []
    for label, subset in subsets:
        if not subset:
            rows.append((label, 0.0, 0.0, 0.0, 0))
            continue
        exact = sum(1 for p, r in subset if p.strip() == r.strip())
        dist = sum(edit_distance_fn(p, r) for p, r in subset)
        ref_len = sum(len(r) for _, r in subset)
        rows.append(
            (label, 100.0 * exact / len(subset), dist / ref_len if ref_len else 0.0,
             ref_len / len(subset), len(subset))
        )
    return rows


def best_year_assignment(page_years, max_jump):
    """Exhaustive search over per-page keep-or-discard year assignments.

    ``page_years`` is a list of per-page year multisets (lists).  Returns the
    minimal (discarded, overridden_pages, total_jump) cost over all feasible
    assignments, where each page either keeps one of its observed years
    (non-decreasing, bounded jumps between kept pages) or discards them all.
    """
    n = len(page_years)
    options = []
    for years in page_years:
        opts = [None] + sorted(set(years))
        options.append(opts)
    best = None
    for combo in itertools.product(*options):
        kept = [(i, y) for i, y in enumerate(combo) if y is not None]
        feasible = True
        for (_, y1), (_, y2) in zip(kept, kept[1:]):
            if y2 < y1 or y2 - y1 > max_jump:
                feasible = False
                break
        if not feasible:
            continue
        discarded = 0
        overridden = 0
        for i, y in enumerate(combo):
            obs = page_years[i]
            if y is None:
                discarded += len(obs)
                if obs:
                    overridden += 1
            else:
                discarded += len(obs) - obs.count(y)
        jump = sum(y2 - y1 for (_, y1), (_, y2) in zip(kept, kept[1:]))
        cost = (discarded, overridden, jump)
        if best is None or cost < best:
            best = cost
    return best


def fill_repetitions_reference(column):
    """O(n^2) scan-back repetition fill."""
    out = []
    for i, (cell_type, text) in enumerate(column):
        if cell_type == "empty":
            out.append(None)
        elif cell_type == "repetition":
            value = None
            for j in range(i - 1, -1, -1):
                t, s = column[j]
                if t in ("single_line", "multi_line") and s:
                    value = s
                    break
            out.append(value)
        else:
            out.append(text)
    return out


def match_parish_reference(raw, gazetteer, max_rel_dist):
    """Brute-force parish match: full-matrix distance to every known form.

    Same rules as the library: case and whitespace folded; exact and
    variant hits first; a colon abbreviation is expanded when its prefix
    and suffix fit the forms of exactly one parish; otherwise the nearest
    forms decide, and a tie across parishes is unmatched with its
    candidates listed whatever the cap.  Returns (canonical, score,
    method, candidates).
    """

    def fold(name):
        return " ".join(name.casefold().split())

    unmatched = (None, 0.0, "unmatched", ())
    folded = fold(raw)
    if not folded:
        return unmatched
    owner = {}
    for canonical, variants in gazetteer.entries.items():
        for form in (canonical, *variants):
            owner[fold(form)] = canonical
    if folded in owner:
        canonical = owner[folded]
        return (canonical, 1.0, "exact" if folded == fold(canonical) else "variant", ())
    if ":" in folded:
        prefix, _, suffix = folded.partition(":")
        prefix, suffix = prefix.strip(), suffix.strip()
        if prefix and suffix:
            fits = {
                canonical
                for form, canonical in owner.items()
                if form.startswith(prefix)
                and form.endswith(suffix)
                and len(form) >= len(prefix) + len(suffix)
            }
            if len(fits) == 1:
                return (fits.pop(), 1.0, "variant", ())
    if not owner:
        return unmatched
    dist = {form: edit_distance_reference(folded, form) for form in owner}
    best = min(dist.values())
    nearest = [form for form, d in dist.items() if d == best]
    candidates = sorted({owner[form] for form in nearest})
    if len(candidates) > 1:
        return (None, 0.0, "unmatched", tuple(candidates))
    form = max(nearest, key=lambda f: (len(f), f))
    rel = best / max(len(folded), len(form))
    if rel <= max_rel_dist:
        return (candidates[0], 1.0 - rel, "fuzzy", ())
    return unmatched


# --- per-box references: validation, projection, IoU -------------------------


def _check_finite_reference(value, path):
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ValidationError("value must be a finite number", path)


def validate_box_reference(b, path):
    """Every field checked with a path built up front (raises OverflowError
    for an int too large for a float, which the library now rejects)."""
    for name in ("x_min", "y_min", "x_max", "y_max", "confidence"):
        _check_finite_reference(getattr(b, name), f"{path}.{name}")
    if not b.x_min < b.x_max:
        raise ValidationError("x_min must be < x_max", path)
    if not b.y_min < b.y_max:
        raise ValidationError("y_min must be < y_max", path)
    if not 0.0 <= b.confidence <= 1.0:
        raise ValidationError("confidence must lie in [0, 1]", path)


def normalize_class_probs_reference(probs, path="class_probs"):
    if len(probs) != 4:
        raise ValidationError("expected exactly 4 class probabilities", path)
    values = []
    for i, p in enumerate(probs):
        _check_finite_reference(p, f"{path}[{i}]")
        if not -PROB_SUM_TOLERANCE <= p <= 1.0 + PROB_SUM_TOLERANCE:
            raise ValidationError("probability outside [0, 1]", f"{path}[{i}]")
        values.append(min(max(float(p), 0.0), 1.0))
    total = sum(values)
    if abs(total - 1.0) <= PROB_SUM_TOLERANCE:
        return tuple(values)
    if abs(total - 1.0) <= PROB_RENORM_LIMIT:
        return tuple(v / total for v in values)
    raise ValidationError(f"class probabilities sum to {total:.6f}, not 1", path)


def validate_text_reference(t, path):
    if not isinstance(t.text, str):
        raise ValidationError("text must be a string", f"{path}.text")
    _check_finite_reference(t.confidence, f"{path}.confidence")
    if not 0.0 <= t.confidence <= 1.0:
        raise ValidationError("confidence must lie in [0, 1]", f"{path}.confidence")


def apply_point_reference(h, p):
    m = h.m
    w = m[2][0] * p.x + m[2][1] * p.y + m[2][2]
    if abs(w) < 1e-12:
        raise PointAtInfinityError(f"point ({p.x}, {p.y}) maps to infinity")
    x = (m[0][0] * p.x + m[0][1] * p.y + m[0][2]) / w
    y = (m[1][0] * p.x + m[1][1] * p.y + m[1][2]) / w
    return Point(x, y)


def transform_box_reference(h, box):
    """Hull of the four corners, each projected as a Point."""
    corners = [
        apply_point_reference(h, Point(box.x_min, box.y_min)),
        apply_point_reference(h, Point(box.x_max, box.y_min)),
        apply_point_reference(h, Point(box.x_max, box.y_max)),
        apply_point_reference(h, Point(box.x_min, box.y_max)),
    ]
    xs = [c.x for c in corners]
    ys = [c.y for c in corners]
    return Box(min(xs), min(ys), max(xs), max(ys), box.confidence)


def iou_area_reference(a, b):
    """IoU with the union taken from ``Box.area``."""
    w = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    h = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    inter = w * h
    union = a.area + b.area - inter
    return inter / union


# --- document reader: parse every line, then validate the whole document ------


def _validate_document_reference(doc):
    """The second walk of the earlier reader; class distributions were
    validated and renormalized at parse."""
    for name in ("opening_id", "book_id"):
        value = getattr(doc, name)
        if not value:
            raise ValidationError(f"{name} must be non-empty", name)
        if not isinstance(value, str):
            raise ValidationError(f"{name} must be a string", name)
    for name in ("image_width", "image_height"):
        value = getattr(doc, name)
        if type(value) is bool or not isinstance(value, int) or value <= 0:
            raise ValidationError("must be a positive integer", name)
    if doc.layout_type not in LAYOUT_TYPES:
        raise ValidationError(
            f"unknown layout_type {doc.layout_type!r}; expected one of {LAYOUT_TYPES}",
            "layout_type",
        )
    if doc.keypoints is not None:
        validate_keypoints(doc.keypoints)
    for t, table in enumerate(doc.tables):
        tpath = f"tables[{t}]"
        validate_box(table.box, f"{tpath}.box")
        for c, cell in enumerate(table.cells):
            cpath = f"{tpath}.cells[{c}]"
            validate_box(cell.box, f"{cpath}.box")
            if cell.lines and dominant_class(cell.class_probs) != "multi_line":
                raise ValidationError(
                    "line boxes present but dominant class is not multi_line", f"{cpath}.lines"
                )
            for i, line in enumerate(cell.lines):
                validate_box(line.box, f"{cpath}.lines[{i}].box")
                validate_text(line.text, f"{cpath}.lines[{i}].text")
            if cell.text is not None:
                validate_text(cell.text, f"{cpath}.text")
            tol = CELL_CLAMP_TOLERANCE
            if (
                cell.box.x_min < table.box.x_min - tol
                or cell.box.y_min < table.box.y_min - tol
                or cell.box.x_max > table.box.x_max + tol
                or cell.box.y_max > table.box.y_max + tol
            ):
                raise ValidationError(
                    "cell box lies outside its table box beyond the clamping tolerance",
                    f"{cpath}.box",
                )
    for y, det in enumerate(doc.year_detections):
        validate_box(det.box, f"year_detections[{y}].box")
        validate_text(det.text, f"year_detections[{y}].text")


def _parse_point_reference(obj, path):
    if not isinstance(obj, dict) or set(obj) != {"x", "y"}:
        raise ParseError("expected an object with fields x, y", path)
    return Point(obj["x"], obj["y"])


_BOX_KEYS = frozenset(("x_min", "y_min", "x_max", "y_max", "confidence"))
_TEXT_KEYS = frozenset(("text", "confidence"))


def _parse_box_reference(obj, path):
    if not isinstance(obj, dict) or obj.keys() != _BOX_KEYS:
        raise ParseError(f"expected an object with fields {sorted(_BOX_KEYS)}", path)
    return Box(obj["x_min"], obj["y_min"], obj["x_max"], obj["y_max"], obj["confidence"])


def _parse_text_reference(obj, path):
    if not isinstance(obj, dict) or obj.keys() != _TEXT_KEYS:
        raise ParseError("expected an object with fields text, confidence", path)
    return TextHypothesis(obj["text"], obj["confidence"])


def read_document_reference(path):
    """Parse every line, then validate the whole document in a second walk.

    Value errors found in the walk name a document path
    (``tables[0].cells[3].box.x_min``) with no line; a bool ``table`` index
    is taken as 0 or 1, and a file that is not UTF-8 raises a bare
    ``UnicodeDecodeError``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        raw_lines = [line for line in handle.read().split("\n") if line.strip()]
    if not raw_lines:
        raise ParseError("empty document file", "line 1")

    header = None
    tables = []
    years = []
    for lineno, raw in enumerate(raw_lines, start=1):
        where = f"line {lineno}"
        try:
            obj = json.loads(raw)
        except ValueError as exc:
            raise ParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", where) from exc
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ParseError("expected an object with a 'kind' field", where)
        kind = obj["kind"]
        if kind == "document":
            if header is not None:
                raise ParseError("duplicate document header", where)
            kp = None
            if obj.get("keypoints") is not None:
                kp_obj = obj["keypoints"]
                if not isinstance(kp_obj, dict) or set(kp_obj) != set("abcdef"):
                    raise ParseError("keypoints must map exactly a..f", f"{where}: keypoints")
                kp = OpeningKeypoints(
                    **{
                        name: _parse_point_reference(kp_obj[name], f"{where}: keypoints.{name}")
                        for name in "abcdef"
                    }
                )
            try:
                header = DetectionDocument(
                    opening_id=obj["opening_id"],
                    book_id=obj["book_id"],
                    image_width=obj["image_width"],
                    image_height=obj["image_height"],
                    layout_type=obj["layout_type"],
                    keypoints=kp,
                )
            except KeyError as exc:
                raise ParseError(f"missing document field {exc.args[0]!r}", where) from exc
        elif kind == "table":
            tables.append((_parse_box_reference(obj.get("box"), f"{where}: box"), []))
        elif kind == "cell":
            index = obj.get("table")
            if not isinstance(index, int) or not 0 <= index < len(tables):
                raise ParseError(f"cell references unknown table {index!r}", where)
            probs = obj.get("class_probs")
            if not isinstance(probs, list):
                raise ParseError("class_probs must be a list", f"{where}: class_probs")
            line_objs = obj.get("lines") or []
            if isinstance(line_objs, (int, float)):
                raise ParseError("lines must be a list", f"{where}: lines")
            lines = []
            for i, line_obj in enumerate(line_objs):
                lpath = f"{where}: lines[{i}]"
                if not isinstance(line_obj, dict):
                    raise ParseError("line entries must be objects", lpath)
                lines.append(
                    CellLine(
                        _parse_box_reference(line_obj.get("box"), f"{lpath}.box"),
                        _parse_text_reference(line_obj.get("text"), f"{lpath}.text"),
                    )
                )
            text = obj.get("text")
            cell = CellHypothesis(
                box=_parse_box_reference(obj.get("box"), f"{where}: box"),
                class_probs=normalize_class_probs(probs, f"{where}: class_probs"),
                text=None if text is None else _parse_text_reference(text, f"{where}: text"),
                lines=tuple(lines),
            )
            tables[index][1].append(cell)
        elif kind == "year":
            years.append(
                YearDetection(
                    _parse_box_reference(obj.get("box"), f"{where}: box"),
                    _parse_text_reference(obj.get("text"), f"{where}: text"),
                )
            )
        else:
            raise ParseError(f"unknown line kind {kind!r}", where)

    if header is None:
        raise ParseError("missing document header line", "line 1")
    doc = replace(
        header,
        tables=tuple(TableDetection(box, tuple(cells)) for box, cells in tables),
        year_detections=tuple(years),
    )
    _validate_document_reference(doc)
    return doc


# --- record readers: one per format ------------------------------------------

_RECORD_COLUMNS = (
    "book_id",
    "opening_id",
    "page_side",
    "year",
    "direction",
    "parish_raw",
    "parish_canonical",
    "flags",
)
_FIELD_PREFIX = "field:"
_JSONL_KEYS = (
    "book_id",
    "opening_id",
    "page_side",
    "year",
    "direction",
    "fields",
    "parish_raw",
    "parish_canonical",
    "flags",
)


def read_records_reference(path: str, format: str = "csv") -> list[MigrationRecord]:
    """Parse a record file written by :func:`write_records`, one reader per format.

    A JSONL record takes any JSON value for its ids, parish names, field
    values and flags (an unhashable flag raises a bare ``TypeError``), and a
    CSV field over the csv module's size limit raises a bare ``csv.Error``.
    A malformed row raises :class:`ParseError` naming its line and field:
    a CSV row must have exactly the header's cells (blank lines are
    skipped), and a JSONL record every key :func:`write_records` writes.
    Each record is validated as it is parsed, so an invalid value raises
    :class:`ValidationError` at ``line N: record.<field>``.  A file that is
    not UTF-8 raises :class:`ParseError` naming the line of its first bad
    byte.
    """
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown record format {format!r}")
    try:
        if format == "csv":
            return _read_csv_records_reference(path)
        return _read_jsonl_records_reference(path)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _read_csv_records_reference(path: str) -> list[MigrationRecord]:
    records: list[MigrationRecord] = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            head = next(reader)
        except StopIteration:
            raise ParseError("empty records file", "line 1") from None
        if head[: len(_RECORD_COLUMNS)] != list(_RECORD_COLUMNS):
            raise ParseError("unexpected CSV header", "line 1")
        labels = [c[len(_FIELD_PREFIX) :] for c in head[len(_RECORD_COLUMNS) :]]
        for row in reader:
            if not row:
                continue
            where = f"line {reader.line_num}"
            if len(row) < len(head):
                raise ParseError(
                    f"row has {len(row)} cells, the header {len(head)}",
                    f"{where}: {head[len(row)]}",
                )
            if len(row) > len(head):
                raise ParseError(
                    f"row has {len(row)} cells, the header {len(head)}",
                    f"{where}: column {len(head) + 1}",
                )
            fixed, rest = row[: len(_RECORD_COLUMNS)], row[len(_RECORD_COLUMNS) :]
            try:
                year = int(fixed[3]) if fixed[3] else None
            except ValueError:
                raise ParseError(
                    f"year must be an integer, not {fixed[3]!r}", f"{where}: year"
                ) from None
            record = MigrationRecord(
                book_id=fixed[0],
                opening_id=fixed[1],
                page_side=fixed[2],
                year=year,
                direction=fixed[4],
                parish_raw=fixed[5] or None,
                parish_canonical=fixed[6] or None,
                flags=frozenset(f for f in fixed[7].split(";") if f),
                fields=dict(zip(labels, rest)),
            )
            validate_record(record, f"{where}: record")
            records.append(record)
    return records


def _read_jsonl_records_reference(path: str) -> list[MigrationRecord]:
    records: list[MigrationRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            where = f"line {lineno}"
            obj = decode_json_line(raw, lineno)
            if not isinstance(obj, dict):
                raise ParseError("expected a JSON object", where)
            for key in _JSONL_KEYS:
                if key not in obj:
                    raise ParseError("missing record field", f"{where}: {key}")
            year = obj["year"]
            if year is not None and (not isinstance(year, int) or isinstance(year, bool)):
                raise ParseError(f"year must be an integer or null, not {year!r}", f"{where}: year")
            if not isinstance(obj["fields"], dict):
                raise ParseError("fields must be an object", f"{where}: fields")
            if not isinstance(obj["flags"], list):
                raise ParseError("flags must be a list", f"{where}: flags")
            record = MigrationRecord(
                book_id=obj["book_id"],
                opening_id=obj["opening_id"],
                page_side=obj["page_side"],
                year=year,
                direction=obj["direction"],
                fields=dict(obj["fields"]),
                parish_raw=obj["parish_raw"],
                parish_canonical=obj["parish_canonical"],
                flags=frozenset(obj["flags"]),
            )
            validate_record(record, f"{where}: record")
            records.append(record)
    return records


# ---------------------------------------------------------------------------
# Grid completion, placing each cell by scoring slot boxes
# ---------------------------------------------------------------------------


def _overlap_area_reference(box: Box, slot: Box) -> float:
    w = min(box.x_max, slot.x_max) - max(box.x_min, slot.x_min)
    h = min(box.y_max, slot.y_max) - max(box.y_min, slot.y_min)
    return max(w, 0.0) * max(h, 0.0)


def _slot_box_reference(rows, cols, r: int, c: int) -> Box:
    return Box(cols[c].start, rows[r].start, cols[c].end, rows[r].end, 0.0)


def complete_grid_reference(table_box: Box, cells, cfg: GridConfig) -> GridTable:
    """``complete_grid`` with every candidate slot scored as a ``Box``."""
    if not cells:
        raise GridError("complete_grid requires at least one detected cell")
    boxes = [c.box for c in cells]
    rows = cluster_bands(boxes, "row", cfg)
    cols = cluster_bands(boxes, "col", cfg)
    slots = [[None] * len(cols) for _ in rows]
    residual = []
    for idx, cell in enumerate(cells):
        center = cell.box.center
        row_hits = [i for i, b in enumerate(rows) if b.start <= center.y <= b.end]
        col_hits = [i for i, b in enumerate(cols) if b.start <= center.x <= b.end]
        if not row_hits or not col_hits:
            residual.append(cell)
            continue
        r, c = max(
            ((rr, cc) for rr in row_hits for cc in col_hits),
            key=lambda rc: _overlap_area_reference(
                cell.box, _slot_box_reference(rows, cols, rc[0], rc[1])
            ),
        )
        incumbent = slots[r][c]
        if incumbent is None:
            slots[r][c] = (cell, idx)
            continue
        slot = _slot_box_reference(rows, cols, r, c)
        challenger_key = (cell.box.confidence, _overlap_area_reference(cell.box, slot), -idx)
        incumbent_key = (
            incumbent[0].box.confidence,
            _overlap_area_reference(incumbent[0].box, slot),
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
                        CellHypothesis(
                            box=_slot_box_reference(rows, cols, r, c), class_probs=EMPTY_PRIOR
                        ),
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


# ---------------------------------------------------------------------------
# The eval command as one loop, before scoring moved into the pipeline core
# ---------------------------------------------------------------------------

log = logging.getLogger(__name__)


def _grid_boxes_reference(tables, grid_cfg: GridConfig):
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


def cmd_eval_reference(
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

        pred_rows, pred_cols = _grid_boxes_reference(pred_tables, grid_cfg)
        gold_rows, gold_cols = _grid_boxes_reference(gold_tables, grid_cfg)
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
# Record assembly: per-cell matrices, one mapping built per outcome
# ---------------------------------------------------------------------------

REALIGN_WINDOW = 2


def is_numeric_text_reference(text: str) -> bool:
    """Digits and punctuation only (no letters), non-empty."""
    stripped = text.strip()
    return bool(stripped) and not any(ch.isalpha() for ch in stripped)


def _kind_score_reference(text: str | None, kind: str) -> float:
    if text is None or not text.strip():
        return 0.5  # empty cells are uninformative, neither match nor mismatch
    if kind == "any":
        return 1.0
    if kind == "numeric":
        return 1.0 if is_numeric_text_reference(text) else 0.0
    if kind == "date":
        return 1.0 if is_date_text(text) else 0.0
    if kind in ("text", "parish"):
        return 1.0 if any(ch.isalpha() for ch in text) else 0.0
    raise ValueError(f"unknown column kind {kind!r}")


def _length_closeness_reference(text: str, avg_len: float) -> float:
    return max(0.0, 1.0 - abs(len(text) - avg_len) / max(avg_len, 1.0))


def _column_score_reference(text: str | None, kind: str, avg_len: float | None) -> float:
    kind_score = _kind_score_reference(text, kind)
    if avg_len is None or text is None or not text.strip():
        return kind_score
    return 0.5 * kind_score + 0.5 * _length_closeness_reference(text, avg_len)


def realign_columns_reference(row_texts: Sequence[str | None], schema: ColumnSchema) -> RowAlignment:
    """Map one row of cell texts onto schema labels.

    A row with the expected column count whose every non-empty cell matches
    its column's data kind maps positionally (status ``expected``).
    Otherwise alignments shifted by -2..+2 positions are scored by kind
    compatibility blended with text-length closeness, and the best is taken
    if its mean score exceeds the threshold; failing that the row is marked
    ``failed`` and the parish field is left empty.
    """
    n = len(schema.labels)
    if len(row_texts) == n and all(
        _kind_score_reference(row_texts[i], schema.kinds[i]) >= REALIGN_THRESHOLD for i in range(n)
    ):
        return RowAlignment(
            mapping={label: row_texts[i] for i, label in enumerate(schema.labels)},
            status="expected",
            shift=0,
        )

    best: tuple[float, int] | None = None
    for shift in sorted(range(-REALIGN_WINDOW, REALIGN_WINDOW + 1), key=lambda s: (abs(s), s)):
        total = 0.0
        for i in range(n):
            src = i + shift
            if 0 <= src < len(row_texts):
                total += _column_score_reference(row_texts[src], schema.kinds[i], schema.avg_len(i))
            # sources shifted outside the row contribute zero
        score = total / n
        if best is None or score > best[0]:
            best = (score, shift)

    score, shift = best
    if score > REALIGN_THRESHOLD:
        mapping = {}
        for i, label in enumerate(schema.labels):
            src = i + shift
            mapping[label] = row_texts[src] if 0 <= src < len(row_texts) else None
        return RowAlignment(mapping=mapping, status="realigned", shift=shift)

    mapping = {
        label: (row_texts[i] if i < len(row_texts) else None)
        for i, label in enumerate(schema.labels)
    }
    parish = schema.parish_label()
    if parish is not None:
        mapping[parish] = None
    return RowAlignment(mapping=mapping, status="failed", shift=0)


def assemble_records_reference(
    grid: GridTable,
    year: int | None,
    direction: str,
    schema: ColumnSchema | None,
    side: str,
    *,
    book_id: str = "",
    opening_id: str = "",
    year_inferred: bool = False,
) -> list[MigrationRecord]:
    """Turn a completed grid into one migration record per non-empty row.

    Repetition fill is applied per column (idempotent, so pre-filled grids
    are safe).  Rows whose every cell is typed empty are elided: they are
    ruled lines without entries, not records.  Flags capture inferred cells,
    repetition fills, realignment (``realign_failed`` when no alignment
    scores above the threshold: the row keeps no parish) and year
    provenance.
    """
    n_rows, n_cols = grid.n_rows, grid.n_cols
    types = [
        [dominant_class(grid.cells[r][c].hyp.class_probs) for c in range(n_cols)]
        for r in range(n_rows)
    ]
    raw_texts = [[cell_text(grid.cells[r][c].hyp) for c in range(n_cols)] for r in range(n_rows)]

    filled = [[None] * n_cols for _ in range(n_rows)]
    filled_flags = [[False] * n_cols for _ in range(n_rows)]
    for c in range(n_cols):
        column = [(types[r][c], raw_texts[r][c]) for r in range(n_rows)]
        resolved = fill_repetitions(column)
        for r in range(n_rows):
            filled[r][c] = resolved[r]
            filled_flags[r][c] = types[r][c] == "repetition" and resolved[r] is not None

    records = []
    for r in range(n_rows):
        if all(t == "empty" for t in types[r]):
            continue
        flags = set()
        if any(grid.cells[r][c].provenance == "inferred" for c in range(n_cols)):
            flags.add("inferred_cell")
        if any(filled_flags[r]):
            flags.add("repetition_filled")
        if year_inferred and year is not None:
            flags.add("year_inferred")

        parish_raw = None
        if schema is not None:
            alignment = realign_columns_reference(filled[r], schema)
            if alignment.status == "realigned":
                flags.add("realigned")
            elif alignment.status == "failed":
                flags.add("realign_failed")
            fields = {label: alignment.mapping[label] or "" for label in schema.labels}
            parish_label = schema.parish_label()
            if parish_label is not None:
                parish_raw = alignment.mapping.get(parish_label) or None
        else:
            fields = {f"col_{c}": filled[r][c] or "" for c in range(n_cols)}

        records.append(
            MigrationRecord(
                book_id=book_id,
                opening_id=opening_id,
                page_side=side,
                direction=direction,
                year=year,
                fields=fields,
                parish_raw=parish_raw,
                flags=frozenset(flags),
            )
        )
    return records


# --- the year step as it was before its carry rule was stated once -----------

_SEPARATOR_REPAIRS_REFERENCE = {"/": "1"}
_CENTURY_PREFIXES_REFERENCE = ("17", "18", "19")


def normalize_year_token_reference(raw: str, cfg: ChronoConfig | None = None) -> int | None:
    """Parse a noisy year token into an in-range integer year, if possible.

    Rules, in order: an exact in-range 4-digit year is accepted; a 4-char
    token whose single non-digit is a known separator slip ('/' for '1') is
    repaired; a 4-char token with one damaged character in positions 2-4 is
    completed when exactly one in-range completion with century prefix
    17/18/19 exists.  Everything else yields None.
    """
    cfg = cfg or ChronoConfig()
    token = raw.strip()
    # Trim surrounding punctuation, keeping the 4-char core intact.
    while token and not (token[0].isdecimal() or token[0] in _SEPARATOR_REPAIRS_REFERENCE):
        token = token[1:]
    while token and not (token[-1].isdecimal() or token[-1] in _SEPARATOR_REPAIRS_REFERENCE):
        token = token[:-1]
    if len(token) != 4:
        return None

    if token.isdecimal():
        year = int(token)
        return year if cfg.in_range(year) else None

    bad = [i for i, ch in enumerate(token) if not ch.isdecimal()]
    if len(bad) != 1:
        return None
    pos = bad[0]

    repair = _SEPARATOR_REPAIRS_REFERENCE.get(token[pos])
    if repair is not None:
        candidate = token[:pos] + repair + token[pos + 1 :]
        if candidate.isdecimal():
            year = int(candidate)
            if cfg.in_range(year):
                return year

    if pos == 0:
        return None  # the century's first digit cannot be completed uniquely
    completions = []
    for digit in "0123456789":
        candidate = token[:pos] + digit + token[pos + 1 :]
        if not candidate.isdecimal() or candidate[:2] not in _CENTURY_PREFIXES_REFERENCE:
            continue
        year = int(candidate)
        if cfg.in_range(year):
            completions.append(year)
    if len(completions) == 1:
        return completions[0]
    return None


_CostReference = tuple[int, int, int]  # (discarded observations, overridden pages, total jump)


def infer_sequence_reference(
    pages: Sequence[PageObservations], cfg: ChronoConfig | None = None
) -> BookYearSequence:
    """Resolve one year per page-side over a whole book.

    Exact dynamic programming over candidate year values: each page either
    keeps one of its observed years or discards all its observations.  Kept
    years must be non-decreasing with page-to-page increase at most
    ``max_jump``; the optimum minimizes (discarded observations, overridden
    pages, total jump) lexicographically, ties resolved toward smaller
    years.  Pages without a surviving observation carry the previous
    resolved year (pages before the first kept year are backfilled from it)
    with source ``interpolated``.
    """
    cfg = cfg or ChronoConfig()
    if not pages:
        return BookYearSequence(pages=())

    page_years: list[dict[int, int]] = []
    for page in pages:
        counts: dict[int, int] = {}
        for year in page.years():
            if cfg.in_range(year):
                counts[year] = counts.get(year, 0) + 1
        page_years.append(counts)

    # DP state: last kept year (None before any). Value: best cost tuple.
    states: dict[int | None, _CostReference] = {None: (0, 0, 0)}
    choices: list[dict[int | None, tuple[int | None, int | None]]] = []
    for counts in page_years:
        total_obs = sum(counts.values())
        new_states: dict[int | None, _CostReference] = {}
        new_choice: dict[int | None, tuple[int | None, int | None]] = {}

        def offer(state: int | None, cost: _CostReference, prev: int | None, kept: int | None) -> None:
            incumbent = new_states.get(state)
            if incumbent is None or cost < incumbent:
                new_states[state] = cost
                new_choice[state] = (prev, kept)

        for prev in sorted(states, key=lambda y: (y is not None, y)):
            disc, over, jump = states[prev]
            skip_cost = (disc + total_obs, over + (1 if total_obs else 0), jump)
            offer(prev, skip_cost, prev, None)
            for year in sorted(counts):
                if prev is not None and (year < prev or year - prev > cfg.max_jump):
                    continue
                step = 0 if prev is None else year - prev
                keep_cost = (disc + total_obs - counts[year], over, jump + step)
                offer(year, keep_cost, prev, year)
        states = new_states
        choices.append(new_choice)

    final = min(states, key=lambda y: (states[y], y is not None, y))
    kept_years: list[int | None] = []
    state = final
    for choice in reversed(choices):
        prev, kept = choice[state]
        kept_years.append(kept)
        state = prev
    kept_years.reverse()

    resolved: list[ResolvedPage] = []
    current: int | None = None
    for page, kept in zip(pages, kept_years):
        if kept is not None:
            current = kept
            resolved.append(ResolvedPage(page.opening_id, page.side, kept, "observed"))
        else:
            resolved.append(ResolvedPage(page.opening_id, page.side, current, "interpolated"))
    first_year = next((p.year for p in resolved if p.year is not None), None)
    if first_year is not None:
        for i, page in enumerate(resolved):
            if page.year is not None:
                break
            resolved[i] = replace(page, year=first_year)

    sequence = BookYearSequence(pages=tuple(resolved))
    if problem := _order_problem_reference([y for y in sequence.years() if y is not None], cfg):
        raise RuntimeError(f"resolved years violate the sequence constraints: {problem}")
    return sequence


def _order_problem_reference(years: Sequence[int], cfg: ChronoConfig) -> str | None:
    """What breaks a book's year order: a fall, or a jump over ``max_jump``."""
    for a, b in zip(years, years[1:]):
        if b < a:
            return f"non-monotone sequence at {a} -> {b}"
        if b - a > cfg.max_jump:
            return f"jump {b - a} exceeds max_jump {cfg.max_jump}"
    return None
