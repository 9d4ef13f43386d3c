"""Data model and file formats for detection inputs and record outputs.

A detection document bundles everything the upstream detectors produced for
one scanned opening (a double page): the six de-skew keypoints, table and
cell boxes with class probability distributions, text hypotheses, and year
token detections.  Documents are stored one per file as line-delimited JSON;
extracted records are written as CSV (RFC 4180 quoting) or JSON lines.

All types are immutable values.  Coordinates are in original-image pixel
space with the origin at the top-left corner and y growing downward;
de-skewed coordinates are derived, never persisted.

The small types built by the hundred per opening (points, boxes, texts,
cells, tables, year detections) are declared with :func:`value_type`: a
frozen, slotted dataclass whose ``__init__`` stores each field through its
slot descriptor.  The stdlib's frozen ``__init__`` goes through
``object.__setattr__`` for every field, which costs about twice as much,
and reading, de-skewing and grid completion build these values for every
cell.  Equality, hashing, ``repr``, ``dataclasses.replace`` and pickling
stay the stdlib's own, and any assignment raises ``FrozenInstanceError``.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields, replace
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

LAYOUT_TYPES = ("handdrawn", "preprinted", "half_table", "free_text", "other")
CELL_CLASSES = ("single_line", "multi_line", "repetition", "empty")
PAGE_SIDES = ("left", "right")
DIRECTIONS = ("in", "out", "unknown")
RECORD_FLAGS = (
    "inferred_cell",
    "repetition_filled",
    "realigned",
    "realign_failed",
    "year_inferred",
    "unmatched_parish",
)

# Cell boxes may overhang their table box by at most this much and still
# validate; detectors routinely bleed a pixel or two past the table border.
CELL_CLAMP_TOLERANCE = 2.0

PROB_SUM_TOLERANCE = 1e-6
PROB_RENORM_LIMIT = 1e-3


class InterchangeError(ValueError):
    """Base error for document and record I/O."""

    def __init__(self, message: str, path: str = "") -> None:
        self.message = message
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)

    def within(self, prefix: str, sep: str = ".") -> "InterchangeError":
        """The same error at ``prefix`` + ``sep`` + its path (``prefix`` alone
        when it has none), so that a path is built only when a check fails."""
        return type(self)(self.message, f"{prefix}{sep}{self.path}" if self.path else prefix)


class ParseError(InterchangeError):
    """Raised on malformed interchange syntax."""


class ValidationError(InterchangeError):
    """Raised when a parsed value violates a documented invariant."""


def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def value_type(cls):
    """Make ``cls`` a ``@dataclass(frozen=True, slots=True)`` with a direct ``__init__``.

    The generated ``__init__`` takes the fields in order, with their
    defaults, and stores each one through its slot descriptor's ``__set__``,
    as the stdlib's would through ``object.__setattr__``.  Anything that
    ``__init__`` would have to run besides storing its arguments is refused
    with ``TypeError`` rather than skipped: ``__post_init__``, a
    ``default_factory``, and ``InitVar``, keyword-only or ``init=False``
    fields.

    Assigning or deleting any attribute raises ``FrozenInstanceError``.  The
    stdlib's frozen ``__setattr__`` does so only for field names once
    ``slots=True`` has replaced the class; any other name reaches a
    ``super()`` call bound to the replaced class and fails with a
    ``TypeError``.
    """
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"value type {cls.__name__} must not define __post_init__")
    cls = dataclass(frozen=True, slots=True)(cls)
    own = fields(cls)
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    if [p.name for p in params] != [f.name for f in own] or any(
        p.kind is not p.POSITIONAL_OR_KEYWORD for p in params
    ):
        raise TypeError(f"value type {cls.__name__} allows only plain positional fields")
    if any(f.default_factory is not MISSING for f in own):
        raise TypeError(f"value type {cls.__name__} must not use default_factory")
    namespace = {}
    args = []
    for f in own:
        namespace[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            args.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            args.append(f"{f.name}=_default_{f.name}")
    body = "".join(f"\n    _set_{f.name}(self, {f.name})" for f in own)
    exec(f"def __init__(self, {', '.join(args)}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


@value_type
class Point:
    x: float
    y: float


@value_type
class Box:
    """Axis-aligned detection box with a confidence in [0, 1]."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    confidence: float = 1.0

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> Point:
        return Point((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class OpeningKeypoints:
    """The six de-skew keypoints of an opening.

    a/b/c run along the top edge (left corner, spine, right corner) and
    d/e/f along the bottom edge in the same order.
    """

    a: Point
    b: Point
    c: Point
    d: Point
    e: Point
    f: Point

    def as_tuple(self) -> tuple[Point, Point, Point, Point, Point, Point]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)


@value_type
class TextHypothesis:
    """Recognized text with confidence; '?' marks unreadable characters."""

    text: str
    confidence: float = 1.0


@value_type
class CellLine:
    box: Box
    text: TextHypothesis


@value_type
class CellHypothesis:
    """A detected table cell with its class distribution and text.

    ``class_probs`` is ordered (single_line, multi_line, repetition, empty).
    ``lines`` is populated only for multi-line cells; single-line cells carry
    their text directly in ``text``.
    """

    box: Box
    class_probs: tuple[float, float, float, float]
    text: TextHypothesis | None = None
    lines: tuple[CellLine, ...] = ()


@value_type
class TableDetection:
    box: Box
    cells: tuple[CellHypothesis, ...] = ()


@value_type
class YearDetection:
    box: Box
    text: TextHypothesis


@dataclass(frozen=True)
class DetectionDocument:
    """All ingested detection primitives for one scanned opening."""

    opening_id: str
    book_id: str
    image_width: int
    image_height: int
    layout_type: str
    keypoints: OpeningKeypoints | None = None
    tables: tuple[TableDetection, ...] = ()
    year_detections: tuple[YearDetection, ...] = ()

    def center_line_x(self, y: float) -> float:
        """X coordinate at height ``y`` of the line dividing the two pages.

        With keypoints present the spine is the B-E segment, interpolated at
        ``y`` (its midpoint when the segment is flat); otherwise the image
        midline is used.
        """
        if self.keypoints is None:
            return self.image_width / 2.0
        b, e = self.keypoints.b, self.keypoints.e
        if abs(e.y - b.y) < 1e-9:
            return (b.x + e.x) / 2.0
        t = (y - b.y) / (e.y - b.y)
        return b.x + t * (e.x - b.x)

    def page_side(self, x: float, y: float) -> str:
        """Assign a point to the left or right page of the opening."""
        return "left" if x < self.center_line_x(y) else "right"


@dataclass(frozen=True)
class MigrationRecord:
    """One extracted record row: who moved, when, in which direction."""

    book_id: str
    opening_id: str
    page_side: str
    direction: str
    year: int | None = None
    fields: dict[str, str] = field(default_factory=dict)
    parish_raw: str | None = None
    parish_canonical: str | None = None
    flags: frozenset[str] = frozenset()

    def with_flags(self, *extra: str) -> "MigrationRecord":
        return replace(self, flags=self.flags | frozenset(extra))


def dominant_class(class_probs: Sequence[float]) -> str:
    """Argmax cell class with ties broken by the fixed class priority."""
    best = 0
    for i in range(1, 4):
        if class_probs[i] > class_probs[best]:
            best = i
    return CELL_CLASSES[best]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


_NOT_FINITE = "value must be a finite number"


def _is_finite(value) -> bool:
    """Whether ``value`` is an int or float, not a bool, with a finite float value.

    An int too large for a float is not finite.  A plain float, nearly
    every value read, skips the type tests.
    """
    if type(value) is not float and (type(value) is bool or not isinstance(value, (int, float))):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_finite(name: str, value) -> None:
    """Reject a numeric setting that is not a finite number: a NaN passes every
    ``<`` and ``<=`` test against it, and an infinity passes every upper bound."""
    if not _is_finite(value):
        raise ValueError(f"{name} must be a finite number, not {value}")


def _require_finite(obj, names: Sequence[str], path: str) -> None:
    """Raise at ``path.name`` for the first named field that is not finite."""
    for name in names:
        if not _is_finite(getattr(obj, name)):
            raise ValidationError(_NOT_FINITE, f"{path}.{name}")


def validate_point(p: Point, path: str) -> None:
    _require_finite(p, ("x", "y"), path)


_BOX_FIELDS = ("x_min", "y_min", "x_max", "y_max", "confidence")


def validate_box(b: Box, path: str) -> None:
    """Check that a box is finite, non-empty and has a confidence in [0, 1].

    Each check is a plain predicate; the field path of an error is built
    only when the check fails, so a valid box costs no string formatting.
    Five plain floats that would pass every check, nearly every box read,
    are recognised by one chained comparison (nan fails every comparison);
    anything else runs the checks.
    """
    x0, y0, x1, y1, c = b.x_min, b.y_min, b.x_max, b.y_max, b.confidence
    if (
        type(x0) is float and type(y0) is float and type(x1) is float and type(y1) is float
        and type(c) is float
        and -math.inf < x0 < x1 < math.inf and -math.inf < y0 < y1 < math.inf
        and 0.0 <= c <= 1.0
    ):
        return
    _require_finite(b, _BOX_FIELDS, path)
    if not b.x_min < b.x_max:
        raise ValidationError("x_min must be < x_max", path)
    if not b.y_min < b.y_max:
        raise ValidationError("y_min must be < y_max", path)
    if not 0.0 <= b.confidence <= 1.0:
        raise ValidationError("confidence must lie in [0, 1]", path)


def validate_keypoints(kp: OpeningKeypoints, path: str = "keypoints") -> None:
    for name, point in zip("abcdef", kp.as_tuple()):
        validate_point(point, f"{path}.{name}")
    if not (kp.a.x < kp.b.x < kp.c.x):
        raise ValidationError("top keypoints must satisfy a.x < b.x < c.x", path)
    if not (kp.d.x < kp.e.x < kp.f.x):
        raise ValidationError("bottom keypoints must satisfy d.x < e.x < f.x", path)
    if not kp.a.y < kp.d.y:
        raise ValidationError("left edge must run downward (a.y < d.y)", path)
    if not kp.c.y < kp.f.y:
        raise ValidationError("right edge must run downward (c.y < f.y)", path)


def normalize_class_probs(
    probs: Sequence[float], path: str = "class_probs"
) -> tuple[float, float, float, float]:
    """Validate a 4-class distribution, renormalizing tiny drift.

    Sums within ``PROB_RENORM_LIMIT`` of one are rescaled exactly to one;
    anything further off is rejected.  Four plain floats in [0, 1], nearly
    every distribution read, skip the per-value checks and clamps, which
    would leave them as they are.
    """
    if len(probs) != 4:
        raise ValidationError("expected exactly 4 class probabilities", path)
    a, b, c, d = probs
    if (
        type(a) is float and type(b) is float and type(c) is float and type(d) is float
        and 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and 0.0 <= c <= 1.0 and 0.0 <= d <= 1.0
    ):
        values = (a, b, c, d)
    else:
        values = []
        for i, p in enumerate(probs):
            if not _is_finite(p):
                raise ValidationError(_NOT_FINITE, f"{path}[{i}]")
            if not -PROB_SUM_TOLERANCE <= p <= 1.0 + PROB_SUM_TOLERANCE:
                raise ValidationError("probability outside [0, 1]", f"{path}[{i}]")
            values.append(0.0 if p < 0.0 else 1.0 if p > 1.0 else float(p))
    # one sum() over the same values on both paths: sum() of floats is
    # compensated from Python 3.12 on, a + b + c + d is not
    total = sum(values)
    if abs(total - 1.0) <= PROB_SUM_TOLERANCE:
        return tuple(values)  # type: ignore[return-value]
    if abs(total - 1.0) <= PROB_RENORM_LIMIT:
        return tuple(v / total for v in values)  # type: ignore[return-value]
    raise ValidationError(f"class probabilities sum to {total:.6f}, not 1", path)


def _validate_cell(cell: CellHypothesis, table_box: Box) -> None:
    """Check a cell's box, lines and text, then that it lies in ``table_box``.

    Paths are relative to the cell (``box``, ``lines[1].text``); the caller
    puts the cell's line or document path before them.
    """
    validate_box(cell.box, "box")
    if cell.lines and dominant_class(cell.class_probs) != "multi_line":
        raise ValidationError("line boxes present but dominant class is not multi_line", "lines")
    for i, line in enumerate(cell.lines):
        try:
            validate_box(line.box, "box")
            validate_text(line.text, "text")
        except ValidationError as exc:
            raise exc.within(f"lines[{i}]") from None
    if cell.text is not None:
        validate_text(cell.text, "text")
    b, t, tol = cell.box, table_box, CELL_CLAMP_TOLERANCE
    if (
        b.x_min < t.x_min - tol
        or b.y_min < t.y_min - tol
        or b.x_max > t.x_max + tol
        or b.y_max > t.y_max + tol
    ):
        raise ValidationError(
            "cell box lies outside its table box beyond the clamping tolerance", "box"
        )


def validate_text(t: TextHypothesis, path: str) -> None:
    if type(t.text) is str and type(t.confidence) is float and 0.0 <= t.confidence <= 1.0:
        return
    if not isinstance(t.text, str):
        raise ValidationError("text must be a string", f"{path}.text")
    _require_finite(t, ("confidence",), path)
    if not 0.0 <= t.confidence <= 1.0:
        raise ValidationError("confidence must lie in [0, 1]", f"{path}.confidence")


def _validate_header(doc: DetectionDocument) -> None:
    """Check the header fields and keypoints; each error names its field."""
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


def validate_document(doc: DetectionDocument) -> None:
    """Check every invariant of an in-memory document.

    Errors name a document path such as ``tables[0].cells[3].box``; class
    distributions must already be normalized.
    """
    _validate_header(doc)
    for t, table in enumerate(doc.tables):
        validate_box(table.box, f"tables[{t}].box")
        for c, cell in enumerate(table.cells):
            try:
                if normalize_class_probs(cell.class_probs) != tuple(cell.class_probs):
                    raise ValidationError("class probabilities are not normalized", "class_probs")
                _validate_cell(cell, table.box)
            except ValidationError as exc:
                raise exc.within(f"tables[{t}].cells[{c}]") from None
    for y, det in enumerate(doc.year_detections):
        validate_box(det.box, f"year_detections[{y}].box")
        validate_text(det.text, f"year_detections[{y}].text")


def validate_record(record: MigrationRecord, path: str = "record") -> None:
    if record.page_side not in PAGE_SIDES:
        raise ValidationError(f"unknown page_side {record.page_side!r}", f"{path}.page_side")
    if record.direction not in DIRECTIONS:
        raise ValidationError(f"unknown direction {record.direction!r}", f"{path}.direction")
    if record.year is not None and not isinstance(record.year, int):
        raise ValidationError("year must be an integer when present", f"{path}.year")
    unknown = set(record.flags) - set(RECORD_FLAGS)
    if unknown:
        raise ValidationError(f"unknown flags {sorted(unknown)}", f"{path}.flags")


# ---------------------------------------------------------------------------
# Document serialization (one document per file, line-delimited JSON)
# ---------------------------------------------------------------------------


def _point_obj(p: Point) -> dict:
    return {"x": p.x, "y": p.y}


def _box_obj(b: Box) -> dict:
    return {
        "x_min": b.x_min,
        "y_min": b.y_min,
        "x_max": b.x_max,
        "y_max": b.y_max,
        "confidence": b.confidence,
    }


def _text_obj(t: TextHypothesis) -> dict:
    return {"text": t.text, "confidence": t.confidence}


# one encoder for every line: json.dumps with these options builds a new one per call
_dump = json.JSONEncoder(ensure_ascii=False, separators=(", ", ": ")).encode


def write_document(doc: DetectionDocument, path: str) -> None:
    """Write one validated document as line-delimited JSON."""
    validate_document(doc)
    lines = []
    header = {
        "kind": "document",
        "opening_id": doc.opening_id,
        "book_id": doc.book_id,
        "image_width": doc.image_width,
        "image_height": doc.image_height,
        "layout_type": doc.layout_type,
        "keypoints": None
        if doc.keypoints is None
        else {name: _point_obj(p) for name, p in zip("abcdef", doc.keypoints.as_tuple())},
    }
    lines.append(_dump(header))
    for t, table in enumerate(doc.tables):
        lines.append(_dump({"kind": "table", "box": _box_obj(table.box)}))
        for cell in table.cells:
            obj = {
                "kind": "cell",
                "table": t,
                "box": _box_obj(cell.box),
                "class_probs": list(cell.class_probs),
                "text": None if cell.text is None else _text_obj(cell.text),
                "lines": [
                    {"box": _box_obj(line.box), "text": _text_obj(line.text)}
                    for line in cell.lines
                ],
            }
            lines.append(_dump(obj))
    for det in doc.year_detections:
        lines.append(_dump({"kind": "year", "box": _box_obj(det.box), "text": _text_obj(det.text)}))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _parse_keypoint(obj, name: str) -> Point:
    if not isinstance(obj, dict) or set(obj) != {"x", "y"}:
        raise ParseError("expected an object with fields x, y", f"keypoints.{name}")
    return Point(obj["x"], obj["y"])


_BOX_KEYS = frozenset(_BOX_FIELDS)
_TEXT_KEYS = frozenset(("text", "confidence"))


def _parse_box(obj) -> Box:
    if not isinstance(obj, dict) or obj.keys() != _BOX_KEYS:
        raise ParseError(f"expected an object with fields {sorted(_BOX_KEYS)}", "box")
    return Box(obj["x_min"], obj["y_min"], obj["x_max"], obj["y_max"], obj["confidence"])


def _parse_text(obj) -> TextHypothesis:
    if not isinstance(obj, dict) or obj.keys() != _TEXT_KEYS:
        raise ParseError("expected an object with fields text, confidence", "text")
    return TextHypothesis(obj["text"], obj["confidence"])


def _not_utf8(path: str) -> ParseError:
    """The error for a file that is not UTF-8, naming the line of its first bad byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return ParseError(
            f"not UTF-8 text ({exc.reason}, byte 0x{data[exc.start]:02x})", f"line {line}"
        )
    return ParseError("not UTF-8 text", "line 1")  # the file changed while it was read


# the scanner json.loads runs, without its two wrappers and two whitespace matches
_scan_once = json.JSONDecoder().scan_once
_JSON_WHITESPACE = " \t\n\r"


def decode_json_line(raw: str, lineno: int):
    """The JSON value of one line, as ``json.loads`` decodes it; whatever it
    rejects (too many digits and too deep nesting included) is a
    :class:`ParseError` at ``line N``.

    One call of the JSON scanner decodes a line that starts with its value
    and has only JSON whitespace (space, tab, CR, LF) after it.  Any other
    line, and any line the scanner stops on, goes through ``json.loads``,
    which accepts it (leading spaces, say) or raises the error reported.
    """
    try:
        value, end = _scan_once(raw, 0)
    except (StopIteration, ValueError, RecursionError):
        pass
    else:
        if end == len(raw) or not raw[end:].strip(_JSON_WHITESPACE):
            return value
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", f"line {lineno}") from exc


def parse_header(obj) -> DetectionDocument:
    """The decoded header line of a document as a validated document without
    tables or year detections.

    Raises :class:`ParseError` when ``obj`` is not a header object or lacks a
    field, and :class:`ValidationError` for a bad value; each names its field.
    """
    if not isinstance(obj, dict) or obj.get("kind") != "document":
        raise ParseError("expected the document header")
    kp = None
    if obj.get("keypoints") is not None:
        kp_obj = obj["keypoints"]
        if not isinstance(kp_obj, dict) or set(kp_obj) != set("abcdef"):
            raise ParseError("keypoints must map exactly a..f", "keypoints")
        kp = OpeningKeypoints(**{name: _parse_keypoint(kp_obj[name], name) for name in "abcdef"})
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
        raise ParseError(f"missing document field {exc.args[0]!r}") from exc
    _validate_header(header)
    return header


def _plain_cell(obj: dict, index, tables: list[tuple[Box, list[CellHypothesis]]]):
    """The cell of a cell line, in table ``index``, that every check of
    :func:`read_document` would pass unchanged, or None when any value needs
    the checks.

    A plain cell names an earlier table by an int, has four plain floats in
    [0, 1] summing to within ``PROB_SUM_TOLERANCE`` of one, no lines, a box
    of five plain floats, non-empty and within ``CELL_CLAMP_TOLERANCE`` of
    its table box, and no text or a text of a str and a plain float
    confidence in [0, 1].  A table line is read only after the header, so a
    plain cell also follows the header.  As in :func:`validate_box`, one
    chained comparison tests the box: the table box is finite, so a box
    inside it is finite too, and nan fails every comparison.
    """
    probs, box, text = obj.get("class_probs"), obj.get("box"), obj.get("text")
    if not (
        type(index) is int and 0 <= index < len(tables)
        and type(probs) is list and len(probs) == 4
        and type(box) is dict and box.keys() == _BOX_KEYS
        and not obj.get("lines")
        and (text is None or type(text) is dict and text.keys() == _TEXT_KEYS)
    ):
        return None
    a, b, c, d = probs
    x0, y0, x1, y1, conf = box["x_min"], box["y_min"], box["x_max"], box["y_max"], box["confidence"]
    t, tol = tables[index][0], CELL_CLAMP_TOLERANCE
    if not (
        type(a) is float and type(b) is float and type(c) is float and type(d) is float
        and 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and 0.0 <= c <= 1.0 and 0.0 <= d <= 1.0
        and abs(sum(probs) - 1.0) <= PROB_SUM_TOLERANCE
        and type(x0) is float and type(y0) is float and type(x1) is float and type(y1) is float
        and type(conf) is float
        and t.x_min - tol <= x0 < x1 <= t.x_max + tol and t.y_min - tol <= y0 < y1 <= t.y_max + tol
        and 0.0 <= conf <= 1.0
    ):
        return None
    if text is not None:
        s, confidence = text["text"], text["confidence"]
        if not (type(s) is str and type(confidence) is float and 0.0 <= confidence <= 1.0):
            return None
        text = TextHypothesis(s, confidence)
    return CellHypothesis(Box(x0, y0, x1, y1, conf), (a, b, c, d), text, ())


def read_document(path: str) -> DetectionDocument:
    """Parse and validate one document file in a single pass.

    Each line is decoded by :func:`decode_json_line` and checked in full
    before the next one is read: the header (:func:`parse_header`), which
    must be the first non-blank line, each table box, each cell's box, class
    distribution, text and lines and its place in its table (parsed on an
    earlier line), and each year detection.  A plain cell line, nearly every
    one read, is recognised by one condition and built directly
    (:func:`_plain_cell`); any other cell line runs the checks one by one.
    The first bad line raises :class:`ParseError` for malformed syntax or
    structure (a file that is not UTF-8 included) or
    :class:`ValidationError` for a value that violates an invariant.  Both
    name the line and the field, as in ``line 3: box.x_max``; lines are
    counted in the file, blank ones included.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not content or content.isspace():
        raise ParseError("empty document file", "line 1")

    header = None
    tables: list[tuple[Box, list[CellHypothesis]]] = []
    years: list[YearDetection] = []
    # split on newlines only: JSON escapes \n and \r inside strings, but
    # other Unicode line separators (U+0085 etc.) pass through verbatim
    # and must not break records the way splitlines() would
    for lineno, raw in enumerate(content.split("\n"), start=1):
        if not raw or raw.isspace():
            continue
        obj = decode_json_line(raw, lineno)
        try:
            if not isinstance(obj, dict) or "kind" not in obj:
                raise ParseError("expected an object with a 'kind' field")
            kind = obj["kind"]
            if kind == "document":
                if header is not None:
                    raise ParseError("duplicate document header")
                header = parse_header(obj)
            elif kind == "table":
                box = _parse_box(obj.get("box"))
                validate_box(box, "box")
                tables.append((box, []))
            elif kind == "cell":
                index = obj.get("table")
                cell = _plain_cell(obj, index, tables)
                if cell is None:
                    if type(index) is not int or not 0 <= index < len(tables):
                        raise ParseError(f"cell references unknown table {index!r}")
                    probs = obj.get("class_probs")
                    if not isinstance(probs, list):
                        raise ParseError("class_probs must be a list", "class_probs")
                    line_objs = obj.get("lines") or ()
                    if isinstance(line_objs, (int, float)):
                        # a string or an object iterates to entries that fail below
                        raise ParseError("lines must be a list", "lines")
                    lines = []
                    for i, line_obj in enumerate(line_objs):
                        try:
                            if not isinstance(line_obj, dict):
                                raise ParseError("line entries must be objects")
                            box = _parse_box(line_obj.get("box"))
                            lines.append(CellLine(box, _parse_text(line_obj.get("text"))))
                        except ParseError as exc:
                            raise exc.within(f"lines[{i}]") from None
                    text = obj.get("text")
                    cell = CellHypothesis(
                        _parse_box(obj.get("box")),
                        normalize_class_probs(probs),
                        None if text is None else _parse_text(text),
                        tuple(lines),
                    )
                    _validate_cell(cell, tables[index][0])
                tables[index][1].append(cell)
            elif kind == "year":
                det = YearDetection(_parse_box(obj.get("box")), _parse_text(obj.get("text")))
                validate_box(det.box, "box")
                validate_text(det.text, "text")
                years.append(det)
            else:
                raise ParseError(f"unknown line kind {kind!r}")
            if header is None:
                raise ParseError("the document header must be the first non-blank line")
        except InterchangeError as exc:
            raise exc.within(f"line {lineno}", ": ") from None

    return replace(
        header,
        tables=tuple(TableDetection(box, tuple(cells)) for box, cells in tables),
        year_detections=tuple(years),
    )


# ---------------------------------------------------------------------------
# Record serialization: one key table and one record check for both formats
# ---------------------------------------------------------------------------

# The JSONL keys in file order.  The CSV columns are the same keys without
# ``fields``, whose labels follow as one ``field:<label>`` column each.
_RECORD_KEYS = ("book_id", "opening_id", "page_side", "year", "direction", "fields",
                "parish_raw", "parish_canonical", "flags")
_RECORD_COLUMNS = tuple(key for key in _RECORD_KEYS if key != "fields")
_FIELD_PREFIX = "field:"
_record_values = attrgetter(*_RECORD_KEYS)
_csv_values = attrgetter(*_RECORD_COLUMNS[:-1])  # flags, the last column, are joined


def content_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, line without its newline) of a UTF-8 text file;
    blank lines and '#' comment lines are skipped.  A file that is not
    UTF-8 raises a :class:`ParseError` naming it and its first bad line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if line.strip() and not line.lstrip().startswith("#"):
                    yield lineno, line.rstrip("\n")
    except UnicodeDecodeError:
        raise _not_utf8(path).within(path, ": ") from None


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as UTF-8 CSV: RFC 4180 quoting, LF line ends, None empty."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj) -> None:
    """Write ``obj`` as UTF-8 JSON indented by two spaces, with a final newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, ensure_ascii=False, indent=2)
        handle.write("\n")


def _records_format(path: str, format: str | None) -> str:
    """``format``, or the one ``path`` names: JSON lines for ``.jsonl``, CSV for any other."""
    if format is None:
        return "jsonl" if str(path).endswith(".jsonl") else "csv"
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown record format {format!r}")
    return format


def write_records(records: Sequence[MigrationRecord], path: str, format: str | None = None) -> None:
    """Write records as CSV (RFC 4180 quoting) or JSON lines; by default, the one the path names."""
    format = _records_format(path, format)
    for i, record in enumerate(records):
        validate_record(record, f"records[{i}]")
    if format == "csv":
        labels = list(dict.fromkeys(label for r in records for label in r.fields))  # first seen
        write_csv(
            path,
            [*_RECORD_COLUMNS, *(_FIELD_PREFIX + label for label in labels)],
            (
                [*_csv_values(r), ";".join(sorted(r.flags)), *[r.fields.get(l, "") for l in labels]]
                for r in records
            ),
        )
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for record in records:
                obj = dict(zip(_RECORD_KEYS, _record_values(record)))
                obj["flags"] = sorted(record.flags)
                handle.write(_dump(obj) + "\n")


def read_records(path: str, format: str | None = None) -> list[MigrationRecord]:
    """Parse a record file written by :func:`write_records`, by default in the format the path names.

    Each format only turns a line into a key -> value object; one check
    then builds and validates the record, so both formats raise the same
    errors.  A malformed row raises :class:`ParseError` naming its line and
    field: a CSV row must have exactly the header's cells (blank lines are
    skipped), and a JSONL record every key :func:`write_records` writes,
    with string ids, parish names, field values and flags.  An invalid
    value raises :class:`ValidationError` at ``line N: record.<field>``.  A
    file that is not UTF-8 raises :class:`ParseError` naming the line of its
    first bad byte.
    """
    format = _records_format(path, format)
    objects = _csv_objects if format == "csv" else _jsonl_objects
    records = []
    try:
        with open(path, "r", encoding="utf-8", newline="" if format == "csv" else None) as handle:
            for lineno, obj in objects(handle):
                try:
                    records.append(_record_from(obj))
                except InterchangeError as exc:
                    raise exc.within(f"line {lineno}", ": ") from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    return records


def _csv_objects(handle) -> Iterator[tuple[int, dict]]:
    """(line number, record object) of each row of a records CSV file."""
    reader = csv.reader(handle)
    try:
        head = next(reader, None)
        if head is None:
            raise ParseError("empty records file", "line 1")
        width = len(_RECORD_COLUMNS)
        if head[:width] != list(_RECORD_COLUMNS):
            raise ParseError("unexpected CSV header", "line 1")
        for column in head[width:]:
            if not column.startswith(_FIELD_PREFIX) or head.count(column) > 1:
                raise ParseError("not a field:<label> column of a new label", f"line 1: {column}")
        labels = [c[len(_FIELD_PREFIX) :] for c in head[width:]]
        for row in reader:
            if not row:
                continue
            where = f"line {reader.line_num}"
            if len(row) != len(head):
                column = head[len(row)] if len(row) < len(head) else f"column {len(head) + 1}"
                raise ParseError(f"row has {len(row)} cells, the header {len(head)}",
                                 f"{where}: {column}")
            obj = dict(zip(_RECORD_COLUMNS, row))
            year = obj["year"]
            try:
                obj["year"] = int(year) if year else None
            except ValueError:
                raise ParseError(f"year must be an integer, not {year!r}", f"{where}: year") from None
            obj["parish_raw"] = obj["parish_raw"] or None
            obj["parish_canonical"] = obj["parish_canonical"] or None
            obj["flags"] = [f for f in obj["flags"].split(";") if f]
            obj["fields"] = dict(zip(labels, row[width:]))
            yield reader.line_num, obj
    except csv.Error as exc:
        raise ParseError(f"invalid CSV ({exc})", f"line {reader.line_num}") from None


def _jsonl_objects(handle) -> Iterator[tuple[int, dict]]:
    """(line number, record object) of each non-blank line of a records JSONL file."""
    for lineno, raw in enumerate(handle, start=1):
        if raw.strip():
            obj = decode_json_line(raw, lineno)
            if not isinstance(obj, dict):
                raise ParseError("expected a JSON object", f"line {lineno}")
            yield lineno, obj


def _record_from(obj: dict) -> MigrationRecord:
    """Check one record object of either format and build its validated record.

    Error paths name the field (``year``, ``record.direction``); the caller
    puts the line before them.
    """
    for key in _RECORD_KEYS:
        if key not in obj:
            raise ParseError("missing record field", key)
    year, fields, flags = obj["year"], obj["fields"], obj["flags"]
    if year is not None and (not isinstance(year, int) or isinstance(year, bool)):
        raise ParseError(f"year must be an integer or null, not {year!r}", "year")
    if not isinstance(fields, dict):
        raise ParseError("fields must be an object", "fields")
    if not isinstance(flags, list):
        raise ParseError("flags must be a list", "flags")
    for key in ("book_id", "opening_id"):
        if not isinstance(obj[key], str):
            raise ParseError(f"{key} must be a string", key)
    for key in ("parish_raw", "parish_canonical"):
        if obj[key] is not None and not isinstance(obj[key], str):
            raise ParseError(f"{key} must be a string or null", key)
    for label, value in fields.items():
        if not isinstance(value, str):
            raise ParseError("field values must be strings", f"fields.{label}")
    if not all(isinstance(flag, str) for flag in flags):
        raise ParseError("flags must be strings", "flags")
    record = MigrationRecord(
        book_id=obj["book_id"],
        opening_id=obj["opening_id"],
        page_side=obj["page_side"],
        year=year,
        direction=obj["direction"],
        fields=dict(fields),
        parish_raw=obj["parish_raw"],
        parish_canonical=obj["parish_canonical"],
        flags=frozenset(flags),
    )
    validate_record(record)
    return record
