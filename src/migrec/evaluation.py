"""Detection and text metrics for the extraction pipeline.

Detection quality is scored by one-to-one box matching at IoU > 0.5, with
accuracy = TP / (TP + FP + FN), precision, recall and F1 on the matched
counts (true negatives are meaningless for detection).  Text quality is
scored by character error rate and exact match, with unreadable references
(containing '?') excluded and a numeric/textual split: a line is textual
when it contains at least one letter, numeric otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Iterable, Sequence

from .interchange import Box


def edit_distance(a: str, b: str, bound: int | None = None) -> int:
    """Levenshtein distance with unit costs at character granularity.

    With ``bound`` the result is ``min(distance, bound + 1)``; without one
    the full distance is returned.

    The DP matrix is computed a column at a time as bit vectors, after
    Myers (JACM 1999) in Hyyrö's formulation (2001): bit ``i`` of ``vp``
    (``vn``) is set when the entry in row ``i + 1`` of the current column
    is one more (one less) than the entry above it, ``hp`` and ``hn`` hold
    the same deltas along a row, and ``d`` tracks the bottom entry.  Each
    vector is one Python int as wide as ``a``, so one step per character
    of ``b`` replaces a row of the DP.  Carries and shifts move bits only
    upward, so masking ``vp`` alone keeps the vectors bounded and leaves
    the low ``len(a)`` bits exact.
    """
    if a == b:
        return 0
    if bound is not None and abs(len(a) - len(b)) > bound:
        return bound + 1
    if not a or not b:
        return len(a) + len(b)
    peq: dict[str, int] = {}  # character -> the rows of ``a`` that hold it
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    vp, vn, d = mask, 0, len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & last:
            d += 1
        elif hn & last:
            d -= 1
        hp = (hp << 1) | 1  # row 0 grows by one per column
        vp = ((hn << 1) | ~(d0 | hp)) & mask
        vn = hp & d0
    return d if bound is None or d <= bound else bound + 1


def cer(pred: str, ref: str) -> float:
    """Character error rate: edit distance divided by reference length."""
    if not ref:
        raise ValueError("cer requires a non-empty reference")
    return edit_distance(pred, ref) / len(ref)


def exact_match(pred: str, ref: str) -> bool:
    """Equality after trimming outer whitespace; no case folding."""
    return pred.strip() == ref.strip()


def filter_unreadable(pairs: Iterable[tuple[str, str]]) -> list[tuple[str, str]]:
    """Drop pairs whose reference contains '?' (unreadable to the annotator)."""
    return [(p, r) for p, r in pairs if "?" not in r]


def is_textual_line(ref: str) -> bool:
    """A line is textual when it includes at least one letter."""
    return any(ch.isalpha() for ch in ref)


@dataclass(frozen=True)
class TextMetrics:
    label: str
    exact_match: float  # percentage
    cer: float  # corpus CER: total edit distance over total reference length
    avg_ref_length: float
    support: int


def _text_metrics(label: str, support: int, exact: int, dist: int, ref_len: int) -> TextMetrics:
    if not support:
        return TextMetrics(label, 0.0, 0.0, 0.0, 0)
    return TextMetrics(
        label=label,
        exact_match=100.0 * exact / support,
        cer=dist / ref_len if ref_len else 0.0,
        avg_ref_length=ref_len / support,
        support=support,
    )


def split_metrics(pairs: Sequence[tuple[str, str]]) -> list[TextMetrics]:
    """EM/CER for textual lines, numeric lines, and all lines together.

    Each pair's edit distance is computed once and summed into its class
    row and into the "all" row; the sums are integers, so every row equals
    scoring its subset on its own.
    """
    # per class: [support, exact matches, total edit distance, total reference length]
    totals = {"textual": [0, 0, 0, 0], "numeric": [0, 0, 0, 0]}
    for p, r in pairs:
        row = totals["textual" if is_textual_line(r) else "numeric"]
        row[0] += 1
        row[1] += exact_match(p, r)
        row[2] += edit_distance(p, r)
        row[3] += len(r)
    both = [t + n for t, n in zip(totals["textual"], totals["numeric"])]
    return [
        _text_metrics("textual", *totals["textual"]),
        _text_metrics("numeric", *totals["numeric"]),
        _text_metrics("all", *both),
    ]


# ---------------------------------------------------------------------------
# Box matching
# ---------------------------------------------------------------------------


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes; 0 when disjoint.

    The areas are the same products :attr:`Box.area` gives, computed inline.
    """
    w = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    h = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if w <= 0.0 or h <= 0.0:
        return 0.0
    inter = w * h
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    return inter / (area_a + area_b - inter)


@dataclass(frozen=True)
class EvalCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        if self.tp < 0 or self.fp < 0 or self.fn < 0:
            raise ValueError("counts must be non-negative")

    def __add__(self, other: "EvalCounts") -> "EvalCounts":
        return EvalCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


def match_detections(
    pred: Sequence[Box], gold: Sequence[Box], thr: float = 0.5
) -> tuple[EvalCounts, list[tuple[int, int, float]]]:
    """Greedy one-to-one matching of predicted boxes against ground truth.

    Candidate pairs with IoU strictly above the threshold are taken in
    descending IoU order (ties broken by earlier prediction index, then
    earlier ground-truth index); matched pairs are true positives, leftover
    predictions false positives, leftover ground truths false negatives.

    Candidates come from a sort-and-sweep over both lists by ``x_min``:
    each box is scored only against the boxes of the other side that are
    still open (``x_max`` above its ``x_min``) and whose y-interval
    overlaps its own.  This is exact for finite coordinates.  :func:`iou`
    is 0 unless ``min(x_max) - max(x_min) > 0`` and the same holds for y,
    and for finite floats ``u - v > 0`` exactly when ``u > v``; of two
    boxes, the one swept later has the larger ``x_min``, so they overlap
    in x only if the earlier one is still open.  Since ``thr > 0``, every
    pair that could score above it is scored, and sorting the same
    ``(-score, pred index, gold index)`` triples gives the same greedy
    order as scoring all pairs.

    The sweep reads each box once, as an ``(x_min, y_min, x_max, y_max)``
    tuple, and scores a pair with :func:`iou`'s expression written out:
    ``v if v < u else u`` is ``min(u, v)`` and ``v if v > u else u`` is
    ``max(u, v)``, ties (``0.0`` and ``-0.0`` included) going to ``u`` as
    the builtins give them, so every score is the same float.
    """
    if not 0.0 < thr <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    sides = (
        [(b.x_min, b.y_min, b.x_max, b.y_max) for b in pred],
        [(b.x_min, b.y_min, b.x_max, b.y_max) for b in gold],
    )
    events = sorted(
        [(t[0], 0, i) for i, t in enumerate(sides[0])]
        + [(t[0], 1, i) for i, t in enumerate(sides[1])]
    )
    open_ids: tuple[list[int], list[int]] = ([], [])
    scored = []
    for x, side, i in events:
        _, y0, _, y1 = box = sides[side][i]
        others = sides[1 - side]
        still_open = []
        for j in open_ids[1 - side]:
            other = others[j]
            if other[2] <= x:
                continue  # closed: no later box (x_min >= x) overlaps it either
            still_open.append(j)
            if other[3] <= y0 or y1 <= other[1]:
                continue
            if side == 0:
                pi, gi = i, j
                ax0, ay0, ax1, ay1 = box
                bx0, by0, bx1, by1 = other
            else:
                pi, gi = j, i
                ax0, ay0, ax1, ay1 = other
                bx0, by0, bx1, by1 = box
            w = (bx1 if bx1 < ax1 else ax1) - (bx0 if bx0 > ax0 else ax0)
            h = (by1 if by1 < ay1 else ay1) - (by0 if by0 > ay0 else ay0)
            if w <= 0.0 or h <= 0.0:
                continue
            inter = w * h
            score = inter / ((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter)
            if score > thr:
                scored.append((-score, pi, gi))
        open_ids[1 - side][:] = still_open
        open_ids[side].append(i)
    scored.sort()
    used_pred: set[int] = set()
    used_gold: set[int] = set()
    pairing = []
    for neg_score, pi, gi in scored:
        if pi in used_pred or gi in used_gold:
            continue
        used_pred.add(pi)
        used_gold.add(gi)
        pairing.append((pi, gi, -neg_score))
    tp = len(pairing)
    return EvalCounts(tp=tp, fp=len(pred) - tp, fn=len(gold) - tp), pairing


# ---------------------------------------------------------------------------
# Detection metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricRow:
    category: str
    accuracy: float  # percentages in [0, 100]
    recall: float
    precision: float
    f1: float


def metrics(counts: EvalCounts, category: str = "") -> MetricRow:
    """Accuracy, precision, recall and F1 (percentages) from matched counts.

    accuracy = TP / (TP + FP + FN); F1 is the harmonic mean of precision and
    recall, 0 when both are 0.  Values are exact; rounding happens only in
    report rendering.
    """
    total = counts.tp + counts.fp + counts.fn
    if total == 0:
        raise ValueError("metrics are undefined for all-zero counts")
    accuracy = 100.0 * counts.tp / total
    precision = 100.0 * counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = 100.0 * counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    return MetricRow(
        category=category,
        accuracy=accuracy,
        recall=recall,
        precision=precision,
        f1=f1_score(precision, recall),
    )


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (percentages in, percentage out)."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def accuracy_from_pr(precision: float, recall: float) -> float:
    """Accuracy implied by precision and recall (percentages).

    Algebraic identity of the matched-count definitions:
    accuracy = 1 / (1/precision + 1/recall - 1).
    """
    if precision <= 0.0 or recall <= 0.0:
        return 0.0
    return 100.0 / (100.0 / precision + 100.0 / recall - 1.0)


# ---------------------------------------------------------------------------
# Classification report aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassRow:
    label: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class ClassReport:
    rows: tuple[ClassRow, ...]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    total_support: int


def class_report(rows: Sequence[ClassRow]) -> ClassReport:
    """Macro (unweighted) and weighted (support-weighted) averages per metric."""
    if not rows:
        raise ValueError("class_report requires at least one class row")
    total = sum(row.support for row in rows)
    if total <= 0:
        raise ValueError("supports must be positive")
    n = len(rows)

    def macro(metric) -> float:
        return sum(metric(row) for row in rows) / n

    def weighted(metric) -> float:
        return sum(metric(row) * row.support for row in rows) / total

    return ClassReport(
        rows=tuple(rows),
        macro_precision=macro(lambda r: r.precision),
        macro_recall=macro(lambda r: r.recall),
        macro_f1=macro(lambda r: r.f1),
        weighted_precision=weighted(lambda r: r.precision),
        weighted_recall=weighted(lambda r: r.recall),
        weighted_f1=weighted(lambda r: r.f1),
        total_support=total,
    )


def round_half_up(value: float) -> float:
    """Decimal half-up rounding to one decimal, applied only when rendering reports."""
    return float(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))
