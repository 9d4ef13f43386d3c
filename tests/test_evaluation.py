import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from migrec.evaluation import (
    ClassRow,
    EvalCounts,
    accuracy_from_pr,
    cer,
    class_report,
    edit_distance,
    exact_match,
    f1_score,
    filter_unreadable,
    iou,
    is_textual_line,
    match_detections,
    metrics,
    round_half_up,
    split_metrics,
)
from migrec.interchange import Box
from migrec.pipeline import deskew_document
from migrec.synth import SynthConfig, generate_book

from oracles import (
    edit_distance_reference,
    iou_reference,
    match_detections_reference,
    optimal_matching_tp,
    split_metrics_reference,
)

FIXTURE = Path(__file__).parent / "data" / "line_classes.tsv"


def box(x0, y0, x1, y1):
    return Box(x0, y0, x1, y1, 0.9)


# --- iou ------------------------------------------------------------------------


def test_iou_identical_boxes():
    b = box(0, 0, 10, 10)
    assert iou(b, b) == 1.0


def test_iou_disjoint_boxes():
    assert iou(box(0, 0, 1, 1), box(5, 5, 6, 6)) == 0.0


def test_iou_half_overlapping_unit_squares():
    a = box(0, 0, 1, 1)
    b = box(0.5, 0, 1.5, 1)
    assert iou(a, b) == pytest.approx(1.0 / 3.0)


@given(
    st.tuples(*[st.floats(0, 100, width=64) for _ in range(4)]),
    st.tuples(*[st.floats(0, 100, width=64) for _ in range(4)]),
)
@settings(max_examples=200, deadline=None)
def test_iou_symmetric_bounded_and_matches_reference(raw_a, raw_b):
    ax0, ay0, aw, ah = raw_a
    bx0, by0, bw, bh = raw_b
    a = box(ax0, ay0, ax0 + aw + 0.1, ay0 + ah + 0.1)
    b = box(bx0, by0, bx0 + bw + 0.1, by0 + bh + 0.1)
    v = iou(a, b)
    assert 0.0 <= v <= 1.0 + 1e-12
    assert v == pytest.approx(iou(b, a))
    assert v == pytest.approx(iou_reference(a, b))


# --- match_detections --------------------------------------------------------------


def test_match_exact_predictions():
    gold = [box(i * 10, 0, i * 10 + 8, 8) for i in range(5)]
    counts, pairing = match_detections(gold, gold)
    assert (counts.tp, counts.fp, counts.fn) == (5, 0, 0)
    assert [(p, g) for p, g, _ in pairing] == [(i, i) for i in range(5)]


def test_one_prediction_over_two_golds_is_one_tp_one_fn():
    pred = [box(0, 0, 10, 20)]
    gold = [box(0, 0, 10, 11), box(0, 9, 10, 20)]
    counts, _ = match_detections(pred, gold)
    assert (counts.tp, counts.fp, counts.fn) == (1, 0, 1)


def test_threshold_is_strict():
    pred = [box(0, 0, 2, 1)]  # IoU with gold is exactly 0.5
    gold = [box(0, 0, 1, 1)]
    counts, _ = match_detections(pred, gold, thr=0.5)
    assert counts.tp == 0
    counts, _ = match_detections(pred, gold, thr=0.4999)
    assert counts.tp == 1


def test_match_counts_partition_inputs():
    rng = random.Random(6)
    for _ in range(50):
        pred = [
            box(x, y, x + rng.uniform(2, 20), y + rng.uniform(2, 20))
            for x, y in ((rng.uniform(0, 80), rng.uniform(0, 80)) for _ in range(rng.randint(0, 8)))
        ]
        gold = [
            box(x, y, x + rng.uniform(2, 20), y + rng.uniform(2, 20))
            for x, y in ((rng.uniform(0, 80), rng.uniform(0, 80)) for _ in range(rng.randint(0, 8)))
        ]
        counts, _ = match_detections(pred, gold)
        assert counts.tp + counts.fp == len(pred)
        assert counts.tp + counts.fn == len(gold)


def test_greedy_matches_exhaustive_on_most_small_instances():
    rng = random.Random(8)
    trials = 200
    agreements = 0
    for _ in range(trials):
        pred = [
            box(x, y, x + rng.uniform(4, 14), y + rng.uniform(4, 14))
            for x, y in ((rng.uniform(0, 30), rng.uniform(0, 30)) for _ in range(rng.randint(1, 5)))
        ]
        gold = [
            box(x, y, x + rng.uniform(4, 14), y + rng.uniform(4, 14))
            for x, y in ((rng.uniform(0, 30), rng.uniform(0, 30)) for _ in range(rng.randint(1, 5)))
        ]
        counts, _ = match_detections(pred, gold)
        optimal = optimal_matching_tp(pred, gold, 0.5, iou)
        if counts.tp == optimal:
            agreements += 1
        else:
            print(f"greedy {counts.tp} vs optimal {optimal} on {len(pred)}x{len(gold)}")
    assert agreements / trials >= 0.97


def _assert_matches_reference(pred, gold, thr):
    counts, pairing = match_detections(pred, gold, thr)
    ref_counts, ref_pairing = match_detections_reference(pred, gold, thr, iou)
    assert ((counts.tp, counts.fp, counts.fn), pairing) == (ref_counts, ref_pairing)


# coordinates on a 0.5 px grid, extents down to zero: shared x_min values,
# duplicated boxes, touching edges and degenerate boxes are all common, and
# -0.0 stands next to 0.0, a tie that min() and max() break by position
_half_px = st.one_of(st.just(-0.0), st.integers(0, 16).map(lambda k: k / 2))
_half_px_extent = st.integers(0, 10).map(lambda k: k / 2)
_grid_box = st.builds(
    lambda x, y, w, h: box(x, y, x + w, y + h), _half_px, _half_px, _half_px_extent, _half_px_extent
)


def _deskewed_opening_cells():
    book = generate_book(SynthConfig(seed=3, skew_degrees=(-3, 3), border_jitter=2.0), 1)
    fixture = book.openings[0]
    return tuple(
        [cell.box for _, table in deskew_document(doc)[0] for cell in table.cells]
        for doc in (fixture.document, fixture.gold_document)
    )


@st.composite
def _box_lists(draw):
    pool = draw(st.lists(_grid_box, min_size=1, max_size=6))
    pick = st.one_of(st.sampled_from(pool), _grid_box)
    return draw(st.lists(pick, max_size=12)), draw(st.lists(pick, max_size=12))


@given(_box_lists(), st.sampled_from([1e-9, 0.1, 0.3, 0.5, 1.0]))
@example(([], []), 0.5)
@example(([box(0, 0, 4, 4)], []), 1e-9)
@example(([], [box(0, 0, 4, 4)]), 1e-9)
# duplicates with IoU-1 ties; IoU 1 is not above a threshold of 1
@example(([box(0, 0, 4, 4)] * 3, [box(0, 0, 4, 4)] * 2), 0.5)
@example(([box(0, 0, 4, 4)], [box(0, 0, 4, 4)]), 1.0)
# shared x_min, touching edges, zero width and zero height
@example(([box(0, 0, 2, 4), box(0, 0, 4, 4)], [box(0, 0, 3, 4), box(0, 1, 4, 4)]), 0.5)
@example(([box(0, 0, 4, 4), box(4, 0, 8, 4)], [box(4, 0, 8, 4), box(0, 4, 4, 8)]), 1e-9)
@example(([box(2, 0, 2, 4), box(0, 2, 4, 2)], [box(2, 0, 2, 4), box(0, 0, 4, 4)]), 1e-9)
# signed zero corners against unsigned ones, and equal coordinates throughout
@example(([box(-0.0, -0.0, 4, 4), box(0.0, 0.0, 4, -0.0)], [box(0.0, -0.0, 4, 4), box(-0.0, 0, 2, 4)]), 1e-9)
@example(([box(-0.0, 0, 2, 2), box(0, -0.0, 2, 2)], [box(0, 0, 2, 2), box(-0.0, -0.0, 2, 2)]), 0.5)
@example(([box(1, 1, 1, 1), box(1, 1, 3, 3)], [box(1, 1, 3, 3), box(3, 3, 5, 5)]), 1e-9)
# the de-skewed cells of a skewed, jittered synthetic opening and its gold
@example(_deskewed_opening_cells(), 0.5)
@settings(max_examples=500, deadline=None)
def test_match_detections_equals_all_pairs_reference(lists, thr):
    pred, gold = lists
    _assert_matches_reference(pred, gold, thr)


def test_match_detections_equals_reference_on_random_float_boxes():
    rng = random.Random(31)
    for _ in range(300):
        n_pred, n_gold = rng.randint(0, 25), rng.randint(0, 25)
        pred = [
            box(x, y, x + rng.uniform(0, 30), y + rng.uniform(0, 30))
            for x, y in ((rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n_pred))
        ]
        gold = [
            box(x, y, x + rng.uniform(0, 30), y + rng.uniform(0, 30))
            for x, y in ((rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(n_gold))
        ]
        # a few exact copies, so IoU-1 ties between distinct indices occur
        gold += rng.sample(pred, min(len(pred), rng.randint(0, 3)))
        _assert_matches_reference(pred, gold, rng.choice([1e-9, 0.5, 1.0]))


# --- metrics -----------------------------------------------------------------------


def test_metrics_published_table_detection_row():
    # all-detections row: recall 94.2 with perfect precision
    row = metrics(EvalCounts(tp=942, fp=0, fn=58))
    assert round_half_up(row.precision) == 100.0
    assert round_half_up(row.recall) == 94.2
    assert round_half_up(row.accuracy) == 94.2
    assert round_half_up(row.f1) == 97.0


def test_metrics_single_true_positive():
    row = metrics(EvalCounts(tp=1, fp=0, fn=0))
    assert (row.accuracy, row.precision, row.recall, row.f1) == (100.0, 100.0, 100.0, 100.0)


def test_metrics_all_zero_counts_is_an_error():
    with pytest.raises(ValueError):
        metrics(EvalCounts(0, 0, 0))


def test_f1_zero_when_both_zero():
    assert f1_score(0.0, 0.0) == 0.0


def _tenths(value: float) -> int:
    return round(round_half_up(value) * 10)


def test_f1_from_published_precision_recall():
    # within one tenth of the printed values after rounding
    assert abs(_tenths(f1_score(91.6, 83.1)) - 872) <= 1
    assert abs(_tenths(f1_score(89.2, 80.0)) - 844) <= 1


def test_accuracy_identity_against_counts():
    rng = random.Random(12)
    for _ in range(200):
        counts = EvalCounts(rng.randint(1, 500), rng.randint(0, 200), rng.randint(0, 200))
        row = metrics(counts)
        if row.precision > 0 and row.recall > 0:
            assert accuracy_from_pr(row.precision, row.recall) == pytest.approx(row.accuracy)


# --- text metrics --------------------------------------------------------------------


def test_cer_examples():
    assert cer("abc", "abc") == 0.0
    assert cer("abd", "abc") == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        cer("abc", "")


@given(
    st.text(alphabet="abcö19", max_size=30),
    st.text(alphabet="abcö19", min_size=1, max_size=30),
)
@settings(max_examples=200, deadline=None)
def test_cer_matches_reference_dp(pred, ref):
    assert cer(pred, ref) == edit_distance_reference(pred, ref) / len(ref)


def test_cer_bounds_and_identity():
    assert cer("xyz", "abc") <= max(3, 3) / 3
    assert edit_distance("", "abc") == 3


def test_edit_distance_triangle_inequality_sampled():
    rng = random.Random(15)
    alphabet = "abcd"
    for _ in range(100):
        s = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8))) for _ in range(3)]
        assert edit_distance(s[0], s[2]) <= edit_distance(s[0], s[1]) + edit_distance(s[1], s[2])


_line = st.text(alphabet="ab1 ?", max_size=8)


@given(st.lists(st.tuples(_line, _line), max_size=20))
@settings(max_examples=200, deadline=None)
def test_split_metrics_equals_per_row_reference(pairs):
    rows = [dataclasses.astuple(row) for row in split_metrics(pairs)]
    assert rows == split_metrics_reference(pairs, edit_distance_reference)


def test_exact_match_trims_outer_whitespace():
    assert exact_match("1878 ", "1878")
    assert exact_match(" talollinen", "talollinen ")
    assert not exact_match("Piika", "piika")


def test_filter_unreadable_drops_question_mark_references():
    pairs = [("Maria", "Mar?a"), ("Maria", "Maria")]
    kept = filter_unreadable(pairs)
    assert kept == [("Maria", "Maria")]


def test_filter_unreadable_planted_count():
    rng = random.Random(20)
    pairs = []
    planted = 0
    for i in range(200):
        if rng.random() < 0.2:
            pairs.append((f"p{i}", f"re?f{i}"))
            planted += 1
        else:
            pairs.append((f"p{i}", f"ref{i}"))
    assert len(filter_unreadable(pairs)) == 200 - planted


def test_line_class_rule_examples():
    assert not is_textual_line("296")
    assert is_textual_line("piika")
    assert is_textual_line("s. 296")


def test_line_class_fixture_has_zero_disagreements():
    cases = []
    for line in FIXTURE.read_text(encoding="utf-8").splitlines():
        label, text = line.split("\t", 1)
        cases.append((label, text))
    assert len(cases) == 100
    for label, text in cases:
        got = "textual" if is_textual_line(text) else "numeric"
        assert got == label, f"rule disagrees on {text!r}"


def test_split_metrics_classes_and_support():
    pairs = [("296", "296"), ("piika", "piika"), ("x", "s. 296"), ("1878", "1879")]
    rows = {row.label: row for row in split_metrics(pairs)}
    assert rows["numeric"].support == 2
    assert rows["textual"].support == 2
    assert rows["all"].support == 4
    assert rows["numeric"].exact_match == 50.0
    assert rows["all"].avg_ref_length == pytest.approx((3 + 5 + 6 + 4) / 4)


# --- class_report -------------------------------------------------------------------


def test_class_report_reproduces_published_averages():
    rows = [
        ClassRow("single_line", 96.3, 87.3, 91.6, 9829),
        ClassRow("empty", 81.2, 96.7, 88.3, 3692),
        ClassRow("repetition", 79.4, 87.1, 83.1, 2020),
        ClassRow("multi_line", 67.9, 69.6, 68.7, 744),
    ]
    report = class_report(rows)
    assert round_half_up(report.weighted_f1) == 88.8
    assert round_half_up(report.macro_f1) == 82.9
    assert round_half_up(report.macro_precision) == 81.2
    assert round_half_up(report.weighted_precision) == 89.5
    assert round_half_up(report.macro_recall) == 85.2
    assert round_half_up(report.weighted_recall) == 88.6


def test_class_report_single_class_averages_equal_class():
    report = class_report([ClassRow("only", 80.0, 60.0, 68.6, 10)])
    assert report.macro_f1 == report.weighted_f1 == 68.6


def test_class_report_matches_bruteforce_on_random_tables():
    rng = random.Random(33)
    for _ in range(50):
        rows = [
            ClassRow(f"c{i}", rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100), rng.randint(1, 1000))
            for i in range(rng.randint(1, 6))
        ]
        report = class_report(rows)
        total = sum(r.support for r in rows)
        assert report.macro_f1 == pytest.approx(sum(r.f1 for r in rows) / len(rows))
        assert report.weighted_f1 == pytest.approx(sum(r.f1 * r.support for r in rows) / total)


def test_round_half_up():
    assert round_half_up(96.05) == 96.1
    assert round_half_up(96.04999) == 96.0
    assert round_half_up(87.15) == 87.2
    assert round_half_up(-1.25) == -1.3
