"""The per-box hot paths against their earlier code, kept in ``oracles.py``.

Validation, projection and IoU were rewritten to cost less per box; each
must return what the earlier code returned, bit for bit (compared through
``repr``, so -0.0 and nan count), and raise the same exception type with
the same ``.path`` and message.  The one intended difference: an int too
large for a float made the earlier validators raise a bare
``OverflowError``; it is now a ``ValidationError`` naming the field.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from migrec.evaluation import iou
from migrec.geometry import Homography, apply_point, transform_box
from migrec.interchange import (
    Box,
    Point,
    TextHypothesis,
    normalize_class_probs,
    validate_box,
    validate_text,
)
from oracles import (
    apply_point_reference,
    iou_area_reference,
    normalize_class_probs_reference,
    transform_box_reference,
    validate_box_reference,
    validate_text_reference,
)

SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 0.5,
    math.inf, -math.inf, math.nan,
)
special = st.sampled_from(SPECIAL_FLOATS)
# anything a JSON field can hold that validation must judge
anything = st.one_of(
    st.floats(),
    special,
    st.integers(),
    st.integers(min_value=2**1024 - 2**970, max_value=2**1100),  # too large for a float
    st.booleans(),
    st.text(max_size=2),
    st.none(),
)
coordinate = st.one_of(st.floats(-4, 4), special, st.integers(-3, 3), anything)
probability = st.one_of(st.floats(-0.01, 1.01), special, st.sampled_from((0, 1)), anything)


def outcome(fn, *args):
    try:
        return ("ok", repr(fn(*args)))
    except Exception as exc:  # the type, path and message are what is compared
        return (type(exc).__name__, getattr(exc, "path", None), str(exc))


def assert_same(new, ref):
    if ref[0] == "OverflowError":
        assert new[0] == "ValidationError"
        assert new[2].endswith("value must be a finite number")
    else:
        assert new == ref


# five plain floats take the library's fast path, whatever their values
plain = st.one_of(st.floats(-4, 4), special)
plain_probability = st.one_of(st.floats(-0.5, 1.5), special)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.tuples(coordinate, coordinate, coordinate, coordinate, probability),
        st.tuples(plain, plain, plain, plain, plain_probability),
    )
)
def test_validate_box_matches_reference(fields):
    box = Box(*fields)
    assert_same(
        outcome(validate_box, box, "tables[0].box"),
        outcome(validate_box_reference, box, "tables[0].box"),
    )


@st.composite
def near_distributions(draw):
    head = [draw(st.floats(0.0, 0.4)) for _ in range(3)]
    drift = draw(st.sampled_from((0.0, 1e-7, -1e-7, 5e-4, -5e-4, 2e-3, -2e-3)))
    probs = head + [1.0 - sum(head) + drift]
    if draw(st.booleans()):
        # a value just below zero, which is clamped, kept as -0.0 or rejected
        probs[draw(st.integers(0, 3))] = draw(st.sampled_from((-0.0, -5e-324, -1e-7, -2e-6)))
    return probs


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        near_distributions(),
        st.lists(probability, min_size=4, max_size=4),
        st.lists(plain_probability, min_size=4, max_size=4),
        st.lists(probability, min_size=0, max_size=6),
    )
)
def test_normalize_class_probs_matches_reference(probs):
    assert_same(
        outcome(normalize_class_probs, probs, "line 3: class_probs"),
        outcome(normalize_class_probs_reference, probs, "line 3: class_probs"),
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=3), anything), probability)
def test_validate_text_matches_reference(text, confidence):
    t = TextHypothesis(text, confidence)
    assert_same(
        outcome(validate_text, t, "year_detections[1].text"),
        outcome(validate_text_reference, t, "year_detections[1].text"),
    )


entry = st.one_of(st.floats(-3, 3), st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5)))
# -1/k with k a box coordinate below puts that corner exactly on the horizon
horizon = st.sampled_from((0.0, -1.0, -0.5, -0.25, -0.125))


@st.composite
def homographies(draw):
    if draw(st.booleans()):
        rows = [[draw(entry) for _ in range(3)] for _ in range(2)]
        last = [draw(entry), draw(entry), 1.0]
    else:
        rows = [[1.0, 0.0, draw(entry)], [0.0, 1.0, draw(entry)]]
        last = [draw(horizon), draw(horizon), 1.0]
    try:
        return Homography((tuple(rows[0]), tuple(rows[1]), tuple(last)))
    except ValueError:  # singular
        return Homography.identity()


box_coordinate = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from((0.0, -0.0, 1.0, 2.0, 4.0, 8.0)), special
)


@settings(max_examples=500, deadline=None)
@given(homographies(), st.tuples(box_coordinate, box_coordinate, box_coordinate, box_coordinate))
def test_transform_box_matches_reference(h, corners):
    box = Box(*corners, 0.75)
    new = outcome(transform_box, h, box)
    ref = outcome(transform_box_reference, h, box)
    assert new == ref
    if new[0] == "ok" and "nan" not in new[1]:
        assert transform_box(h, box) == transform_box_reference(h, box)


def test_transform_box_raises_at_the_same_corner():
    # x = 4 is on the horizon: corners (max, min) and (max, max) both are,
    # and the error names the first of them in the reference's corner order
    h = Homography(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-0.25, 0.0, 1.0)))
    box = Box(1.0, 2.0, 4.0, 3.0, 1.0)
    assert outcome(transform_box, h, box) == outcome(transform_box_reference, h, box)
    assert outcome(transform_box, h, box)[2] == "point (4.0, 2.0) maps to infinity"


@settings(max_examples=300, deadline=None)
@given(homographies(), box_coordinate, box_coordinate)
def test_apply_point_matches_reference(h, x, y):
    p = Point(x, y)
    assert outcome(apply_point, h, p) == outcome(apply_point_reference, h, p)


@settings(max_examples=500, deadline=None)
@given(
    st.tuples(box_coordinate, box_coordinate, box_coordinate, box_coordinate),
    st.tuples(box_coordinate, box_coordinate, box_coordinate, box_coordinate),
)
def test_iou_matches_reference(a, b):
    box_a, box_b = Box(*a), Box(*b)
    assert outcome(iou, box_a, box_b) == outcome(iou_area_reference, box_a, box_b)
