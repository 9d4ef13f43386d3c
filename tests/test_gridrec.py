import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from migrec import gridrec, interchange
from migrec.gridrec import (
    Band,
    BandPairingError,
    GridConfig,
    GridError,
    cluster_bands,
    complete_grid,
    complete_grid_with_retry,
    dbscan_1d,
    merge_split_tables,
    resolve_eps,
)
from migrec.interchange import Box, CellHypothesis

from oracles import complete_grid_reference, dbscan_reference


def det_cell(x0, y0, x1, y1, confidence=0.9):
    return CellHypothesis(box=Box(x0, y0, x1, y1, confidence), class_probs=(1.0, 0.0, 0.0, 0.0))


def grid_cells(n_rows, n_cols, x0=100.0, y0=200.0, cw=150.0, ch=60.0, skip=()):
    cells = []
    for r in range(n_rows):
        for c in range(n_cols):
            if (r, c) in skip:
                continue
            cells.append(
                det_cell(x0 + c * cw, y0 + r * ch, x0 + (c + 1) * cw, y0 + (r + 1) * ch)
            )
    return cells


# --- dbscan ----------------------------------------------------------------


def test_dbscan_single_cluster():
    assert dbscan_1d([0, 1, 2], eps=1.5, min_pts=2) == [0, 0, 0]


def test_dbscan_two_clusters():
    assert dbscan_1d([0, 1, 100, 101], eps=2, min_pts=2) == [0, 0, 1, 1]


def test_dbscan_noise_and_empty():
    assert dbscan_1d([], eps=1, min_pts=2) == []
    assert dbscan_1d([0.0, 10.0, 20.0], eps=1, min_pts=2) == [-1, -1, -1]


def test_dbscan_min_pts_one_makes_singletons_clusters():
    assert dbscan_1d([0.0, 10.0], eps=1, min_pts=1) == [0, 1]


def test_dbscan_rejects_bad_parameters():
    with pytest.raises(ValueError):
        dbscan_1d([1.0], eps=0, min_pts=1)
    with pytest.raises(ValueError):
        dbscan_1d([1.0], eps=1, min_pts=0)


def test_dbscan_labels_follow_input_positions():
    values = [100.0, 0.0, 101.0, 1.0]
    assert dbscan_1d(values, eps=2, min_pts=2) == [1, 0, 1, 0]


@given(
    st.lists(
        st.one_of(
            st.floats(min_value=0, max_value=100, allow_nan=False, width=64),
            st.sampled_from([0.0, -0.0, 1.0]),
        ),
        min_size=0,
        max_size=60,
    ),
    st.floats(min_value=0.01, max_value=30, allow_nan=False, width=64),
    st.integers(min_value=1, max_value=6),
)
# repeated values, and 0.0 next to -0.0: equal keys keep input order
@example([0.0, -0.0, 0.0, -0.0, 5.0, 5.0, 5.0], 0.5, 2)
@example([-0.0, 0.0, 3.0, -0.0, 3.0, 0.0, 6.0], 3.0, 3)
@example([2.0, 2.0, -0.0, 2.0, 0.0, 4.0, 4.0], 2.0, 4)
@settings(max_examples=150, deadline=None)
def test_dbscan_matches_bruteforce_reference(values, eps, min_pts):
    assert dbscan_1d(values, eps, min_pts) == dbscan_reference(values, eps, min_pts)


def test_dbscan_matches_reference_with_duplicates():
    rng = random.Random(5)
    for _ in range(50):
        values = [float(rng.randint(0, 20)) for _ in range(rng.randint(1, 80))]
        eps = rng.choice([0.5, 1.0, 2.0])
        min_pts = rng.randint(1, 5)
        assert dbscan_1d(values, eps, min_pts) == dbscan_reference(values, eps, min_pts)


# --- cluster_bands ----------------------------------------------------------


def test_cluster_bands_two_by_two_exact():
    cells = [c.box for c in grid_cells(2, 2)]
    cfg = GridConfig(eps_row=10, eps_col=10)
    rows = cluster_bands(cells, "row", cfg)
    cols = cluster_bands(cells, "col", cfg)
    assert [(b.start, b.end) for b in rows] == [(200.0, 260.0), (260.0, 320.0)]
    assert [(b.start, b.end) for b in cols] == [(100.0, 250.0), (250.0, 400.0)]
    assert all(b.support == 4 for b in rows + cols)


def test_cluster_bands_single_cell():
    cells = [Box(10, 20, 60, 50, 1.0)]
    cfg = GridConfig()
    assert cluster_bands(cells, "row", cfg) == [Band(20.0, 50.0, 2)]
    assert cluster_bands(cells, "col", cfg) == [Band(10.0, 60.0, 2)]


def test_cluster_bands_recovers_jittered_grid():
    rng = random.Random(9)
    true_rows, true_cols = 7, 4
    boxes = []
    for r in range(true_rows):
        for c in range(true_cols):
            if (r, c) == (3, 2):
                continue  # one missing cell
            jit = lambda: rng.uniform(-2, 2)
            boxes.append(
                Box(
                    100 + c * 150 + jit(),
                    200 + r * 60 + jit(),
                    250 + c * 150 + jit(),
                    260 + r * 60 + jit(),
                    0.9,
                )
            )
    cfg = GridConfig(eps_row=10, eps_col=10)
    assert len(cluster_bands(boxes, "row", cfg)) == true_rows
    assert len(cluster_bands(boxes, "col", cfg)) == true_cols


def test_cluster_bands_pairing_error_carries_counts():
    # right borders form two clusters, left borders only one
    boxes = [Box(0, 0, 10, 10, 1.0), Box(1, 20, 50, 30, 1.0)]
    with pytest.raises(BandPairingError) as err:
        cluster_bands(boxes, "col", GridConfig(eps_row=5, eps_col=5, min_pts=1))
    assert err.value.start_clusters == 1
    assert err.value.end_clusters == 2


def test_resolve_eps_auto_uses_median_extent():
    boxes = [Box(0, 0, 100, 40, 1.0), Box(0, 0, 120, 60, 1.0), Box(0, 0, 80, 44, 1.0)]
    assert resolve_eps("auto", boxes, "row") == pytest.approx(0.4 * 44)
    assert resolve_eps("auto", boxes, "col") == pytest.approx(0.4 * 100)
    assert resolve_eps(7.5, boxes, "row") == 7.5


# --- complete_grid -----------------------------------------------------------


def test_complete_grid_full_detection():
    cells = grid_cells(3, 4)
    table = complete_grid(Box(100, 200, 700, 380, 1.0), cells, GridConfig(eps_row=10, eps_col=10))
    assert (table.n_rows, table.n_cols) == (3, 4)
    assert table.count_provenance("detected") == 12
    assert table.count_provenance("inferred") == 0
    assert table.residual == ()


def test_complete_grid_infers_missing_cell_at_true_intersection():
    cells = grid_cells(3, 4, skip={(1, 2)})
    table = complete_grid(Box(100, 200, 700, 380, 1.0), cells, GridConfig(eps_row=10, eps_col=10))
    assert table.count_provenance("inferred") == 1
    inferred = table.cells[1][2]
    assert inferred.provenance == "inferred"
    box = inferred.hyp.box
    assert (box.x_min, box.y_min, box.x_max, box.y_max) == (400.0, 260.0, 550.0, 320.0)
    assert inferred.hyp.class_probs == (0.0, 0.0, 0.0, 1.0)


def test_complete_grid_duplicate_slot_keeps_higher_confidence():
    cells = grid_cells(2, 2)
    # an extra low-confidence detection landing in slot (0, 0)
    dupe = det_cell(105, 205, 245, 255, confidence=0.2)
    table = complete_grid(
        Box(100, 200, 400, 320, 1.0), cells + [dupe], GridConfig(eps_row=10, eps_col=10)
    )
    assert table.residual == (dupe,)
    assert table.cells[0][0].hyp.box.confidence == 0.9


def test_complete_grid_conserves_cells():
    rng = random.Random(31)
    for _ in range(20):
        n_rows, n_cols = rng.randint(2, 6), rng.randint(2, 5)
        skip = {(rng.randrange(n_rows), rng.randrange(n_cols))} if rng.random() < 0.5 else set()
        cells = grid_cells(n_rows, n_cols, skip=skip)
        table = complete_grid(
            Box(0, 0, 2000, 2000, 1.0), cells, GridConfig(eps_row=10, eps_col=10)
        )
        assert table.n_rows * table.n_cols == len(table.cells) * len(table.cells[0])
        detected = table.count_provenance("detected")
        inferred = table.count_provenance("inferred")
        assert detected + len(table.residual) == len(cells)
        assert detected + inferred == table.n_rows * table.n_cols


def test_complete_grid_requires_cells():
    with pytest.raises(GridError):
        complete_grid(Box(0, 0, 1, 1, 1.0), [], GridConfig())


def test_zero_noise_reconstruction_is_exact():
    rng = random.Random(17)
    for _ in range(50):
        n_rows, n_cols = rng.randint(2, 9), rng.randint(2, 6)
        cells = grid_cells(n_rows, n_cols)
        table = complete_grid(Box(0, 0, 2000, 2000, 1.0), cells, GridConfig())
        assert (table.n_rows, table.n_cols) == (n_rows, n_cols)
        assert table.count_provenance("inferred") == 0
        assert table.residual == ()
        # every detected cell sits in its own slot
        index = 0
        for r in range(n_rows):
            for c in range(n_cols):
                assert table.cells[r][c].hyp == cells[index]
                index += 1


def test_single_dropout_recovered_within_one_pixel():
    rng = random.Random(23)
    for _ in range(40):
        n_rows, n_cols = rng.randint(3, 8), rng.randint(3, 6)
        drop = (rng.randrange(n_rows), rng.randrange(n_cols))
        cells = grid_cells(n_rows, n_cols, skip={drop})
        table = complete_grid(Box(0, 0, 2000, 2000, 1.0), cells, GridConfig())
        inferred = table.cells[drop[0]][drop[1]]
        assert inferred.provenance == "inferred"
        truth = Box(
            100 + drop[1] * 150, 200 + drop[0] * 60, 100 + (drop[1] + 1) * 150, 200 + (drop[0] + 1) * 60, 0.0
        )
        for attr in ("x_min", "y_min", "x_max", "y_max"):
            assert abs(getattr(inferred.hyp.box, attr) - getattr(truth, attr)) <= 1.0


def test_retry_relaxes_eps_once():
    # tight explicit eps splits the jittered right borders; the retry at
    # eps * 1.5 reunites them
    boxes = []
    rng = random.Random(2)
    for r in range(3):
        for c in range(3):
            dx = 2.9 if (r + c) % 2 else -2.9
            boxes.append(det_cell(100 + c * 150 + dx, 200 + r * 60, 250 + c * 150 + dx, 260 + r * 60))
    cfg = GridConfig(eps_row=4.0, eps_col=4.0)
    table = complete_grid_with_retry(Box(0, 0, 1000, 1000, 1.0), boxes, cfg)
    assert (table.n_rows, table.n_cols) == (3, 3)


# --- slot placement against the slot-box reference ---------------------------

CELL_W, CELL_H = 60.0, 30.0
EXTRA_KINDS = ("duplicate", "col-edge", "row-edge", "corner")


def placement_layout(n_rows, n_cols, gap, borders, extras):
    """Cells of an ``n_rows`` x ``n_cols`` grid, plus extra cells.

    ``borders`` gives each slot's ``(dx0, dy0, dx1, dy1, confidence)`` border
    jitter, or ``None`` for a dropped cell.  With ``gap`` 0 neighbouring
    bands share an edge.  Each extra ``(kind, k, confidence, shift)`` is a
    second cell in slot ``k`` (``duplicate``) or a cell centred on the
    right, lower or lower-right edge of slot ``k``: on a shared band edge
    when ``gap`` is 0 and nothing is jittered, so its centre hits two bands.
    """
    pitch_x, pitch_y = CELL_W + gap, CELL_H + gap
    cells = []
    for i, jitter in enumerate(borders):
        if jitter is not None:
            r, c = divmod(i, n_cols)
            dx0, dy0, dx1, dy1, confidence = jitter
            x0, y0 = c * pitch_x, r * pitch_y
            cells.append(det_cell(x0 + dx0, y0 + dy0, x0 + CELL_W + dx1, y0 + CELL_H + dy1, confidence))
    for kind, k, confidence, shift in extras:
        r, c = divmod(k % (n_rows * n_cols), n_cols)
        x0, y0 = c * pitch_x, r * pitch_y
        if kind == "duplicate":
            x0, y0 = x0 + shift, y0 + shift
        if kind in ("col-edge", "corner"):
            x0 += CELL_W / 2 + gap / 2
        if kind in ("row-edge", "corner"):
            y0 += CELL_H / 2 + gap / 2
        cells.append(det_cell(x0, y0, x0 + CELL_W, y0 + CELL_H, confidence))
    return cells


@st.composite
def placement_layouts(draw):
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    jitter = st.sampled_from((0.0, 0.0, 0.0, -0.25, 0.25, -1.5, 1.5))
    confidence = st.sampled_from((0.5, 0.9))
    slot = st.tuples(jitter, jitter, jitter, jitter, confidence)
    borders = draw(
        st.lists(st.one_of(slot, slot, slot, st.none()), min_size=n_rows * n_cols,
                 max_size=n_rows * n_cols)
    )
    extras = draw(
        st.lists(st.tuples(st.sampled_from(EXTRA_KINDS), st.integers(0, 15), confidence,
                           st.sampled_from((0.0, 2.0, -3.0))), max_size=3)
    )
    return n_rows, n_cols, draw(st.sampled_from((0.0, 0.0, 5.0))), borders, extras


def grid_or_error(complete, cells):
    try:
        return complete(Box(-100, -100, 1000, 1000, 1.0), cells, GridConfig())
    except GridError as exc:
        return type(exc), str(exc)


EXACT = (0.0, 0.0, 0.0, 0.0, 0.9)
# 2 x 3 abutting cells; one cell centred on the edge shared by columns 0 and
# 1, one on the corner of four slots, and a low- and an equal-confidence
# second cell for slot (1, 2)
SHARED_EDGES = (
    2, 3, 0.0, [EXACT] * 6,
    [("col-edge", 0, 0.9, 0.0), ("corner", 1, 0.5, 0.0), ("duplicate", 5, 0.5, 2.0),
     ("duplicate", 5, 0.9, -3.0)],
)


def test_placement_layout_puts_centres_on_shared_edges_and_contests_a_slot():
    cells = placement_layout(*SHARED_EDGES)
    table = complete_grid(Box(-100, -100, 1000, 1000, 1.0), cells, GridConfig())
    hits = [
        (sum(b.start <= (c.box.y_min + c.box.y_max) / 2 <= b.end for b in table.rows),
         sum(b.start <= (c.box.x_min + c.box.x_max) / 2 <= b.end for b in table.cols))
        for c in cells
    ]
    assert hits[6:8] == [(1, 2), (2, 2)]
    assert (table.n_rows, table.n_cols) == (2, 3)
    assert len(table.residual) == 4  # both edge cells lose to exact ones, and both second cells
    assert table == complete_grid_reference(Box(-100, -100, 1000, 1000, 1.0), cells, GridConfig())


def test_complete_grid_builds_values_only_for_inferred_cells(monkeypatch):
    built = Counter()

    def counting(cls):
        def build(*args, **kwargs):
            built[cls.__name__] += 1
            return cls(*args, **kwargs)
        return build

    cells = grid_cells(3, 3, skip={(1, 1)}) + [det_cell(105, 205, 245, 255, confidence=0.2)]
    for module, name in ((gridrec, "Box"), (gridrec, "CellHypothesis"), (interchange, "Point")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    table = complete_grid(Box(0, 0, 1000, 1000, 1.0), cells, GridConfig())
    assert table.count_provenance("inferred") == 1 and len(table.residual) == 1
    assert built == Counter(Box=1, CellHypothesis=1)


@given(placement_layouts())
@example(SHARED_EDGES)
@settings(max_examples=300, deadline=None)
def test_complete_grid_places_cells_as_the_slot_box_reference(layout):
    cells = placement_layout(*layout)
    assert grid_or_error(complete_grid, cells) == grid_or_error(complete_grid_reference, cells)


# --- merge_split_tables -------------------------------------------------------


def _half_tables(center=1200.0):
    cfg = GridConfig()
    left_cells, right_cells = [], []
    for r in range(4):
        for c in range(6):
            x0 = 300 + c * 300.0
            y0 = 200 + r * 120.0
            cell = det_cell(x0, y0, x0 + 300, y0 + 120)
            (left_cells if x0 < center else right_cells).append(cell)
    a = complete_grid(Box(300, 200, 1200, 680, 1.0), left_cells, cfg)
    b = complete_grid(Box(1200, 200, 2100, 680, 1.0), right_cells, cfg)
    return a, b, cfg


def test_merge_split_tables_joins_halves():
    a, b, cfg = _half_tables()
    merged = merge_split_tables([a, b], 1200.0, cfg)
    assert len(merged) == 1
    assert (merged[0].n_rows, merged[0].n_cols) == (4, 6)
    assert merged[0].count_provenance("detected") == 24


def test_merge_split_tables_ignores_same_side():
    a, _, cfg = _half_tables()
    other = complete_grid(
        Box(300, 800, 1200, 1200, 1.0),
        grid_cells(4, 3, x0=300, y0=800, cw=300, ch=100),
        cfg,
    )
    assert len(merge_split_tables([a, other], 1200.0, cfg)) == 2


def test_merge_split_tables_requires_row_alignment():
    a, _, cfg = _half_tables()
    coarse = complete_grid(
        Box(1210, 200, 2110, 680, 1.0),
        grid_cells(2, 3, x0=1210, y0=200, cw=300, ch=240),
        cfg,
    )
    assert len(merge_split_tables([a, coarse], 1200.0, cfg)) == 2


def test_merge_split_tables_requires_abutment():
    cfg = GridConfig()
    a = complete_grid(Box(100, 200, 1000, 680, 1.0), grid_cells(4, 3, x0=100, y0=200, cw=300, ch=120), cfg)
    b = complete_grid(Box(1400, 200, 2300, 680, 1.0), grid_cells(4, 3, x0=1400, y0=200, cw=300, ch=120), cfg)
    assert len(merge_split_tables([a, b], 1200.0, cfg)) == 2
