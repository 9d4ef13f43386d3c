"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; tolerances and runtime bounds are asserted, not just reported.
"""

import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from migrec.cells import read_schema_file
from migrec.chrono import (
    ChronoConfig,
    PageObservations,
    YearObservation,
    external_correct,
    infer_sequence,
    normalize_year_token,
)
from migrec.cli import EXIT_OK, cmd_aggregate, cmd_extract
from migrec.evaluation import (
    ClassRow,
    accuracy_from_pr,
    cer,
    class_report,
    f1_score,
    is_textual_line,
    round_half_up,
)
from migrec.geometry import (
    apply_point,
    deskew_transforms,
    edge_angle_from_vertical,
    make_patch_spec,
    mirror_local,
    refine_keypoint,
)
from migrec.gridrec import GridConfig, complete_grid, dbscan_1d, resolve_eps
from migrec.interchange import Box, OpeningKeypoints, Point, read_records, write_records
from migrec.normalize import Gazetteer, detect_duplicate_books, filter_usable
from migrec.pipeline import PipelineOptions
from migrec.synth import SynthConfig, generate_book, generate_opening, sample_gazetteer, write_corpus

from oracles import edit_distance_reference


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS  {description}")


def tenths(value: float) -> int:
    return round(round_half_up(value) * 10)


# --- criterion 1 -------------------------------------------------------------

# printed rows: (accuracy, recall, precision, f1)
TABLE_DETECTION = {
    "preprinted": (93.2, 93.2, 100.0, 96.5),
    "handdrawn": (95.4, 95.4, 100.0, 97.6),
    "all": (94.2, 94.2, 100.0, 97.0),
}
ROW_DETECTION = {
    "preprinted": (95.1, 96.4, 98.7, 97.5),
    "handdrawn": (87.9, 93.7, 93.4, 93.6),
    "all": (91.4, 95.1, 96.0, 95.5),
}
COLUMN_DETECTION = {
    "preprinted": (96.1, 99.1, 96.9, 98.0),
    "handdrawn": (92.4, 98.3, 93.9, 96.1),
    "all": (94.4, 98.7, 95.6, 97.1),
}
YEAR_EXTRACTION = {
    "with_correction": (None, 83.1, 91.6, 87.2),
    "without_correction": (None, 80.0, 89.2, 84.4),
}


def test_criterion_1_published_table_arithmetic():
    with criterion(1, "published P/R reproduce printed F1 (+-0.1) and accuracy (+-0.2)"):
        start = time.perf_counter()
        tables = (TABLE_DETECTION, ROW_DETECTION, COLUMN_DETECTION, YEAR_EXTRACTION)
        for table in tables:
            for label, (accuracy, recall, precision, f1) in table.items():
                computed_f1 = f1_score(precision, recall)
                assert abs(tenths(computed_f1) - round(f1 * 10)) <= 1, (
                    f"{label}: f1({precision}, {recall}) = {computed_f1:.2f} vs printed {f1}"
                )
                if accuracy is not None:
                    computed_acc = accuracy_from_pr(precision, recall)
                    assert abs(tenths(computed_acc) - round(accuracy * 10)) <= 2, (
                        f"{label}: accuracy identity gives {computed_acc:.2f} vs printed {accuracy}"
                    )
        # spot values called out explicitly
        assert abs(tenths(f1_score(91.6, 83.1)) - 872) <= 1
        assert tenths(f1_score(96.0, 95.1)) == 955
        assert abs(tenths(accuracy_from_pr(96.9, 99.1)) - 961) <= 2
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


# --- criterion 2 -------------------------------------------------------------


def test_criterion_2_cell_classification_averages():
    with criterion(2, "per-class report reproduces weighted F1 88.8 and macro F1 82.9 (+-0.1)"):
        start = time.perf_counter()
        report = class_report(
            [
                ClassRow("single_line", 96.3, 87.3, 91.6, 9829),
                ClassRow("empty", 81.2, 96.7, 88.3, 3692),
                ClassRow("repetition", 79.4, 87.1, 83.1, 2020),
                ClassRow("multi_line", 67.9, 69.6, 68.7, 744),
            ]
        )
        assert abs(tenths(report.weighted_f1) - 888) <= 1
        assert abs(tenths(report.macro_f1) - 829) <= 1
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


# --- criterion 3 -------------------------------------------------------------


def _rotate(p: Point, center: Point, theta: float) -> Point:
    c, s = math.cos(theta), math.sin(theta)
    dx, dy = p.x - center.x, p.y - center.y
    return Point(center.x + c * dx - s * dy, center.y + s * dx + c * dy)


def test_criterion_3_geometry_suite():
    with criterion(3, "1000 skewed openings: de-skew < 1e-6 deg, round-trip < 1e-9 px, mirror exact"):
        start = time.perf_counter()
        rng = random.Random(0)
        for _ in range(1000):
            width = rng.choice((2000, 2400, 3000))
            height = rng.choice((1400, 1600, 2000))
            base = OpeningKeypoints(
                a=Point(0, 0), b=Point(width / 2, 0), c=Point(width, 0),
                d=Point(0, height), e=Point(width / 2, height), f=Point(width, height),
            )
            theta_l = math.radians(rng.uniform(-5, 5))
            theta_r = math.radians(rng.uniform(-5, 5))
            cl = Point(width / 4, height / 2)
            cr = Point(3 * width / 4, height / 2)
            kp = OpeningKeypoints(
                a=_rotate(base.a, cl, theta_l),
                b=_rotate(base.b, cl, theta_l),
                c=_rotate(base.c, cr, theta_r),
                d=_rotate(base.d, cl, theta_l),
                e=_rotate(base.e, cl, theta_l),
                f=_rotate(base.f, cr, theta_r),
            )
            left, right = deskew_transforms(kp, width, height)
            for h, top, bottom in ((left, kp.a, kp.d), (left, kp.b, kp.e), (right, kp.c, kp.f)):
                angle = edge_angle_from_vertical(apply_point(h, top), apply_point(h, bottom))
                assert abs(angle) < 1e-6

            inv = left.inverse()
            for _ in range(3):
                p = Point(rng.uniform(0, width), rng.uniform(0, height))
                q = apply_point(inv, apply_point(left, p))
                assert math.hypot(q.x - p.x, q.y - p.y) < 1e-9

            p = Point(float(rng.randint(0, width)), float(rng.randint(0, height)))
            spec = make_patch_spec(p, width, height)
            local = mirror_local(Point(p.x - spec.region.x_min, p.y - spec.region.y_min), spec)
            assert refine_keypoint(p, local, spec) == p  # exact, no tolerance
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


# --- criterion 4 -------------------------------------------------------------


def _dbscan_bruteforce(values, eps, min_pts):
    """Quadratic reference: full |a-b| distance matrix for neighbor lookup.

    Classic seed-and-expand DBSCAN; each point enters the queue at most once
    (set semantics of the reachable set), with seeds visited in ascending
    (value, input position) order and neighbors enumerated in that same
    order so border-point claims are deterministic.
    """
    n = len(values)
    arr = np.asarray(values, dtype=float)
    within = np.abs(arr[:, None] - arr[None, :]) <= eps
    counts = within.sum(axis=1).tolist()
    order = sorted(range(n), key=lambda i: (values[i], i))
    # columns in (value, position) order, so each row's neighbors come out
    # already sorted by that order; Python ints keep the loops below cheap
    by_rank = within[:, order]
    order_arr = np.asarray(order, dtype=int)

    def neighbors(i):
        return order_arr[by_rank[i].nonzero()[0]].tolist()

    labels = [-2] * n
    cluster = 0
    for i in order:
        if labels[i] != -2:
            continue
        if counts[i] < min_pts:
            labels[i] = -1
            continue
        labels[i] = cluster
        queue = neighbors(i)
        enqueued = set(queue)
        k = 0
        while k < len(queue):
            j = queue[k]
            k += 1
            if labels[j] == -1:
                labels[j] = cluster
            if labels[j] != -2:
                continue
            labels[j] = cluster
            if counts[j] >= min_pts:
                for q in neighbors(j):
                    if q not in enqueued:
                        enqueued.add(q)
                        queue.append(q)
        cluster += 1
    return labels


def test_criterion_4_dbscan_oracle_equivalence():
    with criterion(4, "dbscan_1d equals the quadratic reference on 10000 instances (<= 500 pts)"):
        start = time.perf_counter()
        rng = random.Random(4)
        for trial in range(10_000):
            n = rng.randint(1, 500)
            scale = rng.choice((1.0, 10.0, 100.0))
            if trial % 3 == 0:
                values = [float(rng.randint(0, 50)) for _ in range(n)]  # heavy duplicates
            else:
                values = [rng.uniform(0, scale) for _ in range(n)]
            eps = rng.uniform(0.01, scale / 5.0 + 0.02)
            min_pts = rng.randint(1, 6)
            assert dbscan_1d(values, eps, min_pts) == _dbscan_bruteforce(values, eps, min_pts)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


# --- criterion 5 -------------------------------------------------------------


def test_criterion_5_grid_reconstruction():
    with criterion(5, "zero-noise grids exact on 500 seeds; >= 95% dropout recovery at +-1 px"):
        # exact reconstruction, 500 seeds
        for seed in range(500):
            fixture = generate_opening(SynthConfig(seed=seed))
            for gold_table, table in zip(fixture.gold_tables, fixture.document.tables):
                grid = complete_grid(table.box, table.cells, GridConfig())
                gold = gold_table.grid
                assert (grid.n_rows, grid.n_cols) == (gold.n_rows, gold.n_cols)
                assert grid.count_provenance("inferred") == 0
                assert grid.residual == ()
                for r in range(grid.n_rows):
                    for c in range(grid.n_cols):
                        assert grid.cells[r][c].hyp == gold.cells[r][c].hyp

        # dropout recovery with jitter below eps/4
        recovered = 0
        dropped_total = 0
        for seed in range(120):
            cfg = SynthConfig(seed=seed, cell_dropout_prob=0.10, border_jitter=1.0)
            fixture = generate_opening(cfg)
            dropped = set(fixture.perturbations.dropped)
            observed_index: dict[int, list] = {}
            cursor = {t: 0 for t in range(len(fixture.gold_tables))}
            gold_of_observed = {}
            for t, gold_table in enumerate(fixture.gold_tables):
                grid = gold_table.grid
                for r in range(grid.n_rows):
                    for c in range(grid.n_cols):
                        if (t, r, c) in dropped:
                            continue
                        gold_of_observed[(t, cursor[t])] = (r, c)
                        cursor[t] += 1
            for t, (gold_table, table) in enumerate(zip(fixture.gold_tables, fixture.document.tables)):
                gold = gold_table.grid
                eps_row = resolve_eps("auto", [c.box for c in table.cells], "row")
                assert 1.0 < eps_row / 4.0  # jitter < eps/4 precondition
                grid = complete_grid(table.box, table.cells, GridConfig())
                assert (grid.n_rows, grid.n_cols) == (gold.n_rows, gold.n_cols)
                assert grid.residual == ()
                # zero misassigned detections: each observed cell must sit in
                # the slot of the gold cell it was derived from
                slot_of = {}
                for r in range(grid.n_rows):
                    for c in range(grid.n_cols):
                        cell = grid.cells[r][c]
                        if cell.provenance == "detected":
                            slot_of[id_box(cell.hyp.box)] = (r, c)
                for k, cell in enumerate(table.cells):
                    assert slot_of[id_box(cell.box)] == gold_of_observed[(t, k)]
                # recovery accuracy of dropped cells
                for tt, r, c in dropped:
                    if tt != t:
                        continue
                    dropped_total += 1
                    inferred = grid.cells[r][c]
                    if inferred.provenance != "inferred":
                        continue
                    truth = gold.cells[r][c].hyp.box
                    box = inferred.hyp.box
                    if all(
                        abs(getattr(box, attr) - getattr(truth, attr)) <= 1.0
                        for attr in ("x_min", "y_min", "x_max", "y_max")
                    ):
                        recovered += 1
        assert dropped_total > 100
        rate = recovered / dropped_total
        assert rate >= 0.95, f"recovered {recovered}/{dropped_total} = {rate:.3f}"


def id_box(box: Box) -> tuple:
    return (box.x_min, box.y_min, box.x_max, box.y_max)


# --- criterion 6 -------------------------------------------------------------


def test_criterion_6_text_metrics():
    with criterion(6, "cer equals DP oracle on 10000 pairs; line-class fixture 100/100"):
        rng = random.Random(6)
        alphabet = "abcdefghiklmnoprstuvyäö 0123456789.,"
        for _ in range(10_000):
            pred = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            ref = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
            assert cer(pred, ref) == edit_distance_reference(pred, ref) / len(ref)

        fixture = Path(__file__).parent / "data" / "line_classes.tsv"
        cases = [line.split("\t", 1) for line in fixture.read_text(encoding="utf-8").splitlines()]
        assert len(cases) == 100
        disagreements = [
            text for label, text in cases
            if ("textual" if is_textual_line(text) else "numeric") != label
        ]
        assert disagreements == []


# --- criterion 7 -------------------------------------------------------------


def _book_pages(book):
    pages = []
    for fixture in book.openings:
        doc = fixture.document
        for side in ("left", "right"):
            observations = []
            for det in doc.year_detections:
                if doc.page_side(det.box.center.x, det.box.center.y) != side:
                    continue
                observations.append(
                    YearObservation(det.text.text, normalize_year_token(det.text.text), det.box)
                )
            pages.append(
                PageObservations(opening_id=doc.opening_id, side=side, observations=tuple(observations))
            )
    pages.sort(key=lambda p: (p.opening_id, p.side))
    return pages


class _TimeoutClient:
    def correct_years(self, pages_raw):
        raise TimeoutError("corrector unavailable")


class _MalformedClient:
    def correct_years(self, pages_raw):
        return [1890] * (len(pages_raw) - 1)


class _DecreasingClient:
    def correct_years(self, pages_raw):
        return list(range(1900, 1900 - len(pages_raw), -1))


def test_criterion_7_year_inference():
    with criterion(7, "year recovery >= 99% on 200 corrupted books; monotone; fallbacks correct"):
        total = 0
        exact = 0
        cfg = ChronoConfig()
        for seed in range(200):
            book = generate_book(
                SynthConfig(seed=seed, year_corruption_prob=0.10), n_openings=20
            )
            pages = _book_pages(book)
            sequence = infer_sequence(pages, cfg)
            years = [y for y in sequence.years() if y is not None]
            for a, b in zip(years, years[1:]):  # monotone with bounded jumps, always
                assert a <= b <= a + cfg.max_jump
            resolved = {(p.opening_id, p.side): p.year for p in sequence.pages}
            for opening_id, side, truth in book.page_years:
                total += 1
                if resolved.get((opening_id, side)) == truth:
                    exact += 1
        rate = exact / total
        assert total == 200 * 20 * 2
        assert rate >= 0.99, f"recovered {exact}/{total} = {rate:.4f}"

        # external corrector fallback paths
        book = generate_book(SynthConfig(seed=999), n_openings=5)
        pages = _book_pages(book)
        baseline = infer_sequence(pages, cfg)
        for client in (_TimeoutClient(), _MalformedClient(), _DecreasingClient()):
            assert external_correct(pages, client, cfg) == baseline


# --- criterion 8 -------------------------------------------------------------


def test_criterion_8_end_to_end_determinism(tmp_path):
    with criterion(8, "50-opening extract equals gold; worker-invariant; 1000 openings < 30 s"):
        corpus_dir = tmp_path / "fidelity"
        books = [generate_book(SynthConfig(seed=s), 10) for s in range(5)]  # 50 openings
        paths = write_corpus(books, corpus_dir)
        options = PipelineOptions(
            schemas={"preprinted": read_schema_file(str(Path(paths["schemas"]) / "preprinted.tsv"))},
            gazetteer=Gazetteer.from_file(paths["gazetteer"]),
        )
        outputs = {}
        for workers in (1, 8):
            out_path = tmp_path / f"records_w{workers}.jsonl"
            code = cmd_extract(
                paths["observed"], str(out_path), options, workers=workers, records_format="jsonl"
            )
            assert code == EXIT_OK
            outputs[workers] = out_path.read_bytes()
        assert outputs[1] == outputs[8]

        key = lambda r: (r.book_id, r.opening_id, r.page_side, r.fields.get("ref_no", ""))
        got = sorted(read_records(str(tmp_path / "records_w1.jsonl"), format="jsonl"), key=key)
        gold = sorted((r for b in books for fx in b.openings for r in fx.gold_records), key=key)
        assert got == gold  # field-for-field

        # runtime bound: 1000 openings, single worker
        big_dir = tmp_path / "big"
        big_books = [generate_book(SynthConfig(seed=100 + s), 20) for s in range(50)]
        big_paths = write_corpus(big_books, big_dir)
        start = time.perf_counter()
        code = cmd_extract(
            big_paths["observed"],
            str(tmp_path / "big_records.jsonl"),
            options,
            workers=1,
            records_format="jsonl",
        )
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK
        assert elapsed < 30.0, f"took {elapsed:.1f}s for 1000 openings"


# --- criterion 9 -------------------------------------------------------------


def test_criterion_9_case_study_mechanics(tmp_path):
    with criterion(9, "planted duplicates, rejection tallies and aggregates all exact"):
        gazetteer = sample_gazetteer()
        source = generate_book(SynthConfig(seed=42), 6, book_id="book_a")
        clone = generate_book(SynthConfig(seed=42), 6, book_id="book_dup")
        other = generate_book(SynthConfig(seed=43), 6, book_id="book_c")
        books = {
            book.book_id: [r for fx in book.openings for r in fx.gold_records]
            for book in (source, clone, other)
        }
        pairs = detect_duplicate_books(books)
        assert [(p.book_a, p.book_b) for p in pairs] == [("book_a", "book_dup")]
        assert pairs[0].remove == "book_dup"

        # plant missing-field defects with known counts
        from dataclasses import replace

        records = books["book_a"] + books["book_c"]
        rng = random.Random(9)
        planted = {"missing_direction": 0, "missing_year": 0, "missing_parish": 0, "unmatched_parish": 0}
        defected = []
        for i, record in enumerate(records):
            roll = rng.random()
            if roll < 0.05:
                record = replace(record, direction="unknown")
                planted["missing_direction"] += 1
            elif roll < 0.10:
                record = replace(record, year=None)
                planted["missing_year"] += 1
            elif roll < 0.15:
                record = replace(record, parish_raw=None, parish_canonical=None)
                planted["missing_parish"] += 1
            elif roll < 0.20:
                record = replace(record, parish_canonical=None)
                planted["unmatched_parish"] += 1
            defected.append(record)
        usable, tally = filter_usable(defected)
        assert tally == planted
        assert len(usable) + sum(tally.values()) == len(defected)

        # aggregates equal planted per-year in/out counts
        records_path = tmp_path / "usable.jsonl"
        write_records(usable, str(records_path), format="jsonl")
        out_dir = tmp_path / "agg"
        assert cmd_aggregate(str(records_path), str(out_dir)) == EXIT_OK
        import csv as csv_mod

        with open(out_dir / "aggregate_years.csv") as handle:
            rows = list(csv_mod.DictReader(handle))
        got = {(int(r["year"]), r["direction"]): int(r["count"]) for r in rows}
        expected = {}
        for record in usable:
            expected[(record.year, record.direction)] = (
                expected.get((record.year, record.direction), 0) + 1
            )
        assert got == expected
