import filecmp
import hashlib
from dataclasses import replace

import pytest

from migrec.chrono import ChronoConfig, infer_sequence
from migrec.geometry import apply_point, deskew_transforms, edge_angle_from_vertical
from migrec.gridrec import GridConfig, complete_grid
from migrec.interchange import validate_document
from migrec.normalize import detect_duplicate_books
from migrec.synth import (
    SynthConfig,
    SynthesisError,
    apply_perturbations,
    generate_book,
    generate_opening,
    sample_gazetteer,
    write_corpus,
)


def test_same_seed_reproduces_fixture():
    cfg = SynthConfig(seed=5, skew_degrees=(-3, 3), cell_dropout_prob=0.05, char_noise_prob=0.02)
    assert generate_opening(cfg) == generate_opening(cfg)


def test_same_seed_byte_identical_corpus(tmp_path):
    cfg = SynthConfig(seed=9, skew_degrees=(-2, 2), border_jitter=1.0)
    for name in ("one", "two"):
        write_corpus([generate_book(cfg, 3)], tmp_path / name)
    comparison = filecmp.dircmp(tmp_path / "one", tmp_path / "two")

    def assert_same(cmp):
        assert not cmp.diff_files and not cmp.left_only and not cmp.right_only
        for sub in cmp.subdirs.values():
            assert_same(sub)

    assert_same(comparison)


def test_zero_perturbation_observed_equals_gold():
    fixture = generate_opening(SynthConfig(seed=1))
    assert fixture.document == fixture.gold_document
    assert fixture.perturbations.keypoints == fixture.gold_document.keypoints
    assert fixture.perturbations.dropped == ()


def test_documents_validate():
    for seed in range(5):
        fixture = generate_opening(
            SynthConfig(seed=seed, skew_degrees=(-4, 4), cell_dropout_prob=0.08, border_jitter=1.0)
        )
        validate_document(fixture.document)
        validate_document(fixture.gold_document)


def test_dropout_reproducible_and_bounded():
    cfg = SynthConfig(seed=2, cell_dropout_prob=0.1)
    first = generate_opening(cfg)
    second = generate_opening(cfg)
    assert first.perturbations.dropped == second.perturbations.dropped
    assert first.perturbations.dropped
    # every row and column keeps at least two cells per table
    for t, gold_table in enumerate(first.gold_tables):
        grid = gold_table.grid
        dropped_here = {(r, c) for tt, r, c in first.perturbations.dropped if tt == t}
        for r in range(grid.n_rows):
            assert sum(1 for c in range(grid.n_cols) if (r, c) not in dropped_here) >= 2
        for c in range(grid.n_cols):
            assert sum(1 for r in range(grid.n_rows) if (r, c) not in dropped_here) >= 2


def test_two_column_tables_draw_no_dropout():
    for seed in range(20):
        fixture = generate_opening(SynthConfig(seed=seed, cols=(2, 2), cell_dropout_prob=0.1))
        assert fixture.perturbations.dropped == ()


def test_two_row_tables_draw_no_dropout():
    for seed in range(40):
        fixture = generate_opening(SynthConfig(seed=seed, rows=(2, 2), cell_dropout_prob=0.1))
        assert fixture.perturbations.dropped == ()


def test_excessive_dropout_raises():
    with pytest.raises(SynthesisError):
        generate_opening(SynthConfig(seed=3, rows=(3, 3), cell_dropout_prob=0.9))


@pytest.mark.parametrize(
    "cfg",
    [
        SynthConfig(
            seed=11,
            skew_degrees=(-4, 4),
            cell_dropout_prob=0.08,
            char_noise_prob=0.05,
            year_corruption_prob=0.3,
            border_jitter=1.5,
        ),
        SynthConfig(seed=11),
        SynthConfig(seed=11, skew_degrees=(-4, 4)),
        SynthConfig(seed=11, border_jitter=1.5),
        SynthConfig(seed=11, layout="handdrawn", skew_degrees=(-4, 4), char_noise_prob=0.05),
        SynthConfig(seed=11, cols=(2, 3), cell_dropout_prob=0.05, char_noise_prob=0.05),
    ],
    ids=["noisy", "clean", "skew", "jitter", "handdrawn", "narrow"],
)
def test_perturbation_log_replays_exactly(cfg):
    fixture = generate_opening(cfg)
    replayed = apply_perturbations(fixture.gold_document, fixture.gold_tables, fixture.perturbations)
    assert replayed == fixture.document


def test_skewed_opening_deskews_below_microdegree():
    fixture = generate_opening(SynthConfig(seed=4, skew_degrees=(2.5, 3.0)))
    kp = fixture.document.keypoints
    assert kp != fixture.gold_document.keypoints
    left, right = deskew_transforms(kp, 2400, 1600)
    edges = (
        (left, kp.a, kp.d),
        (left, kp.b, kp.e),
        (right, kp.c, kp.f),
    )
    for h, top, bottom in edges:
        angle = edge_angle_from_vertical(apply_point(h, top), apply_point(h, bottom))
        assert abs(angle) < 1e-6


def test_gold_grid_matches_reconstruction():
    fixture = generate_opening(SynthConfig(seed=6))
    for gold_table, table in zip(fixture.gold_tables, fixture.document.tables):
        grid = complete_grid(table.box, table.cells, GridConfig())
        assert (grid.n_rows, grid.n_cols) == (gold_table.grid.n_rows, gold_table.grid.n_cols)


def test_generate_book_years_monotone():
    book = generate_book(SynthConfig(seed=8), 12)
    years = [year for _, _, year in book.page_years]
    assert all(a <= b <= a + 1 for a, b in zip(years, years[1:]))
    assert len(book.openings) == 12


def test_clean_book_years_recovered_by_inference():
    book = generate_book(SynthConfig(seed=10), 10)
    from migrec.pipeline import process_opening

    pages = []
    for fixture in book.openings:
        result = process_opening(fixture.document, GridConfig(), ChronoConfig())
        pages.extend(result.pages[side] for side in ("left", "right"))
    pages.sort(key=lambda p: (p.opening_id, p.side))
    sequence = infer_sequence(pages, ChronoConfig())
    resolved = {(p.opening_id, p.side): p.year for p in sequence.pages}
    for opening_id, side, year in book.page_years:
        assert resolved[(opening_id, side)] == year


def test_duplicated_book_fixture_is_flagged():
    cfg = SynthConfig(seed=13)
    original = generate_book(cfg, 5, book_id="book_a")
    duplicate = generate_book(cfg, 5, book_id="book_b")
    books = {
        "book_a": [r for fx in original.openings for r in fx.gold_records],
        "book_b": [r for fx in duplicate.openings for r in fx.gold_records],
    }
    pairs = detect_duplicate_books(books)
    assert len(pairs) == 1
    assert pairs[0].remove == "book_b"


def test_corpus_of_books_that_disagree_on_the_schema_is_refused(tmp_path):
    five = generate_book(SynthConfig(seed=1), 1, book_id="five")
    mixed = generate_book(SynthConfig(seed=2, cols=(3, 5)), 1, book_id="mixed")
    handdrawn = generate_book(SynthConfig(seed=3, layout="handdrawn"), 1, book_id="hand")
    with pytest.raises(ValueError, match="these have none: mixed$"):
        write_corpus([five, mixed, handdrawn], tmp_path / "c")
    assert not (tmp_path / "c").exists()
    # hand-drawn tables have no say in the preprinted schema
    write_corpus([five, handdrawn], tmp_path / "ok")
    assert (tmp_path / "ok" / "schemas" / "preprinted.tsv").exists()


def test_gazetteer_fixture_loads():
    gazetteer = sample_gazetteer()
    assert len(gazetteer.entries) == 50
    assert gazetteer.forms["helsingfors"] == "Helsinki"


# The roadmap's noisy profile.
NOISY = dict(
    skew_degrees=(-3.0, 3.0),
    cell_dropout_prob=0.1,
    char_noise_prob=0.05,
    year_corruption_prob=0.1,
    border_jitter=2.0,
)


# SHA-256 over the relative path and bytes of every file ``write_corpus``
# writes for two books (seeds ``seed`` and ``seed + 1``) of four openings.
# The benchmark's corpora are all five-column preprinted tables; these pin
# the handdrawn, narrow, two-column and mixed-width branches of the generator.
GENERATOR_PINS = [
    (
        SynthConfig(seed=11, layout="handdrawn", skew_degrees=(-4, 4), char_noise_prob=0.05),
        "70dfc7842d46a7f73384a9df73bb7a1c23c614a5d4e0bfb7b188754d3c5f0d01",
    ),
    (
        SynthConfig(cols=(2, 4), layout="handdrawn"),
        "e8a40c5ed8f7c9131f66a55263275a6b964974591229e09d6b5f68b3d4a015f9",
    ),
    (
        SynthConfig(cols=(3, 3)),
        "d22b0489273f7d650a8b022e01dc13d1b90319f2ce9382d99027fb3b1bca4320",
    ),
    (
        SynthConfig(cols=(4, 4), **NOISY),
        "033226655479c80010b37c161f480e7314d8658e4849b671c50a614213aea076",
    ),
    (
        SynthConfig(cols=(2, 2), cell_dropout_prob=0.1),
        "587b81315d7114a733be3c2b1f14a3feea62c9911df64b151b0f9171d5111388",
    ),
    (
        SynthConfig(cols=(3, 5)),
        "a4e6350841a33b81dda91381f61cffd0f0621dda6165045ffd8e82823738b1db",
    ),
]


@pytest.mark.parametrize(
    "cfg, expected",
    GENERATOR_PINS,
    ids=["handdrawn", "handdrawn-2-4", "three-column", "four-column-noisy", "two-column-dropout", "mixed-width"],
)
def test_generated_corpus_is_pinned(cfg, expected, tmp_path):
    write_corpus([generate_book(replace(cfg, seed=cfg.seed + i), 4) for i in range(2)], tmp_path)
    digest = hashlib.sha256()
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    assert digest.hexdigest() == expected
