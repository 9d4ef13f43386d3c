"""The gold scorer and the year-range guard of the corpora."""

from dataclasses import replace

import pytest

from corpora import WORKLOADS, Workload, generate_books, load_options, years_in_range
from migrec.chrono import ChronoConfig
from migrec.cli import EXIT_OK, cmd_extract, cmd_years
from migrec.interchange import read_records
from migrec.synth import SynthConfig, generate_book, write_corpus
from scoring import score_record_files, score_records, score_years, without_year


def test_scorer_gives_one_on_criterion_8_corpus(tmp_path):
    # the 50-opening clean corpus whose extraction criterion 8 proves equal
    # to gold field for field
    books = [generate_book(SynthConfig(seed=s), 10) for s in range(5)]
    paths = write_corpus(books, tmp_path / "corpus")
    records = str(tmp_path / "records.jsonl")
    years = str(tmp_path / "years.csv")
    options = load_options(paths)
    assert cmd_extract(paths["observed"], records, options, workers=1, records_format="jsonl") == EXIT_OK
    assert cmd_years(paths["observed"], years, options.chrono) == EXIT_OK

    assert score_record_files(records, paths["records"]) == {
        "records.exact_share": 1.0,
        "records.parish_share": 1.0,
        "records.exact_share_but_year": 1.0,
    }
    assert score_years(years, paths["years"]) == 1.0


def test_scorer_counts_each_wrong_record_and_page(tmp_path):
    books = [generate_book(SynthConfig(seed=7), 3)]
    paths = write_corpus(books, tmp_path / "corpus")
    gold = read_records(paths["records"], format="jsonl")
    wrong_parish = replace(gold[0], parish_canonical="Nowhere")
    wrong_name = replace(gold[1], fields={**gold[1].fields, "name": "x"})
    wrong_year = replace(gold[2], year=gold[2].year + 1)
    pred = [wrong_parish, wrong_name, wrong_year] + gold[3:-1]  # last record lost
    with_parish = sum(1 for r in gold if r.parish_canonical is not None)
    lost_parish = sum(1 for r in (gold[0], gold[-1]) if r.parish_canonical is not None)

    scores = score_records(pred, gold)
    assert scores["records.exact_share"] == (len(gold) - 4) / len(gold)
    assert scores["records.parish_share"] == (with_parish - lost_parish) / with_parish
    but_year = score_records(without_year(pred), without_year(gold))
    assert but_year["records.exact_share"] == (len(gold) - 3) / len(gold)

    gold_years = (tmp_path / "corpus" / "gold_years.csv").read_text().splitlines()[1:]
    rows = [f"b,{line},observed" for line in gold_years]
    opening_id, side, year = gold_years[0].split(",")
    rows[0] = f"b,{opening_id},{side},{int(year) + 1},observed"
    years_csv = tmp_path / "years.csv"
    years_csv.write_text("book_id,opening_id,side,year,source\n" + "\n".join(rows) + "\n")
    assert score_years(str(years_csv), paths["years"]) == (len(gold_years) - 1) / len(gold_years)


def test_long_book_guard_rejects_out_of_range_books():
    chrono = ChronoConfig(max_year=1850)
    workload = Workload("guarded", {}, books=4, openings_per_book=1)
    books = generate_books(workload, 0, chrono)
    assert len(books) == 4
    assert all(years_in_range(book, chrono) for book in books)
    # starting years spread over 1790-1900, so some candidates were skipped
    assert [b.book_id for b in books] != [f"book{1000 + i:04d}" for i in range(4)]
    assert [b.book_id for b in generate_books(workload, 0, chrono)] == [b.book_id for b in books]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_noisy_long_gold_years_stay_in_range(seed):
    books = generate_books(WORKLOADS["noisy-long"], seed)
    assert len(books) == WORKLOADS["noisy-long"].books
    assert all(years_in_range(book, ChronoConfig()) for book in books)


def test_workload_seeds_give_distinct_reproducible_corpora():
    small = replace(WORKLOADS["noisy"], books=2, openings_per_book=1)
    first = generate_books(small, 4)
    again = generate_books(small, 4)
    other = generate_books(small, 5)
    assert [b.openings[0].document for b in first] == [b.openings[0].document for b in again]
    assert {b.book_id for b in first}.isdisjoint(b.book_id for b in other)
