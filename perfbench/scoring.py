"""Score command outputs against the generator's gold, and hash them.

Scoring lives in the benchmark, not in ``src/``: the gold records and gold
page years are what ``migrec.synth.write_corpus`` wrote next to the
documents.
"""

from __future__ import annotations

import csv
import hashlib
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from migrec.interchange import MigrationRecord, read_records


def record_key(record: MigrationRecord) -> tuple[str, str, str, str]:
    return (record.book_id, record.opening_id, record.page_side, record.fields.get("ref_no", ""))


def score_records(pred: list[MigrationRecord], gold: list[MigrationRecord]) -> dict[str, float]:
    """Shares of gold records reproduced field for field, and by parish.

    Records are aligned by (book_id, opening_id, page_side, ref_no); records
    sharing a key pair up in file order.  ``parish_share`` counts the gold
    records that name a canonical parish.
    """
    by_key: dict[tuple, list[MigrationRecord]] = defaultdict(list)
    for record in pred:
        by_key[record_key(record)].append(record)
    taken: dict[tuple, int] = defaultdict(int)
    exact = parish = with_parish = 0
    for record in gold:
        key = record_key(record)
        index = taken[key]
        taken[key] += 1
        match = by_key[key][index] if index < len(by_key[key]) else None
        if match == record:
            exact += 1
        if record.parish_canonical is not None:
            with_parish += 1
            if match is not None and match.parish_canonical == record.parish_canonical:
                parish += 1
    return {
        "records.exact_share": exact / len(gold) if gold else 0.0,
        "records.parish_share": parish / with_parish if with_parish else 0.0,
    }


def without_year(records: list[MigrationRecord]) -> list[MigrationRecord]:
    return [replace(r, year=None, flags=r.flags - {"year_inferred"}) for r in records]


def score_record_files(pred_path: str, gold_path: str) -> dict[str, float]:
    """:func:`score_records`, plus ``exact_share_but_year``: the exact share
    with the year and its flag left out of the comparison."""
    pred = read_records(pred_path, format="jsonl")
    gold = read_records(gold_path, format="jsonl")
    scores = score_records(pred, gold)
    but_year = score_records(without_year(pred), without_year(gold))
    scores["records.exact_share_but_year"] = but_year["records.exact_share"]
    return scores


def score_years(years_csv: str, gold_years_csv: str) -> float:
    """Share of gold page-years that the ``years`` output reproduces."""
    with open(years_csv, newline="", encoding="utf-8") as handle:
        got = {
            (row["opening_id"], row["side"]): row["year"] for row in csv.DictReader(handle)
        }
    with open(gold_years_csv, newline="", encoding="utf-8") as handle:
        gold = [(row["opening_id"], row["side"], row["year"]) for row in csv.DictReader(handle)]
    hits = sum(1 for opening_id, side, year in gold if got.get((opening_id, side)) == year)
    return hits / len(gold) if gold else 0.0


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_hashes(records: str, years: str, eval_dir: str) -> dict[str, str]:
    """SHA-256 of the records, the years CSV and each eval CSV."""
    hashes = {"records": sha256_file(records), "years": sha256_file(years)}
    for path in sorted(Path(eval_dir).glob("*.csv")):
        hashes[f"eval/{path.name}"] = sha256_file(path)
    return hashes
