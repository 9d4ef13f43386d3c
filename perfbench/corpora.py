"""Seeded synthetic corpora for the benchmark workloads.

Every corpus is generated in-process by ``migrec.synth`` from the workload
seed alone, so the same seed always gives the same documents, gold records
and gold page years.  Book seeds of different workload seeds never overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from migrec.cells import read_schema_file
from migrec.chrono import ChronoConfig
from migrec.normalize import Gazetteer
from migrec.pipeline import PipelineOptions
from migrec.synth import BookFixture, SynthConfig, generate_book, write_corpus

# The Baseline noisy profile of the roadmap.
NOISY = dict(
    skew_degrees=(-3.0, 3.0),
    cell_dropout_prob=0.1,
    char_noise_prob=0.05,
    year_corruption_prob=0.1,
    border_jitter=2.0,
)

# Room for the book seeds of one workload seed; candidates rejected by the
# year-range guard are taken from the same block.
SEED_BLOCK = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    profile: dict
    books: int
    openings_per_book: int

    @property
    def openings(self) -> int:
        return self.books * self.openings_per_book


# clean and noisy: many equal short books, so book-parallel extract is
# balanced.  noisy-long: fewer books than twice the worker count of a
# 2-core machine, with long page sequences for the year DP.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("clean", {}, books=10, openings_per_book=8),
        Workload("noisy", NOISY, books=10, openings_per_book=8),
        Workload("noisy-long", NOISY, books=3, openings_per_book=32),
    )
}


def years_in_range(book: BookFixture, chrono: ChronoConfig) -> bool:
    return all(chrono.in_range(year) for _, _, year in book.page_years)


def generate_books(workload: Workload, seed: int, chrono: ChronoConfig = ChronoConfig()) -> list[BookFixture]:
    """The workload's books for ``seed``; deterministic in ``seed`` alone.

    A long book can drift past ``chrono.max_year`` (years advance about 0.2
    per opening); such a book is replaced by the next seed's, so a workload
    measures long books and not an out-of-range artefact.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    books: list[BookFixture] = []
    candidate = SEED_BLOCK * (seed + 1)
    while len(books) < workload.books:
        if candidate >= SEED_BLOCK * (seed + 2):
            raise RuntimeError(f"no in-range book seeds left for {workload.name} seed {seed}")
        cfg = SynthConfig(seed=candidate, **workload.profile)
        candidate += 1
        book = generate_book(cfg, workload.openings_per_book)
        if years_in_range(book, chrono):
            books.append(book)
    return books


@dataclass(frozen=True)
class Corpus:
    """A corpus on disk plus the options the CLI would load for it."""

    paths: dict[str, str]
    options: PipelineOptions
    openings: int


def load_options(paths: dict[str, str]) -> PipelineOptions:
    """Schemas and gazetteer from the corpus, as criterion 8 loads them."""
    schemas = {
        p.stem: read_schema_file(str(p)) for p in sorted(Path(paths["schemas"]).glob("*.tsv"))
    }
    return PipelineOptions(schemas=schemas, gazetteer=Gazetteer.from_file(paths["gazetteer"]))


def _written(books: list[BookFixture], out_dir: Path) -> Corpus:
    paths = write_corpus(books, out_dir)
    openings = sum(len(book.openings) for book in books)
    return Corpus(paths=paths, options=load_options(paths), openings=openings)


def build_corpus(workload: Workload, seed: int, out_dir: Path) -> Corpus:
    """Generate, write and load one corpus; the unit that ``setup_s`` times."""
    return _written(generate_books(workload, seed), out_dir)


def build_warmup_corpus(workload: Workload, out_dir: Path) -> Corpus:
    """Two short books of the workload's profile from seed block 0, which no
    workload seed uses."""
    books = [generate_book(SynthConfig(seed=s, **workload.profile), 2) for s in range(2)]
    return _written(books, out_dir)
