"""Command line interface: extract, eval, synth, years, normalize, aggregate, report.

``extract`` runs the full record-extraction pipeline over a directory of
detection documents, book-parallel with deterministic output.  ``eval``
scores predicted documents against gold documents and emits CSV reports.
``synth`` writes a synthetic fixture corpus with full ground truth.  The
remaining subcommands operate on record files: year resolution, parish
normalization and de-duplication, and per-year/per-parish aggregation.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import re
import sys
from collections import Counter
from dataclasses import fields, replace as dc_replace
from itertools import repeat
from pathlib import Path

from .cells import read_schema_file
from .chrono import ChronoConfig, HttpCorrectorClient
from .gridrec import GridConfig, parse_eps
from .interchange import (
    LAYOUT_TYPES,
    content_lines,
    read_records,
    write_csv,
    write_json,
    write_records,
)
from .normalize import DUPLICATE_JACCARD_THRESHOLD, MAX_REL_DIST, Gazetteer
from .normalize import detect_duplicate_books, filter_usable
from .pipeline import (
    DIRECTION_MODES,
    EVAL_REPORTS,
    UNREADABLE,
    PipelineOptions,
    book_years,
    collect_years,
    eval_reports,
    group_documents_by_book,
    match_parishes,
    process_book,
    read_book,
    score_opening,
)
# Not called here; perfbench/tracing.py wraps these names on this module too.
from .pipeline import complete_grid_with_retry, deskew_transforms, infer_sequence  # noqa: F401
from .pipeline import normalize_year_token, transform_box  # noqa: F401
from .interchange import read_document  # noqa: F401
from .synth import SynthConfig, generate_book, write_corpus

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2


_BOOLEANS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _config_value(action: argparse.Action, raw: str):
    """A config file value, cast as the option's flag value is cast."""
    key = action.dest
    if isinstance(action, argparse.BooleanOptionalAction):
        if raw.lower() not in _BOOLEANS:
            raise ValueError(
                f"config key {key}: expected one of {', '.join(_BOOLEANS)}, not {raw!r}"
            )
        return _BOOLEANS[raw.lower()]
    try:
        value = action.type(raw) if action.type else raw
    except ValueError:
        raise ValueError(f"config key {key}: invalid {action.type.__name__} value {raw!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(
            f"config key {key}: expected one of {', '.join(action.choices)}, not {raw!r}"
        )
    return value


def _apply_config(args: argparse.Namespace, path: str, parser: argparse.ArgumentParser) -> dict:
    """Set from a config file each option of the running subcommand that no flag set.

    The file holds ``key = value`` lines ('#' comments and blank lines are
    ignored).  A key is the ``dest`` of an option without a default on any
    subcommand, so one file serves several commands.  Returns the
    ``path:line`` of each key it set.
    """
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    settable = {
        name: {a.dest: a for a in sub._actions if a.option_strings and a.default is None}
        for name, sub in commands.choices.items()
    }
    own = settable[args.command]
    unset = {dest for dest in own if getattr(args, dest) is None}
    origins = {}
    for lineno, line in content_lines(path):
        key, eq, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if not eq:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        if not any(key in options for options in settable.values()):
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in unset:
            try:
                setattr(args, key, _config_value(own[key], raw.strip()))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            origins[key] = f"{path}:{lineno}"
    return origins


def _given(args: argparse.Namespace, *names: str) -> dict:
    """Keyword arguments of the named options that a flag or the config file set.
    An option is unset when it is ``None`` or, with a suppressed default, absent."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _settings(cls, args: argparse.Namespace, **fixed):
    """A settings dataclass from ``fixed`` and the set options named after its other fields."""
    return cls(**_given(args, *(f.name for f in fields(cls) if f.name not in fixed)), **fixed)


def _load_schemas(schema_dir: str | None) -> dict:
    """One column schema per ``<layout>.tsv`` file; a directory without any, or a
    file named for no layout type, is an error."""
    if not schema_dir:
        return {}
    paths = sorted(Path(schema_dir).glob("*.tsv"))
    if not paths:
        problem = "holds no *.tsv schema file" if Path(schema_dir).is_dir() else "is not a directory"
        raise ValueError(f"schema directory {schema_dir} {problem}")
    for path in paths:
        if path.stem not in LAYOUT_TYPES:
            raise ValueError(f"schema file {path} names no layout type; expected one of "
                             f"{', '.join(f'{t}.tsv' for t in LAYOUT_TYPES)}")
    return {path.stem: read_schema_file(str(path)) for path in paths}


def _load_book_directions(path: str | None) -> dict[str, str]:
    """``book_id<TAB>mode`` lines; '#' comments and blank lines ignored."""
    if not path:
        return {}
    directions = {}
    for lineno, line in content_lines(path):
        stripped = line.strip()
        book_id, tab, mode = stripped.partition("\t")
        if not tab or mode.strip() not in DIRECTION_MODES:
            raise ValueError(
                f"{path}:{lineno}: expected book_id<TAB>mode with mode one of "
                f"{', '.join(DIRECTION_MODES)}, not {stripped!r}"
            )
        directions[book_id.strip()] = mode.strip()
    return directions


def _usable_cpus() -> int:
    """The CPUs this process may run on, which may be fewer than the host has."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _document_paths(in_dir: str) -> list[str]:
    return sorted(str(p) for p in Path(in_dir).rglob("*.jsonl"))


def cmd_extract(
    in_dir: str,
    out_path: str,
    options: PipelineOptions,
    workers: int = 1,
    records_format: str | None = None,
    summary_path: str | None = None,
) -> int:
    """Extract records from every document under ``in_dir``; book-parallel.

    Output is deterministic for any worker count: books are processed
    share-nothing and merged in sorted order.  At most one worker runs per
    book, and a single worker runs in this process, without a pool.
    Per-opening failures are isolated and tallied; the run continues.
    Without ``records_format`` the format is the one ``out_path`` names, as
    for every records path.
    The summary's ``books`` counts the books of readable headers only.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    paths = _document_paths(in_dir)
    if not paths:
        log.error("no document files (*.jsonl) under %s", in_dir)
        return EXIT_FATAL
    groups = group_documents_by_book(paths)  # in book order, which map keeps
    books = (groups, groups.values(), repeat(options))
    workers = min(workers, len(groups))  # a worker without a book would only be forked
    if workers == 1:
        results = list(map(process_book, *books))
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing; a serial run never needs it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(process_book, *books))

    records = []
    summary: Counter = Counter()
    failures = []
    for result in results:
        records.extend(result.records)
        summary.update(result.summary)
        failures.extend(result.failures)

    write_records(records, out_path, format=records_format)
    summary_obj = {
        "books": sum(book != UNREADABLE for book in groups),
        "openings_total": len(paths),
        "records": len(records),
        "counts": dict(sorted(summary.items())),
        "failures": failures,
    }
    if summary_path is None:
        summary_path = out_path + ".summary.json"
    write_json(summary_path, summary_obj)
    log.info("extracted %d records from %d openings (%d failed)",
             len(records), summary["openings_processed"], summary["openings_failed"])
    return EXIT_PARTIAL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(
    pred_dir: str,
    gold_dir: str,
    out_dir: str,
    grid_cfg: GridConfig = GridConfig(),
    chrono_cfg: ChronoConfig = ChronoConfig(),
) -> int:
    """Score predicted documents against the gold documents of the same file name.

    Each book's predicted files and their gold counterparts are read with
    :func:`~migrec.pipeline.read_book`.  A pair whose sides were both read and name one
    opening is scored; any other is skipped and named, and the run is partial, as for a
    failed grid.  Two documents of one name under the same directory are fatal.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    files: tuple[dict[str, str], dict[str, str]] = ({}, {})  # file name -> path
    for by_name, directory in zip(files, (gold_dir, pred_dir)):
        for path in _document_paths(directory):
            first = by_name.setdefault(Path(path).name, path)
            if first != path:
                log.error("fatal: two documents named %s under %s: %s and %s",
                          Path(path).name, directory, first, path)
                return EXIT_FATAL
    gold_files, pred_files = files
    shared = sorted(set(gold_files) & set(pred_files))
    if not shared:
        log.error("no overlapping document files between %s and %s", pred_dir, gold_dir)
        return EXIT_FATAL
    for name in sorted(set(gold_files) - set(pred_files)):
        log.warning("no prediction for %s", name)
    for name in sorted(set(pred_files) - set(gold_files)):
        log.warning("no gold document for %s", name)

    scores = {}  # file name -> score; the documents of one book are held at a time
    for paths in group_documents_by_book([pred_files[name] for name in shared]).values():
        names = [Path(path).name for path in paths]
        pred, _ = read_book(paths, lambda doc: doc)  # each skipped file is logged
        gold, _ = read_book([gold_files[name] for name in names], lambda doc: doc)
        for name in names:
            pred_doc, gold_doc = pred.get(pred_files[name]), gold.get(gold_files[name])
            if pred_doc is None or gold_doc is None:
                continue
            if (pred_doc.book_id, pred_doc.opening_id) != (gold_doc.book_id, gold_doc.opening_id):
                log.warning("skipping %s: opening %s/%s, but %s has %s/%s", pred_files[name], pred_doc.book_id,
                            pred_doc.opening_id, gold_files[name], gold_doc.book_id, gold_doc.opening_id)
                continue
            scores[name] = score_opening(pred_doc, gold_doc, grid_cfg, chrono_cfg)
    scores = [scores[name] for name in shared if name in scores]  # in file-name order
    for name, (header, rows) in eval_reports(scores, chrono_cfg).items():
        write_csv(out / name, header, rows)
    log.info("evaluation reports written to %s", out)
    if failed := sum(len(score.failures) for score in scores):
        log.warning("grid reconstruction failed for %d tables; their rows and columns "
                    "are not scored", failed)
    return EXIT_PARTIAL if failed or len(scores) < len(shared) else EXIT_OK  # a pair was skipped


# ---------------------------------------------------------------------------
# years / normalize / aggregate / synth / report
# ---------------------------------------------------------------------------


def cmd_years(
    in_dir: str,
    out_path: str,
    chrono_cfg: ChronoConfig,
    corrector=None,
) -> int:
    """Resolve page-side years for every book under ``in_dir``.

    A document that cannot be read or processed is skipped with a warning
    naming its file; the other documents' years are written and the run is
    partial.
    """
    paths = _document_paths(in_dir)
    if not paths:
        log.error("no document files under %s", in_dir)
        return EXIT_FATAL
    rows, skipped = [], []
    for book_id, files in group_documents_by_book(paths).items():
        pages, failures = read_book(files, lambda doc: collect_years(doc, chrono_cfg))
        skipped += failures
        sequence = book_years(pages.values(), chrono_cfg, corrector)
        rows += [(book_id, p.opening_id, p.side, p.year, p.source) for p in sequence.pages]
    write_csv(out_path, ("book_id", "opening_id", "side", "year", "source"), rows)
    return EXIT_PARTIAL if skipped else EXIT_OK


def cmd_normalize(
    records_path: str,
    out_path: str,
    gazetteer_path: str,
    max_rel_dist: float = MAX_REL_DIST,
    dup_threshold: float = DUPLICATE_JACCARD_THRESHOLD,
    drop_duplicates: bool = True,
    usable_only: bool = False,
    report_path: str | None = None,
) -> int:
    """Normalize parish names, drop duplicated books, filter usable records."""
    gazetteer = Gazetteer.from_file(gazetteer_path)
    records = read_records(records_path)

    normalized, method_tally = match_parishes(records, gazetteer, max_rel_dist)

    books: dict[str, list] = {}
    for record in normalized:
        books.setdefault(record.book_id, []).append(record)
    duplicates = detect_duplicate_books(books, dup_threshold)
    removed_books = {pair.remove for pair in duplicates} if drop_duplicates else set()
    kept = [r for r in normalized if r.book_id not in removed_books]

    tally: dict[str, int] = {}
    if usable_only:
        kept, tally = filter_usable(kept)

    write_records(kept, out_path)
    report = {
        "input_records": len(records),
        "output_records": len(kept),
        "parish_match_methods": dict(sorted(method_tally.items())),
        "duplicate_pairs": [
            {"book_a": p.book_a, "book_b": p.book_b, "jaccard": round(p.jaccard, 4), "removed": p.remove}
            for p in duplicates
        ],
        "rejections": tally,
    }
    if report_path is None:
        report_path = out_path + ".report.json"
    write_json(report_path, report)
    return EXIT_OK


def cmd_aggregate(
    records_path: str,
    out_dir: str,
    parish: str | None = None,
) -> int:
    """Histogram-ready per-year and per-parish in/out counts from records."""
    records = read_records(records_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    excluded_direction = 0
    excluded_year = 0
    excluded_parish = 0
    year_counts: Counter = Counter()
    parish_counts: Counter = Counter()
    for record in records:
        if record.direction not in ("in", "out"):
            excluded_direction += 1
            continue
        if parish is not None and record.parish_canonical != parish:
            continue
        if record.year is None:
            excluded_year += 1
        else:
            year_counts[(record.year, record.direction)] += 1
        if record.parish_canonical is None:
            excluded_parish += 1
        else:
            parish_counts[(record.parish_canonical, record.direction)] += 1

    for name, header, counts in (
        ("aggregate_years.csv", ("year", "direction", "count"), year_counts),
        ("aggregate_parishes.csv", ("parish", "direction", "count"), parish_counts),
    ):
        write_csv(out / name, header, ((*key, count) for key, count in sorted(counts.items())))

    summary = {
        "records": len(records),
        "excluded_unknown_direction": excluded_direction,
        "excluded_missing_year": excluded_year,
        "excluded_unmatched_parish": excluded_parish,
    }
    write_json(out / "aggregate_summary.json", summary)
    return EXIT_OK


def cmd_synth(
    out_dir: str,
    cfg: SynthConfig,
    books: int = 1,
    openings_per_book: int = 10,
    records_format: str = "jsonl",
) -> int:
    """Generate a synthetic corpus with ground truth under ``out_dir``.

    Book ``b`` has seed ``cfg.seed + b`` and ``generate_book``'s default id.
    Preprinted tables carry the five-column schema only when ``cfg.cols`` is (5, 5).
    """
    fixtures = []
    for b in range(books):
        book_cfg = dc_replace(cfg, seed=cfg.seed + b)
        fixtures.append(generate_book(book_cfg, openings_per_book))
    paths = write_corpus(fixtures, out_dir, records_format=records_format)
    log.info("synthetic corpus written: %s", paths)
    return EXIT_OK


def cmd_report(eval_dir: str) -> int:
    """Render the eval CSV reports as aligned text tables on standard output."""
    directory = Path(eval_dir)
    found = False
    for name in EVAL_REPORTS:
        path = directory / name
        if not path.exists():
            continue
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        if not rows:
            log.warning("skipping empty report %s", path)
            continue
        found = True
        widths = [max(len(row[i]) if i < len(row) else 0 for row in rows) for i in range(max(map(len, rows)))]
        print(f"== {name}")
        for row in rows:
            print("  ".join((row[i] if i < len(row) else "").ljust(widths[i]) for i in range(len(widths))))
        print()
    if not found:
        log.error("no report CSVs found under %s", eval_dir)
        return EXIT_FATAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps-row", type=parse_eps)
    parser.add_argument("--eps-col", type=parse_eps)
    parser.add_argument("--min-pts", type=int)


def _add_chrono_flags(parser: argparse.ArgumentParser, corrector: bool = True) -> None:
    parser.add_argument("--min-year", type=int)
    parser.add_argument("--max-year", type=int)
    parser.add_argument("--max-jump", type=int)
    if corrector:
        parser.add_argument("--corrector-endpoint")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="migrec",
        description="Reconstruct structured migration records from detection documents.",
    )
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="run the extraction pipeline over a document directory")
    p.add_argument("in_dir")
    p.add_argument("out_path")
    p.add_argument("--workers", type=int)
    p.add_argument("--format", choices=("csv", "jsonl"))
    p.add_argument("--schema-dir")
    p.add_argument("--gazetteer")
    p.add_argument("--max-rel-dist", type=float)
    p.add_argument("--book-directions")
    p.add_argument("--summary", dest="summary_path")
    _add_grid_flags(p)
    _add_chrono_flags(p)

    p = sub.add_parser("eval", help="score predicted documents against gold documents")
    p.add_argument("pred_dir")
    p.add_argument("gold_dir")
    p.add_argument("out_dir")
    _add_grid_flags(p)
    _add_chrono_flags(p, corrector=False)  # eval scores the rule-based DP alone

    # unset flags stay unset: SynthConfig and cmd_synth hold the defaults, and no config key reaches them
    p = sub.add_parser("synth", help="generate a synthetic fixture corpus", argument_default=argparse.SUPPRESS)
    p.add_argument("out_dir")
    p.add_argument("--seed", type=int)
    p.add_argument("--books", type=int)
    p.add_argument("--count", type=int, dest="openings_per_book", help="openings per book")
    p.add_argument("--rows", type=int, nargs=2)
    p.add_argument("--cols", type=int, nargs=2)
    p.add_argument("--skew", type=float, nargs=2, dest="skew_degrees")
    p.add_argument("--cell-dropout-prob", type=float)
    p.add_argument("--char-noise-prob", type=float)
    p.add_argument("--year-corruption-prob", type=float)
    p.add_argument("--border-jitter", type=float)
    p.add_argument("--layout", choices=("handdrawn", "preprinted"))
    p.add_argument("--format", choices=("csv", "jsonl"), dest="records_format")

    p = sub.add_parser("years", help="resolve page years for every book in a directory")
    p.add_argument("in_dir")
    p.add_argument("out_path")
    _add_chrono_flags(p)

    p = sub.add_parser("normalize", help="normalize parishes, drop duplicates, filter records")
    p.add_argument("records_path")
    p.add_argument("out_path")
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--max-rel-dist", type=float)
    p.add_argument("--dup-threshold", type=float)
    p.add_argument("--drop-duplicates", action=argparse.BooleanOptionalAction)
    p.add_argument("--usable-only", action="store_true")
    p.add_argument("--report", dest="report_path")

    p = sub.add_parser("aggregate", help="per-year and per-parish counts from a records file")
    p.add_argument("records_path")
    p.add_argument("out_dir")
    p.add_argument("--parish")

    p = sub.add_parser("report", help="render eval CSV reports as text tables")
    p.add_argument("eval_dir")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    origins: dict[str, str] = {}  # config key -> the file:line that set it
    try:
        if args.config:
            origins = _apply_config(args, args.config, parser)
        endpoint = getattr(args, "corrector_endpoint", None)  # extract and years only
        corrector = HttpCorrectorClient(endpoint) if endpoint else None
        if args.command == "extract":
            options = _settings(
                PipelineOptions, args,
                grid=_settings(GridConfig, args),
                chrono=_settings(ChronoConfig, args),
                schemas=_load_schemas(args.schema_dir),
                gazetteer=Gazetteer.from_file(args.gazetteer) if args.gazetteer else None,
                book_directions=_load_book_directions(args.book_directions),
                corrector=corrector,
            )
            workers = _usable_cpus() if args.workers is None else args.workers
            return cmd_extract(
                args.in_dir, args.out_path, options, workers=workers,
                records_format=args.format, summary_path=args.summary_path,
            )
        if args.command == "eval":
            return cmd_eval(
                args.pred_dir, args.gold_dir, args.out_dir,
                grid_cfg=_settings(GridConfig, args),
                chrono_cfg=_settings(ChronoConfig, args),
            )
        if args.command == "synth":
            # the nargs=2 flags parse to lists, and SynthConfig's ranges are tuples
            args = argparse.Namespace(**{k: tuple(v) if type(v) is list else v for k, v in vars(args).items()})
            return cmd_synth(
                args.out_dir, _settings(SynthConfig, args),
                **_given(args, "books", "openings_per_book", "records_format"),
            )
        if args.command == "years":
            return cmd_years(
                args.in_dir, args.out_path, _settings(ChronoConfig, args), corrector=corrector
            )
        if args.command == "normalize":
            return cmd_normalize(
                args.records_path, args.out_path, args.gazetteer,
                usable_only=args.usable_only, report_path=args.report_path,
                **_given(args, "max_rel_dist", "dup_threshold", "drop_duplicates"),
            )
        if args.command == "aggregate":
            return cmd_aggregate(args.records_path, args.out_dir, parish=args.parish)
        if args.command == "report":
            return cmd_report(args.eval_dir)
    except Exception as exc:
        # the config lines of the keys the message names go first, in the order it names them
        named = dict.fromkeys(re.findall(r"\w+", str(exc)))
        if where := ", ".join(origins[k] for k in named if k in origins):
            exc = f"{where}: {exc}"
        log.error("fatal: %s", exc)
        return EXIT_FATAL
    return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
