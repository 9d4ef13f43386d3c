"""Tracing shim: spans and counts recorded around migrec's public functions.

The traced run replaces the names that ``migrec.cli``, ``migrec.pipeline``
and ``migrec.normalize`` call with wrappers that record a span (name,
start, end, parent) and count what the call did.  Spans and counts stay in
memory until the run ends; :func:`installed` puts every original name back
on exit.  A span's self time is its duration minus the time its child
spans cover.  Nothing here changes what the wrapped functions return.
"""

from __future__ import annotations

import functools
import importlib
import logging
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOTS = ("cmd_extract", "cmd_years", "cmd_eval")

# Per-layer metrics of the traced run: (name, unit, better).  Aggregates
# cover all three commands unless the name carries a command; the pipeline
# and gridrec cell counts cover extract, where their results are kept.
LAYER_METRICS = (
    ("normalize.match_parish.self_s", "s", "lower"),
    ("normalize.match_parish.calls", "count", "lower"),
    ("normalize.match_parish.distinct_share", "share", "lower"),
    ("normalize.edit_distance.calls", "count", "lower"),
    ("normalize.fuzzy_yield", "share", "higher"),
    ("interchange.read_document.self_s", "s", "lower"),
    ("interchange.read_document.calls", "count", "lower"),
    ("interchange.cells_parsed", "count", "lower"),
    ("interchange.write_records.self_s", "s", "lower"),
    ("geometry.deskew_transforms.self_s", "s", "lower"),
    ("geometry.transform_box.self_s", "s", "lower"),
    ("geometry.transform_box.calls", "count", "lower"),
    ("gridrec.complete_grid_with_retry.extract.self_s", "s", "lower"),
    ("gridrec.complete_grid_with_retry.extract.calls", "count", "lower"),
    ("gridrec.complete_grid_with_retry.years.self_s", "s", "lower"),
    ("gridrec.complete_grid_with_retry.years.calls", "count", "lower"),
    ("gridrec.complete_grid_with_retry.eval.self_s", "s", "lower"),
    ("gridrec.complete_grid_with_retry.eval.calls", "count", "lower"),
    ("gridrec.eps_retries", "count", "lower"),
    ("gridrec.retry_share", "share", "lower"),
    ("gridrec.cells_inferred", "count", "lower"),
    ("gridrec.cells_residual", "count", "lower"),
    ("gridrec.merge_split_tables.self_s", "s", "lower"),
    ("gridrec.tables_merged", "count", "lower"),
    ("gridrec.eval_grid_failures", "count", "lower"),
    ("cells.assemble_records.self_s", "s", "lower"),
    ("cells.rows_assembled", "count", "higher"),
    ("cells.rows_realigned", "count", "lower"),
    ("chrono.normalize_year_token.self_s", "s", "lower"),
    ("chrono.infer_sequence.self_s", "s", "lower"),
    ("chrono.pages", "count", "higher"),
    ("chrono.pages_interpolated", "count", "lower"),
    ("evaluation.match_detections.self_s", "s", "lower"),
    ("evaluation.iou_pairs", "count", "lower"),
    ("evaluation.match_yield", "share", "higher"),
    ("evaluation.split_metrics.self_s", "s", "lower"),
    ("pipeline.process_opening.self_s", "s", "lower"),
    ("pipeline.process_opening.p50_ms", "ms", "lower"),
    ("pipeline.process_opening.tail_ms", "ms", "lower"),
    ("pipeline.process_opening.tail_pct", "%", "higher"),
    ("pipeline.process_opening.samples", "count", "higher"),
    ("pipeline.process_book.max_s", "s", "lower"),
    ("pipeline.longest_book_share", "share", "lower"),
    ("cli.cmd_extract.self_s", "s", "lower"),
    ("cli.cmd_years.self_s", "s", "lower"),
    ("cli.cmd_eval.self_s", "s", "lower"),
    ("trace.overhead_share.extract", "share", "lower"),
    ("trace.overhead_share.years", "share", "lower"),
    ("trace.overhead_share.eval", "share", "lower"),
)


class Span:
    __slots__ = ("name", "root", "parent", "start", "end")

    def __init__(self, name: str, root: str, parent: int | None, start: float) -> None:
        self.name = name
        self.root = root
        self.parent = parent
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (root, name) -> count
        self.parish_raw: set[str] = set()
        self._stack: list[int] = []

    @property
    def root(self) -> str:
        return self.spans[self._stack[0]].name if self._stack else ""

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.root, name)] += n

    def call(self, name, fn, observe, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        root = self.spans[self._stack[0]].name if self._stack else name
        span = Span(name, root, parent, perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.counts[(root, f"{name}.errors")] += 1
            raise
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if observe is not None:
            observe(self, root, args, kwargs, result)
        return result


# --- observers: counts taken from arguments and results -------------------


def _read_document(tracer, root, args, kwargs, doc):
    tracer.counts[(root, "cells_parsed")] += sum(len(t.cells) for t in doc.tables)


def _match_parish(tracer, root, args, kwargs, result):
    tracer.parish_raw.add(args[0])
    if result.method == "fuzzy":
        tracer.counts[(root, "fuzzy_accepts")] += 1


def _complete_grid(tracer, root, args, kwargs, grid):
    tracer.counts[(root, "cells_inferred")] += grid.count_provenance("inferred")
    tracer.counts[(root, "cells_residual")] += len(grid.residual)


def _merge_split_tables(tracer, root, args, kwargs, merged):
    before = {id(g) for g in args[0]}
    tracer.counts[(root, "tables_merged")] += sum(1 for g in merged if id(g) not in before)


def _assemble_records(tracer, root, args, kwargs, records):
    tracer.counts[(root, "rows_assembled")] += len(records)
    tracer.counts[(root, "rows_realigned")] += sum(1 for r in records if "realigned" in r.flags)


def _infer_sequence(tracer, root, args, kwargs, sequence):
    tracer.counts[(root, "pages")] += len(sequence.pages)
    tracer.counts[(root, "pages_interpolated")] += sum(
        1 for p in sequence.pages if p.source == "interpolated"
    )


def _match_detections(tracer, root, args, kwargs, result):
    pred, gold = args[0], args[1]
    tracer.counts[(root, "iou_pairs")] += len(pred) * len(gold)
    tracer.counts[(root, "matched_pairs")] += len(result[1])


OBSERVERS = {
    "read_document": _read_document,
    "match_parish": _match_parish,
    "complete_grid_with_retry": _complete_grid,
    "merge_split_tables": _merge_split_tables,
    "assemble_records": _assemble_records,
    "infer_sequence": _infer_sequence,
    "match_detections": _match_detections,
}

# Names replaced while tracing: module -> attributes that get a span.
SPANNED = {
    "migrec.cli": (
        "cmd_extract", "cmd_years", "cmd_eval", "process_book", "read_document",
        "write_records", "deskew_transforms", "transform_box", "complete_grid_with_retry",
        "infer_sequence", "normalize_year_token",
    ),
    "migrec.pipeline": (
        "process_opening", "read_document", "deskew_transforms", "transform_box",
        "complete_grid_with_retry", "merge_split_tables", "normalize_year_token",
        "infer_sequence", "assemble_records", "match_parish",
    ),
    # cli calls these through the module object (``ev.match_detections``)
    "migrec.evaluation": ("match_detections", "split_metrics"),
}
# Called too often for a span each; only counted.
COUNTED = {"migrec.normalize": ("edit_distance",)}

RETRY_LOGGER = "migrec.gridrec"
RETRY_PREFIX = "band pairing failed"


class _RetryCounter(logging.Handler):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if str(record.msg).startswith(RETRY_PREFIX):
            self.tracer.count("eps_retries")


def _spanned(tracer: Tracer, name: str, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, observe, args, kwargs)

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(f"{name}.calls")
        return fn(*args, **kwargs)

    return wrapper


def patch_targets() -> list[tuple[object, str, object]]:
    """Every (module, attribute, wrapper factory) the shim replaces."""
    targets = []
    for table, make in ((SPANNED, _spanned), (COUNTED, _counted)):
        for module_name, attrs in table.items():
            module = importlib.import_module(module_name)
            targets.extend((module, attr, make) for attr in attrs)
    return targets


@contextmanager
def installed(tracer: Tracer):
    """Replace the traced names for the duration of the block, then restore."""
    wrappers: dict[int, object] = {}  # one wrapper per original function
    saved = []
    handler = _RetryCounter(tracer)
    retry_logger = logging.getLogger(RETRY_LOGGER)
    try:
        for module, attr, make in patch_targets():
            original = getattr(module, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = make(tracer, attr, original)
            saved.append((module, attr, original))
            setattr(module, attr, wrappers[id(original)])
        retry_logger.addHandler(handler)
        yield tracer
    finally:
        retry_logger.removeHandler(handler)
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --- metrics -------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, except the overhead shares."""
    selfs = self_times(tracer.spans)
    self_s: dict[tuple[str, str], float] = defaultdict(float)
    calls: Counter = Counter()
    durations: dict[tuple[str, str], list[float]] = defaultdict(list)
    for span, own in zip(tracer.spans, selfs):
        for root in (span.root, "*"):
            self_s[(root, span.name)] += own
            calls[(root, span.name)] += 1
            durations[(root, span.name)].append(span.duration)
    counts: Counter = Counter()
    for (root, name), n in tracer.counts.items():
        counts[(root, name)] += n
        counts[("*", name)] += n

    m: dict[str, float] = {}
    parish_calls = calls[("*", "match_parish")]
    edit_calls = counts[("*", "edit_distance.calls")]
    m["normalize.match_parish.self_s"] = self_s[("*", "match_parish")]
    m["normalize.match_parish.calls"] = parish_calls
    m["normalize.match_parish.distinct_share"] = _share(len(tracer.parish_raw), parish_calls)
    m["normalize.edit_distance.calls"] = edit_calls
    m["normalize.fuzzy_yield"] = _share(counts[("*", "fuzzy_accepts")], edit_calls)

    m["interchange.read_document.self_s"] = self_s[("*", "read_document")]
    m["interchange.read_document.calls"] = calls[("*", "read_document")]
    m["interchange.cells_parsed"] = counts[("*", "cells_parsed")]
    m["interchange.write_records.self_s"] = self_s[("*", "write_records")]

    m["geometry.deskew_transforms.self_s"] = self_s[("*", "deskew_transforms")]
    m["geometry.transform_box.self_s"] = self_s[("*", "transform_box")]
    m["geometry.transform_box.calls"] = calls[("*", "transform_box")]

    for root in ROOTS:
        command = root[len("cmd_"):]
        key = (root, "complete_grid_with_retry")
        m[f"gridrec.complete_grid_with_retry.{command}.self_s"] = self_s[key]
        m[f"gridrec.complete_grid_with_retry.{command}.calls"] = calls[key]
    m["gridrec.eps_retries"] = counts[("*", "eps_retries")]
    m["gridrec.retry_share"] = _share(
        counts[("*", "eps_retries")], calls[("*", "complete_grid_with_retry")]
    )
    m["gridrec.cells_inferred"] = counts[("cmd_extract", "cells_inferred")]
    m["gridrec.cells_residual"] = counts[("cmd_extract", "cells_residual")]
    m["gridrec.merge_split_tables.self_s"] = self_s[("*", "merge_split_tables")]
    m["gridrec.tables_merged"] = counts[("cmd_extract", "tables_merged")]
    m["gridrec.eval_grid_failures"] = counts[("cmd_eval", "complete_grid_with_retry.errors")]

    m["cells.assemble_records.self_s"] = self_s[("*", "assemble_records")]
    m["cells.rows_assembled"] = counts[("*", "rows_assembled")]
    m["cells.rows_realigned"] = counts[("*", "rows_realigned")]

    m["chrono.normalize_year_token.self_s"] = self_s[("*", "normalize_year_token")]
    m["chrono.infer_sequence.self_s"] = self_s[("*", "infer_sequence")]
    m["chrono.pages"] = counts[("*", "pages")]
    m["chrono.pages_interpolated"] = counts[("*", "pages_interpolated")]

    iou_pairs = counts[("*", "iou_pairs")]
    m["evaluation.match_detections.self_s"] = self_s[("*", "match_detections")]
    m["evaluation.iou_pairs"] = iou_pairs
    m["evaluation.match_yield"] = _share(counts[("*", "matched_pairs")], iou_pairs)
    m["evaluation.split_metrics.self_s"] = self_s[("*", "split_metrics")]

    openings = durations[("cmd_extract", "process_opening")]
    books = durations[("cmd_extract", "process_book")]
    tail_s, tail_pct = tail(openings) if openings else (0.0, 0.0)
    m["pipeline.process_opening.self_s"] = self_s[("cmd_extract", "process_opening")]
    m["pipeline.process_opening.p50_ms"] = 1000.0 * statistics.median(openings or [0.0])
    m["pipeline.process_opening.tail_ms"] = 1000.0 * tail_s
    m["pipeline.process_opening.tail_pct"] = tail_pct
    m["pipeline.process_opening.samples"] = len(openings)
    m["pipeline.process_book.max_s"] = max(books, default=0.0)
    m["pipeline.longest_book_share"] = _share(max(books, default=0.0), sum(books))

    for root in ROOTS:
        m[f"cli.{root}.self_s"] = self_s[(root, root)]
    return m


def root_durations(tracer: Tracer) -> dict[str, float]:
    """Wall time of each command's root span."""
    return {span.name: span.duration for span in tracer.spans if span.parent is None}


def span_summary(tracer: Tracer) -> dict[str, list[float]]:
    """Per command and span name: [calls, total seconds, self seconds]."""
    summary: dict[str, list[float]] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        row = summary.setdefault(f"{span.root}/{span.name}", [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += own
    return dict(sorted(summary.items()))
