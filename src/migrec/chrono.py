"""Year resolution for register pages from noisy year-token detections.

Years are written on pages, not repeated per record, and they form a
non-decreasing sequence through a book.  Token normalization repairs common
recognition slips (a '/' standing in for a misread '1', a single damaged
digit with a unique in-range completion); sequence inference then picks one
year per page-side that keeps as many observations as possible under the
monotone-order and bounded-jump constraints.  A page with no kept year
carries the last kept year before it, or the book's first kept year when
none comes before; a book with no kept year at all has no years.

An external corrector client can be plugged in; its answers are validated
against the same constraints and rejected answers fall back to the
rule-based inference.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

from .evaluation import EvalCounts, metrics
from .interchange import Box

log = logging.getLogger(__name__)

# Recognition sometimes renders a '1' as a slash ("19/4" for 1914);
# substituting it back is the one separator repair applied.
_SEPARATOR_REPAIRS = {"/": "1"}
_CENTURY_PREFIXES = ("17", "18", "19")


@dataclass(frozen=True)
class ChronoConfig:
    min_year: int = 1700
    max_year: int = 1930
    max_jump: int = 5

    def __post_init__(self) -> None:
        if self.min_year > self.max_year:
            raise ValueError("min_year must not exceed max_year")
        if self.max_jump < 0:
            raise ValueError("max_jump must be non-negative")

    def in_range(self, year: int) -> bool:
        return self.min_year <= year <= self.max_year


@dataclass(frozen=True)
class YearObservation:
    raw: str
    normalized: int | None
    box: Box


@dataclass(frozen=True)
class PageObservations:
    """All year observations of one page-side, in reading order context."""

    opening_id: str
    side: str
    observations: tuple[YearObservation, ...] = ()

    def years(self) -> list[int]:
        return [o.normalized for o in self.observations if o.normalized is not None]


@dataclass(frozen=True)
class ResolvedPage:
    opening_id: str
    side: str
    year: int | None
    source: str


@dataclass(frozen=True)
class BookYearSequence:
    pages: tuple[ResolvedPage, ...]

    def years(self) -> list[int | None]:
        return [p.year for p in self.pages]


def normalize_year_token(raw: str, cfg: ChronoConfig | None = None) -> int | None:
    """Parse a noisy year token into an in-range integer year, if possible.

    Rules, in order: an exact in-range 4-digit year is accepted; a 4-char
    token whose single non-digit is a known separator slip ('/' for '1') is
    repaired; a 4-char token with one damaged character in positions 2-4 is
    completed when exactly one in-range completion with century prefix
    17/18/19 exists.  Everything else yields None.
    """
    cfg = cfg or ChronoConfig()
    token = raw.strip()
    # Trim surrounding punctuation, keeping the 4-char core intact.
    while token and not (token[0].isdecimal() or token[0] in _SEPARATOR_REPAIRS):
        token = token[1:]
    while token and not (token[-1].isdecimal() or token[-1] in _SEPARATOR_REPAIRS):
        token = token[:-1]
    if len(token) != 4:
        return None

    if token.isdecimal():
        year = int(token)
        return year if cfg.in_range(year) else None

    bad = [i for i, ch in enumerate(token) if not ch.isdecimal()]
    if len(bad) != 1:
        return None
    pos = bad[0]

    repair = _SEPARATOR_REPAIRS.get(token[pos])
    if repair is not None:
        year = int(token[:pos] + repair + token[pos + 1 :])
        if cfg.in_range(year):
            return year

    if pos == 0:
        return None  # the century's first digit cannot be completed uniquely
    completions = []
    for digit in "0123456789":
        candidate = token[:pos] + digit + token[pos + 1 :]
        if candidate[:2] not in _CENTURY_PREFIXES:
            continue
        year = int(candidate)
        if cfg.in_range(year):
            completions.append(year)
    if len(completions) == 1:
        return completions[0]
    return None


_Cost = tuple[int, int, int]  # (discarded observations, overridden pages, total jump)


def infer_sequence(
    pages: Sequence[PageObservations], cfg: ChronoConfig | None = None
) -> BookYearSequence:
    """Resolve one year per page-side over a whole book.

    Exact dynamic programming over candidate year values: each page either
    keeps one of its observed years or discards all its observations.  Kept
    years must be non-decreasing with page-to-page increase at most
    ``max_jump``; the optimum minimizes (discarded observations, overridden
    pages, total jump) lexicographically, ties resolved toward smaller
    years.  Pages without a surviving observation carry a year by the rule
    in the module docstring, with source ``interpolated``.
    """
    cfg = cfg or ChronoConfig()
    page_years: list[dict[int, int]] = []
    for page in pages:
        counts: dict[int, int] = {}
        for year in page.years():
            if cfg.in_range(year):
                counts[year] = counts.get(year, 0) + 1
        page_years.append(counts)

    # DP state: last kept year (None before any). Value: best cost tuple.
    states: dict[int | None, _Cost] = {None: (0, 0, 0)}
    choices: list[dict[int | None, tuple[int | None, int | None]]] = []
    for counts in page_years:
        total_obs = sum(counts.values())
        new_states: dict[int | None, _Cost] = {}
        new_choice: dict[int | None, tuple[int | None, int | None]] = {}

        def offer(state: int | None, cost: _Cost, prev: int | None, kept: int | None) -> None:
            incumbent = new_states.get(state)
            if incumbent is None or cost < incumbent:
                new_states[state] = cost
                new_choice[state] = (prev, kept)

        for prev in sorted(states, key=lambda y: (y is not None, y)):
            disc, over, jump = states[prev]
            skip_cost = (disc + total_obs, over + (1 if total_obs else 0), jump)
            offer(prev, skip_cost, prev, None)
            for year in sorted(counts):
                if prev is not None and (year < prev or year - prev > cfg.max_jump):
                    continue
                step = 0 if prev is None else year - prev
                keep_cost = (disc + total_obs - counts[year], over, jump + step)
                offer(year, keep_cost, prev, year)
        states = new_states
        choices.append(new_choice)

    final = min(states, key=lambda y: (states[y], y is not None, y))
    kept_years: list[int | None] = []
    state = final
    for choice in reversed(choices):
        prev, kept = choice[state]
        kept_years.append(kept)
        state = prev
    kept_years.reverse()

    resolved: list[ResolvedPage] = []
    current = next((y for y in kept_years if y is not None), None)
    for page, kept in zip(pages, kept_years):
        current = current if kept is None else kept
        source = "interpolated" if kept is None else "observed"
        resolved.append(ResolvedPage(page.opening_id, page.side, current, source))

    sequence = BookYearSequence(pages=tuple(resolved))
    if problem := _order_problem([y for y in sequence.years() if y is not None], cfg):
        raise RuntimeError(f"resolved years violate the sequence constraints: {problem}")
    return sequence


def _order_problem(years: Sequence[int], cfg: ChronoConfig) -> str | None:
    """What breaks a book's year order: a fall, or a jump over ``max_jump``."""
    for a, b in zip(years, years[1:]):
        if b < a:
            return f"non-monotone sequence at {a} -> {b}"
        if b - a > cfg.max_jump:
            return f"jump {b - a} exceeds max_jump {cfg.max_jump}"
    return None


class CorrectorClient(Protocol):
    """External sequence corrector: raw tokens per page in, one year per page out."""

    def correct_years(self, pages_raw: Sequence[Sequence[str]]) -> Sequence[int]: ...


def _validate_corrected(
    years: Sequence[int], n_pages: int, cfg: ChronoConfig
) -> str | None:
    if len(years) != n_pages:
        return f"expected {n_pages} years, got {len(years)}"
    for year in years:
        if not isinstance(year, int) or isinstance(year, bool):
            return f"non-integer year {year!r}"
        if not cfg.in_range(year):
            return f"year {year} outside [{cfg.min_year}, {cfg.max_year}]"
    return _order_problem(years, cfg)


def external_correct(
    pages: Sequence[PageObservations],
    client: CorrectorClient,
    cfg: ChronoConfig | None = None,
) -> BookYearSequence:
    """Resolve page years through an external corrector, with a safe fallback.

    One request per book carries the ordered raw token strings; the response
    must hold one in-range year per page, non-decreasing with jumps within
    ``max_jump``.  Any transport error or validation failure falls back to
    :func:`infer_sequence`.  Requests and responses are logged.
    """
    cfg = cfg or ChronoConfig()
    if not pages:
        return BookYearSequence(pages=())
    raw = [[obs.raw for obs in page.observations] for page in pages]
    log.info("external corrector request: %d pages", len(raw))
    log.debug("external corrector payload: %r", raw)
    try:
        years = list(client.correct_years(raw))
    except Exception as exc:
        log.warning("external corrector failed (%s); using rule-based inference", exc)
        return infer_sequence(pages, cfg)
    log.debug("external corrector response: %r", years)
    problem = _validate_corrected(years, len(pages), cfg)
    if problem is not None:
        log.warning("external corrector response rejected (%s); using rule-based inference", problem)
        return infer_sequence(pages, cfg)

    resolved = []
    for page, year in zip(pages, years):
        observed = set(page.years())
        if year in observed:
            source = "observed"
        elif observed:
            source = "corrected"
        else:
            source = "interpolated"
        resolved.append(ResolvedPage(page.opening_id, page.side, year, source))
    return BookYearSequence(pages=tuple(resolved))  # _validate_corrected checked the order


@dataclass(frozen=True)
class HttpCorrectorClient:
    """Plain-text HTTP corrector: one page per request line, one year per reply line.

    The endpoint comes from configuration; the credential, if any, from the
    ``MIGREC_CORRECTOR_KEY`` environment variable, sent as a bearer token.
    A request fails after 30 seconds without an answer.
    """

    endpoint: str

    def correct_years(self, pages_raw: Sequence[Sequence[str]]) -> list[int]:
        import urllib.request  # the HTTP stack (ssl, http.client, email) loads only for a corrector

        payload = "\n".join(";".join(tokens) for tokens in pages_raw).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint, data=payload, headers={"Content-Type": "text/plain; charset=utf-8"}
        )
        key = os.environ.get("MIGREC_CORRECTOR_KEY")
        if key:
            request.add_header("Authorization", f"Bearer {key}")
        with urllib.request.urlopen(request, timeout=30.0) as response:
            body = response.read().decode("utf-8")
        return [int(line.strip()) for line in body.splitlines() if line.strip()]


@dataclass(frozen=True)
class YearEvalResult:
    precision: float  # percentages
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    pages_scored: int


def evaluate_years(
    pred: Mapping[tuple[str, ...], set[int]],
    gold: Mapping[tuple[str, ...], set[int]],
) -> YearEvalResult:
    """Micro-averaged P/R/F1 of per-page unique year sets.

    Only page-sides with at least one annotated year are scored: a page with
    no explicit year mention may legitimately receive an inferred year, and
    counting those as false positives would be wrong.
    """
    tp = fp = fn = 0
    scored = 0
    for key, gold_years in gold.items():
        if not gold_years:
            continue
        scored += 1
        pred_years = pred.get(key, set())
        tp += len(pred_years & gold_years)
        fp += len(pred_years - gold_years)
        fn += len(gold_years - pred_years)
    if not scored:
        return YearEvalResult(0.0, 0.0, 0.0, tp, fp, fn, scored)
    m = metrics(EvalCounts(tp, fp, fn))
    return YearEvalResult(m.precision, m.recall, m.f1, tp, fp, fn, scored)
