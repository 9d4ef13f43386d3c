"""Parish name standardization, duplicate-book detection, record filtering.

Parish names appear in Finnish and Swedish (Helsinki / Helsingfors), with
historical spelling variation and colon abbreviations (H:fors).  Matching
goes exact -> known variant -> abbreviation expansion -> bounded fuzzy
match, flagging ambiguous candidates instead of guessing.  Diacritics are
preserved throughout: historical Finnish and Swedish names differ
meaningfully in them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .evaluation import edit_distance
from .interchange import MigrationRecord, check_finite, content_lines

REJECTION_REASONS = ("missing_direction", "missing_year", "missing_parish", "unmatched_parish")

DUPLICATE_JACCARD_THRESHOLD = 0.9
# A fuzzy parish match is kept up to this edit distance per character.
MAX_REL_DIST = 0.25


class GazetteerError(ValueError):
    """Raised for malformed or ambiguous gazetteer content; ``canonical`` names
    the entry found at fault, where there is one."""

    def __init__(self, message: str, canonical: str | None = None) -> None:
        super().__init__(message)
        self.canonical = canonical


def _fold(name: str) -> str:
    return " ".join(name.casefold().split())


@dataclass(frozen=True)
class Gazetteer:
    """Canonical parish names with their known variant spellings."""

    entries: dict[str, frozenset[str]]
    _lookup: dict[str, str] = field(init=False, repr=False, compare=False)
    # form length -> ((folded form, canonical), ...), for the bounded search
    _by_length: dict[int, tuple[tuple[str, str], ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        lookup: dict[str, str] = {}
        for canonical, variants in self.entries.items():
            for form in {canonical, *variants}:
                folded = _fold(form)
                if not folded:
                    raise GazetteerError(f"empty name under canonical {canonical!r}", canonical)
                owner = lookup.get(folded)
                if owner is not None and owner != canonical:
                    raise GazetteerError(
                        f"variant {form!r} maps to both {owner!r} and {canonical!r}", canonical
                    )
                lookup[folded] = canonical
        by_length: dict[int, list[tuple[str, str]]] = {}
        for folded, canonical in lookup.items():
            by_length.setdefault(len(folded), []).append((folded, canonical))
        object.__setattr__(self, "_lookup", lookup)
        object.__setattr__(self, "_by_length", {n: tuple(f) for n, f in by_length.items()})

    @property
    def forms(self) -> Mapping[str, str]:
        """Folded form -> canonical name, for every canonical and variant."""
        return self._lookup

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[str, Iterable[str]]]) -> "Gazetteer":
        entries: dict[str, frozenset[str]] = {}
        for canonical, variants in pairs:
            if canonical in entries:
                raise GazetteerError(f"duplicate canonical name {canonical!r}", canonical)
            entries[canonical] = frozenset(variants)
        return Gazetteer(entries=entries)

    @staticmethod
    def from_file(path: str) -> "Gazetteer":
        """Load the tab-separated gazetteer format.

        One parish per line: ``canonical<TAB>variant1;variant2;...``; the
        variant list may be empty.  UTF-8, '#' comments allowed.  An error
        names the file and the line of the entry at fault.
        """
        pairs = []
        lines: dict[str, int] = {}  # canonical name -> its last line
        for lineno, line in content_lines(path):
            parts = line.split("\t")
            if len(parts) > 2:
                raise GazetteerError(f"{path}:{lineno}: expected at most one tab")
            canonical = parts[0].strip()
            if not canonical:
                raise GazetteerError(f"{path}:{lineno}: empty canonical name")
            variants = []
            if len(parts) == 2 and parts[1].strip():
                variants = [v.strip() for v in parts[1].split(";") if v.strip()]
            pairs.append((canonical, variants))
            lines[canonical] = lineno
        try:
            return Gazetteer.from_pairs(pairs)
        except GazetteerError as exc:
            raise GazetteerError(f"{path}:{lines[exc.canonical]}: {exc}", exc.canonical) from None

    def to_file(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for canonical in sorted(self.entries):
                variants = ";".join(sorted(self.entries[canonical]))
                handle.write(f"{canonical}\t{variants}\n")


@dataclass(frozen=True)
class MatchResult:
    canonical: str | None
    score: float
    method: str  # "exact", "variant", "fuzzy" or "unmatched"
    candidates: tuple[str, ...] = ()


def _expand_abbreviation(folded: str, gazetteer: Gazetteer) -> str | None:
    """Resolve colon abbreviations like ``h:fors`` against known forms."""
    prefix, _, suffix = folded.partition(":")
    prefix = prefix.strip()
    suffix = suffix.strip()
    if not prefix or not suffix:
        return None
    canonicals = {
        canonical
        for form, canonical in gazetteer.forms.items()
        if form.startswith(prefix) and form.endswith(suffix) and len(form) >= len(prefix) + len(suffix)
    }
    if len(canonicals) == 1:
        return next(iter(canonicals))
    return None


def match_parish(raw: str, gazetteer: Gazetteer, max_rel_dist: float = MAX_REL_DIST) -> MatchResult:
    """Match a recognized parish name against the gazetteer.

    Exact and known-variant hits score 1.  Otherwise the minimal edit
    distance d over all known forms is taken and accepted when
    d / max(len) <= max_rel_dist and the best candidate parish is unique;
    a tie across different parishes is reported as unmatched with the
    candidates listed, never guessed.

    The search is exact but bounded: forms are visited in order of
    increasing length gap to the folded name, which is a lower bound on
    their distance, so the search ends once that gap exceeds the best
    distance found so far, and each distance is taken with it as the
    bound (:func:`edit_distance` with ``bound``).  Only the best distance prunes,
    never ``max_rel_dist``: the candidates of a tie beyond the cap are part
    of the result.  Callers that match many names memoize per call site
    (``pipeline.match_parishes`` keeps one ``raw -> MatchResult`` dict per
    call, and ``extract`` calls it once per book).
    """
    folded = _fold(raw)
    if not folded:
        return MatchResult(None, 0.0, "unmatched")

    direct = gazetteer.forms.get(folded)
    if direct is not None:
        method = "exact" if folded == _fold(direct) else "variant"
        return MatchResult(direct, 1.0, method)

    if ":" in folded:
        expanded = _expand_abbreviation(folded, gazetteer)
        if expanded is not None:
            return MatchResult(expanded, 1.0, "variant")

    best_dist: int | None = None
    best_forms: list[tuple[str, str]] = []  # (form, canonical) at best_dist
    n = len(folded)
    for length in sorted(gazetteer._by_length, key=lambda m: abs(m - n)):
        if best_dist is not None and abs(length - n) > best_dist:
            break
        for form, canonical in gazetteer._by_length[length]:
            d = edit_distance(folded, form, bound=best_dist)
            if best_dist is None or d < best_dist:
                best_dist = d
                best_forms = [(form, canonical)]
            elif d == best_dist:
                best_forms.append((form, canonical))
    if best_dist is None:
        return MatchResult(None, 0.0, "unmatched")

    candidates = sorted({canonical for _, canonical in best_forms})
    if len(candidates) > 1:
        return MatchResult(None, 0.0, "unmatched", candidates=tuple(candidates))
    # Among equally distant forms of the single candidate, score with the
    # longest form (smallest relative distance), deterministically.
    form = max((f for f, _ in best_forms), key=lambda f: (len(f), f))
    rel = best_dist / max(len(folded), len(form))
    if rel <= max_rel_dist:
        return MatchResult(candidates[0], 1.0 - rel, "fuzzy")
    return MatchResult(None, 0.0, "unmatched")


@dataclass(frozen=True)
class DuplicatePair:
    book_a: str
    book_b: str
    jaccard: float

    @property
    def remove(self) -> str:
        """The lexicographically larger book id is the one to drop."""
        return max(self.book_a, self.book_b)


def _fingerprints(records: Sequence[MigrationRecord]) -> dict[tuple, int]:
    counts: dict[tuple, int] = {}
    for record in records:
        key = (
            record.year,
            record.direction,
            "\x1f".join(record.fields.get(label, "") for label in sorted(record.fields)),
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


def multiset_jaccard(a: dict[tuple, int], b: dict[tuple, int]) -> float:
    keys = set(a) | set(b)
    inter = sum(min(a.get(k, 0), b.get(k, 0)) for k in keys)
    union = sum(max(a.get(k, 0), b.get(k, 0)) for k in keys)
    return inter / union if union else 0.0


def detect_duplicate_books(
    books: Mapping[str, Sequence[MigrationRecord]],
    dup_threshold: float = DUPLICATE_JACCARD_THRESHOLD,
) -> list[DuplicatePair]:
    """Flag book pairs whose record fingerprints overlap almost completely.

    Records are fingerprinted by (year, direction, concatenated fields);
    a pair is duplicated when the fingerprint-multiset Jaccard reaches
    ``dup_threshold``, which must be a finite number.  Whole-book
    duplication happens when the same physical book was photographed twice.
    """
    check_finite("dup_threshold", dup_threshold)
    prints = {book_id: _fingerprints(records) for book_id, records in books.items()}
    pairs = []
    ids = sorted(prints)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            score = multiset_jaccard(prints[a], prints[b])
            if score >= dup_threshold:
                pairs.append(DuplicatePair(a, b, score))
    return pairs


def filter_usable(
    records: Sequence[MigrationRecord],
) -> tuple[list[MigrationRecord], dict[str, int]]:
    """Drop records unusable for migration analysis; tally why.

    A record needs a direction, a year and a linked parish.  The first
    failing reason (direction, then year, then parish presence, then parish
    linkage) is the one counted, so the tally and the kept records always
    sum to the input size.
    """
    usable = []
    tally = {reason: 0 for reason in REJECTION_REASONS}
    for record in records:
        if record.direction not in ("in", "out"):
            tally["missing_direction"] += 1
        elif record.year is None:
            tally["missing_year"] += 1
        elif not record.parish_raw:
            tally["missing_parish"] += 1
        elif not record.parish_canonical:
            tally["unmatched_parish"] += 1
        else:
            usable.append(record)
    return usable, tally
