"""Repetition fill, column realignment and record assembly.

Cells come in four types: single-line, multi-line, repetition (a ditto mark
copying the nearest filled cell above) and empty.  A cell's text comes from
its detection document; repetition cells are filled from their column.
Rows whose column count or content does not match the expected table layout
are realigned with simple data-type and text length heuristics before being
turned into migration records.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .evaluation import is_textual_line
from .interchange import (
    CELL_CLASSES,
    CellHypothesis,
    MigrationRecord,
    content_lines,
    dominant_class,
)
from .gridrec import GridTable

COLUMN_KINDS = ("numeric", "text", "date", "parish", "any")

# Month name stems accepted by the date detector (Finnish and Swedish).
MONTH_TOKENS = (
    "tammi", "helmi", "maalis", "huhti", "touko", "kesä",
    "heinä", "elo", "syys", "loka", "marras", "joulu",
    "januari", "februari", "mars", "april", "maj", "juni",
    "juli", "augusti", "september", "oktober", "november", "december",
)

_DATE_NUMERIC = re.compile(r"^\s*([0-3]?\d)\s*[./\s]\s*([01]?\d)\s*[./]?\s*$")


def fill_repetitions(
    column: Sequence[tuple[str, str | None]],
) -> list[str | None]:
    """Resolve repetition marks in one top-to-bottom column.

    Each repetition cell receives the text of the nearest preceding
    single-line or multi-line cell with non-empty text.  Empty cells stay
    empty; a repetition with no valid predecessor stays empty.
    """
    carried: str | None = None
    out: list[str | None] = []
    for cell_type, text in column:
        if cell_type not in CELL_CLASSES:
            raise ValueError(f"unknown cell type {cell_type!r}")
        if cell_type == "repetition":
            out.append(carried)
        elif cell_type == "empty":
            out.append(None)
        else:
            out.append(text)
            if text:
                carried = text
    return out


def is_numeric_text(text: str) -> bool:
    """Digits and punctuation only (no letters), non-empty."""
    return bool(text.strip()) and not is_textual_line(text)


def is_date_text(text: str) -> bool:
    match = _DATE_NUMERIC.match(text)
    if match:
        day, month = int(match.group(1)), int(match.group(2))
        return 1 <= day <= 31 and 1 <= month <= 12
    lowered = text.casefold()
    return any(token in lowered for token in MONTH_TOKENS)


def _kind_score(text: str, kind: str) -> float:
    if kind == "any":
        return 1.0
    if kind == "numeric":
        return 1.0 if is_numeric_text(text) else 0.0
    if kind == "date":
        return 1.0 if is_date_text(text) else 0.0
    if kind in ("text", "parish"):
        return 1.0 if is_textual_line(text) else 0.0
    raise ValueError(f"unknown column kind {kind!r}")


@dataclass(frozen=True)
class ColumnSchema:
    """Expected columns of one table layout, in order."""

    labels: tuple[str, ...]
    kinds: tuple[str, ...]
    avg_lens: tuple[float | None, ...] = ()

    def __post_init__(self) -> None:
        for i, label in enumerate(self.labels):
            if label in self.labels[:i]:
                raise ValueError(f"column labels must be unique: {label!r} repeats")
        if len(self.kinds) != len(self.labels):
            raise ValueError("one kind per label required")
        for kind in self.kinds:
            if kind not in COLUMN_KINDS:
                raise ValueError(f"unknown column kind {kind!r}")
        if self.avg_lens and len(self.avg_lens) != len(self.labels):
            raise ValueError("avg_lens must match labels when given")

    def avg_len(self, index: int) -> float | None:
        return self.avg_lens[index] if self.avg_lens else None

    def parish_label(self) -> str | None:
        for label, kind in zip(self.labels, self.kinds):
            if kind == "parish":
                return label
        return None


def read_schema_file(path: str) -> ColumnSchema:
    """Load a column schema from the tab-separated layout file.

    One column per line, in order: ``label<TAB>kind`` or
    ``label<TAB>kind;avg_len``.  UTF-8, '#' comments allowed.  An error
    names the file and the line that makes the columns read so far invalid.
    """
    schema = ColumnSchema(labels=(), kinds=())
    for lineno, line in content_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected label<TAB>kind[;avg_len]")
        kind, _, avg = parts[1].partition(";")
        try:
            avg_len = float(avg) if avg.strip() else None
        except ValueError:
            raise ValueError(f"{path}:{lineno}: avg_len {avg.strip()!r} is not a number") from None
        try:
            schema = ColumnSchema(
                labels=schema.labels + (parts[0].strip(),),
                kinds=schema.kinds + (kind.strip(),),
                avg_lens=schema.avg_lens + (avg_len,),
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not schema.labels:
        raise ValueError(f"{path}: no column lines")
    return schema


def write_schema_file(schema: ColumnSchema, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for i, label in enumerate(schema.labels):
            avg = schema.avg_len(i)
            suffix = f";{avg}" if avg is not None else ""
            handle.write(f"{label}\t{schema.kinds[i]}{suffix}\n")


REALIGN_THRESHOLD = 0.5
# Smallest shift first, leftward before rightward; the first best score wins.
REALIGN_SHIFTS = (0, -1, 1, -2, 2)


@dataclass(frozen=True)
class RowAlignment:
    mapping: dict[str, str | None]
    status: str  # "expected", "realigned" or "failed"
    shift: int = 0


def _column_score(text: str | None, kind: str, avg_len: float | None) -> float:
    if text is None or not text.strip():
        return 0.5  # empty cells are uninformative, neither match nor mismatch
    kind_score = _kind_score(text, kind)
    if avg_len is None:
        return kind_score
    closeness = max(0.0, 1.0 - abs(len(text) - avg_len) / max(avg_len, 1.0))
    return 0.5 * kind_score + 0.5 * closeness


def realign_columns(row_texts: Sequence[str | None], schema: ColumnSchema) -> RowAlignment:
    """Map one row of cell texts onto schema labels.

    A row with the expected column count whose every non-empty cell matches
    its column's data kind maps positionally (status ``expected``).
    Otherwise alignments shifted by -2..+2 positions are scored by kind
    compatibility blended with text-length closeness, and the best is taken
    if its mean score exceeds the threshold; failing that the row is marked
    ``failed``, maps positionally and the parish field is left empty.
    """
    n = len(schema.labels)
    if len(row_texts) == n and all(
        _column_score(text, kind, None) >= REALIGN_THRESHOLD for text, kind in zip(row_texts, schema.kinds)
    ):
        status, shift = "expected", 0
    else:
        scores = []
        for candidate in REALIGN_SHIFTS:
            total = 0.0
            for i in range(n):
                src = i + candidate
                if 0 <= src < len(row_texts):
                    total += _column_score(row_texts[src], schema.kinds[i], schema.avg_len(i))
                # sources shifted outside the row contribute zero
            scores.append(total / n)
        best = max(scores)
        if best > REALIGN_THRESHOLD:
            status, shift = "realigned", REALIGN_SHIFTS[scores.index(best)]
        else:
            status, shift = "failed", 0

    mapping = {
        label: row_texts[i + shift] if 0 <= i + shift < len(row_texts) else None
        for i, label in enumerate(schema.labels)
    }
    if status == "failed":
        parish = schema.parish_label()
        if parish is not None:
            mapping[parish] = None
    return RowAlignment(mapping=mapping, status=status, shift=shift)


def cell_text(cell: CellHypothesis) -> str | None:
    """Best available text for a cell; multi-line texts joined with spaces.

    Only a multi-line cell carries lines: ``read_document`` and
    ``validate_document`` reject lines on a cell of any other class, de-skew
    copies them and inferred cells have none.  So the lines alone mark a
    multi-line cell, and the class is not taken again here.
    """
    if cell.lines:
        parts = [line.text.text for line in cell.lines if line.text.text]
        return " ".join(parts) if parts else None
    if cell.text is not None and cell.text.text:
        return cell.text.text
    return None


def assemble_records(
    grid: GridTable,
    year: int | None,
    direction: str,
    schema: ColumnSchema | None,
    side: str,
    *,
    book_id: str = "",
    opening_id: str = "",
    year_inferred: bool = False,
) -> list[MigrationRecord]:
    """Turn a completed grid into one migration record per non-empty row.

    Repetition fill is applied per column (idempotent, so pre-filled grids
    are safe).  Rows whose every cell is typed empty are elided: they are
    ruled lines without entries, not records.  Flags capture inferred cells,
    repetition fills, realignment (``realign_failed`` when no alignment
    scores above the threshold: the row keeps no parish) and year
    provenance.
    """
    classes = [[dominant_class(cell.hyp.class_probs) for cell in row] for row in grid.cells]
    columns = [
        fill_repetitions([(kinds[c], cell_text(row[c].hyp)) for kinds, row in zip(classes, grid.cells)])
        for c in range(grid.n_cols)
    ]
    parish_label = schema.parish_label() if schema is not None else None
    year_flag = {"year_inferred"} if year_inferred and year is not None else set()

    records = []
    for r, (kinds, cells) in enumerate(zip(classes, grid.cells)):
        if all(kind == "empty" for kind in kinds):
            continue
        texts = [column[r] for column in columns]
        flags = set(year_flag)
        if any(cell.provenance == "inferred" for cell in cells):
            flags.add("inferred_cell")
        if any(kind == "repetition" and text is not None for kind, text in zip(kinds, texts)):
            flags.add("repetition_filled")

        parish_raw = None
        if schema is not None:
            alignment = realign_columns(texts, schema)
            if alignment.status == "realigned":
                flags.add("realigned")
            elif alignment.status == "failed":
                flags.add("realign_failed")
            fields = {label: alignment.mapping[label] or "" for label in schema.labels}
            if parish_label is not None:
                parish_raw = alignment.mapping[parish_label] or None
        else:
            fields = {f"col_{c}": text or "" for c, text in enumerate(texts)}

        records.append(
            MigrationRecord(
                book_id=book_id,
                opening_id=opening_id,
                page_side=side,
                direction=direction,
                year=year,
                fields=fields,
                parish_raw=parish_raw,
                flags=frozenset(flags),
            )
        )
    return records
