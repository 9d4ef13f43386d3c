"""From a classified cell grid to migration records.

Repetition marks are filled from the nearest filled cell above, rows are
aligned against the expected column layout, and each non-empty row becomes
one migration record.
"""

from migrec import ColumnSchema, assemble_records, fill_repetitions, realign_columns
from migrec.gridrec import Band, GridCell, GridTable
from migrec.interchange import Box, CellHypothesis, TextHypothesis

column = [
    ("single_line", "Rautalampi"),
    ("repetition", None),
    ("repetition", None),
    ("empty", None),
    ("single_line", "Helsingfors"),
    ("repetition", None),
]
print("repetition fill:", fill_repetitions(column))

schema = ColumnSchema(
    labels=("ref_no", "date", "name", "parish"),
    kinds=("numeric", "date", "text", "parish"),
    avg_lens=(2.0, 6.0, 18.0, 9.0),
)
aligned = realign_columns(["17", "9.1.", "Maria Sirkka, piika", "Rautalampi"], schema)
print("well-formed row:", aligned.status, aligned.mapping)
shifted = realign_columns(["??", "17", "9.1.", "Maria Sirkka, piika", "Rautalampi"], schema)
print("row with a spurious leading column:", shifted.status, f"shift={shifted.shift}")


def make_cell(kind, text, box):
    probs = {
        "single_line": (1.0, 0.0, 0.0, 0.0),
        "repetition": (0.0, 0.0, 1.0, 0.0),
        "empty": (0.0, 0.0, 0.0, 1.0),
    }[kind]
    hyp_text = TextHypothesis(text, 0.9) if text else None
    return GridCell(CellHypothesis(box=box, class_probs=probs, text=hyp_text), "detected")


rows_spec = [
    [("single_line", "1"), ("single_line", "9.1."), ("single_line", "Maria Sirkka, piika"), ("single_line", "Rautalampi")],
    [("single_line", "2"), ("single_line", "14.2."), ("single_line", "Johan Berg, smed"), ("repetition", None)],
    [("empty", None)] * 4,
]
matrix = tuple(
    tuple(
        make_cell(kind, text, Box(c * 150.0, r * 60.0, (c + 1) * 150.0, (r + 1) * 60.0, 0.9))
        for c, (kind, text) in enumerate(row)
    )
    for r, row in enumerate(rows_spec)
)
grid = GridTable(
    table_box=Box(0, 0, 600, 180, 1.0),
    rows=tuple(Band(r * 60.0, (r + 1) * 60.0, 8) for r in range(3)),
    cols=tuple(Band(c * 150.0, (c + 1) * 150.0, 6) for c in range(4)),
    cells=matrix,
)

records = assemble_records(grid, 1878, "in", schema, "left", book_id="demo", opening_id="op0001")
print(f"\nrecords from a 3-row grid with one all-empty row: {len(records)}")
for record in records:
    flags = ",".join(sorted(record.flags)) or "-"
    print(f"  {record.year} {record.direction:3} parish={record.parish_raw!r:14} flags={flags}")
