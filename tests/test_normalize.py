import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from migrec.evaluation import edit_distance
from migrec.interchange import MigrationRecord
from migrec.normalize import (
    Gazetteer,
    GazetteerError,
    detect_duplicate_books,
    filter_usable,
    match_parish,
    multiset_jaccard,
)

from migrec.synth import sample_gazetteer
from oracles import edit_distance_reference, match_parish_reference

GAZ = Gazetteer.from_pairs(
    [
        ("Helsinki", ["Helsingfors", "H:fors"]),
        ("Turku", ["Åbo"]),
        ("Rautalampi", []),
        ("Rautjärvi", []),
        ("Pori", ["Björneborg"]),
    ]
)


# --- matching ----------------------------------------------------------------


def test_exact_match_canonical():
    result = match_parish("Rautalampi", GAZ)
    assert (result.canonical, result.score, result.method) == ("Rautalampi", 1.0, "exact")


def test_variant_match_cross_language():
    result = match_parish("Helsingfors", GAZ)
    assert (result.canonical, result.score, result.method) == ("Helsinki", 1.0, "variant")


def test_listed_abbreviation_is_a_variant_hit():
    result = match_parish("H:fors", GAZ)
    assert (result.canonical, result.method) == ("Helsinki", "variant")


def test_unlisted_abbreviation_expanded():
    gaz = Gazetteer.from_pairs([("Helsinki", ["Helsingfors"]), ("Turku", ["Åbo"])])
    result = match_parish("H:fors", gaz)
    assert (result.canonical, result.score, result.method) == ("Helsinki", 1.0, "variant")


def test_fuzzy_single_substitution():
    result = match_parish("Rautalampj", GAZ)
    assert result.canonical == "Rautalampi"
    assert result.method == "fuzzy"
    assert result.score == pytest.approx(1.0 - 1.0 / 10.0)


def test_case_and_whitespace_folded():
    assert match_parish("  helsingfors ", GAZ).canonical == "Helsinki"
    assert match_parish("TURKU", GAZ).canonical == "Turku"


def test_ambiguous_best_is_unmatched_with_candidates():
    gaz = Gazetteer.from_pairs([("Kisko", []), ("Kiska", [])])
    result = match_parish("Kiski", gaz)
    assert result.method == "unmatched"
    assert result.canonical is None
    assert result.candidates == ("Kiska", "Kisko")


def test_distance_beyond_threshold_unmatched():
    result = match_parish("Stockholm", GAZ)
    assert result.method == "unmatched"


def test_empty_string_unmatched():
    assert match_parish("   ", GAZ).method == "unmatched"


def test_match_is_idempotent_on_canonical_output():
    for raw in ("Helsingfors", "Rautalampj", "Åbo"):
        first = match_parish(raw, GAZ)
        again = match_parish(first.canonical, GAZ)
        assert again.canonical == first.canonical
        assert again.score == 1.0


def test_diacritics_are_significant():
    gaz = Gazetteer.from_pairs([("Hämeenlinna", [])])
    assert match_parish("Hämeenlinna", gaz).method == "exact"
    fuzzy = match_parish("Hameenlinna", gaz)
    assert fuzzy.method == "fuzzy"  # one substitution away, not equal


def test_gazetteer_rejects_conflicting_variant():
    with pytest.raises(GazetteerError):
        Gazetteer.from_pairs([("A", ["x"]), ("B", ["x"])])


def test_gazetteer_file_round_trip(tmp_path):
    path = tmp_path / "gaz.tsv"
    GAZ.to_file(str(path))
    loaded = Gazetteer.from_file(str(path))
    assert loaded.entries == GAZ.entries


@st.composite
def _long_text_pairs(draw):
    """Two strings of more than 64 characters with å, ä, ö, spaces and ':'.

    Their bit vectors are wider than one machine word.  ``b`` is either
    drawn on its own or made from ``a`` by a few edits, so that distances
    under the small bounds occur as well as large ones.
    """
    text = st.text(alphabet="aåäöb :", min_size=65, max_size=140)
    a = draw(text)
    if draw(st.booleans()):
        return a, draw(text)
    b = list(a)
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(0, len(b) - 1))
        op = draw(st.sampled_from(("insert", "delete", "substitute")))
        if op == "delete":
            del b[i]
        elif op == "insert":
            b.insert(i, draw(st.sampled_from("aåäöb :")))
        else:
            b[i] = draw(st.sampled_from("aåäöb :"))
    return a, "".join(b)


@given(
    st.one_of(
        st.tuples(st.text(alphabet="abcdefö", max_size=30), st.text(alphabet="abcdefö", max_size=30)),
        _long_text_pairs(),
    )
)
@settings(max_examples=200, deadline=None)
def test_edit_distance_matches_reference(pair):
    a, b = pair
    assert edit_distance(a, b) == edit_distance_reference(a, b)


@given(
    st.one_of(
        st.tuples(st.text(alphabet="abcdefö", max_size=12), st.text(alphabet="abcdefö", max_size=12)),
        _long_text_pairs(),
    )
)
@settings(max_examples=150, deadline=None)
def test_bounded_edit_distance_matches_reference_at_every_bound(pair):
    a, b = pair
    exact = edit_distance_reference(a, b)
    assert edit_distance(a, b, bound=None) == exact
    for bound in range(max(len(a), len(b)) + 1):
        assert edit_distance(a, b, bound=bound) == min(exact, bound + 1)


# --- the bounded search against the brute-force oracle ------------------------

# Near-identical forms of different parishes, so random edits often tie.
TIE_GAZ = Gazetteer.from_pairs(
    [
        ("Kala", ["Kalaa"]),
        ("Kalo", []),
        ("Kiska", ["Kisk:a"]),
        ("Kisko", []),
        ("Abcd", []),
        ("Efgh", ["E:gh"]),
    ]
)
EDIT_ALPHABET = "aeiouäökls :hx"


@st.composite
def edited_forms(draw, gazetteer):
    """A gazetteer form (or canonical name) after up to six random edits."""
    chars = list(draw(st.sampled_from(sorted(gazetteer.forms) + sorted(gazetteer.entries))))
    for _ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from(("delete", "insert", "substitute")))
        if op == "insert":
            chars.insert(draw(st.integers(0, len(chars))), draw(st.sampled_from(EDIT_ALPHABET)))
        elif chars:
            at = draw(st.integers(0, len(chars) - 1))
            if op == "delete":
                del chars[at]
            else:
                chars[at] = draw(st.sampled_from(EDIT_ALPHABET))
    return "".join(chars)


def as_tuple(result):
    return (result.canonical, result.score, result.method, result.candidates)


@pytest.mark.parametrize("cap", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("gaz", [sample_gazetteer(), TIE_GAZ], ids=["sample", "ties"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_match_parish_matches_brute_force(gaz, cap, data):
    raw = data.draw(edited_forms(gaz))
    assert as_tuple(match_parish(raw, gaz, cap)) == match_parish_reference(raw, gaz, cap)


@pytest.mark.parametrize(
    "raw, cap, expected",
    [
        # one edit from two parishes: a tie within the cap
        ("Kalu", 0.25, (None, 0.0, "unmatched", ("Kala", "Kalo"))),
        # two edits from two parishes: a tie beyond the cap keeps its candidates
        ("Abgh", 0.25, (None, 0.0, "unmatched", ("Abcd", "Efgh"))),
        ("Abgh", 1.0, (None, 0.0, "unmatched", ("Abcd", "Efgh"))),
        # nearest form unique but beyond the cap
        ("Kiskaxxx", 0.25, (None, 0.0, "unmatched", ())),
        ("Kiskaxxx", 0.5, ("Kiska", 1.0 - 3 / 8, "fuzzy", ())),
    ],
)
def test_ties_and_caps_match_brute_force(raw, cap, expected):
    assert as_tuple(match_parish(raw, TIE_GAZ, cap)) == expected
    assert match_parish_reference(raw, TIE_GAZ, cap) == expected


# --- duplicate books -----------------------------------------------------------


def record(book, i, year=1880, direction="in", parish="Turku"):
    return MigrationRecord(
        book_id=book,
        opening_id=f"{book}_op{i:03d}",
        page_side="left",
        direction=direction,
        year=year,
        fields={"ref": str(i), "parish": parish},
        parish_raw=parish,
        parish_canonical=parish,
    )


def test_identical_books_flagged():
    a = [record("book_a", i) for i in range(20)]
    b = [record("book_b", i) for i in range(20)]
    pairs = detect_duplicate_books({"book_a": a, "book_b": b})
    assert len(pairs) == 1
    assert pairs[0].jaccard == 1.0
    assert pairs[0].remove == "book_b"


def test_disjoint_books_not_flagged():
    a = [record("book_a", i, year=1880) for i in range(10)]
    b = [record("book_b", i, year=1890) for i in range(10)]
    assert detect_duplicate_books({"book_a": a, "book_b": b}) == []


def test_jaccard_threshold_boundary():
    base = [record("x", i, year=1880 + i % 5) for i in range(20)]

    def overlapping(fraction, book):
        n_shared = int(20 * fraction)
        shared = [
            MigrationRecord(
                book_id=book,
                opening_id=r.opening_id,
                page_side=r.page_side,
                direction=r.direction,
                year=r.year,
                fields=dict(r.fields),
                parish_raw=r.parish_raw,
                parish_canonical=r.parish_canonical,
            )
            for r in base[:n_shared]
        ]
        extra = [record(book, 100 + i, year=1900) for i in range(20 - n_shared)]
        return shared + extra

    books95 = {"x": base, "y": overlapping(0.95, "y")}
    books50 = {"x": base, "y": overlapping(0.50, "y")}
    # brute-force check of the fingerprint overlap the detector should see
    from migrec.normalize import _fingerprints

    jac95 = multiset_jaccard(_fingerprints(books95["x"]), _fingerprints(books95["y"]))
    jac50 = multiset_jaccard(_fingerprints(books50["x"]), _fingerprints(books50["y"]))
    assert jac95 >= 0.9 > jac50
    assert len(detect_duplicate_books(books95)) == 1
    assert detect_duplicate_books(books50) == []


# --- filter_usable ----------------------------------------------------------------


def test_missing_year_rejected_with_reason():
    usable, tally = filter_usable([record("b", 1, year=None)])
    assert usable == []
    assert tally["missing_year"] == 1


def test_fully_populated_record_kept():
    usable, tally = filter_usable([record("b", 1)])
    assert len(usable) == 1
    assert sum(tally.values()) == 0


def test_rejection_precedence_and_conservation():
    records = [
        record("b", 1, direction="unknown", year=None),  # direction wins
        record("b", 2, year=None),
        MigrationRecord(
            book_id="b", opening_id="o3", page_side="left", direction="in", year=1880
        ),  # no parish_raw
        MigrationRecord(
            book_id="b",
            opening_id="o4",
            page_side="left",
            direction="in",
            year=1880,
            parish_raw="Atlantis",
            parish_canonical=None,
        ),
        record("b", 5),
    ]
    usable, tally = filter_usable(records)
    assert tally == {
        "missing_direction": 1,
        "missing_year": 1,
        "missing_parish": 1,
        "unmatched_parish": 1,
    }
    assert len(usable) + sum(tally.values()) == len(records)


def test_planted_defect_tally_matches():
    rng = random.Random(4)
    records = []
    planted = {"missing_direction": 0, "missing_year": 0, "missing_parish": 0, "unmatched_parish": 0}
    for i in range(300):
        defect = rng.choice([None, None, "missing_direction", "missing_year", "missing_parish", "unmatched_parish"])
        r = record("b", i)
        if defect == "missing_direction":
            r = MigrationRecord(**{**r.__dict__, "direction": "unknown"})
        elif defect == "missing_year":
            r = MigrationRecord(**{**r.__dict__, "year": None})
        elif defect == "missing_parish":
            r = MigrationRecord(**{**r.__dict__, "parish_raw": None, "parish_canonical": None})
        elif defect == "unmatched_parish":
            r = MigrationRecord(**{**r.__dict__, "parish_canonical": None})
        if defect:
            planted[defect] += 1
        records.append(r)
    usable, tally = filter_usable(records)
    assert tally == planted
    assert len(usable) == 300 - sum(planted.values())
