"""The year step against its earlier code, kept in ``oracles.py``.

Token repair and the book DP were rewritten to state each rule once: no
digit test on a repaired or completed token, and one carry rule for pages
without a kept year.  Every token must normalize to what the earlier code
returned, and every book must resolve to the same ``BookYearSequence``,
years and sources alike.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from migrec.chrono import (
    ChronoConfig,
    PageObservations,
    YearObservation,
    infer_sequence,
    normalize_year_token,
)
from migrec.interchange import Box

from oracles import infer_sequence_reference, normalize_year_token_reference

BOOK_EXAMPLES = 400
TOKEN_EXAMPLES = 1000

BOX = Box(0, 0, 10, 10, 0.9)


def book(*page_years):
    """Pages in (opening, side) order, each holding the given normalized years."""
    return [
        PageObservations(
            f"op{i // 2:03d}",
            ("left", "right")[i % 2],
            tuple(YearObservation(str(y), y, BOX) for y in years),
        )
        for i, years in enumerate(page_years)
    ]


@st.composite
def books(draw):
    # a narrow window of years makes ties common; the windows at the ends
    # of the default range reach past it (1697-1699, 1931-1934)
    base = draw(st.sampled_from((1697, 1850, 1926)))
    year = st.one_of(st.integers(base, base + 8), st.none())
    return book(*draw(st.lists(st.lists(year, max_size=4), max_size=12)))


@given(books(), st.integers(0, 6))
@settings(max_examples=BOOK_EXAMPLES, deadline=None)
@example([], 5)
@example(book((), (), ()), 5)
# leading pages without a kept year take the book's first kept year, not its last
@example(book((), (None,), (1850,), (), (1852, 1852), ()), 5)
@example(book((1850, 1851), (1851, 1850), (1699,), (1931,)), 0)
def test_infer_sequence_equals_the_earlier_dp(pages, max_jump):
    cfg = ChronoConfig(max_jump=max_jump)
    sequence = infer_sequence(pages, cfg)
    assert sequence == infer_sequence_reference(pages, cfg)
    # what eval's rule-corrected window relies on: every page has a year or
    # none has, and years never fall
    years = sequence.years()
    assert None not in years or set(years) == {None}
    assert years == sorted(years, key=lambda y: (y is not None, y))


DIGITS = "0123456789" "٠١٢٣٤٥٦٧٨٩" "０１２３４５６７８９" "⁰¹²³⁴⁵⁶⁷⁸⁹"
PUNCTUATION = "/.,;:()[]-'?* "
token_chars = st.sampled_from(DIGITS + PUNCTUATION + "lOI")
# a century prefix and two more characters, mostly ASCII digits, wrapped in
# punctuation, so that repairs and completions in range come up often
year_like = st.builds(
    lambda before, century, rest, after: before + century + rest + after,
    st.text(st.sampled_from(PUNCTUATION), max_size=2),
    st.sampled_from(("17", "18", "19", "1/", "/8", "١٨", "１９")),
    st.text(st.one_of(st.sampled_from("0123456789"), token_chars), min_size=2, max_size=2),
    st.text(st.sampled_from(PUNCTUATION), max_size=2),
)
tokens = st.one_of(year_like, st.text(token_chars, max_size=7))


@st.composite
def chrono_configs(draw):
    if draw(st.booleans()):
        return None
    lo, hi = sorted((draw(st.integers(1690, 1940)), draw(st.integers(1690, 1940))))
    return ChronoConfig(min_year=lo, max_year=hi)


@given(tokens, chrono_configs())
@settings(max_examples=TOKEN_EXAMPLES, deadline=None)
@example("19/4", None)
@example("/914", None)
@example("18?8", ChronoConfig(min_year=1875, max_year=1885))
@example("(١٩١٤)", None)
@example("１９１４", None)
@example("19¹4", None)
def test_normalize_year_token_equals_the_earlier_repair(token, cfg):
    assert normalize_year_token(token, cfg) == normalize_year_token_reference(token, cfg)
