import random

import pytest

from migrec.chrono import (
    BookYearSequence,
    ChronoConfig,
    HttpCorrectorClient,
    PageObservations,
    YearObservation,
    evaluate_years,
    external_correct,
    infer_sequence,
    normalize_year_token,
)
from migrec.interchange import Box

from oracles import best_year_assignment

BOX = Box(0, 0, 10, 10, 0.9)


def page(opening, side, *years, raws=None):
    observations = []
    for i, year in enumerate(years):
        raw = raws[i] if raws else str(year)
        observations.append(YearObservation(raw=raw, normalized=year, box=BOX))
    return PageObservations(opening_id=opening, side=side, observations=tuple(observations))


def pages_from_years(year_lists):
    out = []
    for i, years in enumerate(year_lists):
        out.append(page(f"op{i:03d}", "left", *years))
    return out


# --- normalize_year_token -------------------------------------------------------


def test_plain_four_digit_year():
    assert normalize_year_token("1878") == 1878


def test_slash_for_one_repair():
    assert normalize_year_token("19/4") == 1914


def test_garbage_returns_none():
    assert normalize_year_token("abc") is None
    assert normalize_year_token("") is None
    assert normalize_year_token("187") is None
    assert normalize_year_token("18789") is None


@pytest.mark.parametrize(
    "token, year",
    [
        ("¹⁹¹⁴", None),  # superscripts are digits to str.isdigit, not to int()
        ("19¹4", None),  # one damaged character, ten completions in range
        ("191⁴", None),
        ("(¹⁹¹⁴)", None),
        ("1914²", 1914),  # a trailing superscript is trimmed like punctuation
        ("①⑨①④", None),
        ("١٩١٤", 1914),  # Arabic-Indic and fullwidth digits are decimal
        ("１９１４", 1914),
    ],
    ids=["superscripts", "one-superscript", "last-superscript", "bracketed-superscripts",
         "trailing-superscript", "circled", "arabic-indic", "fullwidth"],
)
def test_a_token_of_non_ascii_digits_is_a_year_or_none(token, year):
    assert normalize_year_token(token) == year


def test_out_of_range_rejected():
    assert normalize_year_token("1650") is None
    assert normalize_year_token("1955") is None
    cfg = ChronoConfig(min_year=1800, max_year=1900)
    assert normalize_year_token("1799", cfg) is None
    assert normalize_year_token("1850", cfg) == 1850


def test_surrounding_punctuation_stripped():
    assert normalize_year_token(" 1878. ") == 1878
    assert normalize_year_token("(1901)") == 1901


def test_unique_completion_with_narrow_range():
    cfg = ChronoConfig(min_year=1875, max_year=1885)
    assert normalize_year_token("18?8", cfg) == 1878
    # two in-range completions -> ambiguous
    wide = ChronoConfig(min_year=1870, max_year=1890)
    assert normalize_year_token("18?8", wide) is None


def test_damaged_century_digit_not_completed():
    cfg = ChronoConfig(min_year=1875, max_year=1885)
    assert normalize_year_token("?878", cfg) is None


def test_leading_slash_repair():
    assert normalize_year_token("/877") == 1877


# --- infer_sequence -------------------------------------------------------------


def test_clean_sequence_kept_verbatim():
    pages = pages_from_years([[1877], [1878], [1879]])
    sequence = infer_sequence(pages)
    assert sequence.years() == [1877, 1878, 1879]
    assert all(p.source == "observed" for p in sequence.pages)


def test_outlier_discarded_and_interpolated():
    pages = pages_from_years([[1877], [1978], [1879]])
    sequence = infer_sequence(pages)
    assert sequence.years() == [1877, 1877, 1879]
    assert [p.source for p in sequence.pages] == ["observed", "interpolated", "observed"]


def test_missing_page_carries_previous_year():
    pages = pages_from_years([[1914], [], [1916]])
    sequence = infer_sequence(pages)
    assert sequence.years() == [1914, 1914, 1916]
    assert sequence.pages[1].source == "interpolated"


def test_leading_pages_backfilled():
    pages = pages_from_years([[], [], [1850], [1851]])
    sequence = infer_sequence(pages)
    assert sequence.years() == [1850, 1850, 1850, 1851]
    assert sequence.pages[0].source == "interpolated"


def test_empty_book():
    assert infer_sequence([]) == BookYearSequence(pages=())


def test_book_with_no_observations():
    pages = pages_from_years([[], []])
    sequence = infer_sequence(pages)
    assert sequence.years() == [None, None]


def test_page_with_two_years_prefers_continuity():
    pages = pages_from_years([[1914], [1914, 1915], [1915]])
    sequence = infer_sequence(pages)
    assert sequence.years() == [1914, 1914, 1915]


def test_jump_constraint_enforced():
    # a 10-year jump cannot be kept with max_jump=5; the smaller side loses
    pages = pages_from_years([[1880], [1880], [1890]])
    sequence = infer_sequence(pages)
    assert sequence.years() == [1880, 1880, 1880]
    assert sequence.pages[2].source == "interpolated"


def test_dp_cost_matches_exhaustive_search():
    rng = random.Random(77)
    cfg = ChronoConfig(max_jump=5)
    for _ in range(60):
        n_pages = rng.randint(1, 5)
        year_lists = []
        for _ in range(n_pages):
            n_obs = rng.randint(0, 2)
            year_lists.append([rng.choice([1850, 1851, 1852, 1860, 1900]) for _ in range(n_obs)])
        pages = pages_from_years(year_lists)
        sequence = infer_sequence(pages, cfg)
        # recompute the cost of the DP's choice
        kept = [
            (i, p.year)
            for i, p in enumerate(sequence.pages)
            if p.source == "observed" and p.year is not None
        ]
        discarded = 0
        overridden = 0
        for i, years in enumerate(year_lists):
            if sequence.pages[i].source == "observed":
                discarded += len(years) - years.count(sequence.pages[i].year)
            else:
                discarded += len(years)
                if years:
                    overridden += 1
        jump = sum(b - a for (_, a), (_, b) in zip(kept, kept[1:]))
        oracle = best_year_assignment(year_lists, cfg.max_jump)
        assert (discarded, overridden, jump) == oracle


def test_sequence_invariant_always_holds():
    rng = random.Random(99)
    cfg = ChronoConfig()
    for _ in range(50):
        year_lists = [
            [rng.randint(1850, 1870) for _ in range(rng.randint(0, 3))] for _ in range(10)
        ]
        sequence = infer_sequence(pages_from_years(year_lists), cfg)
        years = [y for y in sequence.years() if y is not None]
        for a, b in zip(years, years[1:]):
            assert a <= b <= a + cfg.max_jump


# --- external_correct ------------------------------------------------------------


class EchoClient:
    def __init__(self, years):
        self.years = years

    def correct_years(self, pages_raw):
        return self.years


class TimeoutClient:
    def correct_years(self, pages_raw):
        raise TimeoutError("no answer")


def test_external_valid_years_adopted():
    pages = pages_from_years([[1877], [1878], []])
    sequence = external_correct(pages, EchoClient([1877, 1878, 1878]))
    assert sequence.years() == [1877, 1878, 1878]
    assert [p.source for p in sequence.pages] == ["observed", "observed", "interpolated"]


def test_external_correction_source_marked():
    pages = pages_from_years([[1877], [1978], [1879]])
    sequence = external_correct(pages, EchoClient([1877, 1878, 1879]))
    assert sequence.years() == [1877, 1878, 1879]
    assert sequence.pages[1].source == "corrected"


def test_external_timeout_falls_back():
    pages = pages_from_years([[1877], [1978], [1879]])
    assert external_correct(pages, TimeoutClient()) == infer_sequence(pages)


def test_external_decreasing_rejected():
    pages = pages_from_years([[1877], [1878]])
    sequence = external_correct(pages, EchoClient([1878, 1877]))
    assert sequence == infer_sequence(pages)


def test_external_out_of_range_rejected():
    pages = pages_from_years([[1877], [1878]])
    assert external_correct(pages, EchoClient([1877, 2024])) == infer_sequence(pages)


def test_external_wrong_length_rejected():
    pages = pages_from_years([[1877], [1878]])
    assert external_correct(pages, EchoClient([1877])) == infer_sequence(pages)


def test_external_jump_violation_rejected():
    pages = pages_from_years([[1877], [1890]])
    assert external_correct(pages, EchoClient([1877, 1890])) == infer_sequence(pages)


def corrector_request(monkeypatch) -> dict:
    """What ``HttpCorrectorClient`` sends for two pages, with urlopen stubbed out."""
    captured = {}

    class FakeResponse:
        def read(self):
            return b"1877\n1878\n"

        def __enter__(self):
            return self

        def __exit__(self, *args):
            return False

    def fake_urlopen(request, timeout):
        captured["url"] = request.full_url
        captured["body"] = request.data.decode("utf-8")
        captured["headers"] = dict(request.header_items())  # names as urllib stores them
        captured["timeout"] = timeout
        return FakeResponse()

    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    client = HttpCorrectorClient("http://corrector.local/years")
    captured["years"] = client.correct_years([["1877", "18?7"], ["1878"]])
    return captured


def test_http_client_payload_and_parse(monkeypatch):
    monkeypatch.setenv("MIGREC_CORRECTOR_KEY", "secret")
    captured = corrector_request(monkeypatch)
    assert captured["years"] == [1877, 1878]
    assert captured["url"] == "http://corrector.local/years"
    assert captured["body"] == "1877;18?7\n1878"
    assert captured["timeout"] == 30.0
    assert captured["headers"] == {
        "Content-type": "text/plain; charset=utf-8", "Authorization": "Bearer secret",
    }


def test_http_client_sends_no_credential_without_a_key(monkeypatch):
    monkeypatch.delenv("MIGREC_CORRECTOR_KEY", raising=False)
    captured = corrector_request(monkeypatch)
    assert captured["years"] == [1877, 1878]
    assert captured["headers"] == {"Content-type": "text/plain; charset=utf-8"}


# --- evaluate_years ---------------------------------------------------------------


def test_evaluate_years_perfect():
    gold = {("op1", "left"): {1877}, ("op1", "right"): {1877, 1878}}
    result = evaluate_years(gold, gold)
    assert (result.precision, result.recall, result.f1) == (100.0, 100.0, 100.0)


def test_evaluate_years_skips_pages_without_annotation():
    gold = {("op1", "left"): {1877}, ("op2", "left"): set()}
    pred = {("op1", "left"): {1877}, ("op2", "left"): {1999}}
    result = evaluate_years(pred, gold)
    assert result.pages_scored == 1
    assert result.fp == 0  # the un-annotated page did not count against us
    assert result.precision == 100.0


def test_evaluate_years_without_an_annotated_page_scores_zero():
    gold = {("op1", "left"): set(), ("op1", "right"): set()}
    pred = {("op1", "left"): {1877}, ("op1", "right"): {1878}}
    result = evaluate_years(pred, gold)
    assert (result.precision, result.recall, result.f1) == (0.0, 0.0, 0.0)
    assert (result.tp, result.fp, result.fn, result.pages_scored) == (0, 0, 0, 0)
    assert evaluate_years({}, {}) == result


def test_evaluate_years_reconstructs_published_operating_point():
    # tp=916, fp=84, fn=186 gives P=91.6, R=83.1 and an F1 rounding to 87.2
    gold = {}
    pred = {}
    for k in range(832):  # exact pages
        gold[(f"a{k}", "left")] = {1900}
        pred[(f"a{k}", "left")] = {1900}
    for k in range(84):  # one spurious extra year alongside a hit
        gold[(f"b{k}", "left")] = {1900}
        pred[(f"b{k}", "left")] = {1900, 1901}
    for k in range(186):  # missed years
        gold[(f"c{k}", "left")] = {1900}
        pred[(f"c{k}", "left")] = set()
    result = evaluate_years(pred, gold)
    assert (result.tp, result.fp, result.fn) == (916, 84, 186)
    assert round(result.precision, 1) == 91.6
    assert round(result.recall, 1) == 83.1
    assert round(result.f1, 1) == 87.2
