"""Resolving page years from noisy year-token detections.

Years are stated on pages, not repeated per record, and they form a
non-decreasing sequence through a book, so a misread year can be corrected
from its neighbors.  The rule-based inference keeps as many observations
as possible under the monotone/bounded-jump constraints; an external
corrector can be plugged in, and anything it returns is validated with a
fallback to the rule-based result.
"""

from migrec import ChronoConfig, PageObservations, YearObservation, infer_sequence, normalize_year_token
from migrec.chrono import external_correct
from migrec.interchange import Box

for token in ("1878", "19/4", "187/", "18?8", "abc"):
    print(f"normalize {token!r:8} -> {normalize_year_token(token)}")
narrow = ChronoConfig(min_year=1875, max_year=1885)
print(f"normalize '18?8' with range 1875-1885 -> {normalize_year_token('18?8', narrow)}")

BOX = Box(0, 0, 10, 10, 0.9)


def page(i, *years):
    return PageObservations(
        opening_id=f"op{i:03d}",
        side="left",
        observations=tuple(
            YearObservation(str(y), normalize_year_token(str(y)), BOX)
            for y in years
        ),
    )


# page 2 was misread as 1978 and page 4 has no year detection at all
book = [page(0, 1877), page(1, 1877), page(2, 1978), page(3, 1878), page(4), page(5, 1879)]
sequence = infer_sequence(book)
print("\nnoisy book resolved:")
for p in sequence.pages:
    print(f"  {p.opening_id}: {p.year} ({p.source})")


class DecreasingCorrector:
    def correct_years(self, pages_raw):
        return list(range(1990, 1990 - len(pages_raw), -1))


checked = external_correct(book, DecreasingCorrector())
print("\na corrector returning a decreasing sequence is rejected;")
print("fallback equals the rule-based result:", checked == sequence)
