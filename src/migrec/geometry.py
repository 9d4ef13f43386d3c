"""Projective de-skew of register openings from six keypoints.

An opening is de-skewed by two plane homographies: one induced by the
keypoint quadrilateral A-B-E-D (left page), one by B-C-F-E (right page).
Each maps its quadrilateral onto an axis-aligned rectangle so that the three
page edges (left, spine, right) come out exactly vertical.  Only coordinates
are transformed here; pixel resampling is out of scope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

from .interchange import Box, OpeningKeypoints, Point, validate_keypoints


class DegenerateGeometryError(ValueError):
    """Raised for collinear or duplicate point configurations."""


class PointAtInfinityError(ValueError):
    """Raised when a projective application lands on the horizon line."""


class IllConditionedWarning(RuntimeWarning):
    """Emitted when the homography system is solved near its noise floor."""


_PIVOT_RATIO_LIMIT = 1e10


@dataclass(frozen=True)
class Homography:
    """3x3 projective transform, normalized so m[2][2] == 1."""

    m: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if len(self.m) != 3 or any(len(row) != 3 for row in self.m):
            raise ValueError("homography matrix must be 3x3")
        if abs(self.m[2][2] - 1.0) > 1e-12:
            raise ValueError("homography must be normalized to m[2][2] == 1")
        if abs(self.determinant()) <= 1e-12:
            raise DegenerateGeometryError("homography matrix is singular")

    @staticmethod
    def identity() -> "Homography":
        return Homography(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))

    @staticmethod
    def translation(dx: float, dy: float) -> "Homography":
        return Homography(((1.0, 0.0, dx), (0.0, 1.0, dy), (0.0, 0.0, 1.0)))

    def determinant(self) -> float:
        m = self.m
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    def inverse(self) -> "Homography":
        m = self.m
        cof = (
            (
                m[1][1] * m[2][2] - m[1][2] * m[2][1],
                m[0][2] * m[2][1] - m[0][1] * m[2][2],
                m[0][1] * m[1][2] - m[0][2] * m[1][1],
            ),
            (
                m[1][2] * m[2][0] - m[1][0] * m[2][2],
                m[0][0] * m[2][2] - m[0][2] * m[2][0],
                m[0][2] * m[1][0] - m[0][0] * m[1][2],
            ),
            (
                m[1][0] * m[2][1] - m[1][1] * m[2][0],
                m[0][1] * m[2][0] - m[0][0] * m[2][1],
                m[0][0] * m[1][1] - m[0][1] * m[1][0],
            ),
        )
        det = self.determinant()
        scale = cof[2][2] / det
        if abs(scale) <= 1e-300:
            raise DegenerateGeometryError("inverse cannot be normalized")
        return Homography(tuple(tuple(c / det / scale for c in row) for row in cof))


def _solve_linear(rows: list[list[float]], rhs: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting on a dense square system."""
    n = len(rows)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    scale = max((abs(v) for row in rows for v in row), default=0.0)
    if scale == 0.0:
        raise DegenerateGeometryError("all-zero system")
    pivots = []
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        pivot = aug[pivot_row][col]
        if abs(pivot) <= 1e-12 * scale:
            raise DegenerateGeometryError("singular system (degenerate point configuration)")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivots.append(abs(pivot))
        for r in range(col + 1, n):
            factor = aug[r][col] / pivot
            if factor != 0.0:
                for c in range(col, n + 1):
                    aug[r][c] -= factor * aug[col][c]
    if max(pivots) / min(pivots) > _PIVOT_RATIO_LIMIT:
        warnings.warn(
            "homography system is ill-conditioned (pivot ratio exceeds 1e10)",
            IllConditionedWarning,
            stacklevel=3,
        )
    solution = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = aug[i][n]
        for j in range(i + 1, n):
            acc -= aug[i][j] * solution[j]
        solution[i] = acc / aug[i][i]
    return solution


def _collinear(p1: Point, p2: Point, p3: Point) -> bool:
    ax, ay = p2.x - p1.x, p2.y - p1.y
    bx, by = p3.x - p1.x, p3.y - p1.y
    cross = ax * by - ay * bx
    scale = math.hypot(ax, ay) * math.hypot(bx, by)
    return abs(cross) <= 1e-9 * max(scale, 1.0)


def _check_quad(points: Sequence[Point], label: str) -> None:
    if len(points) != 4:
        raise ValueError(f"{label} must contain exactly 4 points")
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                if _collinear(points[i], points[j], points[k]):
                    raise DegenerateGeometryError(
                        f"{label} points {i}, {j}, {k} are collinear or coincident"
                    )


def estimate_homography(src: Sequence[Point], dst: Sequence[Point]) -> Homography:
    """Homography mapping four source points onto four destination points.

    Solves the standard 8x8 direct linear system for the matrix entries with
    m[2][2] fixed to one.  Each correspondence is reproduced to well below
    1e-9 px for non-degenerate inputs.
    """
    _check_quad(src, "src")
    _check_quad(dst, "dst")
    rows = []
    rhs = []
    for s, d in zip(src, dst):
        rows.append([s.x, s.y, 1.0, 0.0, 0.0, 0.0, -d.x * s.x, -d.x * s.y])
        rhs.append(d.x)
        rows.append([0.0, 0.0, 0.0, s.x, s.y, 1.0, -d.y * s.x, -d.y * s.y])
        rhs.append(d.y)
    h = _solve_linear(rows, rhs)
    return Homography(
        (
            (h[0], h[1], h[2]),
            (h[3], h[4], h[5]),
            (h[6], h[7], 1.0),
        )
    )


def _project(m: tuple[tuple[float, float, float], ...], x: float, y: float) -> tuple[float, float]:
    """The one projection formula: ``(x, y)`` under matrix ``m``, divided by w."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    w = m20 * x + m21 * y + m22
    if abs(w) < 1e-12:
        raise PointAtInfinityError(f"point ({x}, {y}) maps to infinity")
    return (m00 * x + m01 * y + m02) / w, (m10 * x + m11 * y + m12) / w


def apply_point(h: Homography, p: Point) -> Point:
    """Apply a homography to a point (projective division included)."""
    return Point(*_project(h.m, p.x, p.y))


def transform_box(h: Homography, box: Box) -> Box:
    """Axis-aligned hull of a box's four corners under a homography.

    The corners are projected with ``_project``'s expression written out,
    in the order (min, min), (max, min), (max, max), (min, max).  When any
    of them lands on the horizon, ``_project`` itself is run on the corners
    in that order, so the first corner at infinity raises its
    :class:`PointAtInfinityError`.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = h.m
    xa, ya, xb, yb = box.x_min, box.y_min, box.x_max, box.y_max
    w0 = m20 * xa + m21 * ya + m22
    w1 = m20 * xb + m21 * ya + m22
    w2 = m20 * xb + m21 * yb + m22
    w3 = m20 * xa + m21 * yb + m22
    if abs(w0) < 1e-12 or abs(w1) < 1e-12 or abs(w2) < 1e-12 or abs(w3) < 1e-12:
        for x, y in ((xa, ya), (xb, ya), (xb, yb), (xa, yb)):
            _project(h.m, x, y)
    x0, y0 = (m00 * xa + m01 * ya + m02) / w0, (m10 * xa + m11 * ya + m12) / w0
    x1, y1 = (m00 * xb + m01 * ya + m02) / w1, (m10 * xb + m11 * ya + m12) / w1
    x2, y2 = (m00 * xb + m01 * yb + m02) / w2, (m10 * xb + m11 * yb + m12) / w2
    x3, y3 = (m00 * xa + m01 * yb + m02) / w3, (m10 * xa + m11 * yb + m12) / w3
    return Box(
        min(x0, x1, x2, x3),
        min(y0, y1, y2, y3),
        max(x0, x1, x2, x3),
        max(y0, y1, y2, y3),
        box.confidence,
    )


def _dist(p: Point, q: Point) -> float:
    return math.hypot(q.x - p.x, q.y - p.y)


def deskew_transforms(
    kp: OpeningKeypoints, width: float, height: float
) -> tuple[Homography, Homography]:
    """Per-page de-skew homographies for an opening.

    The left transform maps A-B-E-D onto an axis-aligned rectangle anchored
    at the origin; the right transform maps B-C-F-E onto a rectangle abutting
    it along the shared spine edge.  Target side lengths are the means of the
    opposing quadrilateral edges, which keeps area distortion small.  After
    transformation the edges A-D, B-E and C-F are exactly vertical.
    """
    validate_keypoints(kp)
    for name, point in zip("abcdef", kp.as_tuple()):
        if not (-0.05 * width <= point.x <= 1.05 * width) or not (
            -0.05 * height <= point.y <= 1.05 * height
        ):
            raise ValueError(f"keypoint {name} lies far outside the image bounds")
    a, b, c, d, e, f = kp.as_tuple()
    left_w = (_dist(a, b) + _dist(d, e)) / 2.0
    left_h = (_dist(a, d) + _dist(b, e)) / 2.0
    right_w = (_dist(b, c) + _dist(e, f)) / 2.0
    right_h = (_dist(b, e) + _dist(c, f)) / 2.0
    left = estimate_homography(
        (a, b, e, d),
        (Point(0.0, 0.0), Point(left_w, 0.0), Point(left_w, left_h), Point(0.0, left_h)),
    )
    right = estimate_homography(
        (b, c, f, e),
        (
            Point(left_w, 0.0),
            Point(left_w + right_w, 0.0),
            Point(left_w + right_w, right_h),
            Point(left_w, right_h),
        ),
    )
    return left, right


@dataclass(frozen=True)
class PatchSpec:
    """A keypoint refinement patch: where it was cut and how it was mirrored.

    Patches around right-hand keypoints are mirrored across the vertical
    axis and patches around lower keypoints across the horizontal axis, so
    the target keypoint always sits near the patch's top-left corner.
    """

    region: Box
    mirror_horizontal: bool
    mirror_vertical: bool


def make_patch_spec(
    p: Point, width: float, height: float, fraction: float = 0.15
) -> PatchSpec:
    """Patch region of ``fraction`` of each image dimension centered on a point.

    Regions poking past the image border are shifted back inside rather than
    shrunk, so patch dimensions stay uniform.  Patch sides are whole pixels
    (floored, so the fraction bound is never exceeded), which keeps the
    mirroring arithmetic exact for integer keypoint coordinates.
    """
    if not 0.0 < fraction <= 0.15:
        raise ValueError("patch fraction must lie in (0, 0.15]")
    if not (0.0 <= p.x <= width and 0.0 <= p.y <= height):
        raise ValueError("patch center must lie inside the image")
    patch_w = min(max(float(math.floor(fraction * width)), 1.0), float(width))
    patch_h = min(max(float(math.floor(fraction * height)), 1.0), float(height))
    x0 = min(max(p.x - patch_w / 2.0, 0.0), width - patch_w)
    y0 = min(max(p.y - patch_h / 2.0, 0.0), height - patch_h)
    return PatchSpec(
        region=Box(x0, y0, x0 + patch_w, y0 + patch_h),
        mirror_horizontal=p.x > width / 2.0,
        mirror_vertical=p.y > height / 2.0,
    )


def mirror_local(local: Point, spec: PatchSpec) -> Point:
    """Apply the patch's mirror map to patch-local coordinates (involution)."""
    x = spec.region.width - local.x if spec.mirror_horizontal else local.x
    y = spec.region.height - local.y if spec.mirror_vertical else local.y
    return Point(x, y)


def refine_keypoint(stage1: Point, local: Point, spec: PatchSpec) -> Point:
    """Map a patch-local (post-mirroring) detection back to global coordinates.

    ``stage1`` is the coarse point the patch was cut around; it is accepted
    for interface symmetry and sanity-checked against the patch region.
    """
    if not (
        spec.region.x_min - 1e-9 <= stage1.x <= spec.region.x_max + 1e-9
        and spec.region.y_min - 1e-9 <= stage1.y <= spec.region.y_max + 1e-9
    ):
        raise ValueError("stage-I point does not lie inside the patch region")
    if not (0.0 <= local.x <= spec.region.width and 0.0 <= local.y <= spec.region.height):
        raise ValueError("local point lies outside the patch")
    unmirrored = mirror_local(local, spec)
    return Point(spec.region.x_min + unmirrored.x, spec.region.y_min + unmirrored.y)


def edge_angle_from_vertical(top: Point, bottom: Point) -> float:
    """Signed angle of an edge from vertical, in degrees.

    Positive when the bottom point lies left of the top point; result folded
    into (-90, 90].
    """
    dx = bottom.x - top.x
    dy = bottom.y - top.y
    if dx == 0.0 and dy == 0.0:
        raise ValueError("edge endpoints coincide")
    angle = -math.degrees(math.atan2(dx, dy))
    if angle > 90.0:
        angle -= 180.0
    elif angle <= -90.0:
        angle += 180.0
    return angle + 0.0


def angle_stats(angles: Sequence[float]) -> tuple[float, float]:
    """Mean and sample (n-1) standard deviation of a list of angles."""
    n = len(angles)
    if n == 0:
        raise ValueError("angle_stats requires at least one angle")
    mean = sum(angles) / n
    if n == 1:
        return mean, 0.0
    var = sum((a - mean) ** 2 for a in angles) / (n - 1)
    return mean, math.sqrt(var)
