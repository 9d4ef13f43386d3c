"""De-skewing an opening from its six keypoints.

A register opening is photographed as one image; the four page corners and
the two spine endpoints (A..F) induce one projective transform per page.
This script skews a clean opening by known per-page rotations, estimates
the de-skew transforms from the six keypoints alone, and shows the page
edges coming back to vertical.  It also demonstrates the keypoint
refinement patches and their mirroring arithmetic.
"""

import math

from migrec import (
    OpeningKeypoints,
    Point,
    apply_point,
    deskew_transforms,
    edge_angle_from_vertical,
    make_patch_spec,
    refine_keypoint,
)
from migrec.geometry import mirror_local

WIDTH, HEIGHT = 2400, 1600


def rotate(p, center, degrees):
    theta = math.radians(degrees)
    c, s = math.cos(theta), math.sin(theta)
    dx, dy = p.x - center.x, p.y - center.y
    return Point(center.x + c * dx - s * dy, center.y + s * dx + c * dy)


ideal = OpeningKeypoints(
    a=Point(0, 0), b=Point(WIDTH / 2, 0), c=Point(WIDTH, 0),
    d=Point(0, HEIGHT), e=Point(WIDTH / 2, HEIGHT), f=Point(WIDTH, HEIGHT),
)

# skew the left page by -4 degrees and the right page by +3 degrees
left_center = Point(WIDTH / 4, HEIGHT / 2)
right_center = Point(3 * WIDTH / 4, HEIGHT / 2)
skewed = OpeningKeypoints(
    a=rotate(ideal.a, left_center, -4),
    b=rotate(ideal.b, left_center, -4),
    c=rotate(ideal.c, right_center, 3),
    d=rotate(ideal.d, left_center, -4),
    e=rotate(ideal.e, left_center, -4),
    f=rotate(ideal.f, right_center, 3),
)

print("edge angles before de-skew (degrees from vertical):")
for name, (top, bottom) in {
    "left  (A-D)": (skewed.a, skewed.d),
    "middle(B-E)": (skewed.b, skewed.e),
    "right (C-F)": (skewed.c, skewed.f),
}.items():
    print(f"  {name}: {edge_angle_from_vertical(top, bottom):+8.3f}")

h_left, h_right = deskew_transforms(skewed, WIDTH, HEIGHT)
print("\nedge angles after de-skew:")
for name, (h, top, bottom) in {
    "left  (A-D)": (h_left, skewed.a, skewed.d),
    "middle(B-E)": (h_left, skewed.b, skewed.e),
    "right (C-F)": (h_right, skewed.c, skewed.f),
}.items():
    angle = edge_angle_from_vertical(apply_point(h, top), apply_point(h, bottom))
    print(f"  {name}: {angle:+12.2e}")

# stage-II refinement patches: 15% of each dimension, mirrored so the
# keypoint always sits near the patch's top-left corner; rotated corners
# can fall outside the image, so each point is clamped into it first
print("\nrefinement patches around each keypoint:")
for name, p in zip("abcdef", skewed.as_tuple()):
    inside = Point(min(max(round(p.x), 0), WIDTH), min(max(round(p.y), 0), HEIGHT))
    spec = make_patch_spec(inside, WIDTH, HEIGHT)
    flags = f"mirror_h={spec.mirror_horizontal!s:5} mirror_v={spec.mirror_vertical!s:5}"
    print(
        f"  {name}: region=({spec.region.x_min:6.0f},{spec.region.y_min:6.0f})"
        f" {spec.region.width:.0f}x{spec.region.height:.0f}  {flags}"
    )

# round trip: patch-local detection back to global coordinates, exactly
p = Point(2101.0, 1444.0)
spec = make_patch_spec(p, WIDTH, HEIGHT)
local = mirror_local(Point(p.x - spec.region.x_min, p.y - spec.region.y_min), spec)
print(f"\nkeypoint {p} -> patch-local {local} -> {refine_keypoint(p, local, spec)}")
