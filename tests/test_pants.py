import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from teichlab import hyp2, pants
from teichlab.hyp2 import BoundaryPoint, GeodesicLine
from teichlab.pants import PantsError, PantsShape


def pentagon_system_newton(a1, a2, a3):
    """Independent 2-D Newton solve of the raw pentagon identities."""
    u = a1 / 2.0
    t = math.asinh(math.cosh(a2) / math.sinh(u))
    for _ in range(60):
        f1 = math.sinh(u) * math.sinh(t) - math.cosh(a2)
        f2 = math.sinh(a1 - u) * math.sinh(t) - math.cosh(a3)
        j11 = math.cosh(u) * math.sinh(t)
        j12 = math.sinh(u) * math.cosh(t)
        j21 = -math.cosh(a1 - u) * math.sinh(t)
        j22 = math.sinh(a1 - u) * math.cosh(t)
        det = j11 * j22 - j12 * j21
        du = (f1 * j22 - f2 * j12) / det
        dt = (j11 * f2 - j21 * f1) / det
        u, t = u - du, t - dt
        if abs(du) + abs(dt) < 1e-15:
            break
    return u, a1 - u, t


def test_pentagon_equilateral_symmetry():
    shape = PantsShape(0.3, 0.3, 0.3)
    a_k, a_l, _ = pants.solve_pentagon_split(shape, 1)
    assert abs(a_k - 0.15) < 1e-13
    assert abs(a_l - 0.15) < 1e-13


def test_pentagon_residuals_random():
    rng = random.Random(101)
    for _ in range(300):
        a = [rng.uniform(1e-3, 0.4) for _ in range(3)]
        shape = PantsShape(*a)
        for i in (1, 2, 3):
            a_k, a_l, t = pants.solve_pentagon_split(shape, i)
            r0, r1, r2 = pants.pentagon_residuals(
                a_k, a_l, t, a[i - 1], a[i % 3], a[(i + 1) % 3])
            assert abs(r0) <= 1e-11
            assert abs(r1) <= 1e-10
            assert abs(r2) <= 1e-10


def test_pentagon_matches_2d_newton_oracle():
    shape = PantsShape(0.1, 0.2, 0.3)
    a_k, a_l, t = pants.solve_pentagon_split(shape, 1)
    ok, ol, ot = pentagon_system_newton(0.1, 0.2, 0.3)
    assert abs(a_k - ok) < 1e-12
    assert abs(a_l - ol) < 1e-12
    assert abs(t - ot) < 1e-11


def test_pentagon_split_matches_60_digit_reference():
    # half-lengths log-uniform over [1e-12, 30]; the reference is the
    # atanh form of the elimination, evaluated at 60 digits
    rng = random.Random(2512)
    for _ in range(200):
        shape = PantsShape(*(math.exp(rng.uniform(math.log(1e-12),
                                                  math.log(30.0)))
                             for _ in range(3)))
        for i in (1, 2, 3):
            a_k, a_l, t = pants.solve_pentagon_split(shape, i)
            with mpmath.workdps(60):
                a1, a2, a3 = (mpmath.mpf(v) for v in pants._cyclic(shape, i))
                ref_k = mpmath.atanh(
                    mpmath.sinh(a1) * mpmath.cosh(a2)
                    / (mpmath.cosh(a3) + mpmath.cosh(a1) * mpmath.cosh(a2)))
                ref_l = a1 - ref_k
                ref_t = mpmath.asinh(mpmath.cosh(a2) / mpmath.sinh(ref_k))
                for got, want in ((a_k, ref_k), (a_l, ref_l), (t, ref_t)):
                    assert abs(got - want) <= 1e-14 * want, (shape, i)


def test_pentagon_split_far_outside_criterion_range():
    # cosh 70 ~ 1e30: the identities hold to relative, not absolute, 1e-14
    shape = PantsShape(70.0, 0.2, 0.3)
    for i in (1, 2, 3):
        a_k, a_l, t = pants.solve_pentagon_split(shape, i)
        a1, a2, a3 = pants._cyclic(shape, i)
        add, r1, r2 = pants.pentagon_residuals(a_k, a_l, t, a1, a2, a3)
        assert abs(add) <= 1e-14 * a1
        assert abs(r1) <= 1e-14 * math.cosh(a2)
        assert abs(r2) <= 1e-14 * math.cosh(a3)


def test_pentagon_rejects_bad_shape():
    with pytest.raises(PantsError):
        PantsShape(0.0, 0.1, 0.1)
    with pytest.raises(PantsError):
        PantsShape(0.1, -0.1, 0.1)


def test_seam_lengths_equilateral():
    c = pants.seam_lengths(PantsShape(0.2, 0.2, 0.2))
    assert abs(c[0] - c[1]) < 1e-13 and abs(c[1] - c[2]) < 1e-13


def test_seam_lengths_classical_hexagon_law():
    a1, a2, a3 = 0.1, 0.2, 0.3
    c = pants.seam_lengths(PantsShape(a1, a2, a3))
    rhs = (math.cosh(a1) + math.cosh(a2) * math.cosh(a3)) / (
        math.sinh(a2) * math.sinh(a3))
    assert abs(math.cosh(c[0]) - rhs) < 1e-12 * rhs


def test_seam_lengths_blow_up_as_a_shrinks():
    vals = [pants.seam_lengths(PantsShape(s, s, s))[0]
            for s in (0.4, 0.2, 0.1, 0.05, 0.01)]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def test_shorts_subtraction_vs_stable():
    shape = PantsShape(0.05, 0.05, 0.1)
    stable = pants.shorts_side_lengths(shape)
    naive = pants.shorts_side_lengths_subtraction(shape)
    for s, n in zip(stable, naive):
        assert abs(s - n) < 1e-9


def test_shorts_equilateral():
    c = pants.shorts_side_lengths(PantsShape(0.1, 0.1, 0.1))
    assert abs(c[0] - c[1]) < 1e-13 and abs(c[1] - c[2]) < 1e-13


def test_shorts_cauchy_convergence():
    # c(s) is analytic at 0 with slope ~0.024, so successive differences
    # shrink linearly in s; they cross 1e-6 by the last pair
    seq = [pants.shorts_side_lengths(PantsShape(s, s, s))
           for s in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
    gaps = [max(abs(p - c) for p, c in zip(prev, cur))
            for prev, cur in zip(seq, seq[1:])]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6


def test_shorts_stable_branch_across_extreme_pinching():
    vals = [pants.shorts_side_lengths(PantsShape(s, s, s))[0]
            for s in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4)]
    assert all(math.isfinite(v) for v in vals)
    assert max(vals) - min(vals) < 1e-4


def test_shorts_requires_small_boundaries():
    with pytest.raises(PantsError):
        pants.shorts_side_lengths(PantsShape(0.6, 0.1, 0.1))


def test_collar_height():
    assert pants.collar_height(1.0, 1.0) == 0.0
    assert abs(pants.collar_height(0.1, 1.0) - math.acosh(10.0)) < 1e-14
    with pytest.raises(PantsError):
        pants.collar_height(0.0, 1.0)
    with pytest.raises(PantsError):
        pants.collar_height(1.5, 1.0)
    heights = [pants.collar_height(a, 1.0) for a in (0.01, 0.1, 0.5, 0.9)]
    assert all(h1 > h2 for h1, h2 in zip(heights, heights[1:]))


def test_offset_length_zero_t():
    assert abs(pants.offset_length(1.0, 0.0, 0.3) - 1.0) < 1e-15


def test_offset_length_branches_agree():
    rng = random.Random(7)
    for _ in range(10000):
        delta = rng.uniform(0.2, 2.0)
        x = rng.uniform(1e-6, delta * 0.999)
        t = rng.uniform(0.0, 3.0)
        v1 = pants.offset_length(delta, t, x)
        v2 = pants.offset_length_expansion(delta, t, x)
        assert abs(v1 - v2) <= 1e-10 * max(1.0, v1)


def test_offset_length_small_x_limit():
    t = 0.7
    v = pants.offset_length_expansion(1.0, t, 1e-9)
    assert abs(v - math.exp(t)) < 1e-8


def test_offset_length_domain():
    with pytest.raises(PantsError):
        pants.offset_length(1.0, 0.5, 1.5)


def test_core_holonomy_trace_identity():
    for a in [0.0, 1e-8, 1e-4, 0.05, 0.1, 0.3, 0.5]:
        m = pants.core_holonomy(a, 1.0)
        assert abs(m.trace - 2.0 * math.cosh(a / 2.0)) <= 1e-12


def test_core_holonomy_cusp_is_parabolic():
    m = pants.core_holonomy(0.0, 0.7)
    tl = hyp2.translation_length(m)
    assert tl.kind == "parabolic" and tl.length == 0.0
    assert abs(abs(m.m12) - 0.7) < 1e-15


def test_core_holonomy_rejects_large_delta():
    with pytest.raises(PantsError):
        pants.core_holonomy(0.1, 1.5)


def test_core_holonomy_translation_length():
    for a in (0.1, 0.2):
        tl = hyp2.translation_length(pants.core_holonomy(a, 1.0))
        assert tl.kind == "hyperbolic"
        assert abs(tl.length - a) < 1e-12


def test_hypercycle_constant_distance_from_axis():
    a, d = 0.1, 1.0
    r = math.acosh(d / a)
    line = GeodesicLine(BoundaryPoint(-math.exp(r)), BoundaryPoint(math.exp(r)))
    dists = [hyp2.distance_to_line(line, pants.hypercycle_point(a, t, d))
             for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
    for v in dists:
        assert abs(v - r) < 1e-10


def test_hypercycle_point_basics():
    q = pants.hypercycle_point(0.3, 0.0)
    assert q.x == 0.0 and q.y == 1.0
    for t in (0.2, 0.5, 0.9):
        q = pants.hypercycle_point(0.0, t)
        assert abs(q.y - 1.0) < 1e-15
        assert abs(q.x - t) < 1e-15
    with pytest.raises(PantsError):
        pants.hypercycle_point(0.1, 1.5)


def test_hypercycle_arclength_oracle():
    a, t, n = 0.05, 0.5, 10000
    total = 0.0
    prev = pants.hypercycle_point(a, 0.0)
    for k in range(1, n + 1):
        cur = pants.hypercycle_point(a, t * k / n)
        total += hyp2.distance(prev, cur)
        prev = cur
    assert abs(total - t) < 1e-8


def test_embed_first_vertex_is_i():
    for shape in (PantsShape(0.1, 0.13, 0.17), PantsShape(0.05, 0.05, 0.05)):
        corners = pants.embed_hexagon_boundary(shape)
        p, tag = corners[0]
        assert tag == "zeta3"
        assert abs(p.x) < 1e-14 and abs(p.y - 1.0) < 1e-14


def test_embed_side_lengths_match_hexagon_data():
    shape = PantsShape(0.1, 0.13, 0.17)
    data = pants.hexagon_data(shape)
    corners = pants.embed_hexagon_boundary(shape)
    expected_geodesic = {"zeta1": data.shorts_lengths[0],
                         "zeta2": data.shorts_lengths[1],
                         "zeta3": data.shorts_lengths[2]}
    pts = [p for p, _ in corners]
    tags = [t for _, t in corners]
    for k, tag in enumerate(tags):
        q = pts[(k + 1) % 6]
        if tag.startswith("zeta"):
            assert abs(hyp2.distance(pts[k], q) - expected_geodesic[tag]) < 1e-8


def test_embed_hypercycle_sides_have_arc_length_half_delta():
    shape = PantsShape(0.1, 0.13, 0.17)
    n = 64
    pts = pants.boundary_path_points(shape, per_side=n)
    pts.append(pts[0])
    for side in range(6):
        arc = sum(hyp2.distance(pts[side * n + k], pts[side * n + k + 1])
                  for k in range(n))
        # refined polygonal length underestimates by O(1/n^2)
        tag = ["zeta3", "beta2", "zeta1", "beta3", "zeta2", "beta1"][side]
        if tag.startswith("beta"):
            assert abs(arc - shape.delta_star / 2.0) < 1e-4


def test_embed_closes_up():
    shape = PantsShape(0.08, 0.11, 0.14)
    frames = pants._boundary_frames(shape)
    g, _ = frames[0]
    # walk one more side from the last frame and compare with the start
    data = pants.hexagon_data(shape)
    last_g, last_tag = frames[-1]
    assert last_tag == "beta1"
    h = pants._hypercycle_step(shape.delta_star / 2.0,
                               math.acosh(shape.delta_star / (2 * shape.a1)),
                               "right")
    closed = last_g @ h @ hyp2.rotation_at_i(math.pi / 2.0)
    assert closed.approx_eq(g, tol=1e-10)


def test_embeddings_similar_drift_bound():
    from teichlab import constants
    t = 0.01
    a = (0.03, 0.04, 0.05)
    shape = PantsShape(*a)
    shape2 = PantsShape(*(x * math.exp(t) for x in a))
    p1 = pants.boundary_path_points(shape, per_side=12)
    p2 = pants.boundary_path_points(shape2, per_side=12)
    worst = max(hyp2.distance(u, v) for u, v in zip(p1, p2))
    assert worst <= constants.K_EMBEDDING_DRIFT * t


@settings(max_examples=150, deadline=None)
@given(st.floats(0.01, 0.4), st.floats(0.01, 0.4), st.floats(0.01, 0.4))
def test_pentagon_split_properties(a1, a2, a3):
    shape = PantsShape(a1, a2, a3)
    a_k, a_l, t = pants.solve_pentagon_split(shape, 1)
    assert 0 < a_k < a1
    assert abs(a_k + a_l - a1) <= 1e-11
    assert abs(math.sinh(a_k) * math.sinh(t) - math.cosh(a2)) <= 1e-10
