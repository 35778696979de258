import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from teichlab import hyp2
from teichlab.hyp2 import (
    BoundaryPoint, GeodesicLine, Hyp2Error, IsometryMatrix, PlanePoint,
    axis_endpoints, distance, geodesics_link, mobius_apply, mobius_boundary,
    translation_length,
)


def random_isometry(rng):
    # product of a rotation, a translation and another rotation spans PSL(2,R)
    m = hyp2.rotation_at_i(rng.uniform(-math.pi, math.pi))
    m = m @ hyp2.translation_along_imaginary_axis(rng.uniform(-3, 3))
    m = m @ hyp2.rotation_at_i(rng.uniform(-math.pi, math.pi))
    return m


def random_point(rng):
    return PlanePoint(rng.uniform(-5, 5), math.exp(rng.uniform(-3, 3)))


def close(p, q, tol):
    """Boundary points within tol, relative to the larger magnitude."""
    if p.is_infinity or q.is_infinity:
        return p.is_infinity and q.is_infinity
    return abs(p.value - q.value) <= tol * max(1.0, abs(p.value), abs(q.value))


def test_identity_fixes_i():
    p = mobius_apply(IsometryMatrix.identity(), PlanePoint(0, 1))
    assert p.x == 0.0 and p.y == 1.0


def test_axis_scaling():
    m = IsometryMatrix(math.exp(0.5), 0, 0, math.exp(-0.5))
    p = mobius_apply(m, PlanePoint(0, 1))
    assert abs(p.x) < 1e-15
    assert abs(p.y - math.e) < 1e-12


def test_inverse_cancellation():
    rng = random.Random(7)
    for _ in range(200):
        m = random_isometry(rng)
        p = random_point(rng)
        q = mobius_apply(m, mobius_apply(m.inverse(), p))
        assert abs(q.x - p.x) <= 1e-12 * max(1, abs(p.x))
        assert abs(q.y - p.y) <= 1e-12 * max(1, p.y)


def test_group_laws_random_triples():
    rng = random.Random(11)
    for _ in range(1000):
        a, b, c = (random_isometry(rng) for _ in range(3))
        lhs = (a @ b) @ c
        rhs = a @ (b @ c)
        assert lhs.approx_eq(rhs, tol=1e-12)
        assert (a @ IsometryMatrix.identity()).approx_eq(a, tol=1e-12)
        assert abs((a @ a.inverse()).trace - 2.0) < 1e-12


def test_determinant_normalized():
    m = IsometryMatrix(3.0, 1.0, 2.0, 1.0)
    assert abs(m.m11 * m.m22 - m.m12 * m.m21 - 1.0) <= 1e-12


def test_long_chains_renormalize():
    # products are not renormalized: over 400 compositions the determinant
    # may drift only by rounding
    rng = random.Random(3)
    m = IsometryMatrix.identity()
    g = random_isometry(rng)
    for _ in range(200):
        m = m @ g @ g.inverse()
    assert abs(m.m11 * m.m22 - m.m12 * m.m21 - 1.0) <= 1e-10


def test_distance_basics():
    p = PlanePoint(0, 1)
    assert distance(p, p) == 0.0
    assert abs(distance(p, PlanePoint(0, 2)) - math.log(2)) < 1e-14


def test_distance_isometry_invariance():
    rng = random.Random(5)
    for _ in range(300):
        p, q = random_point(rng), random_point(rng)
        m = random_isometry(rng)
        d1 = distance(p, q)
        d2 = distance(mobius_apply(m, p), mobius_apply(m, q))
        assert abs(d1 - d2) <= 1e-11 * max(1.0, d1)


def test_distance_triangle_inequality():
    rng = random.Random(13)
    for _ in range(1000):
        p, q, r = (random_point(rng) for _ in range(3))
        assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-11


def test_translation_length_identity():
    tl = translation_length(IsometryMatrix.identity())
    assert tl.length == 0.0
    assert tl.kind == "parabolic"


def test_translation_length_diagonal():
    m = IsometryMatrix(math.e, 0, 0, 1 / math.e)
    tl = translation_length(m)
    assert tl.kind == "hyperbolic"
    assert abs(tl.length - 2.0) < 1e-12


def test_translation_length_core_holonomy_form():
    # matrix with trace 2 cosh(a/2) translates by a
    a = 0.2
    e = math.acosh(1.0 / a)  # collar height for delta_star = 1
    m = IsometryMatrix(math.cosh(a / 2), -math.exp(e) * math.sinh(a / 2),
                       -math.exp(-e) * math.sinh(a / 2), math.cosh(a / 2))
    tl = translation_length(m)
    assert tl.kind == "hyperbolic"
    assert abs(tl.length - a) < 1e-12


def test_translation_length_power_law():
    rng = random.Random(17)
    for _ in range(50):
        m = hyp2.translation_along_imaginary_axis(rng.uniform(0.1, 2.0))
        g = random_isometry(rng)
        m = g @ m @ g.inverse()
        base = translation_length(m).length
        for n in range(2, 9):
            ln = translation_length(m ** n).length
            assert abs(ln - n * base) <= 1e-10 * n * base


def test_axis_endpoints_diagonal():
    m = IsometryMatrix(math.e, 0, 0, 1 / math.e)
    line = axis_endpoints(m)
    assert line.start.value == 0.0 and line.end.is_infinity


def test_axis_endpoints_equivariance():
    rng = random.Random(19)
    for _ in range(100):
        g = random_isometry(rng)
        m = g @ IsometryMatrix(math.e, 0, 0, 1 / math.e) @ g.inverse()
        line = axis_endpoints(m)
        exp_rep = mobius_boundary(g, BoundaryPoint(0.0))
        exp_att = mobius_boundary(g, BoundaryPoint.inf())
        assert close(line.start, exp_rep, 1e-8)
        assert close(line.end, exp_att, 1e-8)


def test_axis_endpoints_fixed_and_attracting():
    rng = random.Random(23)
    for _ in range(200):
        g = random_isometry(rng)
        m = g @ hyp2.translation_along_imaginary_axis(rng.uniform(0.2, 2)) @ g.inverse()
        line = axis_endpoints(m)
        for e in (line.start, line.end):
            img = mobius_boundary(m, e)
            assert close(img, e, 1e-10) or (e.is_infinity and img.is_infinity)
        # iteration converges to the attracting endpoint
        p = PlanePoint(0.123, 1.0)
        for _ in range(60):
            p = mobius_apply(m, p)
        if not line.end.is_infinity:
            assert abs(p.x - line.end.value) < 1e-5 * max(1, abs(line.end.value))


def test_axis_endpoints_upper_triangular_fixed():
    # c = 0: the finite fixed point of z -> (a z + b) / d is b / (d - a)
    line = axis_endpoints(IsometryMatrix(math.e, 1, 0, 1 / math.e))
    assert line.end.is_infinity
    assert abs(line.start.value + 1 / (math.e - 1 / math.e)) < 1e-15
    rng = random.Random(29)
    for _ in range(100):
        a = math.exp(rng.uniform(-2, 2)) * rng.choice((1, -1))
        if abs(abs(a) - 1) < 0.05:
            continue
        m = IsometryMatrix(a, rng.uniform(-5, 5), 0, 1 / a)
        line = axis_endpoints(m)
        for e in (line.start, line.end):
            img = mobius_boundary(m, e)
            assert close(img, e, 1e-12) or (
                e.is_infinity and img.is_infinity)


def test_axis_endpoints_rejects_non_hyperbolic():
    with pytest.raises(Hyp2Error):
        axis_endpoints(hyp2.rotation_at_i(0.3))


def geodesic(a, b):
    return GeodesicLine(BoundaryPoint(a), BoundaryPoint(b))


def test_linking_basic():
    g1 = GeodesicLine(BoundaryPoint(0.0), BoundaryPoint.inf())
    assert geodesics_link(g1, geodesic(-1, 1))
    assert not geodesics_link(geodesic(0, 1), geodesic(2, 3))
    assert geodesics_link(geodesic(0, 2), geodesic(1, 3))


def test_linking_shared_endpoint_raises():
    with pytest.raises(Hyp2Error):
        geodesics_link(geodesic(0, 1), geodesic(1, 2))


def cross_ratio_sign_oracle(vals):
    """Cross ratio (a-c)(b-d)/((a-d)(b-c)) < 0 iff pairs (a,b),(c,d) link."""
    a, b, c, d = vals
    return ((a - c) * (b - d)) / ((a - d) * (b - c)) < 0


def test_linking_cross_ratio_oracle():
    rng = random.Random(29)
    for _ in range(10000):
        vals = [rng.uniform(-10, 10) for _ in range(4)]
        if min(abs(vals[i] - vals[j]) for i in range(4) for j in range(i + 1, 4)) < 1e-6:
            continue
        g1 = geodesic(vals[0], vals[1])
        g2 = geodesic(vals[2], vals[3])
        assert geodesics_link(g1, g2) == cross_ratio_sign_oracle(vals)
        assert geodesics_link(g1, g2) == geodesics_link(g2, g1)


def test_linking_with_infinity():
    g1 = GeodesicLine(BoundaryPoint(1.0), BoundaryPoint.inf())
    assert geodesics_link(g1, geodesic(0, 2))
    assert not geodesics_link(g1, geodesic(2, 3))
    assert not geodesics_link(g1, geodesic(-3, 0))


@settings(max_examples=200, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50),
       st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_distance_symmetry_property(x1, x2, y1, y2):
    p, q = PlanePoint(x1, y1), PlanePoint(x2, y2)
    assert distance(p, q) == distance(q, p)
    assert distance(p, q) >= 0.0


def test_translation_along_arbitrary_line():
    # conjugate the axis translation by the chart of the line
    line = geodesic(-2.0, 3.0)
    g = hyp2.map_zero_inf_to(line.start, line.end)
    m = g @ hyp2.translation_along_imaginary_axis(0.7) @ g.inverse()
    tl = translation_length(m)
    assert abs(tl.length - 0.7) < 1e-12
    ax = axis_endpoints(m)
    assert close(ax.start, line.start, 1e-9)
    assert close(ax.end, line.end, 1e-9)


def test_foot_parameter_and_point_on_line():
    line = GeodesicLine(BoundaryPoint(0.0), BoundaryPoint.inf())
    p = hyp2.point_on_line(line, 0.9)
    # on the imaginary axis the foot parameter of p is log |p|
    assert abs(p.x) < 1e-12 and abs(p.y - math.exp(0.9)) < 1e-12
    # on another line, pull back by its chart and read log |w|
    other = geodesic(-2.0, 3.0)
    g = hyp2.map_zero_inf_to(other.start, other.end)
    w = mobius_apply(g.inverse(), hyp2.point_on_line(other, 0.9))
    assert abs(w.x) < 1e-12 and abs(math.log(abs(w.z)) - 0.9) < 1e-12
    assert abs(hyp2.distance_to_line(line, p)) < 1e-12
    q = PlanePoint(1.0, 1.0)
    # distance from i+1 to the imaginary axis is arcsinh(1)
    assert abs(hyp2.distance_to_line(line, q) - math.asinh(1.0)) < 1e-12
