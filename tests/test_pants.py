import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from teichlab import pants
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
    stable = pants.hexagon_data(shape).shorts_lengths
    naive = pants.shorts_side_lengths_subtraction(shape)
    for s, n in zip(stable, naive):
        assert abs(s - n) < 1e-9


def test_shorts_equilateral():
    c = pants.hexagon_data(PantsShape(0.1, 0.1, 0.1)).shorts_lengths
    assert abs(c[0] - c[1]) < 1e-13 and abs(c[1] - c[2]) < 1e-13


def test_shorts_cauchy_convergence():
    # c(s) is analytic at 0 with slope ~0.024, so successive differences
    # shrink linearly in s; they cross 1e-6 by the last pair
    seq = [pants.hexagon_data(PantsShape(s, s, s)).shorts_lengths
           for s in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)]
    gaps = [max(abs(p - c) for p, c in zip(prev, cur))
            for prev, cur in zip(seq, seq[1:])]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6


def test_shorts_stable_branch_across_extreme_pinching():
    vals = [pants.hexagon_data(PantsShape(s, s, s)).shorts_lengths[0]
            for s in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4)]
    assert all(math.isfinite(v) for v in vals)
    assert max(vals) - min(vals) < 1e-4


def test_shorts_requires_small_boundaries():
    with pytest.raises(PantsError):
        pants.hexagon_data(PantsShape(0.6, 0.1, 0.1))


@settings(max_examples=150, deadline=None)
@given(st.floats(0.01, 0.4), st.floats(0.01, 0.4), st.floats(0.01, 0.4))
def test_pentagon_split_properties(a1, a2, a3):
    shape = PantsShape(a1, a2, a3)
    a_k, a_l, t = pants.solve_pentagon_split(shape, 1)
    assert 0 < a_k < a1
    assert abs(a_k + a_l - a1) <= 1e-11
    assert abs(math.sinh(a_k) * math.sinh(t) - math.cosh(a2)) <= 1e-10
