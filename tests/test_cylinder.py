import csv
import io
import math

import numpy as np
import pytest

from teichlab import constants, cylinder, hyp2
from teichlab.cylinder import (
    CylinderError, ModelMap, cusp_rotation_check, damping_profile,
    damping_restriction_constant, excursion_depth, lift_point,
    ratio_residue_check, sampled_lipschitz, spiral_residue,
)

CORE_LINE = hyp2.GeodesicLine(hyp2.BoundaryPoint(0.0), hyp2.BoundaryPoint.inf())


def chord_line(p, q):
    """Geodesic through two interior points, as a boundary-endpoint pair."""
    if abs(p.x - q.x) < 1e-300:
        return hyp2.GeodesicLine(hyp2.BoundaryPoint(p.x), hyp2.BoundaryPoint.inf())
    c = ((p.x ** 2 + p.y ** 2) - (q.x ** 2 + q.y ** 2)) / (2.0 * (p.x - q.x))
    rho = math.hypot(p.x - c, p.y)
    return hyp2.GeodesicLine(hyp2.BoundaryPoint(c - rho), hyp2.BoundaryPoint(c + rho))


def min_distance_to_core(line, lo, hi):
    """Ternary search of |distance to the imaginary axis| along a geodesic."""
    def f(s):
        return abs(hyp2.distance_to_line(CORE_LINE, hyp2.point_on_line(line, s)))
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    return f(0.5 * (lo + hi))


# --- cut cylinders -------------------------------------------------------------

def test_lift_point_is_isometric_on_core():
    # core arcs: Fermi s-difference equals hyperbolic distance
    assert hyp2.distance(lift_point(0.0, 0.0), lift_point(0.7, 0.0)) == \
        pytest.approx(0.7, rel=1e-14)
    # vertical segments: r-difference equals distance along a radial line
    assert hyp2.distance(lift_point(0.3, 0.2), lift_point(0.3, 1.1)) == \
        pytest.approx(0.9, rel=1e-12)
    # hypercycle at signed distance r lies at distance |r| from the core
    for r in (0.5, -1.2, 2.0):
        d = hyp2.distance_to_line(CORE_LINE, lift_point(0.4, r))
        assert abs(abs(d) - abs(r)) < 1e-12


def test_fermi_distance_matches_lifted_points():
    rng = np.random.default_rng(12)
    for _ in range(200):
        p, q = rng.uniform((-1.0, -3.0), (1.0, 3.0), size=(2, 2))
        lifted = hyp2.distance(lift_point(*p), lift_point(*q))
        assert cylinder._fermi_distance(p, q) == pytest.approx(lifted,
                                                               rel=1e-10)


# --- model maps ----------------------------------------------------------------

def test_model_map_eval_values():
    m = ModelMap(0.5, 2.0, 1.0, 1.5)
    assert m.apply((0.25, 1.0)) == pytest.approx((0.5, 0.75), rel=1e-15)
    assert m.forward_constant == pytest.approx(2.0, rel=1e-15)
    assert m.inverse_constant == pytest.approx(
        max(2.0 / 1.5, 0.5 * math.cosh(2.0) / (1.0 * math.cosh(1.5))), rel=1e-15)


def test_model_map_eval_domain_errors():
    with pytest.raises(CylinderError):
        ModelMap(1.0, 2.0, 0.5, 1.5)   # shrinking core
    with pytest.raises(CylinderError):
        ModelMap(0.5, 1.5, 1.0, 2.0)   # growing height
    with pytest.raises(CylinderError):
        ModelMap(0.0, 2.0, 1.0, 1.5)   # degenerate core
    with pytest.raises(CylinderError):
        ModelMap(0.5, 2.0, 1.0, 0.0)   # degenerate height


def test_identity_map_sampled_sup_is_one():
    m = ModelMap(1.0, 1.0, 1.0, 1.0)
    report = sampled_lipschitz(m, 500, seed=7)
    assert abs(report.sampled_sup - 1.0) < 1e-12
    assert report.theoretical == 1.0


def test_core_pair_attains_forward_constant():
    m = ModelMap(0.5, 2.0, 1.0, 1.5)
    report = sampled_lipschitz(m, 200, seed=3)
    assert report.sampled_sup >= 2.0 - 1e-9
    assert report.sampled_sup <= 2.0 * (1 + 1e-6)


def test_forward_sup_never_exceeds_theoretical():
    for (a1, R1, a2, R2), seed in [((0.3, 2.5, 0.9, 1.0), 1),
                                   ((1e-3, 7.6, 5e-3, 6.0), 2),
                                   ((0.7, 1.2, 0.7, 1.2), 3)]:
        m = ModelMap(a1, R1, a2, R2)
        report = sampled_lipschitz(m, 10_000, seed=seed)
        assert report.sampled_sup <= m.forward_constant * (1 + 1e-6)


def test_inverse_equal_boundary_lengths_bounded_by_height_ratio():
    # a1 cosh R1 = a2 cosh R2 makes the height term R1/R2 the binding one
    a1, R1, R2 = 0.1, 2.0, 1.0
    a2 = a1 * math.cosh(R1) / math.cosh(R2)
    m = ModelMap(a1, R1, a2, R2, inverse=True)
    assert m.theoretical == pytest.approx(R1 / R2, rel=1e-12)
    report = sampled_lipschitz(m, 100_000, seed=11)
    assert report.sampled_sup <= (R1 / R2) * (1 + 1e-6)


def test_degenerate_pairs_skipped():
    m = ModelMap(0.5, 2.0, 1.0, 1.5)
    assert cylinder._pair_ratio(m, (0.2, 0.3), (0.2, 0.3)) is None
    report = sampled_lipschitz(m, 50, seed=5)


def test_lipschitz_csv_row():
    m = ModelMap(0.5, 2.0, 1.0, 1.5)
    report = sampled_lipschitz(m, 100, seed=1)
    header = cylinder.LIPSCHITZ_CSV_HEADER.split(",")
    row = next(csv.reader(io.StringIO(cylinder.lipschitz_csv_row(m, report))))
    assert len(header) == len(row) == 10
    assert float(row[4]) == pytest.approx(report.theoretical, rel=1e-15)
    assert float(row[5]) == pytest.approx(report.sampled_sup, rel=1e-15)


# --- damping -------------------------------------------------------------------

def test_damping_zero_time_is_exactly_zero():
    assert damping_profile(1e-3, 0.0, 1.0) == 0.0


def test_damping_neighborhood_too_deep():
    with pytest.raises(CylinderError):
        damping_profile(0.5, 0.1, 5.0)


def test_damping_reference_point():
    # a = 1e-4, D0 = 1, t = 0.5: the restriction constant evaluates to
    # exp(0.101 t), so the epsilon realized at this pinching is 0.101,
    # not yet below the asymptotic 0.05 band
    exact = math.log(damping_restriction_constant(1e-4, 0.5, 1.0))
    assert exact == pytest.approx(0.0504, abs=2e-3)
    assert exact > 0.05 * 0.5
    sampled = damping_profile(1e-4, 0.5, 1.0, n_samples=800, seed=2)
    assert 0.9 * exact <= sampled <= exact * (1 + 1e-3)


def test_damping_epsilon_band_at_extreme_pinching():
    # the epsilon in the restriction bound decays like D0 / R_a, so the
    # 0.05-per-unit-time band is reached around a = 1e-9
    val = math.log(damping_restriction_constant(1e-9, 0.5, 1.0))
    assert val <= 0.05 * 0.5


def test_damping_sampled_just_below_exact_at_extreme_pinching():
    # the period a is far below the rounding of lifted points here, so pair
    # distances must come from the Fermi coordinates themselves; at 1e-200,
    # s a2 underflows unless the map scales s by the ratio a2 / a1
    for a in (1e-10, 1e-12, 1e-200):
        for t in (0.25, 0.5, 1.0):
            exact = math.log(damping_restriction_constant(a, t, 1.0))
            assert 0.999 * exact <= damping_profile(a, t, 1.0) \
                <= exact * (1 + 1e-9)


def test_fermi_distance_at_float_range_pinching():
    # cosh R is 1e200 here, so cosh r1 cosh r2 overflows if formed whole
    a = 1e-200
    R = math.acosh(1.0 / a)
    # two boundary points a/2 apart: sinh(d/2) = cosh R sinh(a/4) = 1/4
    assert cylinder._fermi_distance((0.0, R), (a / 2, R)) == pytest.approx(
        2 * math.asinh(0.25), rel=1e-12)


def test_damping_decreasing_in_pinching():
    v6 = damping_profile(1e-6, 0.4, 1.0, n_samples=400, seed=4)
    v3 = damping_profile(1e-3, 0.4, 1.0, n_samples=400, seed=4)
    assert v6 <= v3
    assert v6 >= 0.0


def test_damping_negative_time_nonnegative():
    assert damping_profile(1e-3, -0.5, 1.0, n_samples=200, seed=6) >= 0.0


# --- height ratio and twisting -------------------------------------------------

# --- excursion depth -----------------------------------------------------------

def test_excursion_limits():
    a = 0.01
    R = math.acosh(1.0 / a)
    assert abs(excursion_depth(a, 0.0)) < 1e-9
    assert excursion_depth(a, 1e12) == pytest.approx(R, rel=1e-12)
    with pytest.raises(CylinderError):
        excursion_depth(a, -1.0)


def test_excursion_monotone_in_t():
    for a in (1e-1, 1e-3, 1e-5):
        ts = [10.0 ** k for k in range(0, 9)]
        vals = [excursion_depth(a, t) for t in ts]
        assert all(u <= v + 1e-15 for u, v in zip(vals, vals[1:]))


def test_excursion_matches_chord_oracle():
    # deepest point of the geodesic chord between boundary lifts spaced ta
    # apart; the half-base convention is what the oracle certifies
    for a, t in [(0.01, 100.0), (0.01, 30.0), (0.1, 5.0), (1e-3, 2000.0)]:
        R = math.acosh(1.0 / a)
        p = lift_point(0.0, R)
        q = lift_point(t * a, R)
        line = chord_line(p, q)
        closest = min_distance_to_core(line, -50.0, 50.0)
        assert abs(excursion_depth(a, t) - (R - closest)) < 1e-8


def test_excursion_log_window_bound():
    delta_h = math.log(1 + math.sqrt(2))
    for a in (1e-2, 1e-4, 1e-6):
        hi = 4 * delta_h / a + 20
        for k in range(13):
            t = math.exp(math.log(1.0) + k * (math.log(hi) - 0.0) / 12)
            assert abs(excursion_depth(a, t) - math.log(t)) \
                <= constants.C_EXCURSION_LOG


# --- spiral residue ------------------------------------------------------------

def test_noncrossing_residue_matches_direct_chord():
    for a, t in [(0.01, 100.0), (0.05, 50.0), (1e-3, 5000.0)]:
        x0 = math.sqrt(1 - a * a)
        p = hyp2.PlanePoint(x0, a)
        q = hyp2.PlanePoint(x0 * math.exp(t * a), a * math.exp(t * a))
        direct = hyp2.distance(p, q) - t * a
        assert abs(spiral_residue(a, t) - direct) < 1e-10


def test_residue_vs_double_excursion():
    for a in (1e-1, 1e-2, 1e-4, 1e-6):
        for t in (1.0, 10.0, 1e3, 1e6, 1e8):
            gap = abs(2 * excursion_depth(a, t) - spiral_residue(a, t))
            assert gap <= constants.C_EXCURSION_RESIDUE


def test_residue_vs_two_log_t_midrange():
    for a in (1e-2, 1e-3):
        for t in (10.0, 1e2, 1e3):
            assert abs(spiral_residue(a, t) - 2 * math.log(t)) \
                <= constants.C_RESIDUE_LOG


# --- residue ratio -------------------------------------------------------------

def test_ratio_trivial_equal_inputs():
    ok, report = ratio_residue_check(1e-4, 1e-4, 200.0, 200.0)
    assert ok and report["ratio"] == pytest.approx(1.0, rel=1e-15)


def test_ratio_approaches_log_quotient():
    ok, report = ratio_residue_check(1e-6, 1e-3, 1e7, 1e7)
    assert ok
    assert report["ratio"] == pytest.approx(2.0, abs=0.15)
    assert report["upper"] == pytest.approx(3.0, rel=1e-12)


def test_ratio_precondition_errors():
    with pytest.raises(CylinderError):
        ratio_residue_check(1e-3, 1e-6, 200.0, 200.0)   # a1 > a2
    with pytest.raises(CylinderError):
        ratio_residue_check(1e-6, 1e-3, 50.0, 50.0)     # below threshold
    with pytest.raises(CylinderError):
        ratio_residue_check(1e-6, 1e-3, 200.0, 300.0)   # window exceeded


def test_ratio_grid_sweep_passes():
    grid = [1e-3, 1e-4, 1e-5, 1e-6]
    fails = []
    for a1 in grid:
        for a2 in grid:
            if a1 > a2:
                continue
            for t in (150.0, 1e3, 1e4, 1e5, 1e6):
                ok, report = ratio_residue_check(a1, a2, t, t)
                if not ok:
                    fails.append(report)
    assert fails == []


# --- cusp rotation -------------------------------------------------------------

def test_cusp_rotation_sharp_bound():
    best = cusp_rotation_check(10_000, seed=9)
    assert 2.0 <= best <= constants.CUSP_ROTATION_BOUND


def test_tangent_semicircle_rotation():
    assert cylinder.segment_rotation(1.0) == pytest.approx(2.0, rel=1e-15)


def test_high_segment_rotation_near_zero():
    # a huge semicircle only grazes the region below the horocycle
    assert cylinder.segment_rotation(50.0) < 0.02
    with pytest.raises(CylinderError):
        cylinder.segment_rotation(0.0)
