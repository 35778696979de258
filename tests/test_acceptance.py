"""Acceptance suite: one test per release criterion.

Each test prints one "CRITERION k: PASS/FAIL" line and then asserts, so
a verbose pytest run shows one line per criterion.  Tolerances and seeds
are pinned here and nowhere else.
"""

import math
import random

import pytest

from teichlab import (combinat, cones, constants, curves, cylinder, pants,
                      surface, thurston)

SEED = 20260823


def _line(k, ok, detail):
    print("CRITERION %d: %s (%s)" % (k, "PASS" if ok else "FAIL", detail))


@pytest.fixture(scope="module")
def dec():
    return surface.builtin_genus2_convenient()


@pytest.fixture(scope="module")
def hexagon_system(dec):
    thick = surface.build_holonomy(dec,
                                   surface.FNCoordinates([0.7, 0.8, 0.9]))
    return combinat.HexagonSystem(thick)


def test_criterion_01_pentagon_hexagon_identities():
    rng = random.Random(SEED)
    worst_res = 0.0
    worst_add = 0.0
    for _ in range(1000):
        shape = pants.PantsShape(*(rng.uniform(0.05, 0.45)
                                   for _ in range(3)))
        for i in (1, 2, 3):
            add, r2, r3 = pants.pentagon_relative_residuals(shape, i)
            worst_add = max(worst_add, add)
            worst_res = max(worst_res, r2, r3)
    ok = worst_res <= 1e-10 and worst_add <= 1e-11
    _line(1, ok, "worst residual %.3g, worst additivity %.3g"
          % (worst_res, worst_add))
    assert ok


def test_criterion_02_holonomy_consistency(dec):
    rng = random.Random(SEED + 1)
    worst_relator = 0.0
    worst_rel = 0.0
    for _ in range(100):
        lengths = [10.0 ** rng.uniform(-4.0, 0.0) for _ in range(3)]
        twists = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        marked = surface.build_holonomy(
            dec, surface.FNCoordinates(lengths, twists))
        worst_relator = max(worst_relator, marked.relator_residual)
        for i, w in enumerate(marked.curve_words):
            got = marked.curve_length(w)
            worst_rel = max(worst_rel, abs(got - lengths[i]) / lengths[i])
    ok = worst_relator <= 1e-9 and worst_rel <= 1e-9
    _line(2, ok, "relator %.3g, length reproduction rel %.3g"
          % (worst_relator, worst_rel))
    assert ok


def test_criterion_03_model_map_optimality():
    rng = random.Random(SEED + 2)
    ok = True
    detail = "forward sup within bound on 20 sets, core attained"
    for i in range(20):
        a1 = rng.uniform(0.05, 0.5)
        a2 = a1 * math.exp(rng.uniform(0.05, 1.0))
        r1 = math.acosh(1.0 / a1)
        r2 = math.acosh(1.0 / a2)
        m = cylinder.ModelMap(a1, r1, a2, r2)
        report = cylinder.sampled_lipschitz(m, 10_000, seed=SEED + i)
        core = cylinder._pair_ratio(m, (0.0, 0.0), (a1 / 2.0, 0.0))
        if report.sampled_sup > (a2 / a1) * (1.0 + 1e-6):
            ok, detail = False, "forward sup exceeded on set %d" % i
        if abs(core - a2 / a1) > 1e-9 * (a2 / a1):
            ok, detail = False, "core pair off on set %d" % i
    # equal boundary lengths: the inverse bound is the height ratio
    a1, r1, r2 = 0.1, 2.0, 1.0
    a2 = a1 * math.cosh(r1) / math.cosh(r2)
    m = cylinder.ModelMap(a1, r1, a2, r2, inverse=True)
    report = cylinder.sampled_lipschitz(m, 10_000, seed=SEED)
    if abs(report.sampled_sup - m.theoretical) > 1e-6 * m.theoretical:
        ok, detail = False, "inverse sup off the height ratio"
    _line(3, ok, detail)
    assert ok


def test_criterion_04_damping():
    # The 0.05 t budget is asymptotic in |log a|.  Near the long boundary
    # the stretch map's log-Lipschitz constant is eps(a) t, eps(a) = D0 / R_a
    # with R_a = arccosh(1/a): 0.101 at a = 1e-4, where the budget is not
    # met (test_damping_reference_point pins that value above it).  The
    # budget holds exactly from a* = 1/cosh(D0 / 0.05) ~ 4.1e-9 on.  So each
    # sample must sit just below the exact constant, the exact constant on
    # the closed form, and the sample on the side of the budget that a*
    # gives; a sampler reading too high or too low fails here.
    d0 = 1.0
    a_star = 1.0 / math.cosh(d0 / 0.05)
    problems = []
    for a in (1e-4, 1e-8, 1e-9, 1e-12):
        for t in (0.25, 0.5, 1.0):
            val = cylinder.damping_profile(a, t, d0, n_samples=400, seed=SEED)
            exact = math.log(cylinder.damping_restriction_constant(a, t, d0))
            closed = t * d0 / math.acosh(1.0 / a)
            where = "a = %g, t = %g" % (a, t)
            if not (1.0 - 1e-3) * exact <= val <= exact * (1.0 + 1e-9):
                problems.append("%s: sampled %.6g off exact %.6g"
                                % (where, val, exact))
            if abs(exact - closed) > 1e-3 * closed:
                problems.append("%s: exact %.6g off t D0 / R_a = %.6g"
                                % (where, exact, closed))
            if (val <= 0.05 * t) != (a <= a_star):
                problems.append("%s: log-Lipschitz %.4g on the wrong side"
                                " of 0.05 t = %.4g" % (where, val, 0.05 * t))
    trend = [cylinder.damping_profile(ai, 0.5, 1.0, n_samples=400,
                                      seed=SEED)
             for ai in (1e-3, 1e-4, 1e-5)]
    if not trend[0] > trend[1] > trend[2]:
        problems.append("trend in |log a| broken")
    ok = not problems
    _line(4, ok, problems[0] if problems else
          "eps %.4g at a = 1e-4, 0.05 t budget from a = %.2g on, trend ok"
          % (d0 / math.acosh(1e4), a_star))
    assert ok, problems


def _chord_line(p, q):
    from teichlab import hyp2
    if abs(p.x - q.x) < 1e-300:
        return hyp2.GeodesicLine(p.x, math.inf)
    c = ((p.x ** 2 + p.y ** 2) - (q.x ** 2 + q.y ** 2)) \
        / (2.0 * (p.x - q.x))
    rho = math.hypot(p.x - c, p.y)
    return hyp2.GeodesicLine(c - rho, c + rho)


def _chord_depth(a, t):
    from teichlab import hyp2
    core = hyp2.GeodesicLine(0.0, math.inf)
    big_r = math.acosh(1.0 / a)
    line = _chord_line(cylinder.lift_point(0.0, big_r),
                       cylinder.lift_point(t * a, big_r))

    def f(s):
        return abs(hyp2.distance_to_line(core,
                                         hyp2.point_on_line(line, s)))

    lo, hi = -50.0, 50.0
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    return big_r - f(0.5 * (lo + hi))


def test_criterion_05_excursion_oracle():
    worst = 0.0
    mono_ok = True
    for a in (1e-2, 1e-3):
        vals = []
        for t in (1.0, 10.0, 1e2, 1e3, 1e4):
            formula = cylinder.excursion_depth(a, t)
            worst = max(worst, abs(formula - _chord_depth(a, t)))
            vals.append(formula)
        mono_ok = mono_ok and all(u <= v for u, v in zip(vals, vals[1:]))
    ok = worst <= 1e-8 and mono_ok
    _line(5, ok, "worst formula-oracle gap %.3g, monotone %s"
          % (worst, mono_ok))
    assert ok


def test_criterion_06_cusp_rotation_bound():
    best = cylinder.cusp_rotation_check(10_000, seed=SEED)
    ok = best <= 2.5
    _line(6, ok, "max basic rotation %.6g <= 2.5" % best)
    assert ok


def _invariance_classes(hexagon_system, max_total):
    # enumeration budget and per-class lift-search cost cap the family
    # well below the spec's word-length bound (ledgered); deterministic:
    # every short class plus a seeded sample of the longest feasible ones
    short = [c for c in curves.enumerate_conj_classes(2, 2)
             if not hexagon_system.excludes(c.word)]
    longer = [c for c in curves.enumerate_conj_classes(2, 3)
              if len(c.word) == 3 and not hexagon_system.excludes(c.word)]
    rng = random.Random(SEED + 7)
    rng.shuffle(longer)
    return (short + longer)[:max_total]


def test_criterion_07_rotation_invariance(dec, hexagon_system):
    classes = _invariance_classes(hexagon_system, 36)
    maps = []
    for lengths in ([0.02, 0.03, 0.025], [0.035, 0.015, 0.04],
                    [0.012, 0.028, 0.02]):
        marked = surface.build_holonomy(dec,
                                        surface.FNCoordinates(lengths))
        per_surface = {}
        for cls in classes:
            seq = combinat.intersection_sequence(marked, cls.word, 12)
            data = combinat.classify_and_rotate(seq)
            per_surface[cls.word] = combinat.combinatorial_rotation(data)
        maps.append(per_surface)
    ok = maps[0] == maps[1] == maps[2]
    _line(7, ok, "%d classes, 3 pinched untwisted surfaces" % len(classes))
    assert ok


def test_criterion_08_distortion(dec, hexagon_system):
    x = surface.build_holonomy(dec,
                               surface.FNCoordinates([1e-6, 5e-5, 1e-5]))
    y = surface.build_holonomy(dec,
                               surface.FNCoordinates([1e-4, 1e-6, 2e-5]))
    short = [c for c in curves.enumerate_conj_classes(2, 3)
             if not hexagon_system.excludes(c.word)]
    longer = [c for c in curves.enumerate_conj_classes(2, 4)
              if len(c.word) == 4 and not hexagon_system.excludes(c.word)]
    rng = random.Random(SEED + 8)
    rng.shuffle(longer)
    classes = short + longer[:20]
    rows = combinat.distortion_check(x, y, classes, C=2.0)
    failures = [r for r in rows if not r["pass"]]
    floor_ok = all(
        r["nonrot_X"] >= constants.B_NONROT * r["i_P"] for r in rows)
    ok = not failures and floor_ok
    _line(8, ok, "%d classes, %d ratio failures, crossing floor %s"
          % (len(rows), len(failures), floor_ok))
    assert ok


def test_criterion_09_noisy_geodesic_certificate(dec):
    base = [-13.0, -12.5, -12.2]
    spec = thurston.random_noisy_spec(base, 1.0, 0, D=5.0, seed=SEED)
    rng = random.Random(SEED + 9)
    pairs = []
    for _ in range(20):
        t1 = rng.uniform(0.0, 0.9)
        t2 = rng.uniform(t1 + 1e-3, 1.0)
        pairs.append((t1, t2))
    family = [c.word for c in curves.enumerate_conj_classes(2, 4)]
    report = thurston.verify_noisy_geodesic(spec, dec, pairs, family)
    # falsification channel: slope-1.5 noise must be caught
    bad_f = thurston.PiecewiseLinearPath(1.0, [(0.0, 0.0), (1.5, 1.5)])
    bad = thurston.NoisyPathSpec(base, None, 1.0, 0, bad_f,
                                 thurston.PiecewiseLinearPath.zero(1.0, 3),
                                 enforce_slopes=False)
    bad_report = thurston.verify_noisy_geodesic(bad, dec, [(0.0, 0.8)],
                                                family)
    ok = report["passed"] and not bad_report["passed"]
    _line(9, ok, "20 pairs passed %s, violation detected %s"
          % (report["passed"], not bad_report["passed"]))
    assert ok


def test_criterion_10_linf_grid(dec):
    family = [c.word for c in curves.enumerate_conj_classes(2, 4)]
    report = thurston.linf_grid_check([-13.0, -12.5, -12.2], 1.0, 1, 5,
                                      family, dec)
    n_pairs = len(report["pairs"])
    ok = report["passed"] and n_pairs == 20
    _line(10, ok, "%d directed pairs, all within rel 1e-9" % n_pairs)
    assert ok


def test_criterion_11_limit_cone(dec):
    base_rows = [[0.8, 0.1, 0.1], [0.15, 0.8, 0.05], [0.1, 0.2, 0.7]]
    family = curves.enumerate_conj_classes(2, 5)

    def build(scale, twists=None):
        return [surface.build_holonomy(
            dec, surface.FNCoordinates(
                [scale * base_rows[i][j] for i in range(3)], twists))
            for j in range(3)]

    report = cones.verify_limit_cone(build(1e-3), family)
    main_ok = (report["containment_rate"] == 1.0
               and report["vertex_attained"])
    twisted = cones.verify_limit_cone(build(1e-3, [1.0, -0.8, 0.6]),
                                      family)
    twist_ok = twisted["containment_rate"] == 1.0
    excesses = [cones.verify_limit_cone(build(s), family)["worst_excess"]
                for s in (1e-2, 1e-3, 1e-4)]
    # excesses at or below 1e-12 are angular zero (all rays strictly
    # inside); the shrinking trend is only meaningful above that floor
    trend_ok = all(b <= a + 1e-12 for a, b in zip(excesses, excesses[1:]))
    ok = main_ok and twist_ok and trend_ok
    _line(11, ok, "%d classes, rate %.3f, twists %s, excess trend %s"
          % (len(family), report["containment_rate"], twist_ok,
             ["%.2g" % e for e in excesses]))
    assert ok


def test_criterion_12_designer_cone_roundtrip(dec):
    rng = random.Random(SEED + 12)
    cone = None
    while cone is None or not cone.interior_ones:
        rows = [[1.0 + rng.uniform(-0.35, 0.35) for _ in range(3)]
                for _ in range(3)]
        try:
            cone = cones.cone_over_hull(rows)
        except cones.ConesError:
            cone = None
    spec = cones.designer_lengths(cone, 3, 1e-3)
    surfaces = [surface.build_holonomy(
        dec, surface.FNCoordinates([spec.rows[i][j] for i in range(3)]))
        for j in range(3)]
    family = curves.enumerate_conj_classes(2, 4)
    report = cones.verify_limit_cone(surfaces, family, tol_angular=1e-2)
    cloud = cones.cone_over_hull([r["direction"] for r in cones.ray_rows(
        surfaces, family, report["cone"], 1e-2)])
    inside = all(cone.angular_excess(v) <= 1e-2
                 for v in cloud.vertex_directions)
    attained = all(
        min(math.acos(min(1.0, cones._dot(v, w)))
            for w in cloud.vertex_directions) <= 1e-2
        for v in cone.vertex_directions)
    ok = (report["containment_rate"] == 1.0 and report["vertex_attained"]
          and inside and attained)
    _line(12, ok, "verify rate %.3f, cloud hull inside %s, "
          "vertices recovered %s"
          % (report["containment_rate"], inside, attained))
    assert ok
