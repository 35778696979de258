import itertools
import json
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from teichlab import cones, curves, surface


@pytest.fixture(scope="module")
def dec():
    return surface.builtin_genus2_convenient()


@pytest.fixture(scope="module")
def pinched_pair(dec):
    x = surface.build_holonomy(dec, surface.FNCoordinates([1e-3, 2e-4, 5e-4]))
    y = surface.build_holonomy(dec, surface.FNCoordinates([3e-4, 1.5e-3,
                                                           2e-4]))
    return [x, y]


@pytest.fixture(scope="module")
def pinched_triple(dec):
    rows = [[1e-3, 2e-4, 3e-4], [2e-4, 1.2e-3, 2.5e-4],
            [3e-4, 2e-4, 1.5e-3]]
    return [surface.build_holonomy(
        dec, surface.FNCoordinates([rows[i][j] for i in range(3)]))
        for j in range(3)]


# --- Jordan projections --------------------------------------------------------


def test_pants_curve_projection_matches_lengths(pinched_pair):
    for i, w in enumerate(pinched_pair[0].curve_words):
        lam = cones.jordan_projection(pinched_pair, w)
        for s, v in zip(pinched_pair, lam.components):
            assert v == pytest.approx(s.coords.lengths[i], rel=1e-9)


def test_jordan_power_law(pinched_pair):
    one = cones.jordan_projection(pinched_pair, "cd")
    two = cones.jordan_projection(pinched_pair, "cdcd")
    for a, b in zip(one.components, two.components):
        assert b == pytest.approx(2 * a, rel=1e-9)


def test_jordan_conjugation_invariance(pinched_pair):
    lam = cones.jordan_projection(pinched_pair, "cd")
    conj = cones.jordan_projection(pinched_pair, "Acda")
    for a, b in zip(lam.components, conj.components):
        assert b == pytest.approx(a, rel=1e-9)


def test_jordan_error_names_factor(pinched_pair):
    with pytest.raises(cones.ConesError, match="factor 1"):
        cones.jordan_projection(pinched_pair, "aA")


# --- cone spec and hull construction -------------------------------------------


def test_spec_validation():
    with pytest.raises(cones.ConesError, match="ragged"):
        cones.ConeSpecL([[0.1, 0.2], [0.1]])
    with pytest.raises(cones.ConesError, match="in \\(0, 1\\)"):
        cones.ConeSpecL([[0.5, 1.5]])
    with pytest.raises(cones.ConesError, match="in \\(0, 1\\)"):
        cones.ConeSpecL([[0.5, -0.1]])


def test_two_factor_cone_min_max_slope():
    cone = cones.cone_over_hull([[1.0, 0.25], [0.5, 1.0], [1.0, 1.0]])
    assert len(cone.vertex_directions) == 2
    slopes = sorted(v[1] / v[0] for v in cone.vertex_directions)
    assert slopes[0] == pytest.approx(0.25)
    assert slopes[1] == pytest.approx(2.0)
    assert cone.interior_ones
    assert cone.contains((1.0, 1.0))
    assert not cone.contains((1.0, 0.1))


def test_redundant_row_absorbed():
    rows = [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9],
            [0.3, 0.3, 0.3]]
    cone = cones.cone_over_hull(rows)
    assert len(cone.vertex_directions) == 3
    interior = cones._unit((0.3, 0.3, 0.3))
    for v in cone.vertex_directions:
        assert max(abs(a - b) for a, b in zip(v, interior)) > 1e-6


def test_degenerate_span_errors():
    with pytest.raises(cones.ConesError, match="empty interior"):
        cones.cone_over_hull([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2],
                              [0.3, 0.3, 0.3]])
    with pytest.raises(cones.ConesError, match="empty interior"):
        cones.cone_over_hull([[0.1, 0.2, 0.3, 0.4], [0.2, 0.4, 0.6, 0.8],
                              [0.05, 0.1, 0.15, 0.2],
                              [0.3, 0.6, 0.9, 0.85]])


def test_unsupported_dimension():
    with pytest.raises(cones.ConesError, match="at least 2 factors"):
        cones.cone_over_hull([[0.1], [0.2]])
    simplex = [[0.9 if i == j else 0.1 for j in range(5)] for i in range(5)]
    cone = cones.cone_over_hull(simplex)
    assert len(cone.vertex_directions) == 5
    assert len(cone.facet_normals) == 5
    assert cone.interior_ones
    with pytest.raises(cones.ConesError, match="empty interior"):
        cones.cone_over_hull([[0.1] * 5, [0.2] * 5])


def test_vertices_on_facets():
    # each extreme ray lies on at least n - 1 supporting hyperplanes
    for rows, n in (
            ([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]], 3),
            ([[0.9, 0.1, 0.1, 0.1], [0.1, 0.9, 0.1, 0.1],
              [0.1, 0.1, 0.9, 0.1], [0.1, 0.1, 0.1, 0.9]], 4)):
        cone = cones.cone_over_hull(rows)
        for v in cone.vertex_directions:
            tight = sum(1 for f in cone.facet_normals
                        if abs(cones._dot(f, v)) < 1e-10)
            assert tight >= n - 1


def _oracle_hull_vertices(rows):
    """Extreme rows by exhaustive pairwise facet enumeration (n = 3)."""
    pts = [tuple(v / sum(r) for v in r) for r in rows]
    planar = [(p[0] - p[2], p[1] - p[2]) for p in pts]
    k = len(planar)
    extreme = set()
    facets = []
    for i in range(k):
        for j in range(i + 1, k):
            ax, ay = planar[i]
            bx, by = planar[j]
            nx, ny = by - ay, ax - bx
            off = nx * ax + ny * ay
            signs = [nx * planar[m][0] + ny * planar[m][1] - off
                     for m in range(k) if m not in (i, j)]
            if all(s >= -1e-12 for s in signs) or all(
                    s <= 1e-12 for s in signs):
                extreme.update((i, j))
                facets.append((i, j))
    return extreme, facets, planar


def test_hull_matches_bruteforce_oracle():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[rng.uniform(0.05, 0.95) for _ in range(3)]
                for _ in range(5)]
        extreme, _, _ = _oracle_hull_vertices(rows)
        try:
            cone = cones.cone_over_hull(rows)
        except cones.ConesError:
            continue
        dirs = {tuple(round(x, 9) for x in cones._unit(rows[i]))
                for i in extreme}
        got = {tuple(round(x, 9) for x in v)
               for v in cone.vertex_directions}
        assert got == dirs


def test_membership_matches_bruteforce_oracle():
    rng = random.Random(11)
    rows = [[rng.uniform(0.05, 0.95) for _ in range(3)] for _ in range(5)]
    extreme, facets, planar = _oracle_hull_vertices(rows)
    cone = cones.cone_over_hull(rows)
    cx = sum(p[0] for p in planar) / len(planar)
    cy = sum(p[1] for p in planar) / len(planar)
    for _ in range(200):
        d = [rng.uniform(0.05, 1.0) for _ in range(3)]
        p = tuple(v / sum(d) for v in d)
        q = (p[0] - p[2], p[1] - p[2])
        inside = True
        for i, j in facets:
            ax, ay = planar[i]
            bx, by = planar[j]
            nx, ny = by - ay, ax - bx
            off = nx * ax + ny * ay
            ref = nx * cx + ny * cy - off
            val = nx * q[0] + ny * q[1] - off
            if val * ref < -1e-9:
                inside = False
                break
        if abs(cone.angular_excess(d)) > 1e-7:
            assert not inside
        elif cone.angular_excess(d) == 0.0:
            assert inside


def _solve(columns, b):
    """x with sum_k x_k columns[k] = b; None when the columns are dependent."""
    n = len(b)
    m = [[columns[k][i] for k in range(n)] + [b[i]] for i in range(n)]
    for c in range(n):
        p = max(range(c, n), key=lambda i: abs(m[i][c]))
        if abs(m[p][c]) < 1e-12:
            return None
        m[c], m[p] = m[p], m[c]
        for i in range(n):
            if i != c:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * e for a, e in zip(m[i], m[c])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _oracle_extreme(rows):
    """Directions of the rows that lie in no cone over n other rows.

    By Caratheodory a row inside the cone over the others is inside the
    cone over n of them.
    """
    n = len(rows[0])
    dirs = []
    for r in rows:
        u = cones._unit(r)
        if all(max(abs(a - b) for a, b in zip(u, d)) > 1e-9 for d in dirs):
            dirs.append(u)
    extreme = []
    for i, d in enumerate(dirs):
        others = dirs[:i] + dirs[i + 1:]
        if not any(x is not None and min(x) >= -1e-12
                   for x in (_solve(sub, d)
                             for sub in itertools.combinations(others, n))):
            extreme.append(d)
    return extreme


@pytest.mark.parametrize("n", [4, 5])
def test_hull_matches_caratheodory_oracle(n):
    rng = random.Random(n)
    corners = [[rng.uniform(0.7, 0.95) if i == j else rng.uniform(0.05, 0.2)
                for j in range(n)] for i in range(n)]
    mix = [rng.uniform(0.1, 1.0) for _ in range(n)]
    inner = [sum(w * c[j] for w, c in zip(mix, corners)) / sum(mix) / 2
             for j in range(n)]
    # an inner row, a corner again at half scale, and a row on the edge
    # between two corners, which lies on n - 2 facets and is no vertex
    simplex = corners + [inner, [0.5 * x for x in corners[0]],
                         [(a + b) / 2 for a, b in zip(corners[1],
                                                      corners[2])]]
    sets = [simplex]
    for _ in range(6):
        rows = [[rng.uniform(0.05, 0.95) for _ in range(n)]
                for _ in range(n + 3)]
        sets.append(rows + [rows[0], [(a + b) / 2 for a, b in zip(rows[1],
                                                                rows[2])]])
    for rows in sets:
        cone = cones.cone_over_hull(rows)
        got = {tuple(round(x, 9) for x in v) for v in cone.vertex_directions}
        want = {tuple(round(x, 9) for x in v) for v in _oracle_extreme(rows)}
        assert got == want
        assert len(cone.vertex_directions) == len(got)
        for f in cone.facet_normals:
            assert min(cones._dot(f, cones._unit(r)) for r in rows) >= -1e-12
    assert len(cones.cone_over_hull(simplex).vertex_directions) == n


@pytest.mark.parametrize("n, m", [(3, 400), (4, 200)])
def test_hull_of_a_ray_cloud_enumerates_few_subsets(n, m, monkeypatch):
    # criterion 12 takes the hull of a few hundred rays; rows deep inside
    # must not reach the (n - 1)-subset enumeration, which alone would
    # form C(m, n - 1) candidate facets
    rng = random.Random(20 + n)
    corners = [[rng.uniform(0.7, 0.95) if i == j else rng.uniform(0.05, 0.2)
                for j in range(n)] for i in range(n)]
    rows = [list(c) for c in corners]
    while len(rows) < m:
        w = [rng.random() ** 3 for _ in corners]
        rows.append([sum(wi * c[j] for wi, c in zip(w, corners))
                     for j in range(n)])
    rows.append([(a + b) / 2 for a, b in zip(corners[0], corners[1])])
    rng.shuffle(rows)
    calls = []
    cofactor = cones._cofactor

    def counted(vectors):
        if len(vectors) == n - 1:
            calls.append(1)
        return cofactor(vectors)

    monkeypatch.setattr(cones, "_cofactor", counted)
    start = time.perf_counter()
    cone = cones.cone_over_hull(rows)
    elapsed = time.perf_counter() - start
    got = {tuple(round(x, 9) for x in v) for v in cone.vertex_directions}
    assert got == {tuple(round(x, 9) for x in cones._unit(c))
                   for c in corners}
    assert len(cone.facet_normals) == n
    assert max(cone.angular_excess(r) for r in rows) <= 1e-12
    assert len(calls) <= 1000  # C(m, n - 1) is 79,800 and 1,313,400
    assert elapsed < 0.5  # a few ms; the enumeration of all rows takes s


@pytest.mark.parametrize("n", [3, 4])
def test_hull_of_clustered_rows(n):
    # rows 1e-7 apart near a corner and 1e-10 off an edge make facets from
    # nearly dependent subsets; the hull must still build, from its rows,
    # with every row inside up to the rounding of those facets
    rng = random.Random(40 + n)
    for _ in range(15):
        corners = [[rng.uniform(0.05, 0.95) for _ in range(n)]
                   for _ in range(n + 1)]
        rows = [list(c) for c in corners]
        for _ in range(12):
            a, b = rng.sample(corners, 2)
            t = rng.choice([rng.random(), 1e-7 * rng.random()])
            rows.append([t * x + (1 - t) * y + 1e-10 * rng.uniform(-1, 1)
                         for x, y in zip(a, b)])
        try:
            cone = cones.cone_over_hull(rows)
        except cones.ConesError as err:
            assert "empty interior" in str(err)
            continue
        units = [cones._unit(r) for r in rows]
        assert all(v in units for v in cone.vertex_directions)
        assert max(cone.angular_excess(u) for u in units) <= 1e-4


def test_hull_idempotence():
    rng = random.Random(3)
    for _ in range(10):
        rows = [[rng.uniform(0.05, 0.95) for _ in range(3)]
                for _ in range(5)]
        try:
            cone = cones.cone_over_hull(rows)
        except cones.ConesError:
            continue
        again = cones.cone_over_hull(
            [[0.5 * x for x in v] for v in cone.vertex_directions])
        assert len(again.vertex_directions) == len(cone.vertex_directions)
        for v in cone.vertex_directions:
            assert again.angular_excess(v) <= 1e-12
        for v in again.vertex_directions:
            assert cone.angular_excess(v) <= 1e-12


def test_four_factor_hull():
    rows = [[0.9, 0.1, 0.1, 0.1], [0.1, 0.9, 0.1, 0.1],
            [0.1, 0.1, 0.9, 0.1], [0.1, 0.1, 0.1, 0.9],
            [0.25, 0.25, 0.25, 0.25]]
    cone = cones.cone_over_hull(rows)
    assert len(cone.vertex_directions) == 4
    assert len(cone.facet_normals) == 4
    assert cone.interior_ones
    assert cone.contains((1.0, 1.0, 1.0, 1.0))
    assert cone.angular_excess((1.0, 0.01, 0.01, 0.01)) > 1e-3


# --- HL membership --------------------------------------------------------------


def test_hl_ones_always_true():
    spec = cones.ConeSpecL([[0.1, 0.2], [0.3, 0.05]])
    for c in (1.0, 1.5, 10.0):
        assert cones.hl_membership((1.0, 1.0), spec, c)


def test_hl_validation():
    spec = cones.ConeSpecL([[0.1, 0.2]])
    with pytest.raises(cones.ConesError, match="positive"):
        cones.hl_membership((1.0, -1.0), spec, 2.0)
    with pytest.raises(cones.ConesError, match="at least 1"):
        cones.hl_membership((1.0, 1.0), spec, 0.5)


def test_hl_direct_inequality():
    near_uniform = cones.ConeSpecL([[0.10, 0.11, 0.105]] * 3)
    assert not cones.hl_membership((10.0, 1.0, 1.0), near_uniform, 1.1)
    assert cones.hl_membership((1.02, 1.0, 1.01), near_uniform, 1.1)


@given(st.floats(1.0, 5.0), st.floats(0.0, 4.0),
       st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_hl_nested_in_constant(c, extra, b):
    spec = cones.ConeSpecL([[0.2, 0.05, 0.4], [0.1, 0.3, 0.02]])
    if cones.hl_membership(b, spec, c):
        assert cones.hl_membership(b, spec, c + extra)


def test_hl_shrinks_under_uniform_scaling():
    base = [[0.5, 0.05, 0.2], [0.1, 0.4, 0.03]]
    bounds = []
    for s in (1.0, 1e-2, 1e-6, 1e-12):
        spec = cones.ConeSpecL([[s * v for v in row] for row in base])
        bounds.append(spec.log_ratio_max())
    assert bounds == sorted(bounds, reverse=True)
    assert bounds[-1] == pytest.approx(1.0, abs=0.2)


# --- limit-cone verification ----------------------------------------------------


def test_verify_pinched_pair(pinched_pair):
    family = curves.enumerate_conj_classes(2, 5)
    report = cones.verify_limit_cone(pinched_pair, family)
    assert report["containment_rate"] == 1.0
    assert report["vertex_attained"]
    assert report["worst_excess"] <= 1e-2
    assert set(report["vertex_witnesses"]) <= set(
        pinched_pair[0].curve_words)


def test_verify_three_factors(pinched_triple):
    family = curves.enumerate_conj_classes(2, 4)
    report = cones.verify_limit_cone(pinched_triple, family)
    assert report["containment_rate"] == 1.0
    assert report["vertex_attained"]
    assert len(report["cone"].vertex_directions) == 3


def test_verify_scale_monotone(dec):
    rows = [[1e-3, 2e-4, 3e-4], [2e-4, 1.2e-3, 2.5e-4],
            [3e-4, 2e-4, 1.5e-3]]
    family = curves.enumerate_conj_classes(2, 3)
    worst = []
    for scale in (1.0, 0.1):
        surfaces = [surface.build_holonomy(
            dec, surface.FNCoordinates([scale * rows[i][j]
                                        for i in range(3)]))
            for j in range(3)]
        report = cones.verify_limit_cone(surfaces, family)
        assert report["containment_rate"] == 1.0
        worst.append(report["worst_excess"])
    assert worst[1] <= worst[0] + 1e-12


def test_verify_twist_persistence(dec):
    family = curves.enumerate_conj_classes(2, 4)
    lengths = [[1e-3, 3e-4], [2e-4, 1.5e-3], [5e-4, 2e-4]]
    surfaces = [surface.build_holonomy(
        dec, surface.FNCoordinates([lengths[i][j] for i in range(3)],
                                   twists=[0.7, -0.9, 0.4]))
        for j in range(2)]
    report = cones.verify_limit_cone(surfaces, family)
    assert report["containment_rate"] == 1.0
    assert report["vertex_attained"]


def test_verify_names_first_degenerate_class_and_factor(pinched_pair):
    # one batched length pass per factor still reports the first failing
    # class at its first failing factor, as a class-by-class walk would
    family = [c.word for c in curves.enumerate_conj_classes(2, 2)]
    family.insert(3, (1, -1))
    family.append((2, -2))
    with pytest.raises(cones.ConesError) as raised:
        cones.verify_limit_cone(pinched_pair, family)
    assert str(raised.value) == ("factor 1: not a closed geodesic class: "
                                 "image is parabolic")


# criterion 11's rows, and a thin cone that a twist in one factor breaks
C11_ROWS = [[0.8, 0.1, 0.1], [0.15, 0.8, 0.05], [0.1, 0.2, 0.7]]
THIN_ROWS = [[1.0, 1.1, 1.0], [1.1, 1.0, 1.0], [1.0, 1.0, 1.1]]


def _factors(dec, rows, scale, first_twists=None):
    """One surface per column of rows * scale; the first one twisted."""
    return [surface.build_holonomy(dec, surface.FNCoordinates(
        [scale * row[j] for row in rows], first_twists if j == 0 else None))
        for j in range(len(rows[0]))]


@pytest.mark.parametrize("rows, scale, twist, tols", [
    pytest.param(C11_ROWS, s, 0.0, (1e-2, 0.0), id="criterion11-%g" % s)
    for s in (1e-2, 1e-3, 1e-4)] + [
    pytest.param(THIN_ROWS, 1e-2, t, (1e-2, 1e-12, 0.0), id="thin-T%g" % t)
    for t in (0.0, 1.0, 2.0, 3.0, 3.5, 8.0)])
def test_screened_verdict_equals_exact_rows(dec, rows, scale, twist, tols):
    family = curves.enumerate_conj_classes(2, 5)
    surfaces = _factors(dec, rows, scale, [twist, 0.0, 0.0])
    cone = cones.verify_limit_cone(surfaces, family)["cone"]
    excesses = [r["angular_excess"]
                for r in cones.ray_rows(surfaces, family, cone, 0.0)]
    worst = max(range(len(family)), key=excesses.__getitem__)
    for tol in tols:
        report = cones.verify_limit_cone(surfaces, family, tol)
        assert report["containment_rate"] == (
            sum(e <= tol for e in excesses) / len(family))
        assert report["worst_word"] == curves.word_to_text(family[worst].word)
        assert report["worst_excess"] == excesses[worst]


def test_screen_takes_few_exact_lengths(dec, monkeypatch):
    # criterion 11's rows at 1e-3: the exact pass covers the pants curves
    # and the classes near a facet, not the 2,074 classes in 3 factors
    surfaces = _factors(dec, C11_ROWS, 1e-3)
    family = curves.enumerate_conj_classes(2, 5)
    counted = []
    exact = surface.MarkedSurface.curve_lengths

    def counting(self, words):
        counted.extend(words)
        return exact(self, words)

    monkeypatch.setattr(surface.MarkedSurface, "curve_lengths", counting)
    report = cones.verify_limit_cone(surfaces, family)
    assert report["containment_rate"] == 1.0
    assert report["worst_word"] == "bbb"
    assert 0 < len(counted) <= 50


def test_ray_cloud_in_positive_simplex(pinched_pair):
    family = curves.enumerate_conj_classes(2, 4)
    report = cones.verify_limit_cone(pinched_pair, family)
    for row in cones.ray_rows(pinched_pair, family, report["cone"], 1e-2):
        d = row["direction"]
        assert all(v > 0.0 for v in d)
        assert sum(v * v for v in d) == pytest.approx(1.0, rel=1e-12)


def test_ray_csv_schema(pinched_pair):
    family = curves.enumerate_conj_classes(2, 3)
    report = cones.verify_limit_cone(pinched_pair, family)
    header = cones.ray_csv_header(2)
    assert header == ("word,lambda_1,lambda_2,dir_1,dir_2,"
                      "in_cone,angular_excess")
    rows = cones.ray_csv_rows(
        cones.ray_rows(pinched_pair, family, report["cone"], 1e-2))
    assert len(rows) == len(family)
    for line in rows:
        parts = line.split(",")
        assert len(parts) == len(header.split(","))
        assert parts[-2] in ("0", "1")
        float(parts[-1])


# --- designer cones -------------------------------------------------------------


def _simplex_cone():
    return cones.cone_over_hull([[0.8, 0.1, 0.1], [0.15, 0.8, 0.05],
                                 [0.1, 0.2, 0.7]])


def test_designer_roundtrip():
    cone = _simplex_cone()
    spec = cones.designer_lengths(cone, 3, 1e-3)
    back = cones.cone_over_hull(spec)
    assert len(back.vertex_directions) == 3
    for v in cone.vertex_directions:
        assert back.angular_excess(v) <= 1e-12
    for v in back.vertex_directions:
        assert cone.angular_excess(v) <= 1e-12


def test_designer_centroid_rows_absorbed():
    cone = cones.cone_over_hull([[0.8, 0.15], [0.2, 0.9], [0.5, 0.5]])
    spec = cones.designer_lengths(cone, 3, 1e-3)
    assert len(spec.rows) == 3
    back = cones.cone_over_hull(spec)
    assert len(back.vertex_directions) == 2


def test_designer_errors():
    cone = _simplex_cone()
    with pytest.raises(cones.ConesError, match="vertex count"):
        cones.designer_lengths(cone, 2, 1e-3)
    with pytest.raises(cones.ConesError, match="below 1"):
        cones.designer_lengths(cone, 3, 5.0)
    skew = cones.cone_over_hull([[0.9, 0.05, 0.05], [0.8, 0.1, 0.05],
                                 [0.85, 0.05, 0.1]])
    assert not skew.interior_ones
    # the hypothesis comes first, whatever else is wrong
    for total, scale in ((3, 1e-3), (2, 1e-3), (3, 5.0)):
        with pytest.raises(cones.ConesError,
                           match=r"\(1, \.\.\., 1\) must be interior"):
            cones.designer_lengths(skew, total, scale)


def test_designer_full_pipeline(dec):
    cone = _simplex_cone()
    spec = cones.designer_lengths(cone, 3, 1e-3)
    surfaces = [surface.build_holonomy(
        dec, surface.FNCoordinates([spec.rows[i][j] for i in range(3)]))
        for j in range(3)]
    family = curves.enumerate_conj_classes(2, 4)
    report = cones.verify_limit_cone(surfaces, family, tol_angular=1e-2)
    assert report["containment_rate"] == 1.0
    assert report["vertex_attained"]
    for v, w in zip(cone.vertex_directions,
                    report["cone"].vertex_directions):
        assert cone.angular_excess(w) <= 1e-9


# --- projection decomposition ---------------------------------------------------


def test_decompose_consistency(pinched_pair):
    r_vec, l_vec = cones.decompose_projection(pinched_pair, "cd")
    lam = cones.jordan_projection(pinched_pair, "cd")
    for r, l, v in zip(r_vec, l_vec, lam.components):
        assert r + l == pytest.approx(v, rel=1e-9)
        assert r > 0.0
        assert l > 0.0


def test_decompose_rotation_free_curves_contribute_nothing(pinched_pair):
    # "c" winds once around the first pants curve and not at all around
    # the other two, so its rotational part is exactly one copy of the
    # first cuff length in each factor
    r_vec, l_vec = cones.decompose_projection(pinched_pair, "c")
    for s, r in zip(pinched_pair, r_vec):
        assert r == pytest.approx(s.coords.lengths[0], rel=1e-12)
    lam = cones.jordan_projection(pinched_pair, "c")
    for r, l, v in zip(r_vec, l_vec, lam.components):
        assert r + l == pytest.approx(v, rel=1e-9)


def test_decompose_spiral_vertex_direction(pinched_pair):
    vertex = cones._unit((pinched_pair[0].coords.lengths[0],
                          pinched_pair[1].coords.lengths[0]))
    for k in (3, 8, 14):
        r_vec, _ = cones.decompose_projection(
            pinched_pair, "a" * k + "c", search_depth=max(12, k + 6))
        r_dir = cones._unit(r_vec)
        angle = math.acos(min(1.0, cones._dot(vertex, r_dir)))
        assert angle <= 1e-6


def test_decompose_remainders_in_hl_band(pinched_pair):
    spec = cones.ConeSpecL(
        [[s.coords.lengths[i] for s in pinched_pair] for i in range(3)])
    for word in ("c", "cd", "cD", "aac"):
        _, l_vec = cones.decompose_projection(pinched_pair, word)
        assert cones.hl_membership(l_vec, spec, 2.0)


def test_decompose_rejects_pants_curve(pinched_pair):
    from teichlab import combinat
    with pytest.raises(combinat.CombinatError, match="excluded"):
        cones.decompose_projection(pinched_pair, "a")


def test_decompose_rejects_what_the_reference_map_does_not_cover(dec):
    from teichlab import combinat
    twisted = [surface.build_holonomy(dec, surface.FNCoordinates(
        [1e-3 * k, 2e-3 * k, 3e-3 * k], [0.5, -0.3, 0.2])) for k in (1, 2)]
    with pytest.raises(combinat.CombinatError, match="untwisted"):
        cones.decompose_projection(twisted, "cd")
    lengths = surface.FNCoordinates([1e-3, 2e-3, 3e-3])
    # the builtin decomposition is one shared object; build another
    other = surface.PantsDecomposition(dec.pants, dec.curve_edges)
    mixed = [surface.build_holonomy(dec, lengths),
             surface.build_holonomy(other, lengths)]
    with pytest.raises(combinat.CombinatError, match="decomposition"):
        cones.decompose_projection(mixed, "cd")


# --- serialization ------------------------------------------------------------


def test_cone_json_roundtrip():
    cone = _simplex_cone()
    back = json.loads(cones.cone_to_json(cone))
    assert back["vertices"] == [list(v) for v in cone.vertex_directions]
    assert back["facets"] == [list(f) for f in cone.facet_normals]
    assert back["interior_ones"] == cone.interior_ones
