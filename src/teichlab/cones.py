"""Limit cones of tuples of hyperbolic surfaces.

For n marked surfaces sharing a pants decomposition, the Jordan projection
of a class is its length vector in R^n.  When every pants-curve length is
small, the rays through all Jordan projections accumulate exactly on the
polyhedral cone over the pants-curve projections; the checks here build
that cone, test ray membership with an angular slack, and construct
designer length data realizing a prescribed cone.  Zariski density of the
product representation, which that accumulation needs, is assumed, not
proven.
"""

import json
import math

from . import combinat, constants, curves
from . import surface as surface_mod


class ConesError(ValueError):
    pass


def _norm(v):
    return math.sqrt(sum(x * x for x in v))


def _unit(v):
    n = _norm(v)
    if n == 0.0:
        raise ConesError("cannot normalize the zero vector")
    return tuple(x / n for x in v)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class JordanVector:
    """Per-factor translation lengths of one class."""

    __slots__ = ("components", "word")

    def __init__(self, components, word):
        self.components = tuple(float(v) for v in components)
        if any(v <= 0.0 for v in self.components):
            raise ConesError("Jordan components must be positive")
        self.word = tuple(word)

    def direction(self):
        return _unit(self.components)

    def __repr__(self):
        return "JordanVector(%r, %r)" % (self.components, self.word)


class ConeSpecL:
    """Pants-curve length matrix: row per curve, column per factor."""

    def __init__(self, rows):
        self.rows = [tuple(float(v) for v in row) for row in rows]
        if not self.rows:
            raise ConesError("need at least one row")
        self.n = len(self.rows[0])
        if any(len(r) != self.n for r in self.rows):
            raise ConesError("ragged length matrix")
        for r in self.rows:
            if any(not 0.0 < v < 1.0 for v in r):
                raise ConesError("all lengths must lie in (0, 1)")

    def log_ratio_max(self):
        """Largest ratio |log a_lm| / |log a_lk| over rows and columns."""
        best = 1.0
        for row in self.rows:
            logs = [abs(math.log(v)) for v in row]
            best = max(best, max(logs) / min(logs))
        return best


class PolyCone:
    """Polyhedral cone over finitely many positive directions."""

    def __init__(self, vertex_directions, facet_normals, interior_ones):
        self.vertex_directions = [tuple(v) for v in vertex_directions]
        self.facet_normals = [tuple(f) for f in facet_normals]
        self.interior_ones = bool(interior_ones)
        self.n = len(self.vertex_directions[0])

    def angular_excess(self, v):
        """How far outside the cone a direction points.

        0 inside; otherwise the largest negative facet margin of the unit
        vector, which is the sine of the violation angle for small angles.
        """
        u = _unit(v)
        worst = 0.0
        for f in self.facet_normals:
            worst = max(worst, -_dot(f, u))
        return worst

    def contains(self, v, angular_slack=0.0):
        return self.angular_excess(v) <= angular_slack


def jordan_projection(surfaces, gamma):
    """Componentwise length vector; errors name the failing factor."""
    return next(_jordan_vectors(surfaces, [gamma]))


def _jordan_vectors(surfaces, classes):
    """Jordan projections of the classes, yielded in order.

    The lengths come from one batched pass per factor; the vectors are
    made one at a time, so callers hold only what they keep.  A class that
    is not hyperbolic in some factor raises ConesError when it is reached,
    naming its first such factor.
    """
    words = [curves._as_word(cls) for cls in classes]
    columns = [s.curve_lengths(words) for s in surfaces]
    for i, word in enumerate(words):
        comps = [col[i] for col in columns]
        for j, length in enumerate(comps, start=1):
            if isinstance(length, surface_mod.SurfaceError):
                raise ConesError("factor %d: %s" % (j, length))
        yield JordanVector(comps, word)


# --- hulls on the simplex slice ------------------------------------------------


def _hull_indices_2d(points):
    """Monotone-chain hull of 2D points, counterclockwise, no duplicates."""
    idx = sorted(range(len(points)), key=lambda i: points[i])
    uniq = []
    for i in idx:
        if not uniq or _norm([a - b for a, b in
                              zip(points[i], points[uniq[-1]])]) > 1e-12:
            uniq.append(i)
    if len(uniq) < 3:
        return uniq

    def cross(o, a, b):
        return ((points[a][0] - points[o][0]) * (points[b][1] - points[o][1])
                - (points[a][1] - points[o][1])
                * (points[b][0] - points[o][0]))

    lower = []
    for i in uniq:
        while len(lower) > 1 and cross(lower[-2], lower[-1], i) <= 1e-14:
            lower.pop()
        lower.append(i)
    upper = []
    for i in reversed(uniq):
        while len(upper) > 1 and cross(upper[-2], upper[-1], i) <= 1e-14:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


def _hull_3d(points):
    """Incremental hull of 3D points; returns outward faces (index triples)."""
    m = len(points)
    if m < 4:
        raise ConesError("cone has empty interior")

    def sub(a, b):
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2])

    def cross3(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0])

    def signed(face, p):
        a, b, c = (points[i] for i in face)
        nrm = cross3(sub(b, a), sub(c, a))
        return _dot(nrm, sub(p, a))

    # seed simplex: four points in general position
    seed = None
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                for l in range(k + 1, m):
                    if abs(signed((i, j, k), points[l])) > 1e-12:
                        seed = [i, j, k, l]
                        break
                if seed:
                    break
            if seed:
                break
        if seed:
            break
    if seed is None:
        raise ConesError("cone has empty interior")
    i, j, k, l = seed
    faces = [(i, j, k), (i, j, l), (i, k, l), (j, k, l)]
    centroid = tuple(sum(points[v][c] for v in seed) / 4.0 for c in range(3))
    faces = [f if signed(f, centroid) < 0 else (f[0], f[2], f[1])
             for f in faces]

    for p in range(m):
        if p in seed:
            continue
        visible = [f for f in faces if signed(f, points[p]) > 1e-12]
        if not visible:
            continue
        horizon = []
        visible_set = set(visible)
        for f in visible:
            for e in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
                # an edge is on the horizon if its mirrored copy belongs
                # to no visible face
                mirrored = False
                for g in visible_set:
                    if g is f:
                        continue
                    edges = ((g[0], g[1]), (g[1], g[2]), (g[2], g[0]))
                    if (e[1], e[0]) in edges:
                        mirrored = True
                        break
                if not mirrored:
                    horizon.append(e)
        faces = [f for f in faces if f not in visible_set]
        for e in horizon:
            faces.append((e[0], e[1], p))
    return faces


def cone_over_hull(L):
    """Polyhedral cone over the rows of L, via the simplex slice hull."""
    if isinstance(L, ConeSpecL):
        rows = L.rows
    else:
        rows = [tuple(float(v) for v in row) for row in L]
        if any(v <= 0.0 for row in rows for v in row):
            raise ConesError("rows must be strictly positive directions")
    n = len(rows[0])
    if n not in (2, 3, 4):
        raise ConesError("supported factor counts are 2, 3, 4")
    dirs = [_unit(r) for r in rows]

    if n == 2:
        slopes = [(math.atan2(d[1], d[0]), i) for i, d in enumerate(dirs)]
        lo = min(slopes)[1]
        hi = max(slopes)[1]
        if abs(min(slopes)[0] - max(slopes)[0]) < 1e-12:
            raise ConesError("cone has empty interior")
        verts = [dirs[lo], dirs[hi]]
        normals = [_unit((-dirs[lo][1], dirs[lo][0])),
                   _unit((dirs[hi][1], -dirs[hi][0]))]
        cone = PolyCone(verts, normals, False)
    elif n == 3:
        slice_pts = [tuple(v / sum(r) for v in r) for r in rows]
        planar = [(p[0] - p[2], p[1] - p[2]) for p in slice_pts]
        hull = _hull_indices_2d(planar)
        if len(hull) < 3:
            raise ConesError("cone has empty interior")
        verts = [dirs[i] for i in hull]
        normals = []
        k = len(verts)
        inner = tuple(sum(v[c] for v in verts) / k for c in range(3))
        for a, b in zip(verts, verts[1:] + verts[:1]):
            nrm = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                   a[0] * b[1] - a[1] * b[0])
            if _dot(nrm, inner) < 0:
                nrm = tuple(-x for x in nrm)
            normals.append(_unit(nrm))
        cone = PolyCone(verts, normals, False)
    else:
        slice_pts = [tuple(v / sum(r) for v in r) for r in rows]
        affine = [(p[0] - p[3], p[1] - p[3], p[2] - p[3]) for p in slice_pts]
        faces = _hull_3d(affine)
        used = sorted({i for f in faces for i in f})
        verts = [dirs[i] for i in used]
        normals = []
        inner = tuple(sum(dirs[i][c] for i in used) / len(used)
                      for c in range(4))
        seen = set()
        for f in faces:
            triple = tuple(dirs[i] for i in f)
            nrm = _cofactor4(triple)
            if _dot(nrm, inner) < 0:
                nrm = tuple(-x for x in nrm)
            nrm = _unit(nrm)
            key = tuple(round(x, 9) for x in nrm)
            if key not in seen:
                seen.add(key)
                normals.append(nrm)
        cone = PolyCone(verts, normals, False)

    ones = _unit((1.0,) * n)
    interior = all(_dot(f, ones) > 1e-12 for f in cone.facet_normals)
    return PolyCone(cone.vertex_directions, cone.facet_normals, interior)


def _cofactor4(triple):
    """Vector orthogonal to three 4-vectors: cofactor expansion."""
    a, b, c = triple

    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    out = []
    for i in range(4):
        cols = [j for j in range(4) if j != i]
        minor = [[a[j] for j in cols], [b[j] for j in cols],
                 [c[j] for j in cols]]
        out.append(((-1) ** i) * det3(minor))
    return tuple(out)


# --- membership and verification ------------------------------------------------


def hl_membership(b, L, C):
    """Pairwise-ratio membership test against the log-ratio band of L."""
    if C < 1.0:
        raise ConesError("C must be at least 1")
    b = tuple(float(v) for v in b)
    if any(v <= 0.0 for v in b):
        raise ConesError("b must be strictly positive")
    if not isinstance(L, ConeSpecL):
        L = ConeSpecL(L)
    bound = C * L.log_ratio_max()
    for x in b:
        for y in b:
            if x / y > bound:
                return False
    return True


def verify_limit_cone(surfaces, family, tol_angular=1e-2):
    """Ray-cloud containment in the cone over the pants-curve projections."""
    if not surfaces:
        raise ConesError("need at least one surface")
    spec = ConeSpecL([[s.coords.lengths[i] for s in surfaces]
                      for i in range(len(surfaces[0].coords.lengths))])
    cone = cone_over_hull(spec)
    if not cone.interior_ones:
        raise ConesError("diagonal direction not interior to the cone")

    pants_words = surfaces[0].curve_words
    pants_dirs = [lam.direction()
                  for lam in _jordan_vectors(surfaces, pants_words)]
    vertex_hits = []
    for v in cone.vertex_directions:
        hit = None
        for w, d in zip(pants_words, pants_dirs):
            if all(abs(a - b) <= 1e-9 for a, b in zip(d, v)):
                hit = w
                break
        vertex_hits.append(hit)

    def evaluate(lam):
        excess = cone.angular_excess(lam.components)
        return {
            "word": curves.word_to_text(lam.word),
            "lambda": lam.components,
            "direction": lam.direction(),
            "in_cone": excess <= tol_angular,
            "angular_excess": excess,
        }

    rows = [evaluate(lam) for lam in _jordan_vectors(surfaces, family)]
    inside = sum(1 for r in rows if r["in_cone"])
    worst = max(rows, key=lambda r: r["angular_excess"]) if rows else None
    return {
        "cone": cone,
        "rows": rows,
        "containment_rate": inside / len(rows) if rows else 1.0,
        "worst_word": worst["word"] if worst else None,
        "worst_excess": worst["angular_excess"] if worst else 0.0,
        "vertex_attained": all(h is not None for h in vertex_hits),
        "vertex_witnesses": vertex_hits,
        "tol_angular": tol_angular,
    }


def designer_lengths(cone, n, total_curves, scale):
    """Length matrix whose limit cone is the prescribed one.

    The first k rows scale the cone's vertex directions; the remaining
    pants curves sit at the scaled centroid, which the hull absorbs as
    redundant.
    """
    k = len(cone.vertex_directions)
    if not n <= k <= total_curves:
        raise ConesError("need n <= vertex count <= curve count")
    if not cone.interior_ones:
        raise ConesError("diagonal direction must be interior to the cone")
    if not 0.0 < scale:
        raise ConesError("scale must be positive")
    rows = [tuple(scale * x for x in v) for v in cone.vertex_directions]
    centroid = _unit(tuple(sum(v[c] for v in cone.vertex_directions) / k
                           for c in range(cone.n)))
    rows += [tuple(scale * x for x in centroid)] * (total_curves - k)
    if any(v >= 1.0 for row in rows for v in row):
        raise ConesError("scale too large: lengths must stay below 1")
    return ConeSpecL(rows)


def decompose_projection(surfaces, gamma, rotation_data=None,
                         search_depth=constants.LIFT_SEARCH_DEPTH_DEFAULT):
    """Split the Jordan projection into rotational and remainder parts.

    The rotation data is combinatorial and shared by every untwisted
    surface, so it is computed once on a thick reference copy of the
    common decomposition when not supplied.
    """
    if rotation_data is None:
        reference = surface_mod.reference_surface(surfaces[0].decomposition)
        seq = combinat.intersection_sequence(reference, gamma, search_depth)
        rotation_data = combinat.classify_and_rotate(seq)
    r_vec = []
    l_vec = []
    for s in surfaces:
        proj, rest = combinat.non_rotating_length(s, gamma, rotation_data)
        r_vec.append(proj)
        l_vec.append(rest)
    return tuple(r_vec), tuple(l_vec)


# --- serialization --------------------------------------------------------------


def ray_csv_header(n):
    cols = ["word"]
    cols += ["lambda_%d" % j for j in range(1, n + 1)]
    cols += ["dir_%d" % j for j in range(1, n + 1)]
    cols += ["in_cone", "angular_excess"]
    return ",".join(cols)


def ray_csv_rows(report):
    out = []
    for r in report["rows"]:
        vals = [r["word"]]
        vals += ["%.17g" % v for v in r["lambda"]]
        vals += ["%.17g" % v for v in r["direction"]]
        vals.append("1" if r["in_cone"] else "0")
        vals.append("%.17g" % r["angular_excess"])
        out.append(",".join(vals))
    return out


def cone_to_json(cone):
    return json.dumps({
        "vertices": [list(v) for v in cone.vertex_directions],
        "facets": [list(f) for f in cone.facet_normals],
        "interior_ones": cone.interior_ones,
    })
