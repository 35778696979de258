"""Limit cones of tuples of hyperbolic surfaces.

For n marked surfaces sharing a pants decomposition, the Jordan projection
of a class is its length vector in R^n.  When every pants-curve length is
small, the rays through all Jordan projections accumulate exactly on the
polyhedral cone over the pants-curve projections; the checks here build
that cone, test ray membership with an angular slack, and construct
designer length data realizing a prescribed cone.  Zariski density of the
product representation, which that accumulation needs, is assumed, not
proven.

The membership verdict reads one batch of length estimates per factor
(`MarkedSurface.length_estimates`).  A class whose estimated direction
lies well inside every facet has angular excess exactly 0, and only the
others, the few near a facet, get exact lengths (`verify_limit_cone`);
`ray_rows` gives every class's exact row.
"""

import itertools
import json
import math
import operator
import sys

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

    def contains(self, v):
        return self.angular_excess(v) <= 0.0


def jordan_projection(surfaces, gamma):
    """Componentwise length vector; errors name the failing factor."""
    return next(_jordan_vectors(surfaces, [gamma]))


def _jordan_vectors(surfaces, classes):
    """Jordan projections of the classes, yielded in order.

    The lengths come from one batched pass per factor, which folds each
    distinct cyclically reduced word once (`curve_lengths` reduces first,
    so equal reduced words have equal lengths); the vectors are made one
    at a time, so callers hold only what they keep.  A class that is not
    hyperbolic in some factor raises ConesError when it is reached, naming
    its first such factor.
    """
    words = [curves._as_word(cls) for cls in classes]
    reduced = [curves._reduced_word(cls) for cls in classes]
    distinct = list(dict.fromkeys(reduced))
    columns = [dict(zip(distinct, s.curve_lengths(distinct)))
               for s in surfaces]
    for word, key in zip(words, reduced):
        comps = [col[key] for col in columns]
        for j, length in enumerate(comps, start=1):
            if isinstance(length, surface_mod.SurfaceError):
                raise ConesError("factor %d: %s" % (j, length))
        yield JordanVector(comps, word)


# --- the cone over the rows -----------------------------------------------------


def _cofactor(vectors):
    """Generalized cross product of n - 1 vectors: v . it = det(v, *them)."""
    out = []
    for i in range(len(vectors) + 1):
        minor = [v[:i] + v[i + 1:] for v in vectors]
        d = _dot(minor[0], _cofactor(minor[1:])) if minor else 1.0
        # 0.0 - d, not -d: a zero entry is +0.0, as in a difference
        out.append(d if i % 2 == 0 else 0.0 - d)
    return tuple(out)


def _facets(dirs):
    """Facets of the cone over unit directions: indices on it -> normal.

    Each n - 1 directions give a cofactor c, oriented toward them and kept
    when none is below by over 1e-12 + n eps / |c| (the rounding of c/|c|)
    unless it holds only some of another's.  Normals keep their length."""
    n = len(dirs[0])
    facets = {}
    for subset in itertools.combinations(dirs, n - 1):
        c = _cofactor(subset)
        size = _norm(c)
        if size <= 1e-12:
            continue
        nrm = _unit(c)
        tol = 1e-12 + n * sys.float_info.epsilon / size
        lo = hi = 0.0
        for d in dirs:
            x = _dot(nrm, d)
            lo, hi = min(lo, x), max(hi, x)
            if lo < -tol and hi > tol:
                break  # directions on both sides
        else:
            if lo < -tol:
                # 0.0 - x, not -x: a zero entry stays +0.0
                c = tuple(0.0 - x for x in c)
            if max(hi, -lo) > tol:
                on = frozenset(j for j, d in enumerate(dirs)
                               if abs(_dot(nrm, d)) <= tol)
                facets.setdefault(on, c)
    return {on: f for on, f in facets.items()
            if not any(on < other for other in facets)}


def cone_over_hull(L):
    """Polyhedral cone over the rows of L, by facet enumeration.

    A row is a vertex when the normals of the facets through it have rank
    n - 1.  For n = 3 the vertices run counterclockwise in the slice
    coordinates (p0 - p2, p1 - p2) from the least point, and facet k joins
    vertex k to k + 1; for other n both keep the order of the rows.
    """
    if isinstance(L, ConeSpecL):
        rows = L.rows
    else:
        rows = [tuple(float(v) for v in row) for row in L]
        if any(v <= 0.0 for row in rows for v in row):
            raise ConesError("rows must be strictly positive directions")
    n = len(rows[0]) if rows else 0
    if n < 2:
        raise ConesError("a cone needs at least 2 factors")
    units = [_unit(r) for r in rows]
    # grow a cone over extreme rows (in a slice coordinate, or farthest
    # below one of its facets); rows over 1e-9 inside it lie on no facet
    seeds = {max(units, key=lambda u: s * u[c] / sum(u))
             for c in range(n) for s in (1.0, -1.0)}
    while len(seeds) < len(units):
        inner = _facets(list(seeds)).values()
        units = [u for u in units
                 if not inner or any(_dot(f, u) <= 1e-9 for f in inner)]
        low = [(f, min(units, key=lambda u: _dot(f, u))) for f in inner]
        far = {u for f, u in low if _dot(f, u) < -1e-12} - seeds
        if not far:
            break
        seeds |= far
    dirs = []
    for u in units:
        if all(_norm([a - b for a, b in zip(u, d)]) > 1e-12 for d in dirs):
            dirs.append(u)
    facets = {on: _unit(f) for on, f in _facets(dirs).items()}
    if not facets:
        raise ConesError("cone has empty interior")

    # rank n - 1: some n - 1 of the normals through the row are independent
    verts = [j for j in range(len(dirs)) if any(
        _norm(_cofactor(sub)) > 1e-12 for sub in itertools.combinations(
            [f for on, f in facets.items() if j in on], n - 1))]
    normals = list(facets.values())
    if n == 3:
        simplex = {j: [x / sum(dirs[j]) for x in dirs[j]] for j in verts}
        xy = {j: (p[0] - p[2], p[1] - p[2]) for j, p in simplex.items()}
        # by angle about the centroid; facet k: through k, nearest to k + 1
        x0, y0 = (sum(c) / len(verts) for c in zip(*xy.values()))
        verts.sort(key=lambda j: math.atan2(xy[j][1] - y0, xy[j][0] - x0))
        k = verts.index(min(verts, key=xy.get))
        verts = verts[k:] + verts[:k]
        normals = [min((f for on, f in facets.items() if a in on),
                       key=lambda f: abs(_dot(f, dirs[b])))
                   for a, b in zip(verts, verts[1:] + verts[:1])]
    interior = all(_dot(f, _unit((1.0,) * n)) > 1e-12 for f in normals)
    return PolyCone([dirs[j] for j in verts], normals, interior)


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


# the screen of `verify_limit_cone`: the least facet margin of a class's
# estimated direction
_FACET_GAP = 1e-12


def _require_diagonal(cone):
    """The hypothesis of the cone checks: (1, ..., 1) is interior."""
    if not cone.interior_ones:
        raise ConesError("hypothesis violated: (1, ..., 1) must be "
                         "interior to the cone")


def verify_limit_cone(surfaces, family, tol_angular=1e-2):
    """Ray-cloud containment in the cone over the pants-curve projections.

    A class is inside when its angular excess over the cone is at most
    tol_angular.  The report gives the share inside, the largest excess
    and the first class in family order that has it, and for each vertex
    of the cone the pants curve whose direction attains it, or None.

    Each factor estimates the family's lengths once.  A class is screened
    when each factor gives it an estimate and the estimated direction lies
    more than eta = `_FACET_GAP` inside every facet: f.l~ > eta |l~| for
    each unit facet normal f and the estimated lengths l~.  Its excess is
    0.0.  The other classes, the candidates, get exact Jordan vectors in
    family order (`_jordan_vectors`), so the first class that is not
    hyperbolic in some factor raises as it would without the screen.

    Why this changes nothing: let l be a screened class's exact lengths,
    the doubles `curve_lengths` returns, and l~ its estimates.  By the
    contract of `length_estimates`, with rho = `surface._ESTIMATE_REL`,
    |l~/l - 1| <= rho + 1.2e-15 in every factor (1e-15 and the half ulp
    of l), so the unit vectors u~ and u are within 2 (rho + 1.2e-15) of
    each other, and a facet normal has norm 1 to within an ulp, so
    f.u >= f.u~ - 5.5e-14.  The screen's products, norm and bar, and the
    dot products of unit vectors in R^n that `PolyCone.angular_excess`
    forms, are computed to within about n ulps of |l~| or of 1, far below
    eta - 5.5e-14.  So the screen makes the computed f.u positive for
    every facet, and `angular_excess` returns its starting 0.0, which is
    inside iff 0.0 <= tol_angular.  By the same contract a screened
    class's traces exceed 2 by more than 1e-40 in every factor, so it is
    hyperbolic and never the class that raises; it never reaches
    `curve_lengths`, so that cap cannot raise for it either.  Every class
    thus gets the excess and the verdict its exact row would give
    (`ray_rows`), and so do the counts, the largest excess and its first
    class.
    """
    if not surfaces:
        raise ConesError("need at least one surface")
    spec = ConeSpecL([[s.coords.lengths[i] for s in surfaces]
                      for i in range(len(surfaces[0].coords.lengths))])
    cone = cone_over_hull(spec)
    _require_diagonal(cone)

    reduced = [curves._reduced_word(cls) for cls in family]
    estimates = [s.length_estimates(reduced) for s in surfaces]
    candidates = []
    for i, lengths in enumerate(zip(*estimates)):
        if None not in lengths:
            bar = _FACET_GAP * math.hypot(*lengths)
            if all(sum(map(operator.mul, f, lengths)) > bar
                   for f in cone.facet_normals):
                continue
        candidates.append(i)
    # one exact batch: the pants curves, then the candidates
    pants_words = surfaces[0].curve_words
    exact = _jordan_vectors(surfaces, list(pants_words)
                            + [family[i] for i in candidates])
    pants_dirs = [next(exact).direction() for _ in pants_words]
    vertex_hits = []
    for v in cone.vertex_directions:
        hit = None
        for w, d in zip(pants_words, pants_dirs):
            if all(abs(a - b) <= 1e-9 for a, b in zip(d, v)):
                hit = w
                break
        vertex_hits.append(hit)

    excesses = [0.0] * len(reduced)
    for i, lam in zip(candidates, exact):
        excesses[i] = cone.angular_excess(lam.components)
    inside = sum(1 for e in excesses if e <= tol_angular)
    # max keeps the first index of the largest excess: family order
    worst = max(range(len(excesses)), key=excesses.__getitem__, default=None)
    if worst is not None:
        worst_word = curves.word_to_text(curves._as_word(family[worst]))
    return {
        "cone": cone,
        "containment_rate": inside / len(excesses) if excesses else 1.0,
        "worst_word": None if worst is None else worst_word,
        "worst_excess": 0.0 if worst is None else excesses[worst],
        "vertex_attained": all(h is not None for h in vertex_hits),
        "vertex_witnesses": vertex_hits,
        "tol_angular": tol_angular,
    }


def ray_rows(surfaces, family, cone, tol_angular):
    """Every class's exact row against a cone: its word, Jordan vector and
    direction, its angular excess and whether that is at most tol_angular.

    `verify_limit_cone`'s verdict equals the one these rows give."""
    rows = []
    for lam in _jordan_vectors(surfaces, family):
        excess = cone.angular_excess(lam.components)
        rows.append({
            "word": curves.word_to_text(lam.word),
            "lambda": lam.components,
            "direction": lam.direction(),
            "in_cone": excess <= tol_angular,
            "angular_excess": excess,
        })
    return rows


def designer_lengths(cone, total_curves, scale):
    """Length matrix whose limit cone is the prescribed one.

    The first k rows scale the cone's vertex directions; the remaining
    pants curves sit at the scaled centroid, which the hull absorbs as
    redundant.
    """
    _require_diagonal(cone)
    k = len(cone.vertex_directions)
    if not cone.n <= k <= total_curves:
        raise ConesError("need n <= vertex count <= curve count")
    if not 0.0 < scale:
        raise ConesError("scale must be positive")
    rows = [tuple(scale * x for x in v) for v in cone.vertex_directions]
    centroid = _unit(tuple(sum(v[c] for v in cone.vertex_directions) / k
                           for c in range(cone.n)))
    rows += [tuple(scale * x for x in centroid)] * (total_curves - k)
    if any(v >= 1.0 for row in rows for v in row):
        raise ConesError("scale too large: lengths must stay below 1")
    return ConeSpecL(rows)


def decompose_projection(surfaces, gamma,
                         search_depth=constants.LIFT_SEARCH_DEPTH_DEFAULT):
    """Split the Jordan projection into rotational and remainder parts.

    The surfaces must be untwisted and share one decomposition object:
    their common rotation map is `combinat.reference_rotation`'s, read from
    the thick reference surface of that decomposition.
    """
    decomposition = surfaces[0].decomposition
    if not all(s.coords.untwisted for s in surfaces):
        raise combinat.CombinatError("surfaces must be untwisted")
    if any(s.decomposition is not decomposition for s in surfaces):
        raise combinat.CombinatError("surfaces must share a decomposition")
    _, rotation = combinat.reference_rotation(decomposition, gamma,
                                              search_depth)
    r_vec, l_vec = zip(*[combinat.non_rotating_length(s, gamma, rotation)
                         for s in surfaces])
    return r_vec, l_vec


# --- serialization --------------------------------------------------------------


def ray_csv_header(n):
    cols = ["word"]
    cols += ["lambda_%d" % j for j in range(1, n + 1)]
    cols += ["dir_%d" % j for j in range(1, n + 1)]
    cols += ["in_cone", "angular_excess"]
    return ",".join(cols)


def ray_csv_rows(rows):
    out = []
    for r in rows:
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
