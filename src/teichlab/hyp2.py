"""Floating-point primitives for the hyperbolic plane.

Upper half-plane model throughout.  Isometries are 2x2 real matrices of
unit determinant, identified with their negation; the canonical sign
makes the trace nonnegative whenever it is meaningfully nonzero.
Boundary points are floats, with math.inf the point at infinity; `tied`
is the one rule for endpoints too close to order, and `cyclic_order` the
one order on the boundary.
"""

import math

from . import constants


class Hyp2Error(ValueError):
    pass


class IsometryMatrix:
    """Element of PSL(2, R), stored as a normalized SL(2, R) matrix.

    Immutable.  The constructor scales to unit determinant and applies the
    canonical sign; products and inverses keep their float entries as
    computed, so the determinant drifts only by rounding (a few ulps per
    product).
    """

    __slots__ = ("m11", "m12", "m21", "m22")

    def __init__(self, m11, m12, m21, m22, _normalize=True):
        if _normalize:
            det = m11 * m22 - m12 * m21
            if det <= 0:
                raise Hyp2Error("matrix must have positive determinant")
            s = 1.0 / math.sqrt(det)
            m11, m12, m21, m22 = m11 * s, m12 * s, m21 * s, m22 * s
            tr = m11 + m22
            if abs(tr) > constants.SIGN_TRACE_CUTOFF:
                flip = tr < 0
            else:
                flip = m11 < 0
            if flip:
                m11, m12, m21, m22 = -m11, -m12, -m21, -m22
        object.__setattr__(self, "m11", float(m11))
        object.__setattr__(self, "m12", float(m12))
        object.__setattr__(self, "m21", float(m21))
        object.__setattr__(self, "m22", float(m22))

    def __setattr__(self, *a):
        raise AttributeError("IsometryMatrix is immutable")

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    @property
    def trace(self):
        return self.m11 + self.m22

    def entries(self):
        return (self.m11, self.m12, self.m21, self.m22)

    def __matmul__(self, other):
        a = self.m11 * other.m11 + self.m12 * other.m21
        b = self.m11 * other.m12 + self.m12 * other.m22
        c = self.m21 * other.m11 + self.m22 * other.m21
        d = self.m21 * other.m12 + self.m22 * other.m22
        return IsometryMatrix(a, b, c, d, _normalize=False)

    def inverse(self):
        return IsometryMatrix(self.m22, -self.m12, -self.m21, self.m11,
                              _normalize=False)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = IsometryMatrix.identity()
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base
            n >>= 1
        return out

    def approx_eq(self, other, tol=1e-9):
        """Equality in PSL(2, R): compare up to overall sign."""
        d_plus = max(abs(a - b) for a, b in zip(self.entries(), other.entries()))
        d_minus = max(abs(a + b) for a, b in zip(self.entries(), other.entries()))
        return min(d_plus, d_minus) <= tol

    def __repr__(self):
        return ("IsometryMatrix(%r, %r, %r, %r)"
                % (self.m11, self.m12, self.m21, self.m22))


class PlanePoint:
    """Point of the open upper half-plane."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        if not y > 0:
            raise Hyp2Error("plane point needs y > 0, got y=%r" % (y,))
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))

    def __setattr__(self, *a):
        raise AttributeError("PlanePoint is immutable")

    @property
    def z(self):
        return complex(self.x, self.y)

    def __repr__(self):
        return "PlanePoint(%r, %r)" % (self.x, self.y)


def tied(x, y):
    """Whether two boundary points are too close to order: both at
    infinity, or within ENDPOINT_TIE_TOL of max(1, |x|, |y|) of each other.
    """
    if x == math.inf or y == math.inf:
        return x == y
    return abs(x - y) <= (constants.ENDPOINT_TIE_TOL
                          * max(1.0, abs(x), abs(y)))


def cyclic_order(start, *points):
    """Whether `points` follow `start` in this order, strictly, on R u {inf}.

    The boundary is walked once from `start` in the increasing direction,
    through infinity (math.inf) and back up from minus infinity.  A point
    equal to `start` comes first.  The reals are compared as they are, so
    distinct endpoints never round together.
    """
    keys = [(0 if x == start else 1 if x > start else 2, x) for x in points]
    return all(k < l for k, l in zip(keys, keys[1:]))


class GeodesicLine:
    """Ordered pair of boundary points that do not tie."""

    __slots__ = ("start", "end")

    def __init__(self, start, end):
        if tied(start, end):
            raise Hyp2Error("geodesic needs distinct endpoints")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)

    def __setattr__(self, *a):
        raise AttributeError("GeodesicLine is immutable")

    def __repr__(self):
        return "GeodesicLine(%r, %r)" % (self.start, self.end)


# --- actions ----------------------------------------------------------------

def mobius_apply(m, p):
    """Apply an isometry to a point of the upper half-plane."""
    z = p.z
    w = (m.m11 * z + m.m12) / (m.m21 * z + m.m22)
    return PlanePoint(w.real, w.imag)


def mobius_boundary(m, x):
    """Apply an isometry to a boundary point, tracking infinity exactly."""
    if x == math.inf:
        if m.m21 == 0.0:
            return math.inf
        return m.m11 / m.m21
    denom = m.m21 * x + m.m22
    if denom == 0.0:
        return math.inf
    return (m.m11 * x + m.m12) / denom


def distance(p, q):
    """Hyperbolic distance between two points of the upper half-plane."""
    d2 = (p.x - q.x) ** 2 + (p.y - q.y) ** 2
    return 2.0 * math.asinh(math.sqrt(d2 / (4.0 * p.y * q.y)))


# --- classification ---------------------------------------------------------

def translation_length(m):
    """(length, kind): translation length 2 arccosh(|tr|/2) and the
    isometry class.

    Traces inside the band (2 - 1e-10, 2 + 1e-10) are reported parabolic,
    since the classification is numerically ambiguous there.
    """
    t = abs(m.trace)
    if abs(t - 2.0) < constants.PARABOLIC_BAND:
        return 0.0, "parabolic"
    if t > 2.0:
        return 2.0 * math.acosh(t / 2.0), "hyperbolic"
    return 0.0, "elliptic"


def fixed_points(a, b, c, d, sqrt):
    """Boundary fixed points (repelling, attracting) of a hyperbolic matrix.

    Shared by the float and the extended-precision code: the entries may be
    floats or mpmath numbers, and `sqrt` is the square root that matches
    them.  Fixed points solve c x^2 + (d - a) x - b = 0; the attracting one
    is the fixed point whose eigenvalue (c x + d) has modulus > 1.  None
    stands for the point at infinity.
    """
    if abs(c) < 1e-300:
        # one fixed point at infinity; eigenvalue there is a
        fin = b / (d - a) if a != d else d - a
        if abs(a) > 1:
            return fin, None
        return None, fin
    sq = sqrt((a + d) ** 2 - 4)
    # stable quadratic formula: avoid the cancelling combination a - d -+ sq
    # when c is tiny (root product is -b/c, which is then fuzz over fuzz)
    if a - d >= 0:
        big = (a - d + sq) / (2 * c)
    else:
        big = (a - d - sq) / (2 * c)
    other = -b / (c * big) if big != 0 else (a - d) / c - big
    if abs(c * big + d) > 1:
        return other, big
    return big, other


def axis_endpoints(m):
    """Axis of a hyperbolic isometry, attracting endpoint second."""
    if translation_length(m)[1] != "hyperbolic":
        raise Hyp2Error("no axis: isometry is not hyperbolic")
    rep, att = (math.inf if v is None else v
                for v in fixed_points(m.m11, m.m12, m.m21, m.m22, math.sqrt))
    return GeodesicLine(rep, att)


def geodesics_link(g1, g2):
    """Whether two boundary-endpoint pairs separate each other on the circle.

    Equivalent to the geodesics crossing: exactly one endpoint of g2 lies
    on the arc from g1's start to its end.  A shared endpoint (`tied`)
    makes linking undefined and raises.
    """
    s1, e1 = g1.start, g1.end
    for x in (s1, e1):
        for y in (g2.start, g2.end):
            if tied(x, y):
                raise Hyp2Error("degenerate linking: shared endpoint")
    return cyclic_order(s1, g2.start, e1) != cyclic_order(s1, g2.end, e1)


# --- constructors and line charts (test oracles) ----------------------------

def translation_along_imaginary_axis(length):
    """Hyperbolic translation i -> e^length i along the imaginary axis."""
    h = 0.5 * length
    return IsometryMatrix(math.exp(h), 0.0, 0.0, math.exp(-h))


def rotation_at_i(theta):
    """Elliptic rotation about i, turning tangent vectors ccw by theta."""
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return IsometryMatrix(c, s, -s, c, _normalize=False)


def map_zero_inf_to(p, q):
    """Isometry sending the oriented line (0, inf) to the oriented line (p, q)."""
    if p == math.inf and q == math.inf:
        raise Hyp2Error("endpoints must be distinct")
    if p == math.inf:
        # 0 -> inf, inf -> q: z -> q + (-1)/z needs det > 0: z -> q - 1/z
        return IsometryMatrix(q, -1.0, 1.0, 0.0)
    if q == math.inf:
        # 0 -> p, inf -> inf: z -> z + p
        return IsometryMatrix(1.0, p, 0.0, 1.0)
    if q > p:
        return IsometryMatrix(q, p, 1.0, 1.0)
    return IsometryMatrix(q, -p, 1.0, -1.0)


def distance_to_line(line, p):
    """Distance from a point to a geodesic line."""
    g = map_zero_inf_to(line.start, line.end).inverse()
    w = mobius_apply(g, p)
    # distance from w to the imaginary axis: arcsinh(|x|/y)
    return math.asinh(abs(w.x) / w.y)


def point_on_line(line, s):
    """Point at signed parameter s along an oriented geodesic."""
    g = map_zero_inf_to(line.start, line.end)
    return mobius_apply(g, PlanePoint(0.0, math.exp(s)))
