"""Trigonometry of a single hyperbolic pair of pants.

A pair of pants with boundary lengths 2a_1, 2a_2, 2a_3 splits along its
seams into two right hexagons.  Removing the delta_*-collars of the
boundaries leaves the "shorts", whose hexagons alternate geodesic sides
(truncated seams, lengths c_i) and hypercycle arcs (lengths delta_*/2).

Everything here stores boundary HALF-lengths a_i; collar and cylinder
functions take the full core length.  Call sites elsewhere say which one
they pass.
"""

import math

from . import constants, hyp2
from .hyp2 import IsometryMatrix, PlanePoint


class PantsError(ValueError):
    pass


class PantsShape:
    """Boundary half-lengths of a pair of pants plus the collar calibration."""

    __slots__ = ("a1", "a2", "a3", "delta_star")

    def __init__(self, a1, a2, a3, delta_star=constants.DELTA_STAR_DEFAULT):
        if not (a1 > 0 and a2 > 0 and a3 > 0):
            raise PantsError("boundary half-lengths must be positive")
        if not 0 < delta_star <= 1:
            raise PantsError("delta_star must lie in (0, 1]")
        object.__setattr__(self, "a1", float(a1))
        object.__setattr__(self, "a2", float(a2))
        object.__setattr__(self, "a3", float(a3))
        object.__setattr__(self, "delta_star", float(delta_star))

    def __setattr__(self, *a):
        raise AttributeError("PantsShape is immutable")

    @property
    def half_lengths(self):
        return (self.a1, self.a2, self.a3)

    def require_shorts(self):
        if max(self.half_lengths) >= self.delta_star / 2:
            raise PantsError("shorts undefined: need a_i < delta_star/2")

    def __repr__(self):
        return ("PantsShape(%r, %r, %r, delta_star=%r)"
                % (self.a1, self.a2, self.a3, self.delta_star))


class HexagonData:
    """Derived side data of the hexagon and its shorts truncation."""

    __slots__ = ("seam_lengths", "splits", "split_heights",
                 "shorts_lengths", "hypercycle_side")

    def __init__(self, seam_lengths, splits, split_heights, shorts_lengths,
                 hypercycle_side):
        object.__setattr__(self, "seam_lengths", seam_lengths)
        object.__setattr__(self, "splits", splits)
        object.__setattr__(self, "split_heights", split_heights)
        object.__setattr__(self, "shorts_lengths", shorts_lengths)
        object.__setattr__(self, "hypercycle_side", hypercycle_side)

    def __setattr__(self, *a):
        raise AttributeError("HexagonData is immutable")


class CollarShape:
    """Collar of a closed geodesic: core length, calibration, height."""

    __slots__ = ("core_length", "delta_star", "height")

    def __init__(self, core_length, delta_star=constants.DELTA_STAR_DEFAULT):
        if core_length < 0:
            raise PantsError("core length must be nonnegative")
        object.__setattr__(self, "core_length", float(core_length))
        object.__setattr__(self, "delta_star", float(delta_star))
        object.__setattr__(self, "height",
                           collar_height(core_length, delta_star))

    def __setattr__(self, *a):
        raise AttributeError("CollarShape is immutable")


def _cyclic(shape, i):
    """Half-lengths (a_i, a_{i+1}, a_{i+2}) for boundary index i in {1,2,3}."""
    a = shape.half_lengths
    return a[i - 1], a[i % 3], a[(i + 1) % 3]


def pentagon_residuals(a_k, a_l, t, a1, a2, a3):
    """Residuals of the defining pentagon identities for a split of side 1."""
    return (a_k + a_l - a1,
            math.sinh(a_k) * math.sinh(t) - math.cosh(a2),
            math.sinh(a_l) * math.sinh(t) - math.cosh(a3))


def solve_pentagon_split(shape, i=1):
    """Split boundary i into the two pentagon pieces.

    Returns (a_{i,K}, a_{i,L}, t) where t is the length of the splitting
    perpendicular.  The root of the one-variable elimination identity is
    bracketed on (0, a_i) by bisection and polished with one Newton step.
    """
    a1, a2, a3 = _cyclic(shape, i)
    ratio = math.cosh(a2) / math.cosh(a3)

    def f(u):
        return math.sinh(u) * (1.0 + math.cosh(a1) * ratio) - \
            math.cosh(u) * math.sinh(a1) * ratio

    def fprime(u):
        return math.cosh(u) * (1.0 + math.cosh(a1) * ratio) - \
            math.sinh(u) * math.sinh(a1) * ratio

    lo, hi = 0.0, a1
    flo = f(lo)
    if flo >= 0:
        raise PantsError("pentagon split bracket failed")
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    u = 0.5 * (lo + hi)
    u -= f(u) / fprime(u)
    if not 0.0 < u < a1:
        u = min(max(u, lo), hi)
    t = math.asinh(math.cosh(a2) / math.sinh(u))
    return u, a1 - u, t


def seam_lengths(shape):
    """Seam lengths (c_1', c_2', c_3') of the right hexagon.

    c_i' is the seam opposite boundary i (running between boundaries i+1
    and i+2); its two pentagon pieces come from arcsinh of the quoted
    pentagon identities.
    """
    out = []
    for i in (1, 2, 3):
        _, a2, a3 = _cyclic(shape, i)
        ck, cl = _seam_pieces(shape, i)
        out.append(ck + cl)
    return tuple(out)


def _seam_pieces(shape, i):
    _, a2, a3 = _cyclic(shape, i)
    if a2 == 0 or a3 == 0:
        raise PantsError("degenerate boundary: infinite seam")
    a_k, a_l, _ = solve_pentagon_split(shape, i)
    ck = math.asinh(math.cosh(a_k) / math.sinh(a2))
    cl = math.asinh(math.cosh(a_l) / math.sinh(a3))
    return ck, cl


def _shorts_piece_stable(shape, i, which):
    """One shorts piece c_{i,K} or c_{i,L} via the cancellation-free regrouping.

    sinh(c' - arccosh(u)) = cosh(c')/(u + sqrt(u^2-1)) - u e^{-c'} with
    u = delta_*/(2 a), every factor evaluated without subtractive blowup.
    """
    _, a2, a3 = _cyclic(shape, i)
    a_k, a_l, _ = solve_pentagon_split(shape, i)
    if which == "K":
        a_side, a_split = a2, a_k
    else:
        a_side, a_split = a3, a_l
    d = shape.delta_star
    u = d / (2.0 * a_side)
    sinh_cp = math.cosh(a_split) / math.sinh(a_side)
    cosh_cp = math.sqrt(1.0 + sinh_cp * sinh_cp)
    exp_neg = 1.0 / (sinh_cp + cosh_cp)
    root = math.sqrt(u - 1.0) * math.sqrt(u + 1.0)
    s = cosh_cp / (u + root) - u * exp_neg
    return math.asinh(s)


def shorts_side_lengths(shape):
    """Geodesic side lengths (c_1, c_2, c_3) of the shorts hexagon.

    Uses the subtraction-free branch, which stays finite down to
    arbitrarily pinched boundaries.
    """
    shape.require_shorts()
    return tuple(_shorts_piece_stable(shape, i, "K")
                 + _shorts_piece_stable(shape, i, "L") for i in (1, 2, 3))


def shorts_side_lengths_subtraction(shape):
    """Naive c_i = c_i' - collar truncations; fine at moderate a, unstable small."""
    shape.require_shorts()
    d = shape.delta_star
    out = []
    for i in (1, 2, 3):
        _, a2, a3 = _cyclic(shape, i)
        ck, cl = _seam_pieces(shape, i)
        out.append(ck - math.acosh(d / (2.0 * a2))
                   + cl - math.acosh(d / (2.0 * a3)))
    return tuple(out)


def hexagon_data(shape):
    """All derived hexagon side data for one shorts hexagon."""
    shape.require_shorts()
    splits = []
    heights = []
    for i in (1, 2, 3):
        a_k, a_l, t = solve_pentagon_split(shape, i)
        splits.append((a_k, a_l))
        heights.append(t)
    return HexagonData(seam_lengths=seam_lengths(shape),
                       splits=tuple(splits),
                       split_heights=tuple(heights),
                       shorts_lengths=shorts_side_lengths(shape),
                       hypercycle_side=shape.delta_star / 2.0)


def collar_height(a, delta_star=constants.DELTA_STAR_DEFAULT):
    """Distance from a core of length a to its hypercycle of length delta_star."""
    if a == 0:
        raise PantsError("cusp has infinite collar")
    if a > delta_star:
        raise PantsError("core longer than the calibration hypercycle")
    return math.acosh(delta_star / a)


def offset_length(delta, t, x):
    """Length of the constant-distance curve pushed t beyond length delta.

    Direct form x cosh(arccosh(delta/x) + t).
    """
    if not 0 < x < delta:
        raise PantsError("need 0 < x < delta")
    return x * math.cosh(math.acosh(delta / x) + t)


def offset_length_expansion(delta, t, x):
    """Same quantity as delta e^t + sinh(t) g_delta(x), stable as x -> 0."""
    if not 0 < x < delta:
        raise PantsError("need 0 < x < delta")
    g = math.sqrt(delta - x) * math.sqrt(delta + x) - delta
    return delta * math.exp(t) + math.sinh(t) * g


def core_holonomy(a, delta_star=constants.DELTA_STAR_DEFAULT):
    """Holonomy of the core curve in the hypercycle-normalized chart.

    Valid down to a = 0 (the cusp), where it degenerates to the parabolic
    with off-diagonal entry delta_star.
    """
    if not 0 <= a < delta_star or delta_star > 1:
        raise PantsError("need 0 <= a < delta_star <= 1")
    c = math.cosh(a / 2.0)
    s_over_a = 0.5 if a == 0 else math.sinh(a / 2.0) / a
    w = delta_star + math.sqrt(delta_star - a) * math.sqrt(delta_star + a)
    return IsometryMatrix(c, -s_over_a * w,
                          -a * (math.sinh(a / 2.0) / w if a else 0.0), c,
                          _normalize=False)


def hypercycle_generator(a, delta_star=constants.DELTA_STAR_DEFAULT):
    """Entries of b(a) with exp(b(a)) = core_holonomy(a)^{-1}.

    b(0) = [[0, delta_star], [0, 0]]; the sign is chosen so the orbit of i
    moves in the positive direction along the hypercycle.
    """
    w = delta_star + math.sqrt(delta_star - a) * math.sqrt(delta_star + a)
    return (0.0, 0.5 * w, (a * a) / (2.0 * w), 0.0)


def hypercycle_point(a, t, delta_star=constants.DELTA_STAR_DEFAULT):
    """Point Q(a, t) at arc length t from i along the calibrated hypercycle.

    Computed as exp(t b(a)/delta_star) . i in closed form; b(a) squares to
    (a/2)^2 I, so the exponential needs no series.
    """
    if not 0 <= t <= delta_star:
        raise PantsError("arc parameter t must lie in [0, delta_star]")
    _, b12, b21, _ = hypercycle_generator(a, delta_star)
    s = t / delta_star
    theta = s * a / 2.0
    ch = math.cosh(theta)
    # sinh(theta)/(a/2) without dividing by a tiny a
    u = s if theta == 0 else s * math.sinh(theta) / theta
    m = IsometryMatrix(ch, u * b12, u * b21, ch, _normalize=False)
    return hyp2.mobius_apply(m, PlanePoint(0.0, 1.0))


# --- shorts hexagon embedding -------------------------------------------------

def _hypercycle_step(length, height, core_side):
    """Frame advance along a hypercycle arc of the given arc length.

    The core geodesic sits at distance `height` on the stated side of the
    direction of motion; the arc curves toward it.
    """
    quarter = math.pi / 2.0
    sgn = 1.0 if core_side == "left" else -1.0
    f0 = hyp2.rotation_at_i(-sgn * quarter) \
        @ hyp2.translation_along_imaginary_axis(height) \
        @ hyp2.rotation_at_i(sgn * quarter)
    step = hyp2.translation_along_imaginary_axis(length / math.cosh(height))
    return f0.inverse() @ step @ f0


def embed_hexagon_boundary(shape):
    """Normalized embedding of the shorts hexagon boundary.

    Returns the six (corner point, side tag) pairs in traversal order,
    starting at i between beta_1 and zeta_3, with zeta_3 leaving i along
    the positive imaginary axis.  Sides tagged zeta_k are geodesic of
    length c_k; sides tagged beta_k are hypercycle arcs of length
    delta_*/2 about boundary k.
    """
    frames = _boundary_frames(shape)
    return [(hyp2.mobius_apply(g, PlanePoint(0.0, 1.0)), tag)
            for g, tag in frames]


def _boundary_frames(shape):
    """Frame at the start corner of each side, with its tag, in order."""
    shape.require_shorts()
    c1, c2, c3 = shorts_side_lengths(shape)
    d = shape.delta_star
    heights = [math.acosh(d / (2.0 * a)) for a in shape.half_lengths]
    quarter = math.pi / 2.0
    # traversal: zeta3, beta2, zeta1, beta3, zeta2, beta1; left turns at the
    # corners, interior on the left, hypercycle cores outside on the right
    plan = [("zeta3", c3, None), ("beta2", d / 2.0, heights[1]),
            ("zeta1", c1, None), ("beta3", d / 2.0, heights[2]),
            ("zeta2", c2, None), ("beta1", d / 2.0, heights[0])]
    g = IsometryMatrix.identity()
    out = []
    for tag, length, height in plan:
        out.append((g, tag))
        if height is None:
            g = g @ hyp2.translation_along_imaginary_axis(length)
        else:
            g = g @ _hypercycle_step(length, height, "right")
        g = g @ hyp2.rotation_at_i(quarter)
    return out


def boundary_path_points(shape, per_side=8):
    """Sampled points along the embedded shorts boundary.

    Samples each side at per_side proportional arc-length fractions, so two
    shapes' samples correspond under the side-affine boundary map.
    """
    shape.require_shorts()
    c1, c2, c3 = shorts_side_lengths(shape)
    d = shape.delta_star
    heights = [math.acosh(d / (2.0 * a)) for a in shape.half_lengths]
    frames = _boundary_frames(shape)
    lengths = {"zeta1": c1, "zeta2": c2, "zeta3": c3,
               "beta1": d / 2.0, "beta2": d / 2.0, "beta3": d / 2.0}
    hmap = {"beta1": heights[0], "beta2": heights[1], "beta3": heights[2]}
    pts = []
    for g, tag in frames:
        total = lengths[tag]
        for k in range(per_side):
            frac = k / per_side
            if tag.startswith("zeta"):
                step = hyp2.translation_along_imaginary_axis(frac * total)
            else:
                step = _hypercycle_step(frac * total, hmap[tag], "right")
            pts.append(hyp2.mobius_apply(g @ step, PlanePoint(0.0, 1.0)))
    return pts
