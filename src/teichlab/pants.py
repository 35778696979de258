"""Trigonometry of a single hyperbolic pair of pants.

A pair of pants with boundary lengths 2a_1, 2a_2, 2a_3 splits along its
seams into two right hexagons.  Removing the delta_*-collars of the
boundaries leaves the "shorts", whose hexagons alternate geodesic sides
(truncated seams, lengths c_i) and hypercycle arcs (lengths delta_*/2).

Everything here stores boundary HALF-lengths a_i; the cylinder functions
take the full core length.  Call sites elsewhere say which one they pass.
"""

import math

from . import constants


class PantsError(ValueError):
    pass


class PantsShape:
    """Boundary half-lengths of a pair of pants; the collars are those of
    `constants.DELTA_STAR_DEFAULT`."""

    __slots__ = ("a1", "a2", "a3")

    def __init__(self, a1, a2, a3):
        if not (a1 > 0 and a2 > 0 and a3 > 0):
            raise PantsError("boundary half-lengths must be positive")
        object.__setattr__(self, "a1", float(a1))
        object.__setattr__(self, "a2", float(a2))
        object.__setattr__(self, "a3", float(a3))

    def __setattr__(self, *a):
        raise AttributeError("PantsShape is immutable")

    @property
    def half_lengths(self):
        return (self.a1, self.a2, self.a3)

    def require_shorts(self):
        if max(self.half_lengths) >= constants.DELTA_STAR_DEFAULT / 2:
            raise PantsError("shorts undefined: need a_i < delta_star/2")

    def __repr__(self):
        return "PantsShape(%r, %r, %r)" % (self.a1, self.a2, self.a3)


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


def _cyclic(shape, i):
    """Half-lengths (a_i, a_{i+1}, a_{i+2}) for boundary index i in {1,2,3}."""
    a = shape.half_lengths
    return a[i - 1], a[i % 3], a[(i + 1) % 3]


def pentagon_residuals(a_k, a_l, t, a1, a2, a3):
    """Residuals of the defining pentagon identities for a split of side 1."""
    return (a_k + a_l - a1,
            math.sinh(a_k) * math.sinh(t) - math.cosh(a2),
            math.sinh(a_l) * math.sinh(t) - math.cosh(a3))


def pentagon_relative_residuals(shape, i):
    """Pentagon residuals of boundary i's split, relative to the terms they
    cancel: |a_K + a_L - a_i| / max(1, a_i), |r2| / cosh a2, |r3| / cosh a3.

    Float carries ~1e-16 of cosh a_i, which is above 1e-10 absolute once
    a_i is ~15.
    """
    a_k, a_l, t = solve_pentagon_split(shape, i)
    a1, a2, a3 = _cyclic(shape, i)
    add, r2, r3 = pentagon_residuals(a_k, a_l, t, a1, a2, a3)
    return (abs(add) / max(1.0, a1),
            abs(r2) / math.cosh(a2), abs(r3) / math.cosh(a3))


def _seam_split(a1, a2, a3, m):
    """Split of boundary 1 and the two pieces of the seam opposite it.

    Returns (a_K, c_K', c_L'): a_K is the piece of boundary 1 facing
    boundary 2, and c_K', c_L' are the seam pieces on either side of the
    splitting perpendicular.  `m` is `math` for floats or the 80-digit
    mpmath context `surface._mp`.  The pentagon elimination gives
    tanh a_K = sinh a1 cosh a2 / (cosh a3 + cosh a1 cosh a2); as
    a_K = 1/2 log1p(2 sinh a1 cosh a2 / (cosh a3 + e^-a1 cosh a2)) every
    term is positive, so it keeps full precision for small and large a1.
    c_L' reads a1 - a_K only through cosh, which is flat where that
    difference cancels.
    """
    ch2 = m.cosh(a2)
    a_k = m.log1p(2 * m.sinh(a1) * ch2 / (m.cosh(a3) + m.exp(-a1) * ch2)) / 2
    return (a_k, m.asinh(m.cosh(a_k) / m.sinh(a2)),
            m.asinh(m.cosh(a1 - a_k) / m.sinh(a3)))


def _split(shape, i):
    """Float (a_{i,K}, a_{i,L}, t, c_K', c_L') of boundary i.

    a_L comes from the pentagon identity sinh a_L sinh t = cosh a3, not
    from a1 - a_K, which cancels when a_L is much shorter than a1.
    """
    a1, a2, a3 = _cyclic(shape, i)
    a_k, ck, cl = _seam_split(a1, a2, a3, math)
    sinh_t = math.cosh(a2) / math.sinh(a_k)
    return (a_k, math.asinh(math.cosh(a3) / sinh_t), math.asinh(sinh_t),
            ck, cl)


def _splits(shape):
    return [_split(shape, i) for i in (1, 2, 3)]


def solve_pentagon_split(shape, i=1):
    """Split boundary i into the two pentagon pieces.

    Returns (a_{i,K}, a_{i,L}, t) where t is the length of the splitting
    perpendicular.  a_{i,K} comes from the closed form in `_seam_split`,
    the kernel that the 80-digit `surface.PantsGeometry` shares, and a_{i,L}
    and t from the pentagon identities.  No bracket is needed, and all three
    keep full relative precision for half-lengths from 1e-12 to 30.
    """
    return _split(shape, i)[:3]


def seam_lengths(shape):
    """Seam lengths (c_1', c_2', c_3') of the right hexagon.

    c_i' is the seam opposite boundary i (running between boundaries i+1
    and i+2); its two pentagon pieces come from arcsinh of the quoted
    pentagon identities.
    """
    return tuple(ck + cl for _, _, _, ck, cl in _splits(shape))


def _shorts_piece(a_side, a_split, d):
    """One shorts piece c_{i,K} or c_{i,L} via the cancellation-free regrouping.

    sinh(c' - arccosh(u)) = cosh(c')/(u + sqrt(u^2-1)) - u e^{-c'} with
    u = delta_*/(2 a), every factor evaluated without subtractive blowup.
    """
    u = d / (2.0 * a_side)
    sinh_cp = math.cosh(a_split) / math.sinh(a_side)
    cosh_cp = math.sqrt(1.0 + sinh_cp * sinh_cp)
    exp_neg = 1.0 / (sinh_cp + cosh_cp)
    root = math.sqrt(u - 1.0) * math.sqrt(u + 1.0)
    s = cosh_cp / (u + root) - u * exp_neg
    return math.asinh(s)


def _shorts_lengths(shape, splits):
    a, d = shape.half_lengths, constants.DELTA_STAR_DEFAULT
    return tuple(_shorts_piece(a[i % 3], a_k, d)
                 + _shorts_piece(a[(i + 1) % 3], a_l, d)
                 for i, (a_k, a_l, _, _, _) in enumerate(splits, 1))


def shorts_side_lengths_subtraction(shape):
    """Naive c_i = c_i' - collar truncations; fine at moderate a, unstable small."""
    shape.require_shorts()
    d = constants.DELTA_STAR_DEFAULT
    out = []
    for i, (_, _, _, ck, cl) in enumerate(_splits(shape), 1):
        _, a2, a3 = _cyclic(shape, i)
        out.append(ck - math.acosh(d / (2.0 * a2))
                   + cl - math.acosh(d / (2.0 * a3)))
    return tuple(out)


def hexagon_data(shape):
    """All derived hexagon side data for one shorts hexagon.

    The shorts lengths take the subtraction-free branch, which stays finite
    down to arbitrarily pinched boundaries.
    """
    shape.require_shorts()
    splits = _splits(shape)
    return HexagonData(seam_lengths=tuple(ck + cl
                                          for _, _, _, ck, cl in splits),
                       splits=tuple((a_k, a_l) for a_k, a_l, _, _, _ in splits),
                       split_heights=tuple(t for _, _, t, _, _ in splits),
                       shorts_lengths=_shorts_lengths(shape, splits),
                       hypercycle_side=constants.DELTA_STAR_DEFAULT / 2.0)
