"""Single-cylinder analytics: model maps, damping, spiraling.

Cut cylinders C_a carry Fermi coordinates (s, r): arc position s along the
core (period a) and signed distance r from the core, with |r| <= R_a =
arccosh(delta*/a) so boundary hypercycles have length delta*.  Lifting to
the upper half-plane puts the core on the imaginary axis with s the log of
the modulus.  Sampled distances are computed from the Fermi coordinates
directly, since lifted points lose s-differences far below 1 to rounding.
"""

import math
import random

from . import constants
from .hyp2 import PlanePoint


class CylinderError(ValueError):
    pass


# the hypercycle calibration length delta*
_DELTA = constants.DELTA_STAR_DEFAULT


def lift_point(s, r):
    """Fermi coordinates to the upper half-plane, core on the imaginary axis."""
    scale = math.exp(s)
    return PlanePoint(scale * math.tanh(r), scale / math.cosh(r))


class ModelMap:
    """The stretch map between cylinders: linear in constant-distance curves.

    (s, r) -> (s a2/a1, r R2/R1); forward Lipschitz constant a2/a1, inverse
    constant max(R1/R2, a1 cosh R1 / (a2 cosh R2)).  The inverse variant
    maps the second cylinder back, boundary to boundary.
    """

    def __init__(self, a1, R1, a2, R2, inverse=False):
        if not (a2 >= a1 > 0):
            raise CylinderError("need a2 >= a1 > 0")
        if not (R1 >= R2 > 0):
            raise CylinderError("need R1 >= R2 > 0")
        self.a1, self.R1, self.a2, self.R2 = a1, R1, a2, R2
        self.inverse = inverse

    @property
    def forward_constant(self):
        return self.a2 / self.a1

    @property
    def inverse_constant(self):
        return max(self.R1 / self.R2,
                   self.a1 * math.cosh(self.R1) / (self.a2 * math.cosh(self.R2)))

    @property
    def theoretical(self):
        return self.inverse_constant if self.inverse else self.forward_constant

    def domain(self):
        if self.inverse:
            return (self.a2, self.R2)
        return (self.a1, self.R1)

    def apply(self, point):
        s, r = point
        # scale by the ratio, not by a2 then 1/a1: s * a2 underflows when
        # the core lengths are near the bottom of the float range
        if self.inverse:
            return (s * (self.a1 / self.a2), r * self.R1 / self.R2)
        return (s * (self.a2 / self.a1), r * self.R2 / self.R1)


class LipschitzReport:
    def __init__(self, sampled_sup, witness, theoretical):
        self.sampled_sup = sampled_sup
        self.witness = witness
        self.theoretical = theoretical


def _fermi_distance(p, q):
    """Hyperbolic distance between two Fermi points, from
    sinh^2(d/2) = sinh^2((r1 - r2)/2) + cosh r1 cosh r2 sinh^2((s1 - s2)/2).
    The square roots are taken apart so that the product cannot overflow
    before cosh itself does.
    """
    (s1, r1), (s2, r2) = p, q
    return 2.0 * math.asinh(math.hypot(
        math.sinh(0.5 * (r1 - r2)),
        math.sqrt(math.cosh(r1)) * math.sqrt(math.cosh(r2))
        * math.sinh(0.5 * (s1 - s2))))


def _pair_ratio(m, p, q):
    d0 = _fermi_distance(p, q)
    if d0 < 1e-12:
        return None
    return _fermi_distance(m.apply(p), m.apply(q)) / d0


def sampled_lipschitz(m, n_samples, seed=0, r_range=None):
    """Sampled sup of distance ratios over a convex chart region.

    Random pairs plus a structured grid including core-curve pairs; pairs
    closer than 1e-12 are skipped.  The region spans one period of the
    source cylinder, in the universal-cover chart where s is unwrapped, and
    its full height unless `r_range` narrows it.
    """
    a_dom, R_dom = m.domain()
    s_range = (0.0, a_dom)
    if r_range is None:
        r_range = (-R_dom, R_dom)
    rng = random.Random(seed)
    best, witness = 0.0, None

    def consider(p, q):
        nonlocal best, witness
        ratio = _pair_ratio(m, p, q)
        if ratio is None:
            return
        if ratio > best:
            best, witness = ratio, (p, q)

    def rand_point():
        return (rng.uniform(*s_range), rng.uniform(*r_range))

    for _ in range(n_samples):
        consider(rand_point(), rand_point())
    # structured pairs: along the core, along boundaries, and crossing
    grid = [s_range[0] + k * (s_range[1] - s_range[0]) / 8 for k in range(9)]
    for r in (0.0, r_range[0], r_range[1], 0.5 * (r_range[0] + r_range[1])):
        if not (r_range[0] <= r <= r_range[1]):
            continue
        for s1 in grid:
            for s2 in grid:
                if s1 < s2:
                    consider((s1, r), (s2, r))
    for s in grid:
        consider((s, r_range[0]), (s, r_range[1]))
        consider((s, r_range[0]), (s, 0.5 * (r_range[0] + r_range[1])))
    return LipschitzReport(best, witness, m.theoretical)


LIPSCHITZ_CSV_HEADER = ("a1,a2,R1,R2,theoretical,sampled_sup,"
                       "witness_s1,witness_r1,witness_s2,witness_r2")


def lipschitz_csv_row(m, report):
    (s1, r1), (s2, r2) = report.witness
    vals = [m.a1, m.a2, m.R1, m.R2, report.theoretical, report.sampled_sup,
            s1, r1, s2, r2]
    return ",".join("%.17g" % v for v in vals)


def damping_profile(a, t, D0, n_samples=400, seed=0):
    """Sampled log-Lipschitz constant of the stretch map f_{a, e^t a}
    restricted to the D0-neighborhood of the long boundary.

    Identically 0 at t = 0.  The analytic value of the restriction constant
    is the hypercycle stretch at depth D0, so the samples are cross-checked
    against it by the tests.
    """
    a2 = a * math.exp(t)
    if not (0 < a < _DELTA) or not (0 < a2 < _DELTA):
        raise CylinderError("core lengths must lie in (0, delta_star)")
    R1 = math.acosh(_DELTA / a)
    R2 = math.acosh(_DELTA / a2)
    if D0 >= min(R1, R2):
        raise CylinderError("neighborhood exceeds cylinder height")
    if t == 0.0:
        return 0.0
    if t > 0:
        m = ModelMap(a, R1, a2, R2)
    else:
        # contracting the core: swap roles so the map spec stays in-domain
        m = ModelMap(a2, R2, a, R1, inverse=True)
    report = sampled_lipschitz(m, n_samples, seed=seed,
                               r_range=(R1 - D0, R1))
    return math.log(report.sampled_sup)


def damping_restriction_constant(a, t, D0):
    """Exact restriction Lipschitz constant: hypercycle stretch at depth D0."""
    a2 = a * math.exp(t)
    R1 = math.acosh(_DELTA / a)
    R2 = math.acosh(_DELTA / a2)
    if D0 >= min(R1, R2):
        raise CylinderError("neighborhood exceeds cylinder height")
    r = R1 - D0
    stretch = (a2 / a) * math.cosh(r * R2 / R1) / math.cosh(r)
    return max(stretch, R2 / R1)


def excursion_depth(a, t):
    """Depth below the long boundary reached by the spiral chord.

    Closed form R_a - arctanh(tanh R_a / cosh(ta/2)): the perpendiculars
    cutting the lifted configuration are spaced ta apart, so the Lambert
    quadrilateral obtained by halving it has base ta/2.  The half-base
    convention is the one that matches the geodesic-chord oracle.
    """
    if not 0 < a < _DELTA:
        raise CylinderError("need 0 < a < delta_star")
    if t < 0:
        raise CylinderError("need t >= 0")
    R = math.acosh(_DELTA / a)
    half = t * a / 2.0
    if half > 350.0:
        return R
    x = math.tanh(R) / math.cosh(half)
    if x >= 1.0:
        return 0.0
    return R - math.atanh(x)


def spiral_residue(a, t):
    """Chord length minus t*a for the spiral with basic rotation t.

    Endpoints sit on the long boundary at perpendiculars spaced ta apart.
    The difference is evaluated in the form 2 log(v + sqrt(v^2 + e^{-ta})),
    which is exact and does not overflow for large t.
    """
    if not 0 < a < _DELTA:
        raise CylinderError("need 0 < a < delta_star")
    if t < 0:
        raise CylinderError("need t >= 0")
    # boundary point of the lifted configuration on the unit circle:
    # (tanh R, sech R) = (sqrt(delta*^2 - a^2)/delta*, a/delta*)
    x0, y0 = math.sqrt(_DELTA * _DELTA - a * a) / _DELTA, a / _DELTA
    shrink = math.exp(-t * a)
    v = math.hypot(x0 - x0 * shrink, y0 - y0 * shrink) / (2.0 * y0)
    return 2.0 * math.log(v + math.sqrt(v * v + shrink))


def ratio_residue_check(a1, a2, t1, t2):
    """Residue comparability across pinching: C^-1 <= ratio <= C log a1/log a2.

    Valid above the calibrated thresholds (t1 > T0, |t2 - t1| <= tau).
    Returns (passed, report).
    """
    if a1 > a2:
        raise CylinderError("need a1 <= a2")
    if t1 <= constants.T0_RESIDUE:
        raise CylinderError("t1 below the calibrated threshold")
    if abs(t2 - t1) > constants.TAU_RESIDUE:
        raise CylinderError("|t2 - t1| above the calibrated window")
    ratio = spiral_residue(a1, t1) / spiral_residue(a2, t2)
    C = constants.C_RESIDUE_RATIO
    lo = 1.0 / C
    hi = C * math.log(a1) / math.log(a2)
    report = {"ratio": ratio, "lower": lo, "upper": hi,
              "a1": a1, "a2": a2, "t1": t1, "t2": t2, "C": C}
    return lo <= ratio <= hi, report


def cusp_rotation_check(n_samples, seed=0):
    """Max basic rotation of geodesic segments outside the unit horocycle.

    In the cusp (delta* = 1, core at infinity) the basic rotation of a
    segment is the horizontal displacement of its horocyclic projection.
    Segments are arcs of semicircles kept below height 1, each measured by
    `segment_rotation`; the tangent semicircle of radius 1 realizes the
    sharp value 2 and is included as a structured sample.
    """
    rng = random.Random(seed)
    # tangency realizes the extremal rotation
    best = segment_rotation(1.0)
    for _ in range(n_samples):
        rho = rng.uniform(0.0, 1.2)
        if rho > 0:
            best = max(best, segment_rotation(rho))
    return best


def segment_rotation(rho):
    """Basic rotation of one maximal sub-arc of a semicircle of radius rho
    kept below the unit horocycle."""
    if rho <= 0:
        raise CylinderError("radius must be positive")
    if rho <= 1.0:
        return 2.0 * rho
    return rho - math.sqrt(rho * rho - 1.0)
