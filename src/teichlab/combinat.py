"""Crossing combinatorics of closed geodesics against a hexagon system.

The hexagon system of the builtin genus-2 decomposition pairs the three
pants curves with the three closed seam curves.  On an untwisted surface,
the lifted intersections of a closed geodesic with these six curves carry
two boundary orders (one per side of the axis); order disagreements detect
crossings and count how often the geodesic wraps around a pants curve.
That count corrects geodesic length for twisting contributions, which is
what makes length distortion between differently pinched untwisted
surfaces uniformly comparable.

All geometry here runs in the frame where the axis of the studied geodesic
is the imaginary axis with attracting endpoint at infinity: the two
boundary sides are the positive and negative reals, every linking lift has
one endpoint on each side, and the period acts by scaling.
"""

import bisect
import functools
import math
import sys

from . import constants, curves, hyp2, surface
from .hyp2 import GeodesicLine


class CombinatError(ValueError):
    pass


_BEAM_WIDTH = 600
_STABILITY_STEP = 2
_KEY_TIE_TOL = 1e-10
_TIE_MESSAGE = (
    "boundary order tie: two lift endpoints are closer than the float "
    "search can order on this pinched surface; rotation numbers do not "
    "depend on the untwisted surface, so use a thicker one (e.g. lengths "
    "0.7 0.8 0.9)")
_UNDERFLOW_MESSAGE = (
    "float lift search underflowed on this pinched surface: a matrix row "
    "rounded to zero; rotation numbers do not depend on the untwisted "
    "surface, so use a thicker one (e.g. lengths 0.7 0.8 0.9)")
_CROSSING_TIE_MESSAGE = (
    "crossing parameter tie: two lifts of one family cross the axis closer "
    "than the float search can separate on this pinched surface; rotation "
    "numbers do not depend on the untwisted surface, so use a thicker one "
    "(e.g. lengths 0.7 0.8 0.9)")
_THIN_MESSAGE = (
    "pants curve too short for the float disjointness check: its trace is "
    "within the parabolic band; rotation numbers do not depend on the "
    "untwisted surface, so use a thicker one (e.g. lengths 0.7 0.8 0.9)")
_SEAM_LETTERS = "xyz"
_NORMAL_MIN = sys.float_info.min
_CHORD_MARGIN = 1e-12
# the seam-power census of `lines_through` stops after this many misses
# in a row, or this many steps, in each direction
_CENSUS_MISSES = 12
_CENSUS_STEPS = 200
_KEY_BASE = 2 * 10 ** 9 + 1


# --- words ---------------------------------------------------------------------

def _normalize_word(gamma):
    reduced = curves.cyclic_reduce(curves._as_word(gamma))
    if not reduced:
        raise CombinatError("trivial class")
    return reduced


def _primitive_root(word):
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word == word[p:] + word[:p]:
            return word[:p], n // p
    return word, 1


def _root_form(word):
    """Canonical cyclic form of a reduced word's primitive root: the one
    key that a class and its powers share."""
    root, _ = _primitive_root(word)
    return curves.canonical_cyclic_form(root).word


@functools.cache
def _class_forms(words):
    """The set of `_root_form`s of a tuple of words, formed once per tuple:
    `non_rotating_length` asks for the pants curves' on every call."""
    return frozenset(_root_form(_normalize_word(w)) for w in words)


def system_excludes(pants_words, seam_words, word):
    """Whether a reduced word is a power of one of the hexagon system's
    pants curves or seam curves, up to cyclic order."""
    return _root_form(word) in _class_forms((*pants_words, *seam_words))


class HexagonSystem:
    """Pants curves and closed seam curves of a marked genus-2 surface."""

    def __init__(self, marked):
        if marked.curve_words is None:
            raise CombinatError("hexagon system needs the builtin genus-2 marking")
        self.pants_words = list(marked.curve_words)
        self.seam_words = list(marked.seam_words)
        # pants curves are disjoint: their base axes never link.  The float
        # test cannot place an axis once a cuff's trace excess falls inside
        # the parabolic band (a cuff below about 2e-5), and it is the check
        # that keeps the search from returning wrong maps there
        try:
            axes = [hyp2.axis_endpoints(marked.holonomy(w))
                    for w in self.pants_words]
        except hyp2.Hyp2Error:
            raise CombinatError(_THIN_MESSAGE) from None
        for i in range(3):
            for j in range(i + 1, 3):
                if hyp2.geodesics_link(axes[i], axes[j]):
                    raise CombinatError("pants curves must be disjoint")

    def excludes(self, word):
        return system_excludes(self.pants_words, self.seam_words, word)


# --- lifts ---------------------------------------------------------------------

class _Lift:
    """One lift of a reference curve linking the studied axis.

    Endpoints are frame reals on opposite sides of 0; `att`/`rep` keep the
    curve's own orientation.  `path` is the generator word of the group
    element that carried the base axis here, and `shift` the log-scaling
    applied afterwards to land the crossing parameter in [0, period).
    """

    __slots__ = ("curve", "family", "att", "rep", "s", "shift", "path")

    def __init__(self, curve, family, att, rep, shift=0.0, path=None):
        self.curve = curve
        self.family = family
        self.att = att
        self.rep = rep
        self.s = 0.5 * math.log(-att * rep)
        self.shift = shift
        self.path = path

    @property
    def pos(self):
        return self.att if self.att > 0 else self.rep

    @property
    def neg(self):
        return self.att if self.att < 0 else self.rep

    @property
    def key1(self):
        return math.log(self.pos)

    @property
    def key2(self):
        return math.log(-self.neg)

    def shifted(self, delta):
        scale = math.exp(delta)
        return _Lift(self.curve, self.family, self.att * scale,
                     self.rep * scale, self.shift + delta, self.path)

    def line(self):
        return GeodesicLine(self.rep, self.att)


def _links(a, b):
    return hyp2.geodesics_link(a.line(), b.line())


def _links_centered(a, b):
    """Linking test after recentering by the axis flow.

    Scaling both chords is an isometry of the frame, but the tie rule
    `hyp2.tied` is relative to the endpoints' size, so the recentering
    decides which pairs of far-flung endpoints on pinched surfaces tie.
    Endpoints that tie after it raise.
    """
    delta = -0.5 * (a.s + b.s)
    try:
        return _links(a.shifted(delta), b.shifted(delta))
    except hyp2.Hyp2Error:
        raise CombinatError(_TIE_MESSAGE) from None


def _disagrees(a, b):
    d1 = a.key1 - b.key1
    d2 = a.key2 - b.key2
    if abs(d1) < _KEY_TIE_TOL or abs(d2) < _KEY_TIE_TOL:
        raise CombinatError(_TIE_MESSAGE)
    return (d1 > 0) != (d2 > 0)


def _linking_shifts(base, probe, period):
    """Integers j so that probe shifted by j periods links base.

    Two chords that both straddle the axis link exactly when the shift
    separates the two key differences, so the linking window is an
    explicit interval.
    """
    a = (base.key1 - probe.key1) / period
    b = (base.key2 - probe.key2) / period
    lo, hi = min(a, b), max(a, b)
    eps = _KEY_TIE_TOL / period
    out = []
    j = math.ceil(lo - 1.0)
    while j <= hi + 1.0:
        if lo + eps < j < hi - eps:
            out.append(j)
        elif lo - eps <= j <= lo + eps or hi - eps <= j <= hi + eps:
            raise CombinatError(_TIE_MESSAGE)
        j += 1
    return out


# --- the lift search -----------------------------------------------------------

def _mobius(m, val):
    """Boundary action on an extended real; None encodes infinity.

    `m` is an entry tuple (a, b, c, d) of floats or mpmath numbers; the float
    operations are those of `hyp2.mobius_boundary`.
    """
    if val is None:
        if m[2] == 0:
            return None
        return m[0] / m[2]
    den = m[2] * val + m[3]
    if den == 0:
        return None
    return (m[0] * val + m[1]) / den


class _Frame:
    """The studied geodesic's axis chart and everything expressed in it.

    The chart is built once at 80 digits from the word's holonomy:
    `_mp_from_axis` maps its axis to the imaginary axis, attracting
    endpoint at infinity, and `period` and the hyperbolicity check read
    the float rounding of that same holonomy (`surface._to_float_matrix`).
    The 80-digit holonomy of every hexagon-system curve is built once
    here too: `_mp_spec_ends` holds the fixed points (rep, att) of each
    curve and `_mp_seam` the seam matrices that `lines_through` steps by.
    The float data the beam reads are roundings of the chart.  `gens` maps
    each signed generator letter to the entry tuple (a, b, c, d) of its
    conjugate in the chart, rounded by `surface._to_float_matrix`.
    `curve_specs` holds the base axis of each curve as (idx, family, rep,
    att) in frame reals, None for infinity, in the order P1..P3, H1..H3.
    The finite endpoints of those axes are sorted once (`_finite_ends`)
    for the beam's chord test `link_candidates`; the specs with an
    endpoint at infinity, which that test cannot rule out, are
    `_infinite_specs`.
    """

    def __init__(self, marked, word):
        self.marked = marked
        self.word = word
        holonomy = marked._mp_holonomy(word)
        self.period, kind = hyp2.translation_length(
            surface._to_float_matrix(holonomy))
        if kind != "hyperbolic":
            raise CombinatError("class is not a closed geodesic: image "
                                "is %s" % kind)
        self.system = HexagonSystem(marked)
        rep, att = hyp2.fixed_points(*holonomy, surface._mp.sqrt)
        one, zero = surface._mp.mpf(1), surface._mp.mpf(0)
        if rep is None or att is None:
            if att is None:
                frame = (one, rep, zero, one)
            else:
                frame = (att, -one, one, zero)
        elif att > rep:
            frame = (att, rep, one, one)
        else:
            frame = (att, -rep, one, -one)
        from_axis = surface._inv(frame)
        self._mp_from_axis = from_axis
        self.gens = {
            letter: surface._to_float_matrix(surface._mul(
                surface._mul(from_axis, g), frame)).entries()
            for letter, g in marked._mp_letters.items()}
        self._mp_seam = {}
        self._mp_spec_ends = {}
        self.curve_specs = []
        for family, words in (("P", marked.curve_words),
                              ("H", marked.seam_words)):
            for idx, w in enumerate(words, start=1):
                curve = marked._mp_holonomy(w)
                if family == "H":
                    self._mp_seam[idx] = curve
                ends = hyp2.fixed_points(*curve, surface._mp.sqrt)
                self._mp_spec_ends[(idx, family)] = ends
                rep, att = (None if v is None else float(v) for v in (
                    _mobius(from_axis, e) for e in ends))
                self.curve_specs.append((idx, family, rep, att))
        self._infinite_specs = [s for s in self.curve_specs
                                if s[2] is None or s[3] is None]
        self._finite_ends = sorted(
            x for s in self.curve_specs if None not in s[2:] for x in s[2:])

    def mp_carry(self, path):
        """The 80-digit chart map times the holonomy of the word `path`."""
        m = self._mp_from_axis
        for letter in path:
            m = surface._mul(m, self.marked._mp_letters[letter])
        return m

    def refine_endpoints(self, path, spec):
        """High-precision frame endpoints (rep, att) of a lift, or None."""
        m = self.mp_carry(path)
        rep_b, att_b = self._mp_spec_ends[(spec[0], spec[1])]
        rep = _mobius(m, rep_b)
        att = _mobius(m, att_b)
        if rep is None or att is None or rep == 0 or att == 0:
            return None
        if (rep > 0) == (att > 0):
            return None
        return float(rep), float(att)

    def lift_of(self, m, spec):
        """Lift of a base axis carried by m, if it links the frame axis.

        `m` is an entry tuple (a, b, c, d) of floats and `spec` a curve spec.
        The endpoint images take the float operations of `_mobius`, written
        out here because the beam runs this test six times per node.  The
        lift links when both images are finite and their product is
        negative (a product that underflows to -0.0 does not link).
        """
        a, b, c, d = m
        rep, att = spec[2], spec[3]
        if rep is None:
            if c == 0:
                return None
            rep = a / c
        else:
            den = c * rep + d
            if den == 0:
                return None
            rep = (a * rep + b) / den
        if att is None:
            if c == 0:
                return None
            att = a / c
        else:
            den = c * att + d
            if den == 0:
                return None
            att = (a * att + b) / den
        if not rep * att < 0.0 or not (
                math.isfinite(rep) and math.isfinite(att)):
            return None
        return _Lift(spec[0], spec[1], att, rep)

    def link_candidates(self, a, b, c, d):
        """The curve specs whose lift by (a, b, c, d) `lift_of` must test.

        x -> (ax + b)/(cx + d) is zero at p = -b/a and infinite at q = -d/c,
        so the image of a real x changes sign exactly where x passes p or
        q, and a finite base axis links only if exactly one of its
        endpoints lies between p and q.  When no finite endpoint comes
        within the margin of [min(p, q), max(p, q)], every finite spec is
        skipped and only `_infinite_specs` remain.  Otherwise, and when a
        or c is zero or subnormal or p or q is not finite, all specs do.

        The margin makes a skip safe in float.  For a normal a, fl(a*x) is
        within 2^-53 |a x| + 2^-1075 of a*x, so fl(fl(a*x) + b) has the sign
        of a(x - p) once |x - p| > 2^-53 (|x| + 1), and the float -b/a is
        within 2^-53 |p| + 2^-1075 of p; likewise for c, d and q.  Both
        endpoints of a skipped spec lie more than 2^-50 (1 + |p| + |q|)
        outside the float [p, q], so every numerator and denominator gets
        its exact sign, and an interval that holds both or neither of p and
        q gives both images one sign.  The factor 1e-12 also covers the
        roundings of the margin test itself.  An image that overflows or
        underflows makes `lift_of` return None anyway.  (Rounding is also
        monotone, which on its own gives these signs; the margin does not
        rest on that.)
        """
        if abs(a) >= _NORMAL_MIN and abs(c) >= _NORMAL_MIN:
            p = -b / a
            q = -d / c
            margin = _CHORD_MARGIN * (1.0 + abs(p) + abs(q))
            if margin < math.inf:
                if q < p:
                    p, q = q, p
                ends = self._finite_ends
                i = bisect.bisect_left(ends, p - margin)
                if i == len(ends) or ends[i] > q + margin:
                    return self._infinite_specs
        return self.curve_specs

    def lines_through(self, h, p_idx, center):
        """Frame lines of pants-curve lifts crossing the seam lift h.

        In the base hexagon, seam s meets pants curves s+1 and s+2 at right
        angles, so the base axis of each pants curve p != s crosses the
        base axis of seam s.  The census carries the base axis of p by h's
        path followed by the powers of the seam holonomy in both
        directions.  The endpoints of those products degrade in float64
        long before the crossing window is exhausted on pinched surfaces,
        so the census runs at 80 digits from the chart.  Endpoints come out
        recentered by the axis flow at `center` so the caller can compare
        them with other similarly recentered chords.
        """
        if p_idx == h.curve:
            return []
        scale = math.exp(h.shift - center)
        h_line = h.shifted(-center).line()
        out = []
        base = self.mp_carry(h.path)
        nu = self._mp_seam[h.curve]
        nu_inv = surface._inv(nu)
        rep_b, att_b = self._mp_spec_ends[(p_idx, "P")]
        for direction in (1, -1):
            cur = base if direction == 1 else surface._mul(base, nu_inv)
            step = nu if direction == 1 else nu_inv
            misses, steps = 0, 0
            while misses < _CENSUS_MISSES and steps <= _CENSUS_STEPS:
                hit = False
                rep = _mobius(cur, rep_b)
                att = _mobius(cur, att_b)
                if rep is not None and att is not None and rep != att:
                    rep_f = float(rep) * scale
                    att_f = float(att) * scale
                    if math.isfinite(rep_f) and math.isfinite(att_f) \
                            and rep_f != att_f:
                        try:
                            line = GeodesicLine(rep_f, att_f)
                            hit = hyp2.geodesics_link(line, h_line)
                        except hyp2.Hyp2Error:
                            hit = False
                if hit:
                    out.append(line)
                    misses = 0
                else:
                    misses += 1
                cur = surface._mul(cur, step)
                steps += 1
        return out


_COARSE_KEY_TOL = 1e-4


def _node_key(a, b, c, d):
    """The entries up to sign and scale, to 9 places, packed in one int.

    Each entry v is normalized to x = sign * v / scale, with the sign of
    the first nonzero entry, so |x| <= 1, and enters as the integer n with
    round(x, 9) == n / 1e9: n = round(x * 1e9), or round(round(x, 9) * 1e9)
    when x * 1e9 lies within 1e-6 of a half-integer.  Two keys are equal
    exactly when the tuples of round(x, 9) are.  round(x, 9) is the float
    nearest N / 10^9, where N is x * 10^9 rounded to an integer.  fl(x *
    1e9) is within 2^-24 of x * 10^9 (half an ulp below 2^30), so more
    than 1e-6 from a half-integer both round to N, and nearer to one
    round(x, 9) * 1e9 is within a few ulps of N.  N -> N / 1e9 is
    injective on |N| <= 10^9, where floats are spaced far below 1e-9, and
    the four N are the digits of one number in balanced base 2 * 10^9 + 1,
    whose digits are unique.  A NaN entry (an overflowed product) gave a
    tuple equal to no other; its key is a fresh object.
    """
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if scale == 0.0:
        return 0
    v = a if a != 0.0 else b if b != 0.0 else c if c != 0.0 else d
    if not v > 0:
        scale = -scale  # x / -scale is -x / scale, bit for bit
    xa, xb, xc, xd = a / scale, b / scale, c / scale, d / scale
    ya, yb, yc, yd = xa * 1e9, xb * 1e9, xc * 1e9, xd * 1e9
    try:
        na, nb, nc, nd = round(ya), round(yb), round(yc), round(yd)
    except ValueError:
        return object()
    if abs(ya - na) > 0.499999:
        na = round(round(xa, 9) * 1e9)
    if abs(yb - nb) > 0.499999:
        nb = round(round(xb, 9) * 1e9)
    if abs(yc - nc) > 0.499999:
        nc = round(round(xc, 9) * 1e9)
    if abs(yd - nd) > 0.499999:
        nd = round(round(xd, 9) * 1e9)
    return ((na * _KEY_BASE + nb) * _KEY_BASE + nc) * _KEY_BASE + nd


def _beam_buckets(frame, depth, beam_width):
    """Raw buckets of one beam pass, copied after level `depth` and at the end.

    If the beam empties before level `depth`, both are the final dict.  A
    bucket per reference curve holds entries (k1, k2, path): the keys of
    a lift shifted into the first period, and the generator word that
    carried the base axis.  A lift joins its bucket unless both keys agree
    within _COARSE_KEY_TOL with an entry already there.  A node is (entry
    tuple, last letter, path); a child takes the eight multiplies of
    `hyp2.IsometryMatrix.__matmul__` in the same order, so every float
    matches a search over `IsometryMatrix` products.  A child whose
    `_node_key` was seen before is dropped, and `lift_of` runs only on the
    specs that `frame.link_candidates` leaves, which skips no lift.  Each
    level but the last keeps the `beam_width` children of lowest score, in
    a stable sort; the last level's children are never expanded, so they
    are not scored, but a row that rounded to zero still raises.
    """
    period = frame.period
    below, above = -0.5 * period, 1.5 * period
    lift_of = frame.lift_of
    link_candidates = frame.link_candidates
    gens = list(frame.gens.items())
    buckets = {}

    def record(lift, path):
        j = math.floor(lift.s / period)
        k1 = lift.key1 - j * period
        k2 = lift.key2 - j * period
        entries = buckets.setdefault((lift.curve, lift.family), [])
        if any(abs(k1 - e[0]) < _COARSE_KEY_TOL
               and abs(k2 - e[1]) < _COARSE_KEY_TOL for e in entries):
            return
        entries.append((k1, k2, path))

    identity = (1.0, 0.0, 0.0, 1.0)
    for spec in frame.curve_specs:
        lift = lift_of(identity, spec)
        if lift is not None:
            record(lift, ())
    level = [(identity, 0, ())]
    seen = {_node_key(*identity)}
    at_depth = None
    levels = depth + _STABILITY_STEP
    for done in range(levels):
        if done == depth:
            at_depth = {k: list(v) for k, v in buckets.items()}
        scored = done + 1 < levels
        children = []
        for (a, b, c, d), last, path in level:
            for letter, (ga, gb, gc, gd) in gens:
                if letter == -last:
                    continue
                na = a * ga + b * gc
                nb = a * gb + b * gd
                nc = c * ga + d * gc
                nd = c * gb + d * gd
                key = _node_key(na, nb, nc, nd)
                if key in seen:
                    continue
                seen.add(key)
                m = (na, nb, nc, nd)
                for spec in link_candidates(na, nb, nc, nd):
                    lift = lift_of(m, spec)
                    if lift is not None:
                        record(lift, path + (letter,))
                # score: position of the orbit of i in axis coordinates, in
                # logs so huge entries on pinched surfaces cannot underflow
                # to the boundary: |x|/y = |ac + bd| and
                # log|z| = log|(a,b)| - log|(c,d)|
                top, bottom = math.hypot(na, nb), math.hypot(nc, nd)
                if top == 0.0 or bottom == 0.0:
                    raise CombinatError(_UNDERFLOW_MESSAGE)
                if not scored:
                    continue
                s = math.log(top) - math.log(bottom)
                score = (math.asinh(abs(na * nc + nb * nd))
                         + max(0.0, below - s, s - above))
                children.append((score, m, letter, path))
        children.sort(key=lambda t: t[0])
        level = [(m, letter, path + (letter,))
                 for _, m, letter, path in children[:beam_width]]
        if not level:
            break
    if at_depth is None:
        at_depth = buckets
    return at_depth, buckets


def _collect_lifts(frame, depth):
    """Refined lifts found by one beam pass, at `depth` and two levels deeper.

    The pass (`_beam_buckets`) runs to depth + _STABILITY_STEP and copies
    its buckets as soon as level `depth` is done, so the first list is
    exactly the one a pass stopped at `depth` finds: same beam, same order,
    same `seen` set.  If the beam empties before `depth`, both lists come
    from the final buckets.  Every bucket entry is refined at 80 digits
    from its path.
    """
    period = frame.period
    at_depth, buckets = _beam_buckets(frame, depth, _BEAM_WIDTH)
    specs = {(s[0], s[1]): s for s in frame.curve_specs}
    endpoints = {}

    def refine(found):
        refined = {}
        for (idx, family), entries in found.items():
            for _k1, _k2, path in entries:
                lift_id = (idx, family, path)
                if lift_id not in endpoints:
                    endpoints[lift_id] = frame.refine_endpoints(
                        path, specs[(idx, family)])
                vals = endpoints[lift_id]
                if vals is None:
                    continue
                rep, att = vals
                lift = _Lift(idx, family, att, rep, path=path)
                j = math.floor(lift.s / period)
                lift = lift.shifted(-j * period)
                key = (idx, family, round(lift.key1, 7), round(lift.key2, 7))
                if key not in refined:
                    refined[key] = lift
        return sorted(refined.values(),
                      key=lambda l: (l.s, l.family, l.curve))

    return refine(at_depth), refine(buckets)


# --- intersection sequences ----------------------------------------------------

class IntersectionSequence:
    """Lifted crossings of one period, with the two boundary orders."""

    def __init__(self, word, entries, period, frame):
        self.word = word
        self.entries = entries
        self.period = period
        self._frame = frame
        # a pants lift and a seam lift may legitimately cross the axis at
        # one point (seam feet lie on the pants curves); only a tie within
        # one family leaves the cyclic sequence ill defined
        for a, b in zip(entries, entries[1:]):
            if (a.family == b.family
                    and abs(a.s - b.s) < constants.ENDPOINT_TIE_TOL):
                raise CombinatError(_CROSSING_TIE_MESSAGE)
        # within one family the curves are disjoint, so the two boundary
        # orders must agree on every same-family pair of lifts
        for fam in ("P", "H"):
            ents = [e for e in entries if e.family == fam]
            for i, a in enumerate(ents):
                for b in ents[i + 1:]:
                    if _disagrees(a, b):
                        raise CombinatError(
                            "same-family lifts disagree between the orders")

    @property
    def p_entries(self):
        return [e for e in self.entries if e.family == "P"]

    @property
    def h_entries(self):
        return [e for e in self.entries if e.family == "H"]

    @property
    def intersection_number(self):
        return len(self.p_entries)


def _sequences_match(a, b):
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x.curve, x.family) != (y.curve, y.family):
            return False
        if abs(x.s - y.s) > 1e-6 * max(1.0, abs(x.s)):
            return False
    return True


def intersection_sequence(marked, gamma,
                          search_depth=constants.LIFT_SEARCH_DEPTH_DEFAULT):
    """All lifts of the hexagon-system curves linking one axis period.

    The search walks reduced words in the marking generators up to the
    given word length, beam-limited by distance to the axis window.  The
    beam pass continues two letters deeper, and the result is certified by
    agreement of the lifts found at the requested length with those found
    at the end of that same pass.
    """
    if not marked.coords.untwisted:
        raise CombinatError("surface must be untwisted")
    word = _normalize_word(gamma)
    frame = _Frame(marked, word)
    if frame.system.excludes(word):
        raise CombinatError("excluded class: member of the hexagon system")
    lifts, deeper = _collect_lifts(frame, search_depth)
    if not _sequences_match(lifts, deeper):
        raise CombinatError("lift search unstable: increase search_depth")
    if not lifts:
        raise CombinatError("no crossings found: increase search_depth")
    return IntersectionSequence(word, lifts, frame.period, frame)


# --- rotation data -------------------------------------------------------------

class RotationData:
    __slots__ = ("sequence", "crossing_flags", "per_crossing", "internal_words",
                 "doubled_rotation", "doubled_rules", "leftover_pairs")

    def __init__(self, sequence, crossing_flags, per_crossing, internal_words,
                 doubled_rotation, doubled_rules, leftover_pairs):
        self.sequence = sequence
        self.crossing_flags = crossing_flags
        self.per_crossing = per_crossing
        self.internal_words = internal_words
        self.doubled_rotation = doubled_rotation
        self.doubled_rules = doubled_rules
        self.leftover_pairs = leftover_pairs

    @property
    def intersection_number(self):
        return self.sequence.intersection_number


def classify_and_rotate(seq):
    """Crossing/internal tags, per-crossing rotations, and pair counting."""
    h_entries = seq.h_entries
    p_entries = seq.p_entries
    period = seq.period
    if not h_entries:
        raise CombinatError("sequence has no seam crossings")

    # crossing classification, cross-validated: linking of the lifted lines
    # must coincide with a boundary-order disagreement
    linked = {}
    flags = []
    for h in h_entries:
        hits = []
        for p in p_entries:
            for j in _linking_shifts(h, p, period):
                shifted = p.shifted(j * period)
                if (not _links_centered(h, shifted)
                        or not _disagrees(h, shifted)):
                    raise CombinatError(
                        "linking and order-disagreement classifications differ")
                hits.append((p, j))
        linked[id(h)] = hits
        flags.append(bool(hits))

    # per-crossing synthetic rotation: count seam lifts linking each pants lift
    per_crossing = []
    for c in p_entries:
        count = 0
        crossing_lifts = []
        for h in h_entries:
            for j in _linking_shifts(c, h, period):
                count += 1
                crossing_lifts.append(h.shifted(j * period))
        # orientations as cyclic orders of frame reals: the lift runs up
        # the boundary when its attracting end is the positive one
        upward = c.att > 0
        sign = 0
        if count:
            orientations = set()
            for h in crossing_lifts:
                h_up = hyp2.cyclic_order(c.att, h.att, c.rep, h.rep)
                end = h.att if h_up else h.rep
                orientations.add(hyp2.cyclic_order(c.att, math.inf, end))
            if len(orientations) != 1:
                raise CombinatError(
                    "inconsistent seam orientations at a crossing")
            sign = 1 if orientations.pop() == upward else -1
        per_crossing.append({"curve": c.curve, "doubled_abs": count,
                             "sign": sign,
                             "direction": "up" if upward else "down"})

    # internal words per gap between consecutive pants crossings; entries
    # before the first crossing wrap into the last gap
    internal = [h for h, f in zip(h_entries, flags) if not f]
    gap_of = {}
    if p_entries:
        bounds = [c.s for c in p_entries] + [p_entries[0].s + period]
        gap_content = [[] for _ in range(len(p_entries))]
        for h in internal:
            s = h.s if h.s > bounds[0] else h.s + period
            gi = max(i for i in range(len(p_entries)) if bounds[i] < s)
            gap_content[gi].append((s, h))
            gap_of[id(h)] = gi
        gaps = ["".join(_SEAM_LETTERS[h.curve - 1]
                        for _, h in sorted(g, key=lambda t: t[0]))
                for g in gap_content]
    else:
        gaps = ["".join(_SEAM_LETTERS[h.curve - 1] for h in internal)]
        for h in internal:
            gap_of[id(h)] = 0

    # consecutive seam pairs: exact lift counting against the counting rules
    frame = seq._frame
    exact = {1: 0, 2: 0, 3: 0}
    rules = {1: 0, 2: 0, 3: 0}
    leftover = 0
    n = len(h_entries)
    for i in range(n):
        h1 = h_entries[i]
        h2_raw = h_entries[(i + 1) % n]
        wrap = period if i + 1 == n else 0.0
        h2 = h2_raw.shifted(wrap) if wrap else h2_raw

        set1 = {(id(p), j * period) for p, j in linked[id(h1)]}
        set2 = {(id(p), j * period + wrap) for p, j in linked[id(h2_raw)]}

        center = 0.5 * (h1.s + h2.s)
        h2c = h2.shifted(-center)
        counted = []
        for k in (1, 2, 3):
            hit = False
            for p, j in linked[id(h1)]:
                if p.curve == k and _links_centered(p.shifted(j * period), h2):
                    hit = True
                    break
            if not hit:
                for p, j in linked[id(h2_raw)]:
                    if p.curve == k and _links_centered(
                            p.shifted(j * period + wrap), h1):
                        hit = True
                        break
            if not hit:
                for line in frame.lines_through(h1, k, center=center):
                    try:
                        if hyp2.geodesics_link(line, h2c.line()):
                            hit = True
                            break
                    except hyp2.Hyp2Error:
                        continue
            if hit:
                counted.append(k)
        if len(counted) > 1:
            raise CombinatError(
                "seam pair counts for more than one pants curve")
        if counted:
            exact[counted[0]] += 1

        rule_curve = None
        shared = set1 & set2
        if shared:
            pid = next(iter(shared))[0]
            for p, _j in linked[id(h1)]:
                if id(p) == pid:
                    rule_curve = p.curve
                    break
        elif id(h1) in gap_of and id(h2_raw) in gap_of:
            same_gap = (gap_of[id(h1)] == gap_of[id(h2_raw)]
                        if not wrap or not p_entries
                        else gap_of[id(h1)] == gap_of[id(h2_raw)]
                        == len(gaps) - 1)
            if same_gap and h1.curve != h2_raw.curve:
                rule_curve = ({1, 2, 3} - {h1.curve, h2_raw.curve}).pop()
        if rule_curve is not None:
            rules[rule_curve] += 1
            if rule_curve not in counted:
                raise CombinatError("counting-rule pair missed by the lift census")
        elif not counted:
            leftover += 1

    return RotationData(seq, flags, per_crossing, gaps, exact, rules, leftover)


def combinatorial_rotation(data):
    """Per pants curve, half the number of counting seam pairs."""
    spill = sum(data.doubled_rotation[k] - data.doubled_rules[k]
                for k in (1, 2, 3))
    if spill > 2 * data.intersection_number:
        raise CombinatError("uncounted pairs exceed the crossing budget")
    return {k: data.doubled_rotation[k] / 2.0 for k in (1, 2, 3)}


# --- non-rotating length and distortion ----------------------------------------

_REFERENCE_ROTATIONS = {}  # (decomposition, word, depth) -> (i_P, map)


def reference_rotation(decomposition, gamma, search_depth):
    """i_P and a copy of the rotation map of a class, from one deterministic
    search per decomposition object, reduced word and depth on the thick
    reference; a search that raises is not kept, so the next call repeats it.
    """
    word = _normalize_word(gamma)
    key = (decomposition, word, search_depth)
    if key not in _REFERENCE_ROTATIONS:
        data = classify_and_rotate(intersection_sequence(
            surface.reference_surface(decomposition), word, search_depth))
        _REFERENCE_ROTATIONS[key] = (data.intersection_number,
                                     combinatorial_rotation(data))
    i_p, rotation = _REFERENCE_ROTATIONS[key]
    return i_p, dict(rotation)


def non_rotating_length(marked, gamma, rotation):
    """Rotational projection and twist-corrected length on one surface, from
    a rotation map (pants curve k -> r_k) such as `reference_rotation`'s.

    The surface must be untwisted: rotation maps are read on untwisted
    surfaces, and nothing shows that they split a twisted length."""
    if not marked.coords.untwisted:
        raise CombinatError("surfaces must be untwisted")
    word = _normalize_word(gamma)
    # only the words are needed here: the disjointness validation of the
    # full hexagon system cannot run on extremely pinched holonomies
    pants_words = tuple(marked.curve_words)
    if _root_form(word) in _class_forms(pants_words):
        raise CombinatError("excluded class: pants curve")
    projection = sum(
        rotation[k] * marked.curve_length(pants_words[k - 1])
        for k in (1, 2, 3))
    total = marked.curve_length(word)
    return projection, total - projection


DISTORTION_CSV_HEADER = ("word,i_P,r1,r2,r3,len_X,proj_X,nonrot_X,"
                         "len_Y,proj_Y,nonrot_Y,ratio,bound_lo,bound_hi,pass")


def distortion_check(x_surface, y_surface, classes, C,
                     search_depth=constants.LIFT_SEARCH_DEPTH_DEFAULT):
    """Length-distortion bounds from log-length ratios of the pants curves.

    Rotation maps come from `reference_rotation` on X's decomposition:
    rotation numbers do not depend on the choice of untwisted surface, and
    the thick reference is much better conditioned than the pinched regime.
    """
    for s in (x_surface, y_surface):
        if not s.coords.untwisted:
            raise CombinatError("surfaces must be untwisted")
        if max(s.coords.lengths) > constants.EPS_UNTWISTED_DEFAULT:
            raise CombinatError("surfaces must be pinched below eps")
    decomposition = x_surface.decomposition
    pants_words = surface.reference_surface(decomposition).curve_words
    lx = [x_surface.curve_length(w) for w in pants_words]
    ly = [y_surface.curve_length(w) for w in pants_words]
    log_ratios = [math.log(a) / math.log(b) for a, b in zip(lx, ly)]
    options = []
    for k, r in enumerate(log_ratios, start=1):
        options.append((r, k, 1))
        options.append((1.0 / r, k, -1))
    lo_val, lo_curve, lo_sigma = min(options)
    hi_val, hi_curve, hi_sigma = max(options)
    bound_lo = lo_val / C
    bound_hi = hi_val * C

    rows = []
    for cls in classes:
        word = _normalize_word(cls)
        i_p, rotation = reference_rotation(decomposition, word, search_depth)
        proj_x = sum(rotation[k] * lx[k - 1] for k in (1, 2, 3))
        proj_y = sum(rotation[k] * ly[k - 1] for k in (1, 2, 3))
        len_x = x_surface.curve_length(word)
        len_y = y_surface.curve_length(word)
        nonrot_x = len_x - proj_x
        nonrot_y = len_y - proj_y
        ratio = nonrot_x / nonrot_y
        rows.append({
            "word": curves.word_to_text(word),
            "i_P": i_p,
            "rotation": rotation,
            "len_X": len_x, "proj_X": proj_x, "nonrot_X": nonrot_x,
            "len_Y": len_y, "proj_Y": proj_y, "nonrot_Y": nonrot_y,
            "ratio": ratio, "bound_lo": bound_lo, "bound_hi": bound_hi,
            "binding_lo": (lo_curve, lo_sigma),
            "binding_hi": (hi_curve, hi_sigma),
            "pass": bound_lo <= ratio <= bound_hi,
        })
    return rows


def distortion_csv_rows(rows):
    out = []
    for r in rows:
        vals = [r["word"], str(r["i_P"])]
        vals += ["%g" % r["rotation"][k] for k in (1, 2, 3)]
        vals += ["%.17g" % r[k] for k in ("len_X", "proj_X", "nonrot_X",
                                          "len_Y", "proj_Y", "nonrot_Y",
                                          "ratio", "bound_lo", "bound_hi")]
        vals.append("1" if r["pass"] else "0")
        out.append(",".join(vals))
    return out
