"""Marked hyperbolic surfaces from pants decompositions and FN coordinates.

A pair of pants is realized through its right hexagon: boundary holonomies
X_k translate the geodesic lines extending the hexagon's boundary sides by
the full boundary lengths, with X_1 X_2 X_3 = 1.  Pants are developed along
a spanning tree of the decomposition graph; the remaining edges contribute
stable letters.  Zero twist is calibrated by matching seam feet across each
glued curve, so the seams of the two sides close up into smooth geodesics;
the twist parameter slides the far side along the shared axis (positive in
the direction of the near boundary holonomy).

Matrix entries of the representation grow like exp(2 * seam length), and
recovering a translation length ~1e-4 from the trace of such a matrix
cancels ~exp(4 * seam length) worth of digits.  Double precision cannot
survive that for short cuffs, so the holonomy core runs in mpmath extended
precision, 80 digits in the private context `_mp`: an mpf computes in
its left operand's context, so no result reads mpmath's global precision,
which another caller or thread may change.  Lengths and holonomies leave
it as floats; the lift search conjugates the 80-digit generators into its
axis chart before it rounds them.  A build develops one pants geometry
per distinct half-length triple, so the builtin decomposition's two
pants share one, and it skips every product with the root pants'
placement, the identity.  The pants geometry keeps one float view, its
boundary axes, although nothing reads them: building them raises
Hyp2Error once a cuff is below about 2e-6, where two float endpoints
coincide (the bench's known defect 1), so deleting them changes which
surfaces build and the outputs that the bench's digests record.

One kernel folds words into traces: `_int_traces` multiplies the
80-digit letters, which are dyadic rationals, over scaled integers (each
surface converts its letters once, `_int_letter`) and carries a radius
that bounds its distance to the exact trace of their exact product.
Each length the module returns is defined as the double nearest the
exact length 2 acosh(t/2) of that trace.  The radius and an
outward-rounded root and log enclose the length (`_length`); where the
enclosure holds a midpoint between two doubles, the word is folded again
at twice the bits (A. Ziv, ACM TOMS 17(3), 1991) up to a stated cap.
The exact length is never a midpoint, and the enclosure shrinks with the
bits, so the refolds end.  The CLI, the cone checks, the distortion
bounds and the ratio certificates read these lengths; the certificates'
and the cone check's screens read float estimates of the same fold,
whose one error bound `length_estimates` states.  `build_holonomy`
takes exp, cos and sin from `_mp`, and its 2x2 products and inverses
(`_mul`, `_inv`, which the lift search's 80-digit steps use too) call
`mpmath.libmp` on the entries' raw tuples with `_mp`'s precision and
rounding: the same numbers as its mpf operators, without their dispatch.
"""

import functools
import math

import mpmath
from mpmath import libmp

from . import curves, pants
from .hyp2 import GeodesicLine, IsometryMatrix

_DPS = 80
_mp = mpmath.MPContext()
_mp.dps = _DPS


class SurfaceError(ValueError):
    pass


# --- decomposition combinatorics ----------------------------------------------

class PantsDecomposition:
    """Gluing graph: pants nodes with 3 slots, edges = pants curves.

    Seams are indexed so seam j of a pants runs between slots j+1 and j+2
    (mod 3).
    """

    __slots__ = ("pants", "curve_edges")

    def __init__(self, pants_ids, curve_edges):
        object.__setattr__(self, "pants", tuple(pants_ids))
        object.__setattr__(self, "curve_edges",
                           tuple(tuple(e) for e in curve_edges))
        self._validate()

    def __setattr__(self, *a):
        raise AttributeError("PantsDecomposition is immutable")

    def _validate(self):
        used = set()
        index = {p: i for i, p in enumerate(self.pants)}
        if len(index) != len(self.pants):
            raise SurfaceError("duplicate pants ids")
        for e in self.curve_edges:
            if len(e) != 4:
                raise SurfaceError("edge must be (pants, slot, pants, slot)")
            p, s, q, r = e
            for node, slot in ((p, s), (q, r)):
                if node not in index:
                    raise SurfaceError("edge references unknown pants %r" % (node,))
                if slot not in (1, 2, 3):
                    raise SurfaceError("slot must be 1, 2 or 3")
                if (node, slot) in used:
                    raise SurfaceError("slot (%r, %r) used twice" % (node, slot))
                used.add((node, slot))
        if len(used) != 3 * len(self.pants):
            raise SurfaceError("every pants needs all 3 slots glued")
        n_p, n_e = len(self.pants), len(self.curve_edges)
        if n_p % 2 or 3 * n_p != 2 * n_e:
            raise SurfaceError("inconsistent pants/edge counts")

    def edge_at(self, node, slot):
        for i, (p, s, q, r) in enumerate(self.curve_edges):
            if (p, s) == (node, slot):
                return i, (q, r)
            if (q, r) == (node, slot):
                return i, (p, s)
        raise SurfaceError("unglued slot (%r, %r)" % (node, slot))


@functools.cache
def builtin_genus2_convenient():
    """Two pants glued along three curves, slot k to slot k.

    One shared object, so the memos keyed by the decomposition object
    (`reference_surface`, `combinat.reference_rotation`) serve every
    caller; a decomposition built directly has memos of its own.
    """
    return PantsDecomposition([0, 1], [(0, 1, 1, 1), (0, 2, 1, 2), (0, 3, 1, 3)])


class FNCoordinates:
    """Lengths and twists per curve edge, in hyperbolic length units."""

    def __init__(self, lengths, twists=None):
        self.lengths = [float(v) for v in lengths]
        if any(v <= 0 for v in self.lengths):
            raise SurfaceError("lengths must be positive")
        if twists is None:
            twists = [0.0] * len(self.lengths)
        self.twists = [float(v) for v in twists]
        if len(self.twists) != len(self.lengths):
            raise SurfaceError("twists and lengths must have equal length")

    @property
    def untwisted(self):
        return all(t == 0.0 for t in self.twists)


# --- extended-precision 2x2 helpers -------------------------------------------

# The kernel calls libmp on the entries' _mpf_ tuples with `_mp`'s (prec,
# rounding), as its mpf operators do, so each entry is the one the
# operator expression in its comment gives, without the operator layer.

def _mul(m, n):
    # (m0 n0 + m1 n2, m0 n1 + m1 n3, m2 n0 + m3 n2, m2 n1 + m3 n3)
    prec, rnd = _mp._prec_rounding
    mul, add, make = libmp.mpf_mul, libmp.mpf_add, _mp.make_mpf
    a0, a1, a2, a3 = [x._mpf_ for x in m]
    b0, b1, b2, b3 = [x._mpf_ for x in n]
    return (
        make(add(mul(a0, b0, prec, rnd), mul(a1, b2, prec, rnd), prec, rnd)),
        make(add(mul(a0, b1, prec, rnd), mul(a1, b3, prec, rnd), prec, rnd)),
        make(add(mul(a2, b0, prec, rnd), mul(a3, b2, prec, rnd), prec, rnd)),
        make(add(mul(a2, b1, prec, rnd), mul(a3, b3, prec, rnd), prec, rnd)))


def _inv(m):
    # det = m0 m3 - m1 m2; (m3 / det, -m1 / det, -m2 / det, m0 / det)
    prec, rnd = _mp._prec_rounding
    mul, div, neg = libmp.mpf_mul, libmp.mpf_div, libmp.mpf_neg
    make = _mp.make_mpf
    a0, a1, a2, a3 = [x._mpf_ for x in m]
    det = libmp.mpf_sub(mul(a0, a3, prec, rnd), mul(a1, a2, prec, rnd),
                        prec, rnd)
    return (make(div(a3, det, prec, rnd)),
            make(div(neg(a1, prec, rnd), det, prec, rnd)),
            make(div(neg(a2, prec, rnd), det, prec, rnd)),
            make(div(a0, det, prec, rnd)))


def _trans(length):
    e = _mp.exp(length / 2)
    return (e, _mp.mpf(0), _mp.mpf(0), 1 / e)


def _rot(theta):
    c, s = _mp.cos(theta / 2), _mp.sin(theta / 2)
    return (c, s, -s, c)


# rotations by pi/2 and by pi, the only angles the frames turn by
_QUARTER_TURN, _HALF_TURN = _rot(_mp.pi / 2), _rot(_mp.pi)
_MP_ID = (_mp.mpf(1), _mp.mpf(0), _mp.mpf(0), _mp.mpf(1))


def _identity_residual_mp(m):
    return float(min(max(abs(m[0] - 1), abs(m[1]), abs(m[2]), abs(m[3] - 1)),
                     max(abs(m[0] + 1), abs(m[1]), abs(m[2]), abs(m[3] + 1))))


def _to_float_matrix(m):
    # determinant is 1 in extended precision; recomputing it in float64
    # would cancel catastrophically for large entries, so skip normalization
    # and only apply the canonical sign
    tr = m[0] + m[3]
    flip = tr < 0 if abs(tr) > 1e-9 else m[0] < 0
    s = -1.0 if flip else 1.0
    return IsometryMatrix(s * float(m[0]), s * float(m[1]),
                          s * float(m[2]), s * float(m[3]),
                          _normalize=False)


def _frame_endpoint(f, at_zero):
    """Boundary image of 0 or infinity under a frame, math.inf for infinity."""
    num, den = (f[1], f[3]) if at_zero else (f[0], f[2])
    return math.inf if den == 0 else float(num / den)


# --- single-pants geometry -----------------------------------------------------

class PantsGeometry:
    """A pair of pants developed in standard position.

    Boundary matrices X[k] satisfy X1 X2 X3 = 1 and translate the hexagon's
    boundary lines by twice the half-lengths.  The marked foot of boundary k
    is the hexagon corner between the boundary side and seam k+1; it sits at
    parameter 0 of the boundary axis frame used for gluing.  The seam
    lengths come from `pants._seam_split` at 80 digits, the closed form
    that the float pentagon split uses too.  A geometry depends only on
    its half-lengths and is not changed after it is built, so
    `build_holonomy` gives pants with one triple the same object.  The
    first frame is the identity, and the development starts from the
    first side's translation, which is the same product bit for bit.  The
    80-digit frames (`_side_frames`, `_axis_frames`) and boundary matrices
    (`_X`) are the geometry.  The one float view left is `axes`, the
    boundary axes: nothing reads it, but building it raises Hyp2Error
    ("geodesic needs distinct endpoints") once a cuff is below about 2e-6,
    where two float endpoints coincide, and that error is one of the
    outputs the bench's digests record.
    """

    def __init__(self, half_lengths):
        a = [_mp.mpf(v) for v in half_lengths]
        if any(v <= 0 for v in a):
            raise SurfaceError("half lengths must be positive")
        seam = []
        for i in range(3):
            _, ck, cl = pants._seam_split(a[i], a[(i + 1) % 3],
                                          a[(i + 2) % 3], _mp)
            seam.append(ck + cl)
        # sides: alpha1, zeta3', alpha2, zeta1', alpha3, zeta2'
        side_lengths = [a[0], seam[2], a[1], seam[0], a[2], seam[1]]
        # the first frame is _MP_ID, whose product with a matrix is
        # that matrix bit for bit, so the first step skips it
        frames = [_MP_ID]
        g = _mul(_trans(side_lengths[0]), _QUARTER_TURN)
        for L in side_lengths[1:]:
            frames.append(g)
            g = _mul(_mul(g, _trans(L)), _QUARTER_TURN)
        # closure of the right hexagon is the defining identity of the
        # seam lengths; residual here only reflects arithmetic noise
        if _identity_residual_mp(g) > 1e-30 * max(
                1.0, max(float(abs(v)) for f in frames for v in f)) ** 2:
            raise SurfaceError("hexagon development failed to close")
        self._side_frames = frames
        self._axis_frames = {}
        self._X = {}
        for k in (1, 2, 3):
            f = frames[2 * (k - 1)]
            # X_k pulls the boundary line backward along the traversal;
            # the axis frame therefore points down the side direction
            self._X[k] = _mul(_mul(f, _trans(-2 * a[k - 1])), _inv(f))
            self._axis_frames[k] = _mul(f, _HALF_TURN)
        prod = _mul(_mul(self._X[1], self._X[2]), self._X[3])
        if _identity_residual_mp(prod) > 1e-40:
            raise SurfaceError("boundary holonomies do not compose to 1")
        self.axes = {k: GeodesicLine(_frame_endpoint(frames[2 * (k - 1)], False),
                                     _frame_endpoint(frames[2 * (k - 1)], True))
                     for k in (1, 2, 3)}

    def axis_frame(self, k, extra=0.0):
        """mp frame at the marked foot of boundary k, pointing along X_k."""
        if extra == 0.0:
            return self._axis_frames[k]
        return _mul(self._axis_frames[k], _trans(_mp.mpf(extra)))


def _glue_map(geom_near, k_near, geom_far, k_far, twist):
    """mp isometry placing the far pants across boundary k_near of the near one.

    Maps the far boundary axis onto the near one with reversed orientation
    and the far marked foot to the near marked foot shifted by the twist.
    """
    return _mul(_mul(geom_near.axis_frame(k_near, extra=twist), _HALF_TURN),
                _inv(geom_far.axis_frame(k_far)))


# --- the marked surface --------------------------------------------------------

# one-relator presentation from the two-pants gluing: a, b are two boundary
# holonomies of the near pants, c and d the stable letters of edges 2 and 3
GENUS2_RELATOR = "dCbcaDBA"
GENUS2_CURVE_WORDS = ["a", "b", "BA"]
GENUS2_SEAM_WORDS = ["dCb", "DBA", "ca"]


class MarkedSurface:
    """Holonomy representation built from a decomposition and FN coordinates.

    Immutable after construction; holonomy evaluation is side-effect free.
    """

    def __init__(self, decomposition, coords, mp_generators, curve_words,
                 seam_words, relator_residual):
        self.decomposition = decomposition
        self.coords = coords
        # signed letter -> extended-precision matrix, inverses formed once
        self._mp_letters = {}
        for i, g in enumerate(mp_generators, start=1):
            self._mp_letters[i] = g
            self._mp_letters[-i] = _inv(g)
        # signed letter -> the same matrix as `_int_traces` reads it
        self._int_letters = {v: _int_letter(m)
                             for v, m in self._mp_letters.items()}
        self.curve_words = curve_words
        self.seam_words = seam_words
        self.relator_residual = relator_residual

    def _mp_holonomy(self, word):
        m = _MP_ID
        for v in curves._as_word(word):
            m = _mul(m, self._mp_letters[v])
        return m

    def holonomy(self, word):
        """Holonomy matrix of a class, word text or letter sequence."""
        return _to_float_matrix(self._mp_holonomy(word))

    def curve_length(self, word):
        """Translation length of the word's holonomy (see `curve_lengths`)."""
        length, = self.curve_lengths([word])
        if isinstance(length, SurfaceError):
            raise length
        return length

    def curve_lengths(self, words):
        """Translation lengths of the words' holonomies, in the order given.

        Each entry is the double nearest the exact length of the exact
        product of the 80-digit letters (`_length`), or the SurfaceError
        that `curve_length` raises for a word whose image is not
        hyperbolic.  Each word is cyclically reduced first
        (`curves._reduced_word`), which keeps its conjugacy class: folding
        a conjugate such as cdCD a (cdCD)^-1 as given passes through
        entries large enough that the trace's excess over 2 drowns in the
        fold's radius on pinched surfaces.  A word that reduces to nothing
        gets the error of `aA` (parabolic).  The words that a fold at
        `_BITS` bits leaves undecided are folded again at twice the bits;
        one still undecided past `_MAX_BITS` raises a SurfaceError.
        """
        words = [curves._reduced_word(w) for w in words]
        out = [None] * len(words)
        todo, bits = range(len(words)), _BITS
        while todo:
            if bits > _MAX_BITS:
                raise SurfaceError(
                    "length of %s not decided within the cap of %d bits"
                    % (curves.word_to_text(words[todo[0]]), _MAX_BITS))
            traces = self._int_traces([words[i] for i in todo], bits)
            for i, trace in zip(todo, traces):
                out[i] = (_length(*trace, bits) if trace else SurfaceError(
                    "not a closed geodesic class: image is parabolic"))
            todo, bits = [i for i in todo if out[i] is None], 2 * bits
        return out

    def length_estimates(self, words):
        """Float lengths of cyclically reduced words, or None.

        The contract that the screens cite: a float l~ is within
        rho + 1e-15 of the word's exact length l (the number
        `curve_lengths` rounds), |l~/l - 1| <= rho + 1e-15 with rho =
        `_ESTIMATE_REL`, and the word's exact trace exceeds 2 by more than
        1e-40, so its image is hyperbolic.  rho bounds the error that the
        radius of the `_BITS`-bit fold (`_int_traces`) allows, 1e-15 the
        float roundings (`_estimate`).  None marks an empty word,
        |trace| - 2 not above 1e-40 over the radius, a trace beyond the
        float range or a radius wider than rho allows.
        """
        return [None if t is None else _estimate(*t)
                for t in self._int_traces(words, _BITS)]

    def _int_traces(self, words, bits):
        """|trace| n 2^e of each cyclically reduced word, as (n, e, radius).

        The one fold of words into traces.  Each letter is four ints with
        one binary exponent, which hold the 80-digit entries exactly (the
        table `_int_letters`, built with the surface), and
        each product keeps `bits` bits of its largest entry.  The integer
        radius, in units of 2^e, bounds the distance to the exact trace of
        the letters' exact product: a product's entries are sums of two
        terms, so it carries the previous radius times the letter's
        largest column sum, and a truncation adds one unit for the
        rounded-up radius and one for the floor of each entry.  A product
        that was not truncated is exact and adds nothing, so the radius
        shrinks as the bits grow.

        A stack holds the products of the previous word's proper
        prefixes, and the last of them is the product the loop holds.  A
        word with the same proper prefix as the previous one (the common
        case in enumeration order) takes its trace from that product; any
        other word reuses the stack's products of its common prefix with
        the previous word and forms one product per further letter but
        the last.  Each word takes only the diagonal of its last product.
        Words that share prefixes should come in a row; any order gives
        the same traces.  An empty word gives None.
        """
        letters = self._int_letters
        out = []
        # stack[k]: (p0, p1, p2, p3, e, radius) for the product of the
        # first k letters of `prefix`, the previous word's proper prefix;
        # p0 ... r hold the product of all of it
        stack = [(1, 0, 0, 1, 0, 0)]
        p0, p1, p2, p3, e, r = stack[0]
        prefix = ()
        for word in words:
            if not word:
                out.append(None)
                continue
            head = word[:-1]
            if head != prefix:
                k = 0
                top = min(len(head), len(prefix))
                while k < top and head[k] == prefix[k]:
                    k += 1
                del stack[k + 1:]
                p0, p1, p2, p3, e, r = stack[-1]
                for v in head[k:]:
                    a0, a1, a2, a3, ea, c, _ = letters[v]
                    p0, p1 = p0 * a0 + p1 * a2, p0 * a1 + p1 * a3
                    p2, p3 = p2 * a0 + p3 * a2, p2 * a1 + p3 * a3
                    r *= c
                    e += ea
                    s = (max(abs(p0), abs(p1), abs(p2), abs(p3)).bit_length()
                         - bits)
                    if s > 0:
                        p0, p1, p2, p3 = p0 >> s, p1 >> s, p2 >> s, p3 >> s
                        e += s
                        r = (r >> s) + 2
                    stack.append((p0, p1, p2, p3, e, r))
                prefix = head
            a0, a1, a2, a3, ea, _, g = letters[word[-1]]
            out.append((abs(p0 * a0 + p1 * a2 + p2 * a1 + p3 * a3), e + ea,
                        r * g))
        return out


def _int_letter(m):
    """An 80-digit matrix as `_int_traces` reads it: four ints a with one
    binary exponent e, which hold the entries exactly, then the largest
    column sum and the sum of the |a|, which a product's radius and a
    trace's radius scale with."""
    parts = [x._mpf_ for x in m]
    e = min(exp for _, man, exp, _ in parts if man)
    a = [(-1 if sign else 1) * (int(man) << (exp - e))
         for sign, man, exp, _ in parts]
    col = max(abs(a[0]) + abs(a[2]), abs(a[1]) + abs(a[3]))
    return (*a, e, col, sum(map(abs, a)))


# bits the fold keeps of each product's largest entry, at first; refolds
# double them up to the cap
_BITS = 272
_MAX_BITS = 16 * _BITS
# a trace within 1 / _PARABOLIC_SCALE of 2 counts as parabolic
_PARABOLIC_SCALE = 10 ** 40
# the radius's share of an estimate's relative error (`length_estimates`)
_ESTIMATE_REL = 2.5e-14


def _estimate(n, e, radius):
    """The length of a |trace| t within radius 2^e of n 2^e, or None.

    t >= 3 gives 2 acosh(t/2); below 3 the excess d = t - 2 is formed
    exactly and the length is 4 asinh(sqrt(d)/2), the same value, so
    either branch is off by a few ulps, below 1e-15.  Over the radius the
    length moves by at most rel of itself: its log-derivative is at most
    t/(t^2 - 4), from acosh(y) >= sqrt(y^2 - 1)/y, which falls as t
    grows, so it is taken at the radius's low end and doubled to cover
    the bound's roundings.  None when d is not above 1e-40 over the
    radius, so t is not surely hyperbolic, when t is beyond the float
    range, or when rel exceeds `_ESTIMATE_REL`.
    """
    if e > 0:
        n, radius, e = n << e, radius << e, 0
    # the least excess over 2 within the radius; one of b bits is at
    # least 2^(b - 1), and 10^40 > 2^132, so only a short one can be
    # below 1e-40
    low = n - (2 << -e) - radius
    if low <= 0 or (low.bit_length() < -131 - e
                    and low * _PARABOLIC_SCALE < 1 << -e):
        return None
    try:
        x = math.ldexp(n, e)
    except OverflowError:
        return None
    if 2.0 * (radius / low) * (x / (x + 2.0)) > _ESTIMATE_REL:
        return None
    if x >= 3.0:
        return 2.0 * math.acosh(x / 2.0)
    return 4.0 * math.asinh(math.sqrt(math.ldexp(low + radius, e)) / 2.0)


def _length(n, e, radius, bits):
    """The double nearest 2 acosh(t/2) for a |trace| t within radius 2^e
    of n 2^e: None when the enclosure does not decide it, and a
    SurfaceError when every t in it is parabolic (|t - 2| < 1e-40) or
    every one elliptic (below that).

    The length is 2 log y with y = (t + sqrt((t - 2)(t + 2)))/2, which
    increases with t, so it is enclosed by its values at the ends of the
    trace's enclosure.  At each end the product under the root is an
    exact integer P; `math.isqrt` floors the root of P 4^k, and one unit
    more bounds it above, so y is an exact dyadic rational on the outer
    side, off by less than 2^(1 - bits) of y - 1 since k gives the root
    at least `bits` bits.  libmp's log works in fixed point with 20 guard
    bits, plus the bits that cancel near y = 1, and rounds once to `bits`
    bits: the guard bits hold its error, the truncation of y to its
    working precision included, below one unit in the last place, 2^(1 -
    bits) of the result, so moving the result outward by 2^(2 - bits) of
    itself bounds log y.  A double is decided when both ends round to it
    and neither is a midpoint between two doubles, which has a 54-bit
    mantissa; doubling is exact and maps midpoints to midpoints.  Every
    term of the enclosure's width shrinks as the bits grow; the exact
    length is 2 log y for an algebraic y > 1, which is not rational
    (Lindemann-Weierstrass), so it is never a midpoint, and a dyadic t
    is never on a threshold: enough bits decide every word.
    """
    # the bits below the radius's leading eight carry nothing
    s = radius.bit_length() - 8
    if s > 0:
        n, radius, e = n >> s, (radius >> s) + 2, e + s
    if e > 0:
        n, radius, e = n << e, radius << e, 0
    two = 2 << -e
    ends = (n - radius, 0), (n + radius, 1)
    kinds = {"parabolic" if abs(m - two) * _PARABOLIC_SCALE < 1 << -e
             else "elliptic" if m < two else None for m, _ in ends}
    if len(kinds) > 1:
        return None
    kind, = kinds
    if kind:
        return SurfaceError("not a closed geodesic class: image is %s" % kind)
    logs = []
    for m, up in ends:
        product = (m - two) * (m + two)
        k = max(0, bits - product.bit_length() // 2)
        # y = (m 2^k + root) 2^(e - k - 1)
        y = libmp.from_man_exp((m << k) + math.isqrt(product << 2 * k) + up,
                               e - k - 1)
        log = libmp.mpf_log(y, bits, libmp.round_nearest)
        slack = libmp.mpf_shift(log, 2 - bits)
        logs.append(libmp.mpf_add(log, slack) if up
                    else libmp.mpf_sub(log, slack))
    x = libmp.to_float(logs[0], rnd=libmp.round_nearest)
    if (x == libmp.to_float(logs[1], rnd=libmp.round_nearest)
            and 54 not in (logs[0][3], logs[1][3])):
        return 2.0 * x
    return None


def build_holonomy(decomposition, coords):
    """Realize the FN point as a holonomy representation.

    Raises on structural inconsistencies; a relator residual above 1e-6
    is reported as a construction error.
    """
    if len(coords.lengths) != len(decomposition.curve_edges):
        raise SurfaceError("need one length per curve edge")

    def edge_length(node, slot):
        i, _ = decomposition.edge_at(node, slot)
        return coords.lengths[i]

    # one geometry per distinct half-length triple: the builtin
    # decomposition's two pants share theirs
    geoms, shapes = {}, {}
    for p in decomposition.pants:
        halves = tuple(edge_length(p, k) / 2.0 for k in (1, 2, 3))
        if halves not in shapes:
            shapes[halves] = PantsGeometry(halves)
        geoms[p] = shapes[halves]

    # spanning tree by BFS from the first pants, placed at _MP_ID; a
    # product with the identity is the other factor bit for bit, so
    # the root's products are skipped
    root = decomposition.pants[0]
    placements = {root: _MP_ID}

    def placed(p, m):
        # placements[p] m
        return m if p == root else _mul(placements[p], m)

    def conjugate(p, m):
        # placements[p] m placements[p]^-1
        return (m if p == root
                else _mul(_mul(placements[p], m), inverses[p]))

    tree_edges = set()
    queue = [root]
    while queue:
        node = queue.pop(0)
        for slot in (1, 2, 3):
            i, (other, oslot) = decomposition.edge_at(node, slot)
            if other in placements or i in tree_edges:
                continue
            glue = _glue_map(geoms[node], slot, geoms[other], oslot,
                             coords.twists[i])
            placements[other] = placed(node, glue)
            tree_edges.add(i)
            queue.append(other)
    if len(placements) != len(decomposition.pants):
        raise SurfaceError("decomposition graph is not connected")
    inverses = {p: _inv(g) for p, g in placements.items() if p != root}

    stable = {}
    for i, (p, s, q, r) in enumerate(decomposition.curve_edges):
        if i in tree_edges:
            continue
        via = placed(p, _glue_map(geoms[p], s, geoms[q], r,
                                  coords.twists[i]))
        stable[i] = via if q == root else _mul(via, inverses[q])

    # conjugated boundary matrices and per-edge residuals
    curve_matrices = []
    worst = 0.0
    for i, (p, s, q, r) in enumerate(decomposition.curve_edges):
        near = conjugate(p, geoms[p]._X[s])
        far = conjugate(q, geoms[q]._X[r])
        if i in stable:
            far = _mul(_mul(stable[i], far), _inv(stable[i]))
        worst = max(worst, _identity_residual_mp(_mul(near, far)))
        curve_matrices.append(near)

    mp_generators, curve_words, seam_words = _genus2_marking(
        decomposition, geoms, stable, curve_matrices)

    surf = MarkedSurface(decomposition, coords, mp_generators,
                         curve_words, seam_words, worst)
    if curve_words is not None:
        worst = max(worst, _identity_residual_mp(
            surf._mp_holonomy(GENUS2_RELATOR)))
        surf.relator_residual = worst
    if worst > 1e-6:
        raise SurfaceError("construction error: relator residual %.3e"
                           % worst)
    return surf


@functools.cache
def reference_surface(decomposition):
    """Thick untwisted surface of a decomposition, for rotation data.

    Rotation numbers do not depend on the choice of untwisted surface, and
    the lift search is much better conditioned away from the pinched regime.
    One immutable surface is built per decomposition object and shared.
    """
    return build_holonomy(decomposition, FNCoordinates([0.7, 0.8, 0.9]))


def _genus2_marking(decomposition, geoms, stable, curve_matrices):
    """Four-generator marking for the builtin two-pants decomposition."""
    if len(decomposition.pants) != 2 or len(stable) != 2:
        return (list(curve_matrices) + [stable[i] for i in sorted(stable)],
                None, None)
    root = decomposition.pants[0]
    stable_idx = sorted(stable)
    generators = [geoms[root]._X[1], geoms[root]._X[2],
                  stable[stable_idx[0]], stable[stable_idx[1]]]
    return generators, list(GENUS2_CURVE_WORDS), list(GENUS2_SEAM_WORDS)
