import hashlib
import math
import random

import mpmath
import pytest
from mpmath import iv, libmp
from hypothesis import given, settings, strategies as st

from teichlab import combinat, curves, hyp2, pants, surface
from teichlab.surface import (
    FNCoordinates, PantsDecomposition, SurfaceError,
    build_holonomy, builtin_genus2_convenient,
)


def builtin_surface(lengths, twists=None):
    return build_holonomy(builtin_genus2_convenient(),
                          FNCoordinates(lengths, twists))


# --- decomposition combinatorics ---------------------------------------------

def test_builtin_counts():
    d = builtin_genus2_convenient()
    assert len(d.pants) == 2
    assert len(d.curve_edges) == 3


def test_builtin_is_one_immutable_object():
    d = builtin_genus2_convenient()
    assert builtin_genus2_convenient() is d
    assert d.pants == (0, 1)
    assert d.curve_edges == ((0, 1, 1, 1), (0, 2, 1, 2), (0, 3, 1, 3))
    for name, value in (("pants", [0, 1]), ("curve_edges", ()), ("x", 1)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(d, name, value)


def test_decomposition_rejects_reused_slot():
    with pytest.raises(SurfaceError):
        PantsDecomposition([0, 1], [(0, 1, 1, 1), (0, 1, 1, 2), (0, 3, 1, 3)])


def test_decomposition_rejects_bad_slot():
    with pytest.raises(SurfaceError):
        PantsDecomposition([0, 1], [(0, 1, 1, 1), (0, 2, 1, 2), (0, 4, 1, 3)])


def test_decomposition_rejects_unglued_slot():
    with pytest.raises(SurfaceError):
        PantsDecomposition([0, 1], [(0, 1, 1, 1), (0, 2, 1, 2)])


def test_disconnected_graph_is_structural_error():
    edges = [(0, k, 1, k) for k in (1, 2, 3)] + [(2, k, 3, k) for k in (1, 2, 3)]
    d = PantsDecomposition([0, 1, 2, 3], edges)
    with pytest.raises(SurfaceError):
        build_holonomy(d, FNCoordinates([1.0] * 6))


def test_fn_coordinates_validation():
    with pytest.raises(SurfaceError):
        FNCoordinates([1.0, -0.5, 1.0])
    with pytest.raises(SurfaceError):
        FNCoordinates([1.0, 1.0, 1.0], [0.0])
    assert FNCoordinates([1, 1, 1]).untwisted
    assert not FNCoordinates([1, 1, 1], [0, 0.1, 0]).untwisted


# --- single-pants geometry -----------------------------------------------------
# These read the 80-digit frames and boundary matrices at 160 digits: the
# helpers below run inside mpmath.workdps(160), convert each entry exactly
# into the global context and multiply there by the operators, so the
# tests' own arithmetic adds nothing at the bounds asserted.

def _operator_mul(m, n):
    """2x2 product by the number type's operators (mpf or interval)."""
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


def _operator_inv(m):
    det = m[0] * m[3] - m[1] * m[2]
    return (m[3] / det, -m[1] / det, -m[2] / det, m[0] / det)


def _global(m):
    return tuple(mpmath.mpf(x) for x in m)


def _relative(f, h):
    # f^-1 h
    return _operator_mul(_operator_inv(_global(f)), _global(h))


def _conjugate(f, m):
    # f^-1 m f
    return _operator_mul(_relative(f, m), _global(f))


def _side_lengths(g):
    """Lengths of the hexagon's sides alpha1, zeta3', alpha2, zeta1',
    alpha3, zeta2': side i runs from the corner that `_side_frames[i]`
    maps i to, to the next frame's corner (the last side to the first
    corner), and cosh d(f(i), h(i)) is half the squared Frobenius norm of
    f^-1 h."""
    frames = g._side_frames + g._side_frames[:1]
    with mpmath.workdps(160):
        return [mpmath.acosh(sum(x * x for x in _relative(f, h)) / 2)
                for f, h in zip(frames, frames[1:])]


def test_pants_geometry_boundary_product_is_identity():
    g = surface.PantsGeometry((0.6, 0.8, 1.1))
    with mpmath.workdps(160):
        prod = _operator_mul(_operator_mul(_global(g._X[1]), _global(g._X[2])),
                             _global(g._X[3]))
        assert surface._identity_residual_mp(prod) < 1e-70


def test_pants_geometry_boundary_lengths():
    # side frame 2(k - 1) carries the imaginary axis onto boundary k's
    # axis, so it conjugates X_k to the translation by -2 a_k along it
    halves = (0.3, 0.45, 0.62)
    g = surface.PantsGeometry(halves)
    with mpmath.workdps(160):
        for k, a in zip((1, 2, 3), halves):
            m = _conjugate(g._side_frames[2 * (k - 1)], g._X[k])
            e = mpmath.exp(mpmath.mpf(a))
            assert max(abs(m[0] - 1 / e), abs(m[1]), abs(m[2]),
                       abs(m[3] - e)) < 1e-70


def test_pants_geometry_feet_on_axes():
    # the first frame is the identity, so the first foot is i; boundary
    # k's axis frame sits at its foot, the corner that side frame 2(k - 1)
    # maps i to, and conjugates X_k to the translation by +2 a_k
    halves = (0.6, 0.8, 1.1)
    g = surface.PantsGeometry(halves)
    assert g._side_frames[0] is surface._MP_ID
    with mpmath.workdps(160):
        for k, a in zip((1, 2, 3), halves):
            # a matrix (p, q, r, s) fixes i exactly when p = s and q = -r
            n = _relative(g._axis_frames[k], g._side_frames[2 * (k - 1)])
            assert max(abs(n[0] - n[3]), abs(n[1] + n[2])) < 1e-70
            m = _conjugate(g._axis_frames[k], g._X[k])
            e = mpmath.exp(mpmath.mpf(a))
            assert max(abs(m[0] - e), abs(m[1]), abs(m[2]),
                       abs(m[3] - 1 / e)) < 1e-70


def test_pants_geometry_seam_lengths_match_float_oracle():
    # seam j is side 2j + 1 (mod 6) of the developed hexagon
    halves = (0.25, 0.4, 0.55)
    sides = _side_lengths(surface.PantsGeometry(halves))
    expected = pants.seam_lengths(pants.PantsShape(*halves))
    for j, want in enumerate(expected, start=1):
        assert abs(float(sides[(2 * j + 1) % 6]) - want) < 1e-12


def test_pants_geometry_seam_lengths_match_hexagon_law():
    # cosh c_1' = (cosh a1 + cosh a2 cosh a3) / (sinh a2 sinh a3), evaluated
    # at 80 digits without the shared pentagon-split kernel; the developed
    # hexagon's sides have these seam lengths and the half-lengths
    rng = random.Random(417)
    for _ in range(30):
        halves = [math.exp(rng.uniform(math.log(1e-5), math.log(10.0)))
                  for _ in range(3)]
        sides = _side_lengths(surface.PantsGeometry(halves))
        with mpmath.workdps(80):
            a = [mpmath.mpf(v) for v in halves]
            for i in range(3):
                a1, a2, a3 = a[i], a[(i + 1) % 3], a[(i + 2) % 3]
                law = mpmath.acosh(
                    (mpmath.cosh(a1) + mpmath.cosh(a2) * mpmath.cosh(a3))
                    / (mpmath.sinh(a2) * mpmath.sinh(a3)))
                _, ck, cl = pants._seam_split(a1, a2, a3, mpmath)
                assert abs(ck + cl - law) <= mpmath.mpf(10) ** -70 * law
                assert abs(sides[(2 * i + 3) % 6] - law) <= (
                    mpmath.mpf(10) ** -60 * law)
                assert abs(sides[2 * i] - a1) <= mpmath.mpf(10) ** -55 * a1


def test_pants_geometry_rejects_nonpositive():
    with pytest.raises(SurfaceError):
        surface.PantsGeometry((0.5, 0.0, 0.5))


# --- holonomy construction -----------------------------------------------------

def test_equal_cuffs_reproduce_lengths():
    s = builtin_surface([0.5, 0.5, 0.5])
    for w in s.curve_words:
        assert abs(s.curve_length(w) - 0.5) < 1e-9


def test_twisting_preserves_pants_curve_lengths():
    lengths = [0.7, 1.1, 0.9]
    s0 = builtin_surface(lengths)
    s1 = builtin_surface(lengths, [0.4, -1.3, 2.0])
    for w, l in zip(s0.curve_words, lengths):
        assert abs(s0.curve_length(w) - l) < 1e-9
        assert abs(s1.curve_length(w) - l) < 1e-9


def test_seam_lengths_against_pants_oracle():
    # at zero twist each seam orbit glues the same-index seams of the two
    # pants, so its geodesic length is twice the single-pants seam length
    lengths = [0.3, 0.4, 0.5]
    s = builtin_surface(lengths)
    oracle = pants.seam_lengths(pants.PantsShape(*[v / 2 for v in lengths]))
    for j, w in enumerate(s.seam_words):
        assert abs(s.curve_length(w) - 2 * oracle[j]) < 1e-7


def test_seams_close_up_at_zero_twist():
    lengths = [0.8, 1.0, 1.3]
    s = builtin_surface(lengths)
    # the root pants sits at the identity, so its seams are the surface's:
    # seam j's side frame conjugates the holonomy of seam word j to a
    # translation along the imaginary axis by twice the seam's length
    root = surface.PantsGeometry([v / 2 for v in lengths])
    sides = _side_lengths(root)
    with mpmath.workdps(160):
        for j, w in enumerate(s.seam_words, start=1):
            side = (2 * j + 1) % 6
            m = _conjugate(root._side_frames[side], s._mp_holonomy(w))
            big = max(abs(m[0]), abs(m[3]))
            assert max(abs(m[1]), abs(m[2])) < 1e-70 * big
            assert abs(big - mpmath.exp(sides[side])) < 1e-70 * big


def test_nonzero_twist_changes_seam_lengths():
    lengths = [0.8, 1.0, 1.3]
    s0 = builtin_surface(lengths)
    s1 = builtin_surface(lengths, [0.5, 0.0, 0.0])
    changed = [abs(s0.curve_length(w) - s1.curve_length(w))
               for w in s0.seam_words]
    assert max(changed) > 1e-3


def test_relator_word_maps_to_identity():
    s = builtin_surface([0.9, 0.7, 1.2], [0.3, -0.4, 0.8])
    m = s.holonomy(surface.GENUS2_RELATOR)
    assert m.approx_eq(hyp2.IsometryMatrix.identity(), tol=1e-12)
    assert s.relator_residual < 1e-9


def test_generators_hyperbolic():
    s = builtin_surface([0.6, 0.8, 1.1], [0.2, 0.1, -0.3])
    for letter in curves.GENUS2_GENERATORS:
        assert hyp2.translation_length(s.holonomy(letter))[1] == "hyperbolic"


def test_lengths_and_holonomy_accept_a_class():
    s = surface.reference_surface(builtin_genus2_convenient())
    for cls in curves.enumerate_conj_classes(2, 3):
        assert s.curve_length(cls) == s.curve_length(cls.word)
        assert s.holonomy(cls).entries() == s.holonomy(cls.word).entries()


def test_random_fn_points_consistency():
    rng = random.Random(20260823)
    decomp = builtin_genus2_convenient()
    for _ in range(100):
        lengths = [math.exp(rng.uniform(math.log(1e-4), 0.0)) for _ in range(3)]
        twists = [rng.uniform(-1, 1) for _ in range(3)]
        s = build_holonomy(decomp, FNCoordinates(lengths, twists))
        assert s.relator_residual <= 1e-9
        for w, l in zip(s.curve_words, lengths):
            assert abs(s.curve_length(w) - l) <= 1e-9 * l


def _numerics_probe():
    """Bits of the 80-digit numerics on a fresh pinched and a fresh thick
    surface: generators, a holonomy, a kernel product, the L4 lengths and
    one lift search's rotation map."""
    pinched = builtin_surface([1e-4, 2e-5, 5e-5], [0.1, 0.2, -0.3])
    letters = pinched._mp_letters
    thick = builtin_surface([0.7, 0.8, 0.9])
    seq = combinat.intersection_sequence(thick, "cd", search_depth=8)
    return {
        "generators": [[x._mpf_ for x in letters[v]] for v in (1, 2, 3, 4)],
        "holonomy": [x._mpf_ for x in pinched._mp_holonomy("abCdcD")],
        "mul": [x._mpf_ for x in surface._mul(letters[1], letters[-3])],
        "lengths": pinched.curve_lengths(
            [c.word for c in curves.enumerate_conj_classes(2, 4)]),
        "rotation": (seq.intersection_number, combinat.combinatorial_rotation(
            combinat.classify_and_rotate(seq))),
    }


@pytest.mark.parametrize("dps", [15, 200])
def test_numerics_ignore_the_global_precision(dps):
    # every 80-digit number comes from surface's private context, so the
    # precision of mpmath's global context, which any caller or thread may
    # change, reaches no result
    want = _numerics_probe()
    for key in ("holonomy", "mul"):
        # 80 digits, not the 53 bits of the global default
        assert min(bits for _, _, _, bits in want[key]) > 200, key
    with mpmath.workdps(dps):
        got = _numerics_probe()
    for key in want:
        assert got[key] == want[key], key


def test_build_is_deterministic():
    s1 = builtin_surface([1.2, 1.6, 2.2], [0.3, -0.7, 1.1])
    s2 = builtin_surface([1.2, 1.6, 2.2], [0.3, -0.7, 1.1])
    for letter in curves.GENUS2_GENERATORS:
        assert s1.holonomy(letter).entries() == s2.holonomy(letter).entries()


def test_length_continuity_smoke():
    words = ["a", "b", "ab", "cd", "abCD", "aabbcD", "dCbcabcd"]
    s0 = builtin_surface([0.7, 0.9, 1.1], [0.2, 0.3, -0.1])
    s1 = builtin_surface([0.7 + 1e-6, 0.9, 1.1], [0.2, 0.3, -0.1])
    for w in words:
        assert abs(s0.curve_length(w) - s1.curve_length(w)) <= 1e-3


# --- words and curve_length ----------------------------------------------------

def test_word_and_inverse_have_equal_length():
    s = builtin_surface([0.6, 0.8, 1.1])
    for w, winv in [("ab", "BA"), ("acD", "dCA"), ("bd", "DB")]:
        assert abs(s.curve_length(w) - s.curve_length(winv)) < 1e-12


def test_power_law():
    s = builtin_surface([0.6, 0.8, 1.1])
    assert abs(s.curve_length("aa") - 2 * s.curve_length("a")) < 1e-12
    assert abs(s.curve_length("aaa") - 3 * s.curve_length("a")) < 1e-12


def test_non_hyperbolic_word_raises():
    s = builtin_surface([0.6, 0.8, 1.1])
    with pytest.raises(SurfaceError, match="not a closed geodesic"):
        s.curve_length(surface.GENUS2_RELATOR)
    with pytest.raises(SurfaceError, match="not a closed geodesic"):
        s.curve_length("aA")


# --- batched lengths -----------------------------------------------------------

_LETTERS = [1, -1, 2, -2, 3, -3, 4, -4]


@pytest.fixture(scope="module")
def batch_surfaces():
    return [builtin_surface([0.6, 0.8, 1.1], [0.2, -0.3, 0.1]),
            builtin_surface([2.3e-6, 3.7e-6, 5e-6]),
            builtin_surface([1e-3, 2e-4, 5e-4])]


def test_kernel_matches_the_operators():
    # the libmp kernel rounds each step as the private context's mpf
    # operators do, so it gives their _mpf_ tuples bit for bit
    ctx = surface._mp
    rng = random.Random(80)
    for _ in range(200):
        m, n = (tuple(ctx.mpf(rng.uniform(-1.0, 1.0))
                      * ctx.exp(rng.uniform(-40.0, 40.0)) / 3
                      for _ in range(4)) for _ in range(2))
        for got, want in ((surface._mul(m, n), _operator_mul(m, n)),
                          (surface._inv(m), _operator_inv(m))):
            assert [x._mpf_ for x in got] == [x._mpf_ for x in want]


def _oracle_lengths(s, words, dps=160):
    """For each word, the double nearest the length of the exact product of
    the surface's letters, or the message `curve_length` raises for it.

    Each cyclically reduced word is folded from the left in `mpmath.iv`
    interval arithmetic at `dps` digits, and 2 log((t + sqrt(t^2 - 4))/2)
    of its |trace| t is enclosed the same way.  The oracle asserts that
    its enclosure decides: no classification threshold and no midpoint
    between two doubles lies in it.
    """
    message = "not a closed geodesic class: image is %s"
    prec = iv.prec
    iv.dps = dps
    try:
        letters = {v: tuple(iv.mpf(x) for x in m)
                   for v, m in s._mp_letters.items()}
        # left-fold products of every prefix met so far
        folds = {(): (iv.mpf(1), iv.mpf(0), iv.mpf(0), iv.mpf(1))}
        out = []
        for word in words:
            word = curves.cyclic_reduce(curves._as_word(word))
            if not word:
                out.append(message % "parabolic")
                continue
            for k in range(1, len(word) + 1):
                if word[:k] not in folds:
                    folds[word[:k]] = _operator_mul(folds[word[:k - 1]],
                                                    letters[word[k - 1]])
            m = folds[word]
            t = abs(m[0] + m[3])
            with mpmath.workdps(2 * dps):
                low, high = (mpmath.mpf(v) - 2 for v in t._mpi_)
            # |t - 2| < 1e-40 is parabolic, with a margin for the interval
            kind = ("hyperbolic" if low > 1.01e-40 else
                    "elliptic" if high < -1.01e-40 else
                    "parabolic" if -0.99e-40 < low and high < 0.99e-40
                    else None)
            assert kind is not None, (word, "oracle undecided")
            if kind != "hyperbolic":
                out.append(message % kind)
                continue
            low, high = (2 * iv.log((t + iv.sqrt((t - 2) * (t + 2))) / 2))._mpi_
            x = libmp.to_float(low, rnd=libmp.round_nearest)
            with mpmath.workdps(2 * dps):
                below = (mpmath.mpf(x) + math.nextafter(x, 0.0)) / 2
                above = (mpmath.mpf(x) + math.nextafter(x, math.inf)) / 2
                assert below < mpmath.mpf(low) and mpmath.mpf(high) < above, (
                    word, "oracle undecided")
            out.append(x)
        return out
    finally:
        iv.prec = prec


def _assert_batch_matches(s, words):
    got = s.curve_lengths(words)
    assert len(got) == len(words)
    for g, want in zip(got, _oracle_lengths(s, words)):
        if isinstance(want, str):
            assert isinstance(g, SurfaceError) and str(g) == want
        else:
            assert type(g) is float and g == want


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_LETTERS), min_size=1, max_size=6),
                min_size=1, max_size=10),
       st.randoms(use_true_random=False), st.integers(0, 2))
def test_curve_lengths_bit_identical_to_word_by_word(batch_surfaces, words,
                                                     rnd, which):
    # every prefix joins the family, so words extend, shorten and repeat
    # their neighbours; unreduced words (aA...) are drawn as well
    family = [tuple(w[:k]) for w in words for k in range(1, len(w) + 1)]
    s = batch_surfaces[which]
    _assert_batch_matches(s, sorted(family))
    rnd.shuffle(family)
    _assert_batch_matches(s, family)


def test_curve_lengths_when_a_word_extends_the_previous_one(batch_surfaces):
    # the stack never holds a whole word's product, so a word that extends
    # the previous one may reuse only the previous word's proper prefixes
    cases = ([(1,), (1, -1)], [(1, 2), (1, 2, 3)], [(1, 2, 3), (1, 2)],
             [(1, 2), (1, 2), (1, 2, -2)], [(3,), (), (3, 4)])
    for s in batch_surfaces:
        for words in cases:
            _assert_batch_matches(s, words)


def test_curve_lengths_report_what_curve_length_raises(batch_surfaces):
    words = ["ab", "aA", surface.GENUS2_RELATOR, "cd", (2, -2), (1, -1),
             "a"]
    for s in batch_surfaces:
        got = s.curve_lengths(words)
        errors = 0
        for w, g in zip(words, got):
            if isinstance(g, SurfaceError):
                errors += 1
                want, = _oracle_lengths(s, [w])
                assert str(g) == want
                with pytest.raises(SurfaceError) as raised:
                    s.curve_length(w)
                assert str(raised.value) == str(g)
            else:
                assert s.curve_length(w) == g
        assert errors == 4


def test_conjugates_keep_the_length_of_their_class(batch_surfaces):
    # a conjugate is folded as its cyclic reduction, so conjugating a short
    # curve by a long word on a pinched surface cannot cost it its digits
    pinched = batch_surfaces[1]
    assert pinched.curve_length("cdCDadcDC") == pinched.curve_length("a")
    for s in batch_surfaces:
        for word, conj in (("a", "cdCDadcDC"), ("cd", "bAcdaB"),
                           ("aB", "DCaBcd"), ("abc", "dabBbcD")):
            assert s.curve_lengths([conj, word]) == [s.curve_length(word)] * 2


def _within(n, e, radius, exact):
    """|n 2^e - m 2^f| <= radius 2^e for the exact trace (m, f, 0)."""
    m, f, _ = exact
    low = min(e, f)
    return abs((n << (e - low)) - (m << (f - low))) <= radius << (e - low)


def _exact_trace(s, word):
    """|trace| of the exact product of the word's letters, as (m, f, 0),
    multiplied letter by letter with no truncation and no stack."""
    p0, p1, p2, p3, f = 1, 0, 0, 1, 0
    for v in word:
        a0, a1, a2, a3, ea = s._int_letters[v][:5]
        p0, p1 = p0 * a0 + p1 * a2, p0 * a1 + p1 * a3
        p2, p3 = p2 * a0 + p3 * a2, p2 * a1 + p3 * a3
        f += ea
    return abs(p0 + p3), f, 0


_RADIUS_RNG = random.Random(24)
# pinched, thick and twisted surfaces
RADIUS_COORDS = [
    ([0.7, 0.8, 0.9], None), ([1e-6, 5e-5, 1e-5], None),
    ([0.7, 0.8, 0.9], [0.3, -1.1, 2.0]),
    ([1e-3, 2e-4, 5e-4], [0.5, 0.1, -0.4]),
    ([2.3e-6, 3.7e-6, 5e-6], [3.0, -2.0, 1.0]),
    ([math.exp(x) for x in (-13.0, -12.5, -12.2)], [0.4, -0.3, 1.2])] + [
    ([math.exp(_RADIUS_RNG.uniform(-13.0, -12.0)) for _ in range(3)],
     [_RADIUS_RNG.uniform(-5.0, 5.0) for _ in range(3)]) for _ in range(2)]


@pytest.fixture(scope="module")
def radius_surfaces():
    return [builtin_surface(lengths, twists)
            for lengths, twists in RADIUS_COORDS]


def test_integer_traces_within_their_radius(radius_surfaces):
    # over L5 each trace lies within its radius of the exact trace, which a
    # fold that never truncates gives, and no word is left undecided; at
    # 64 bits the radius still holds
    words = [c.word for c in curves.enumerate_conj_classes(2, 5)]
    for lengths, s in zip(RADIUS_COORDS, radius_surfaces):
        exact = [_exact_trace(s, w) for w in words]
        assert s._int_traces(words, 1 << 16) == exact
        for bits in (272, 64):
            ints = s._int_traces(words, bits)
            for w, (n, e, radius), t in zip(words, ints, exact):
                assert _within(n, e, radius, t), (lengths, bits, w)
                if bits == 272:
                    # the radius is far below the excess over 2
                    assert radius * 10 ** 30 < n - (2 << -e), (lengths, w)
        assert None not in s.length_estimates(words)


def _prefix_families():
    """L5 in enumeration order, reversed and shuffled, and with words
    repeated twice in a row, empty words and single letters after longer
    words, some of them right after an empty word."""
    l5 = [c.word for c in curves.enumerate_conj_classes(2, 5)]
    shuffled = list(l5)
    random.Random(32).shuffle(shuffled)
    mixed = []
    for i, w in enumerate(l5):
        mixed.append(w)
        if i % 3 == 0:
            mixed.append(w)
        if i % 5 == 0:
            mixed += [(), w[:1]]
        if i % 7 == 0:
            mixed.append((_LETTERS[i % 8],))
    return {"enumerated": l5, "reversed": l5[::-1], "shuffled": shuffled,
            "mixed": mixed}


@pytest.mark.parametrize("bits", [272, 64])
def test_traces_reuse_a_prefix_product_only_for_the_same_prefix(bits):
    # a word whose proper prefix is the previous word's takes its trace
    # from the product the fold holds; after a word of another length or
    # an empty word it must not, so every order gives each word's trace
    # alone, and that lies within its radius of the exact trace
    for s in (surface.reference_surface(builtin_genus2_convenient()),
              builtin_surface([2.3e-6, 3.7e-6, 5e-6], [1.0, 2.0, -3.0])):
        families = _prefix_families()
        alone = {w: s._int_traces([w], bits)[0]
                 for w in set(families["mixed"])}
        assert alone.pop(()) is None
        for w, t in alone.items():
            assert _within(*t, _exact_trace(s, w)), (w, bits)
        alone[()] = None
        for name, family in families.items():
            assert s._int_traces(family, bits) == [alone[w] for w in family], (
                name, bits)


def test_lengths_are_the_nearest_doubles(radius_surfaces):
    words = [c.word for c in curves.enumerate_conj_classes(2, 5)]
    for lengths, s in zip(RADIUS_COORDS, radius_surfaces):
        assert s.curve_lengths(words) == _oracle_lengths(s, words), lengths
    # powers of pants curves whose exact lengths lie just off a midpoint
    # between two doubles: 4e-79 below 3 x 0.8 and 7.8e-53 from one
    thick = radius_surfaces[0]
    assert thick.curve_length("bbb") == 2.4
    twisted = builtin_surface([2.3e-6, 3.7e-6, 5e-6], [1.0, 2.0, -3.0])
    assert twisted.curve_length("bbbbb") == 1.85e-05
    assert _oracle_lengths(twisted, ["bbbbb"]) == [1.85e-05]


def test_undecided_words_refold_to_the_same_doubles(radius_surfaces,
                                                    monkeypatch):
    words = [c.word for c in curves.enumerate_conj_classes(2, 4)]
    want = [s.curve_lengths(words) for s in radius_surfaces[:3]]
    folds = []
    fold = surface.MarkedSurface._int_traces

    def counting(self, batch, bits):
        folds.append((len(batch), bits))
        return fold(self, batch, bits)

    monkeypatch.setattr(surface.MarkedSurface, "_int_traces", counting)
    monkeypatch.setattr(surface, "_BITS", 32)
    for s, lengths in zip(radius_surfaces, want):
        folds.clear()
        assert s.curve_lengths(words) == lengths
        # each level doubles the bits and refolds only the words the level
        # below left undecided
        sizes, levels = zip(*folds)
        assert levels == tuple(32 << k for k in range(len(levels)))
        assert list(sizes) == sorted(sizes, reverse=True)
        assert sizes[-1] < len(words)
    monkeypatch.undo()
    # bbbbb on the twisted surface needs 544 bits
    twisted = builtin_surface([2.3e-6, 3.7e-6, 5e-6], [1.0, 2.0, -3.0])
    monkeypatch.setattr(surface, "_MAX_BITS", 272)
    with pytest.raises(SurfaceError, match="bbbbb not decided within the "
                                           "cap of 272 bits"):
        twisted.curve_lengths(["a", "bbbbb"])


def test_trivial_classes_get_one_answer_per_surface():
    # the relator and two of its rotations; an exact trace is invariant
    # under rotation, so all three are parabolic on every surface
    rotations = [surface.GENUS2_RELATOR, "CbcaDBAd", "aDBAdCbc"]
    for lengths, twists in (([0.7, 0.8, 0.9], None),
                            ([1e-3, 2e-4, 5e-4], None),
                            ([2.3e-6, 3.7e-6, 5e-6], [1.0, 2.0, -3.0]),
                            ([0.6, 0.8, 1.1], [0.2, -0.3, 0.1])):
        got = builtin_surface(lengths, twists).curve_lengths(rotations)
        assert [str(g) for g in got] == [
            "not a closed geodesic class: image is parabolic"] * 3, lengths


def test_holonomy_accepts_signed_indices():
    s = builtin_surface([0.6, 0.8, 1.1])
    m1 = s.holonomy("aB")
    m2 = s.holonomy((1, -2))
    assert m1.approx_eq(m2, tol=1e-14)


# generators' _mpf_ tuples and relator residual of builtin surfaces, as
# SHA-256 of their repr (`_build_digest`), recorded before the builds shared
# one geometry between the two pants
BUILD_DIGESTS = {
    ((0.7, 0.8, 0.9), None):
        "276d86f9952ab3466e82f574c6fdfb4263882bf4263bc3242ec70722cb021310",
    ((0.7, 0.8, 0.9), (1.0, 2.0, -3.0)):
        "91930db5d46a578d1b00b4e91472243db0a96602921f74331dc0dd2f80248b73",
    ((1e-3, 2e-4, 5e-4), None):
        "65c9c1b3a9872910dcf118b8ff5e3e60b861937c468bbd6b054fa40a14027b13",
    ((1e-3, 2e-4, 5e-4), (1.0, 2.0, -3.0)):
        "52fbbd2fa02f08ae5ca49a900b2e8eed4cb8b944cf806ba4cb6a27dade945e1b",
    ((2.3e-6, 3.7e-6, 5e-6), None):
        "85707b0f5123d65feb251b636c34198cf3dd6bfe3af5c731313d55201c8ce9d7",
    ((2.3e-6, 3.7e-6, 5e-6), (1.0, 2.0, -3.0)):
        "8f488de1cddd1f8bd8a92ef4b612e342f76574fb0aead4d7a5b567da21bc2137",
}


def _build_digest(s):
    gens = [(sign, int(man), exp, bc) for i in (1, 2, 3, 4)
            for sign, man, exp, bc in (x._mpf_ for x in s._mp_letters[i])]
    return hashlib.sha256(repr((gens, s.relator_residual)).encode()).hexdigest()


def test_one_pants_geometry_per_shape(monkeypatch):
    built = []
    geometry = surface.PantsGeometry

    def counting(halves):
        built.append(halves)
        return geometry(halves)

    monkeypatch.setattr(surface, "PantsGeometry", counting)
    # the builtin decomposition's two pants have one half-length triple
    for (lengths, twists), want in BUILD_DIGESTS.items():
        built.clear()
        assert _build_digest(builtin_surface(lengths, twists)) == want
        assert built == [tuple(v / 2.0 for v in lengths)]
    # a geometry that raises does so from the one build
    built.clear()
    with pytest.raises(hyp2.Hyp2Error, match="distinct endpoints"):
        builtin_surface([1e-6, 2e-6, 3e-6])
    assert len(built) == 1
    # another slot pairing gives the two pants different triples; the
    # builtin marking's relator does not hold for it
    built.clear()
    swapped = PantsDecomposition([0, 1], [(0, 1, 1, 2), (0, 2, 1, 1),
                                          (0, 3, 1, 3)])
    with pytest.raises(SurfaceError, match="relator residual"):
        build_holonomy(swapped, FNCoordinates([1.0, 1.2, 0.9]))
    assert built == [(0.5, 0.6, 0.45), (0.6, 0.5, 0.45)]
    # genus 3: pants 0 and 1 share a triple, pants 2 and 3 do not
    built.clear()
    edges = [(0, 1, 1, 1), (0, 2, 1, 2), (0, 3, 2, 1), (1, 3, 2, 2),
             (2, 3, 3, 1), (3, 2, 3, 3)]
    s = build_holonomy(PantsDecomposition([0, 1, 2, 3], edges),
                       FNCoordinates([1.0, 1.2, 0.9, 0.9, 1.1, 0.8]))
    assert s.relator_residual <= 1e-9
    assert len(built) == 3


# --- beyond the builtin graph --------------------------------------------------

def test_higher_genus_graph_builds():
    edges = [(0, 1, 1, 1), (0, 2, 1, 2), (0, 3, 2, 1), (1, 3, 2, 2),
             (2, 3, 3, 1), (3, 2, 3, 3)]
    d = PantsDecomposition([0, 1, 2, 3], edges)
    lengths = [1.0, 1.2, 0.9, 1.4, 1.1, 0.8]
    s = build_holonomy(d, FNCoordinates(lengths))
    assert s.relator_residual <= 1e-9
    # off the builtin graph, generator i + 1 is the holonomy of curve i
    for i, l in enumerate(lengths):
        assert abs(s.curve_length((i + 1,)) - l) < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(0.1, 2.0),
       st.floats(-1.0, 1.0))
def test_holonomy_consistency_property(l1, l2, l3, t):
    s = builtin_surface([l1, l2, l3], [t, -t, 0.5 * t])
    assert s.relator_residual <= 1e-12
    for w, l in zip(s.curve_words, (l1, l2, l3)):
        assert abs(s.curve_length(w) - l) <= 1e-11 * max(1.0, l)
