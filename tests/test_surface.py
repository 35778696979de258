import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from teichlab import curves, hyp2, pants, surface
from teichlab.surface import (
    FNCoordinates, PantsDecomposition, SurfaceError,
    build_holonomy, builtin_genus2_convenient,
)


def builtin_surface(lengths, twists=None):
    return build_holonomy(builtin_genus2_convenient(),
                          FNCoordinates(lengths, twists))


def close(p, q, tol):
    """Boundary points within tol, relative to the larger magnitude."""
    if p.is_infinity or q.is_infinity:
        return p.is_infinity and q.is_infinity
    return abs(p.value - q.value) <= tol * max(1.0, abs(p.value), abs(q.value))


# --- decomposition combinatorics ---------------------------------------------

def test_builtin_counts():
    d = builtin_genus2_convenient()
    assert len(d.pants) == 2
    assert len(d.curve_edges) == 3


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

def test_pants_geometry_boundary_product_is_identity():
    g = surface.PantsGeometry((0.6, 0.8, 1.1))
    prod = g.X[1] @ g.X[2] @ g.X[3]
    assert prod.approx_eq(hyp2.IsometryMatrix.identity(), tol=1e-12)


def test_pants_geometry_boundary_lengths():
    g = surface.PantsGeometry((0.3, 0.45, 0.62))
    for k, a in zip((1, 2, 3), (0.3, 0.45, 0.62)):
        tl = hyp2.translation_length(g.X[k])
        assert tl.kind == "hyperbolic"
        assert abs(tl.length - 2 * a) < 1e-11


def test_pants_geometry_feet_on_axes():
    g = surface.PantsGeometry((0.6, 0.8, 1.1))
    assert g.vertices[0].x == pytest.approx(0.0, abs=1e-15)
    assert g.vertices[0].y == pytest.approx(1.0, abs=1e-15)
    for k in (1, 2, 3):
        assert abs(hyp2.distance_to_line(g.axes[k], g.feet[k])) < 1e-12
        ax = hyp2.axis_endpoints(g.X[k])
        assert close(ax.start, g.axes[k].start, 1e-9)
        assert close(ax.end, g.axes[k].end, 1e-9)


def test_pants_geometry_seam_lengths_match_float_oracle():
    shape = pants.PantsShape(0.25, 0.4, 0.55)
    expected = pants.seam_lengths(shape)
    g = surface.PantsGeometry((0.25, 0.4, 0.55))
    for got, want in zip(g.seam_lengths, expected):
        assert abs(got - want) < 1e-12


def test_pants_geometry_seam_lengths_match_hexagon_law():
    # cosh c_1' = (cosh a1 + cosh a2 cosh a3) / (sinh a2 sinh a3), evaluated
    # at 80 digits without the shared pentagon-split kernel
    rng = random.Random(417)
    for _ in range(30):
        halves = [math.exp(rng.uniform(math.log(1e-5), math.log(10.0)))
                  for _ in range(3)]
        g = surface.PantsGeometry(halves)
        with mpmath.workdps(80):
            a = [mpmath.mpf(v) for v in halves]
            for i in range(3):
                a1, a2, a3 = a[i], a[(i + 1) % 3], a[(i + 2) % 3]
                law = mpmath.acosh(
                    (mpmath.cosh(a1) + mpmath.cosh(a2) * mpmath.cosh(a3))
                    / (mpmath.sinh(a2) * mpmath.sinh(a3)))
                _, ck, cl = pants._seam_split(a1, a2, a3, mpmath)
                assert abs(ck + cl - law) <= mpmath.mpf(10) ** -70 * law
                assert abs(g.seam_lengths[i] - float(law)) <= 2.0 ** -52 * law


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
    # the root pants sits at the identity, so its seams are the surface's
    root = surface.PantsGeometry([v / 2 for v in lengths])
    for j, w in enumerate(s.seam_words):
        ax = hyp2.axis_endpoints(s.holonomy(w))
        line = root.seam_lines[j + 1]
        assert close(ax.start, line.start, 1e-9)
        assert close(ax.end, line.end, 1e-9)


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
        assert hyp2.translation_length(s.holonomy(letter)).kind == "hyperbolic"


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


def _reference_length(s, word):
    """2 acosh(|tr|/2) of the word-by-word fold of the cyclically reduced
    word, or the expected message."""
    word = curves.cyclic_reduce(curves._as_word(word))
    if not word:
        # the identity, whatever the rounded trace of the fold
        return "not a closed geodesic class: image is parabolic"
    with mpmath.workdps(surface._DPS):
        m = s._mp_holonomy(word)
        t = abs(m[0] + m[3])
        if t <= 2:
            kind = "parabolic" if abs(t - 2) < 1e-40 else "elliptic"
            return "not a closed geodesic class: image is %s" % kind
        return float(2 * mpmath.acosh(t / 2))


def _assert_batch_matches(s, words):
    got = s.curve_lengths(words)
    assert len(got) == len(words)
    # the lengths are the exact lengths of the batch's traces
    for g, t in zip(got, s.curve_traces(words)):
        if isinstance(g, SurfaceError):
            assert isinstance(t, SurfaceError) and str(t) == str(g)
        else:
            assert surface._trace_lengths([t]) == [g]
    for w, g in zip(words, got):
        want = _reference_length(s, w)
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
                assert str(g) == _reference_length(s, w)
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


def _within(n, e, radius, t):
    """|n 2^e - t| <= radius 2^e, in exact integers, for an mpf t > 0."""
    _, man, exp, _ = t._mpf_
    low = min(e, exp)
    gap = (n << (e - low)) - (int(man) << (exp - low))
    return abs(gap) <= radius << (e - low)


def test_integer_traces_within_their_radius(monkeypatch):
    # over L5 on pinched, thick and twisted surfaces each integer trace
    # lies within its radius of the 80-digit fold and of a 160-digit fold
    # of the same letters, and no word is left undecided; at 64 bits the
    # truncations, not the 80-digit roundings, dominate the radius
    rng = random.Random(24)
    coords = [([0.7, 0.8, 0.9], None), ([1e-6, 5e-5, 1e-5], None),
              ([0.7, 0.8, 0.9], [0.3, -1.1, 2.0]),
              ([1e-3, 2e-4, 5e-4], [0.5, 0.1, -0.4]),
              ([2.3e-6, 3.7e-6, 5e-6], [3.0, -2.0, 1.0]),
              ([math.exp(x) for x in (-13.0, -12.5, -12.2)], [0.4, -0.3, 1.2])]
    coords += [([math.exp(rng.uniform(-13.0, -12.0)) for _ in range(3)],
                [rng.uniform(-5.0, 5.0) for _ in range(3)]) for _ in range(2)]
    words = [c.word for c in curves.enumerate_conj_classes(2, 5)]
    for lengths, twists in coords:
        s = builtin_surface(lengths, twists)
        mp80 = s.curve_traces(words)
        with monkeypatch.context() as m:
            m.setattr(surface, "_DPS", 160)
            mp160 = s.curve_traces(words)
        for bits in (272, 64):
            with monkeypatch.context() as m:
                m.setattr(surface, "_BITS", bits)
                ints = s._int_traces(words)
            for w, (n, e, radius), t80, t160 in zip(words, ints, mp80, mp160):
                assert _within(n, e, radius, t80), (lengths, bits, w)
                assert _within(n, e, radius, t160), (lengths, bits, w)
                if bits == 272:
                    # the radius is far below the excess over 2
                    assert radius * 10 ** 30 < n - (2 << -e), (lengths, w)
        assert None not in s.length_estimates(words)


def test_holonomy_accepts_signed_indices():
    s = builtin_surface([0.6, 0.8, 1.1])
    m1 = s.holonomy("aB")
    m2 = s.holonomy((1, -2))
    assert m1.approx_eq(m2, tol=1e-14)


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
