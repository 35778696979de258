import math
import random

import mpmath
import pytest

from teichlab import curves, surface, thurston
from teichlab.surface import FNCoordinates
from teichlab.thurston import (
    NoisyPathSpec, PiecewiseLinearPath, ThurstonError, asymmetry_path_point,
    linf_grid_check, noisy_path_point, random_noisy_spec, ratio_sup,
    symmetric_path_point, verify_noisy_geodesic,
)


DEC = surface.builtin_genus2_convenient()
BASE = [-13.0, -12.5, -12.2]


@pytest.fixture(scope="module")
def family():
    return [c.word for c in curves.enumerate_conj_classes(2, 4)]


def build(coords):
    return surface.build_holonomy(DEC, coords)


# --- piecewise-linear paths -----------------------------------------------------


def test_path_validation():
    with pytest.raises(ThurstonError):
        PiecewiseLinearPath(0.0, [(0.0,), (1.0,)])
    with pytest.raises(ThurstonError):
        PiecewiseLinearPath(1.0, [(0.5,), (1.0,)])  # must start at 0
    with pytest.raises(ThurstonError):
        PiecewiseLinearPath(1.0, [(0.0,)])
    with pytest.raises(ThurstonError):
        PiecewiseLinearPath(1.0, [(0.0, 0.0), (1.0,)])


def test_path_interpolation():
    p = PiecewiseLinearPath(2.0, [(0.0,), (1.0,), (0.5,)])
    assert p(0.0) == (0.0,)
    assert p(1.0) == (1.0,)
    assert p(2.0) == (0.5,)
    assert p(0.5) == (0.5,)
    assert p(1.5) == (0.75,)
    assert p.slopes() == [(1.0,), (-0.5,)]
    with pytest.raises(ThurstonError):
        p(2.5)


def test_random_path_slopes_within_bounds():
    for seed in range(5):
        p = PiecewiseLinearPath.random(1.0, 2, -5.0, 1.0, seed)
        assert len(p.values) == 17
        for seg in p.slopes():
            for s in seg:
                assert -5.0 - 1e-9 <= s <= 1.0 + 1e-9


# --- spec validation ------------------------------------------------------------


def test_spec_validation_errors():
    T = 1.0
    good_f = PiecewiseLinearPath.zero(T, 2)
    good_g = PiecewiseLinearPath.zero(T, 3)
    with pytest.raises(ThurstonError, match="index"):
        NoisyPathSpec(BASE, None, T, 5, good_f, good_g)
    with pytest.raises(ThurstonError, match="F must"):
        NoisyPathSpec(BASE, None, T, 0, PiecewiseLinearPath.zero(T, 3), good_g)
    with pytest.raises(ThurstonError, match="G must"):
        NoisyPathSpec(BASE, None, T, 0, good_f, PiecewiseLinearPath.zero(T, 2))
    with pytest.raises(ThurstonError, match="horizon"):
        NoisyPathSpec(BASE, None, 2.0, 0, good_f, good_g)
    steep = PiecewiseLinearPath(T, [(0.0, 0.0), (1.5, 0.0)])
    with pytest.raises(ThurstonError, match="F slope"):
        NoisyPathSpec(BASE, None, T, 0, steep, good_g)
    # backward bound is D, not 1
    down = PiecewiseLinearPath(T, [(0.0, 0.0), (-4.0, 0.0)])
    NoisyPathSpec(BASE, None, T, 0, down, good_g, D=5.0)
    with pytest.raises(ThurstonError, match="F slope"):
        NoisyPathSpec(BASE, None, T, 0, down, good_g, D=2.0)
    wild_g = PiecewiseLinearPath(T, [(0.0,) * 3, (7.0, 0.0, 0.0)])
    with pytest.raises(ThurstonError, match="G slope"):
        NoisyPathSpec(BASE, None, T, 0, good_f, wild_g, D=5.0)
    # the falsification escape hatch skips the slope checks
    NoisyPathSpec(BASE, None, T, 0, steep, wild_g, enforce_slopes=False)


# --- path points ----------------------------------------------------------------


def test_path_point_at_zero_is_base():
    spec = random_noisy_spec(BASE, 1.0, 0, seed=11)
    p = noisy_path_point(spec, 0.0)
    assert p.lengths == pytest.approx([math.exp(x) for x in BASE], rel=1e-15)
    assert p.twists == [0.0, 0.0, 0.0]


def test_pure_stretch_moves_one_coordinate():
    T = 1.0
    spec = NoisyPathSpec(BASE, None, T, 1, PiecewiseLinearPath.zero(T, 2),
                         PiecewiseLinearPath.zero(T, 3))
    p = noisy_path_point(spec, 0.7)
    expect = [math.exp(x) for x in BASE]
    expect[1] *= math.exp(0.7)
    assert p.lengths == pytest.approx(expect, rel=1e-15)
    assert p.twists == [0.0, 0.0, 0.0]


def test_random_path_is_coordinatewise_controlled():
    spec = random_noisy_spec(BASE, 1.0, 0, D=5.0, seed=23)
    rng = random.Random(5)
    for _ in range(50):
        t1 = rng.uniform(0.0, 1.0)
        t2 = rng.uniform(0.0, 1.0)
        if t2 < t1:
            t1, t2 = t2, t1
        a = noisy_path_point(spec, t1)
        b = noisy_path_point(spec, t2)
        dt = t2 - t1
        for i, (la, lb) in enumerate(zip(a.lengths, b.lengths)):
            dlog = math.log(lb) - math.log(la)
            if i == spec.stretched_index:
                assert dlog == pytest.approx(dt, abs=1e-12)
            else:
                assert dlog <= dt + 1e-12
                assert dlog >= -5.0 * dt - 1e-12
        for ta, tb in zip(a.twists, b.twists):
            assert abs(tb - ta) <= 5.0 * dt + 1e-12


def test_path_point_out_of_range():
    spec = random_noisy_spec(BASE, 1.0, 0, seed=1)
    with pytest.raises(ThurstonError):
        noisy_path_point(spec, -0.1)
    with pytest.raises(ThurstonError):
        noisy_path_point(spec, 1.1)


def test_symmetric_path_point_checks_shrunk_index():
    # -1 would pass the "must differ" check by negative indexing and shrink
    # the stretched coordinate 2
    spec = random_noisy_spec(BASE, 1.0, 2, seed=1)
    for index in (3, 5, -1):
        with pytest.raises(ThurstonError, match="shrunk index out of range"):
            symmetric_path_point(spec, 0.5, index)
    with pytest.raises(ThurstonError, match="must differ"):
        symmetric_path_point(spec, 0.5, 2)
    coords = symmetric_path_point(spec, 0.5, 0)
    assert coords.lengths[0] == math.exp(BASE[0] - 0.5)


# --- ratio_sup ------------------------------------------------------------------


def test_ratio_sup_identity(family):
    X = build(FNCoordinates([math.exp(x) for x in BASE]))
    cert = ratio_sup(X, X, family)
    assert cert.sup_ratio == pytest.approx(1.0, rel=1e-12)
    assert cert.family_size == len(family)
    assert cert.skipped == 0
    assert cert.witness == (1,)  # canonical tie-break


def test_ratio_sup_monotone_under_enlargement(family):
    X = build(noisy_path_point(random_noisy_spec(BASE, 1.0, 0, seed=2), 0.0))
    Y = build(noisy_path_point(random_noisy_spec(BASE, 1.0, 0, seed=2), 0.8))
    small = ratio_sup(X, Y, family[:40])
    large = ratio_sup(X, Y, family)
    assert large.sup_ratio >= small.sup_ratio - 1e-15


def test_ratio_sup_reciprocal_bound(family):
    rng = random.Random(17)
    for _ in range(3):
        # stay above ~2e-6: far below that the float views of the pants
        # axes collapse within the endpoint tie tolerance
        lx = [math.exp(rng.uniform(-13.0, -12.0)) for _ in range(3)]
        ly = [math.exp(rng.uniform(-13.0, -12.0)) for _ in range(3)]
        X = build(FNCoordinates(lx))
        Y = build(FNCoordinates(ly))
        fwd = ratio_sup(X, Y, family)
        rev = ratio_sup(Y, X, family)
        assert fwd.sup_ratio * rev.sup_ratio >= 1.0 - 1e-12


def test_ratio_sup_skips_degenerate_classes(family):
    X = build(FNCoordinates([math.exp(x) for x in BASE]))
    cert = ratio_sup(X, X, [(1,), (1, -1)])
    assert cert.skipped == 1
    assert cert.family_size == 1
    with pytest.raises(ThurstonError, match="nonempty"):
        ratio_sup(X, X, [])
    with pytest.raises(ThurstonError, match="no hyperbolic"):
        ratio_sup(X, X, [(1, -1)])


def test_ratio_sup_independent_of_family_order(family):
    # the batched lengths share prefix products between neighbours, so the
    # order changes the work but must not change the certificate; the
    # degenerate words land next to their prefixes
    X = build(noisy_path_point(random_noisy_spec(BASE, 1.0, 0, seed=3), 0.0))
    Y = build(noisy_path_point(random_noisy_spec(BASE, 1.0, 0, seed=3), 0.7))
    words = sorted(list(family) + [(1, -1), (3, -3), (1, 2, -2)])
    shuffled = list(words)
    random.Random(5).shuffle(shuffled)
    want = ratio_sup(X, Y, words)
    assert want.skipped == 2
    for order in (words[::-1], shuffled):
        got = ratio_sup(X, Y, order)
        assert got.sup_ratio == want.sup_ratio
        assert got.witness == want.witness
        assert got.family_size == want.family_size
        assert got.skipped == want.skipped


def test_trivial_words_are_skipped_not_measured():
    # a word that reduces freely to the identity is no closed geodesic; the
    # 80-digit fold leaves its trace just above 2 (bcCB on 1e-3/2e-4/5e-4
    # used to measure 2.5e-31) or, on pinched surfaces, far above it
    trivial = ["bcCB", "abBA", "bB", "cdCDdcDC", (2, -2, 1, 3, -3, -1)]
    message = "not a closed geodesic class: image is parabolic"
    X = build(FNCoordinates([0.7, 0.8, 0.9]))
    Y = build(FNCoordinates([1e-3, 2e-4, 5e-4]))
    Z = build(FNCoordinates([2.3e-6, 3.7e-6, 5e-6]))
    for s in (X, Y, Z):
        aA, = s.curve_lengths(["aA"])
        assert str(aA) == message
        batch = s.curve_lengths(["a"] + trivial + ["c"])
        for w, got in zip(trivial, batch[1:]):
            assert isinstance(got, surface.SurfaceError), w
            assert str(got) == message
            with pytest.raises(surface.SurfaceError) as err:
                s.curve_length(w)
            assert str(err.value) == message
    for s, t in ((X, Y), (Y, Z)):
        cert = ratio_sup(s, t, ["a", "c"] + trivial)
        want = ratio_sup(s, t, ["a", "c"])
        assert (cert.family_size, cert.skipped) == (2, len(trivial))
        assert (cert.sup_ratio, cert.witness) == (want.sup_ratio, want.witness)


# --- the float screen of ratio_sup ----------------------------------------------


def oracle_certificate(x_surface, y_surface, family):
    """Exhaustive reference: exact lengths of every word, then the supremum
    and the canonically smallest word within 1e-12 of it."""
    words = [curves._as_word(cls) for cls in family]
    evaluated = [(w, ly / lx) for w, lx, ly in zip(
        words, x_surface.curve_lengths(words), y_surface.curve_lengths(words))
        if not isinstance(lx, surface.SurfaceError)
        and not isinstance(ly, surface.SurfaceError)]
    sup_ratio = max(r for _, r in evaluated)
    witness = min((w for w, r in evaluated if r >= sup_ratio * (1.0 - 1e-12)),
                  key=lambda w: (len(w), curves._word_key(w)))
    return sup_ratio, witness, len(evaluated), len(words) - len(evaluated)


def noisy_pair(seed):
    rng = random.Random(seed)
    spec = random_noisy_spec(BASE, 1.0, rng.randrange(3), seed=seed)
    t1 = rng.uniform(0.0, 0.9)
    t2 = rng.uniform(t1 + 1e-3, 1.0)
    x = build(noisy_path_point(spec, t1))
    y = build(noisy_path_point(spec, t2))
    return x, y, x.curve_words[spec.stretched_index], math.exp(t2 - t1)


POWERS_AND_TRIVIAL = ["a", "aa", "aaa", "aA", "bcCB", "b", "cd", "BA", "aaaa"]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_screened_certificate_matches_exhaustive_oracle(family, seed):
    x, y, stretched, expected = noisy_pair(seed)
    for fam in (family, POWERS_AND_TRIVIAL):
        for a, b in ((x, y), (y, x)):
            cert = ratio_sup(a, b, fam, stretched, expected)
            want = oracle_certificate(a, b, fam)
            assert (cert.sup_ratio, cert.witness, cert.family_size,
                    cert.skipped) == want
            rd = b.curve_length(stretched) / a.curve_length(stretched)
            assert cert.exact_flag == (abs(rd - expected) <= 1e-9 * expected
                                       and want[0] <= expected * (1.0 + 1e-9))
    assert ratio_sup(x, y, family, stretched, expected).exact_flag


def test_screened_certificate_on_ties_and_twists():
    # X = Y ties every ratio at 1; the twisted pair and the pinched-to-thick
    # pair mix traces near 2 with traces far above 3
    family5 = [c.word for c in curves.enumerate_conj_classes(2, 5)]
    thick = build(FNCoordinates([0.7, 0.8, 0.9]))
    twisted = build(FNCoordinates([0.7, 0.8, 0.9], [0.3, -1.1, 2.0]))
    skew = build(FNCoordinates([1e-3, 2e-4, 5e-4], [0.5, 0.1, -0.4]))
    pinched = build(FNCoordinates([1e-6, 5e-5, 1e-5]))
    cases = [(thick, thick, family5), (twisted, skew, family5),
             (skew, twisted, POWERS_AND_TRIVIAL), (pinched, thick, family5),
             (thick, pinched, POWERS_AND_TRIVIAL)]
    for x, y, fam in cases:
        cert = ratio_sup(x, y, fam)
        assert (cert.sup_ratio, cert.witness, cert.family_size,
                cert.skipped) == oracle_certificate(x, y, fam)
    tie = ratio_sup(thick, thick, family5)
    assert (tie.sup_ratio, tie.witness) == (1.0, (1,))
    fwd, rev = thurston.ratio_sup_both_ways(twisted, skew, family5)
    for got, (x, y) in ((fwd, (twisted, skew)), (rev, (skew, twisted))):
        want = ratio_sup(x, y, family5)
        assert (got.sup_ratio, got.witness, got.family_size,
                got.skipped) == (want.sup_ratio, want.witness,
                                 want.family_size, want.skipped)


def test_length_estimates_within_screen_error():
    # the estimates' contract holds with room to spare: every L5 word has
    # an estimate within 1e-15 of its exact length
    words = [c.word for c in curves.enumerate_conj_classes(2, 5)]
    pinched = build(FNCoordinates([1e-6, 5e-5, 1e-5]))
    for name, s in (("thick", build(FNCoordinates([0.7, 0.8, 0.9]))),
                    ("pinched", pinched),
                    ("twisted", build(FNCoordinates([0.7, 0.8, 0.9],
                                                    [0.3, -1.1, 2.0])))):
        estimates = s.length_estimates(words)
        lengths = s.curve_lengths(words)
        assert None not in estimates, name
        assert not any(isinstance(v, surface.SurfaceError) for v in lengths)
        worst = max(abs(e / length - 1.0)
                    for e, length in zip(estimates, lengths))
        assert worst <= 1e-15, name
    # the float of a trace near 2 keeps almost no digit of a 1e-6 cuff
    (n, e, _), = pinched._int_traces([(1,)], surface._BITS)
    plain = 2.0 * math.acosh(math.ldexp(n, e) / 2.0)
    assert abs(plain / pinched.curve_length("a") - 1.0) > 1e-15


def test_estimate_is_none_past_its_error_bound():
    # a trace near 2.5 known to within radius r: the length's relative
    # error bound 2 (r / low) (t / (t + 2)) crosses _ESTIMATE_REL = 2.5e-14
    # between r = 2^-47 and 2^-46 of the trace's unit
    e = -100
    n = 5 << (-e - 1)
    assert surface._estimate(n, e, 1 << (-e - 47)) == pytest.approx(
        2.0 * math.acosh(1.25), rel=1e-15)
    assert surface._estimate(n, e, 1 << (-e - 46)) is None


class FixedLengths:
    """A stand-in surface whose `curve_lengths` reads a table."""

    def __init__(self, table):
        self.table = table

    def curve_lengths(self, words):
        return [self.table[w] for w in words]


def trace(length):
    """An 80-digit trace 2 cosh(length/2), as an mpf."""
    with mpmath.workdps(80):
        return 2 * mpmath.cosh(mpmath.mpf(length) / 2)


def exact(t):
    """The length `curve_lengths` gives an mpf |trace| t > 2."""
    _, man, exp, _ = t._mpf_
    length = surface._length(int(man), exp, 0, surface._BITS)
    assert type(length) is float
    return length


def test_screen_margin_keeps_a_word_at_the_witness_band():
    # a word whose exact ratio sits on the witness band while its estimate
    # falls just below the unmargined bar; without the margin the screen
    # drops it and the witness changes
    band = 1.0 - 1e-12

    def est(t):
        # the integer fold's estimate of a trace it holds to one unit
        _, man, exp, _ = t._mpf_
        return surface._estimate(int(man), exp, 1)

    found = None
    for lx in (0.9, 1.3, 2.0, 3.1):
        tx = trace(lx)
        ty_b = trace(1.7)
        r_b = exact(ty_b) / exact(tx)
        for k in range(-8, 9):
            ty_a = trace(r_b * band * exact(tx) * (1 + k * 2.0 ** -52))
            r_a = exact(ty_a) / exact(tx)
            if (r_b * band <= r_a < r_b
                    and est(ty_a) / est(tx) < est(ty_b) / est(tx) * band):
                found = tx, ty_a, ty_b
                break
        if found:
            break
    assert found is not None
    tx, ty_a, ty_b = found
    cert = thurston._sup_certificate(
        [(1,), (2,)], [est(tx)] * 2, [est(ty_a), est(ty_b)],
        FixedLengths({(1,): exact(tx), (2,): exact(tx)}),
        FixedLengths({(1,): exact(ty_a), (2,): exact(ty_b)}))
    assert cert.sup_ratio == exact(ty_b) / exact(tx)
    assert cert.witness == (1,)


def test_wide_trace_part_makes_a_candidate():
    # a trace part wider than the contract allows gives word 1 a None
    # estimate on Y; its exact ratio is the higher one, so it must reach
    # the exact path
    lx = exact(trace(1.0))
    cert = thurston._sup_certificate(
        [(1,), (2,)], [1.0] * 2, [None, 1.005],
        FixedLengths({(1,): lx, (2,): lx}),
        FixedLengths({(1,): exact(trace(1.01)), (2,): exact(trace(1.005))}))
    assert cert.witness == (1,)


def test_undecided_estimates_take_the_exact_path(family, monkeypatch):
    # with 64 bits the fold's radius swallows the excess t - 2 of many
    # pinched words; those go to curve_lengths whole, and the certificate
    # stays that of exact lengths
    x, y, stretched, expected = noisy_pair(0)
    want = [oracle_certificate(a, b, family) for a, b in ((x, y), (y, x))]
    monkeypatch.setattr(surface, "_BITS", 64)
    undecided = sum(e is None for e in x.length_estimates(family))
    assert undecided >= 20
    seen = []
    batch = surface.MarkedSurface.curve_lengths

    def counting(self, words):
        seen.append(len(words))
        return batch(self, words)

    monkeypatch.setattr(surface.MarkedSurface, "curve_lengths", counting)
    for (a, b), w in zip(((x, y), (y, x)), want):
        cert = ratio_sup(a, b, family)
        assert (cert.sup_ratio, cert.witness, cert.family_size,
                cert.skipped) == w
    assert min(seen) >= undecided


def test_trace_within_1e_40_of_2_is_a_candidate():
    # over its radius the trace may be parabolic, which only the exact
    # lengths decide, so the screen leaves it undecided
    assert surface._estimate((2 << 200) + 2, -200, 1) is None
    # near 2 a radius of 1 at 2^-100 or 2^-140 moves the length by more
    # than `_ESTIMATE_REL`; a radius of 0 leaves the 1e-40 threshold alone
    assert surface._estimate((2 << 100) + 2, -100, 0) is not None
    # at the threshold, and where the excess's bit length alone decides;
    # from 2^-200 on a radius of 1 stays far inside `_ESTIMATE_REL`, so the
    # threshold is read at the radius's low end
    for e, radius in ((-140, 0), (-200, 1), (-300, 1), (-450, 1)):
        edge = (1 << -e) // 10 ** 40
        for low in (edge - 1, edge, edge + 1, 1 << (-e - 134),
                    1 << (-e - 133), 1 << (-e - 132), 1 << (-e - 131)):
            got = surface._estimate((2 << -e) + low + radius, e, radius)
            assert (got is None) == (low * 10 ** 40 < 1 << -e), (e, low)


def test_trace_beyond_float_range_is_a_candidate():
    # a^2100 on a thick surface has a trace near e^735, beyond the float
    # range: no estimate, and the exact path measures it
    assert surface._estimate(1 << 1100, 0, 1) is None
    assert surface._estimate(1, 1100, 1) is None
    x = build(FNCoordinates([0.7, 0.8, 0.9]))
    y = build(FNCoordinates([1.4, 0.8, 0.9], [0.2, 0.0, 0.0]))
    fam = ["a" * 2100, "b", "cd"]
    assert x.length_estimates([curves.word_from_text(fam[0])]) == [None]
    cert = ratio_sup(x, y, fam)
    assert (cert.sup_ratio, cert.witness, cert.family_size,
            cert.skipped) == oracle_certificate(x, y, fam)
    assert cert.witness == curves.word_from_text(fam[0])


@pytest.mark.parametrize("max_len, lengths, twists, runner_up", [
    (3, [0.32, 0.32, 0.48], [0.9, -1.4, 0.8], "acc"),
    (4, [0.83, 1.04, 0.38], [-0.3, 1.4, 1.1], "aDBd"),
])
def test_exact_flag_fails_a_sup_just_above_the_expected_ratio(
        max_len, lengths, twists, runner_up):
    # the runner-up class's ratio is exact, but the family's sup lies
    # 1.7e-3 (L3) and 7.6e-5 (L4) above it, far outside the exact-ratio
    # tolerance: the certificate is not exact
    fam = [c.word for c in curves.enumerate_conj_classes(2, max_len)]
    x = build(FNCoordinates([0.7, 0.8, 0.9]))
    y = build(FNCoordinates(lengths, twists))
    ratio = y.curve_length(runner_up) / x.curve_length(runner_up)
    cert = ratio_sup(x, y, fam, runner_up, ratio)
    assert 1e-6 < cert.sup_ratio / ratio - 1.0 < 1e-2
    assert not thurston.is_exact_ratio(cert.sup_ratio, ratio)
    assert not cert.exact_flag
    # the witness's own ratio passes
    top = y.curve_length(cert.witness) / x.curve_length(cert.witness)
    assert ratio_sup(x, y, fam, cert.witness, top).exact_flag


# --- noisy geodesic certificates ------------------------------------------------


def test_verify_pure_stretch(family):
    T = 1.0
    spec = NoisyPathSpec(BASE, None, T, 0, PiecewiseLinearPath.zero(T, 2),
                         PiecewiseLinearPath.zero(T, 3))
    report = verify_noisy_geodesic(spec, DEC, [(0.0, 0.4), (0.3, 1.0)], family)
    assert report["passed"]
    assert report["certificate"] == "family-restricted"
    for r in report["pairs"]:
        expected = math.exp(r["t2"] - r["t1"])
        assert r["witness_ratio"] == pytest.approx(expected, rel=1e-9)
        assert r["sup_ratio"] <= expected * (1.0 + 1e-9)


@pytest.mark.parametrize("seed", [7, 19, 42])
def test_verify_random_admissible_noise(family, seed):
    spec = random_noisy_spec(BASE, 1.0, 0, D=5.0, seed=seed)
    pairs = [(0.0, 0.5), (0.1, 0.9), (0.25, 0.35)]
    report = verify_noisy_geodesic(spec, DEC, pairs, family)
    assert report["passed"], report["counterexamples"]
    for r in report["pairs"]:
        assert r["witness_ratio"] == pytest.approx(
            math.exp(r["t2"] - r["t1"]), rel=1e-9)


def test_verify_falsifies_inadmissible_slope(family):
    T = 1.0
    steep = PiecewiseLinearPath(T, [(0.0, 0.0), (1.5, 1.5)])
    spec = NoisyPathSpec(BASE, None, T, 0, steep,
                         PiecewiseLinearPath.zero(T, 3),
                         enforce_slopes=False)
    report = verify_noisy_geodesic(spec, DEC, [(0.0, 0.8)], family)
    assert not report["passed"]
    bad = report["counterexamples"][0]
    assert bad["sup_ratio"] > bad["expected"] * (1.0 + 1e-9)
    assert bad["sup_witness"] in ("b", "BA")  # a coordinate moving at 1.5


def test_verify_requires_pinched_base(family):
    spec = random_noisy_spec([-13.0, -2.0, -12.0], 1.0, 0, seed=1)
    with pytest.raises(ThurstonError, match="pinching"):
        verify_noisy_geodesic(spec, DEC, [(0.0, 0.5)], family)


def test_verify_rejects_bad_pairs(family):
    spec = random_noisy_spec(BASE, 1.0, 0, seed=1)
    with pytest.raises(ThurstonError, match="t1 < t2"):
        verify_noisy_geodesic(spec, DEC, [(0.5, 0.2)], family)


# --- symmetric and prescribed-asymmetry paths -----------------------------------


def test_symmetric_path_witnesses(family):
    spec = random_noisy_spec(BASE, 1.0, 0, seed=3)
    X1 = build(symmetric_path_point(spec, 0.1, 1))
    X2 = build(symmetric_path_point(spec, 0.7, 1))
    expected = math.exp(0.6)
    fwd = ratio_sup(X1, X2, family)
    rev = ratio_sup(X2, X1, family)
    assert fwd.sup_ratio == pytest.approx(expected, rel=1e-9)
    assert fwd.witness == (1,)
    assert rev.sup_ratio == pytest.approx(expected, rel=1e-9)
    assert rev.witness == (2,)


def test_symmetric_rejects_equal_indices():
    spec = random_noisy_spec(BASE, 1.0, 0, seed=3)
    with pytest.raises(ThurstonError, match="differ"):
        symmetric_path_point(spec, 0.5, 0)


def test_asymmetry_specializes_to_symmetric():
    T = 1.0
    plain = NoisyPathSpec(BASE, None, T, 0, PiecewiseLinearPath.zero(T, 2),
                          PiecewiseLinearPath.zero(T, 3))
    for t in (0.2, 0.4, 0.9):
        a = asymmetry_path_point(BASE, t, lambda s: -s, T=T)
        b = symmetric_path_point(plain, t, 1)
        assert a.lengths == pytest.approx(b.lengths, rel=1e-15)


def test_asymmetry_validation():
    with pytest.raises(ThurstonError, match="decreasing"):
        asymmetry_path_point(BASE, 0.5, lambda s: s, T=1.0)
    with pytest.raises(ThurstonError, match="f\\(0\\)"):
        asymmetry_path_point(BASE, 0.5, lambda s: 1.0 - s, T=1.0)


def test_asymmetry_reversed_ratio(family):
    def f(t):
        return -0.5 * t - 0.25 * t * t  # slopes in [-1, -1/2] on [0, 1]

    t1, t2 = 0.2, 0.8
    A = build(asymmetry_path_point(BASE, t1, f, T=1.0))
    B = build(asymmetry_path_point(BASE, t2, f, T=1.0))
    fwd = ratio_sup(A, B, family)
    rev = ratio_sup(B, A, family)
    assert fwd.sup_ratio == pytest.approx(math.exp(t2 - t1), rel=1e-9)
    assert fwd.witness == (1,)
    assert rev.sup_ratio == pytest.approx(math.exp(f(t1) - f(t2)), rel=1e-9)
    assert rev.witness == (2,)


# --- sup-metric grid ------------------------------------------------------------


def test_linf_grid_k1(family):
    report = linf_grid_check(BASE, 0.6, 1, 4, family, DEC)
    assert report["passed"]
    assert report["certificate"] == "family-restricted"
    # both directions of each unordered pair appear and agree
    by_pair = {}
    for r in report["pairs"]:
        key = frozenset((r["from"], r["to"]))
        by_pair.setdefault(key, []).append(r)
    for rs in by_pair.values():
        assert len(rs) == 2
        assert rs[0]["expected"] == rs[1]["expected"]
        assert rs[0]["sup_ratio"] == pytest.approx(rs[1]["sup_ratio"],
                                                   rel=1e-9)


def test_linf_grid_lengths_once_per_surface(family, monkeypatch):
    # one screen fold per grid point, exact lengths of the candidates
    # only, and the report of the per-pair ratio_sup calls it replaces
    folds, candidates = [], []
    estimates = surface.MarkedSurface.length_estimates
    lengths = surface.MarkedSurface.curve_lengths

    def counting_estimates(self, words):
        folds.append(len(words))
        return estimates(self, words)

    def counting_lengths(self, words):
        candidates.append(len(words))
        return lengths(self, words)

    monkeypatch.setattr(surface.MarkedSurface, "length_estimates",
                        counting_estimates)
    monkeypatch.setattr(surface.MarkedSurface, "curve_lengths",
                        counting_lengths)
    report = linf_grid_check(BASE, 0.6, 1, 4, family, DEC)
    assert folds == [len(family)] * 4
    # one candidate list per surface of each of the 12 ordered pairs
    assert len(candidates) == 24
    assert 1 <= min(candidates) and max(candidates) <= 10
    monkeypatch.undo()

    def point(x):
        return build(FNCoordinates([math.exp(BASE[0] + x[0]),
                                    math.exp(BASE[1] - x[0]),
                                    math.exp(BASE[2])]))

    surfaces = {x: point(x) for x in {r["from"] for r in report["pairs"]}}
    assert len(report["pairs"]) == 12
    for r in report["pairs"]:
        cert = ratio_sup(surfaces[r["from"]], surfaces[r["to"]], family)
        assert r["sup_ratio"] == cert.sup_ratio
        assert r["witness"] == curves.word_to_text(cert.witness)
        ok = abs(cert.sup_ratio - r["expected"]) <= 1e-9 * r["expected"]
        assert r["pass"] == ok


def test_linf_grid_validation(family):
    with pytest.raises(ThurstonError, match="2k"):
        linf_grid_check(BASE, 0.5, 2, 3, family, DEC)
    with pytest.raises(ThurstonError, match="grid"):
        linf_grid_check(BASE, 0.5, 1, 1, family, DEC)
    with pytest.raises(ThurstonError, match="pinching"):
        linf_grid_check([-13.0, -2.0, -12.0], 0.5, 1, 3, family, DEC)
    # a cube of side 0 has no pair to certify
    for side in (0.0, -0.5, math.nan):
        with pytest.raises(ThurstonError, match="positive cube side"):
            linf_grid_check(BASE, side, 1, 3, family, DEC)
    for k in (0, -1):
        with pytest.raises(ThurstonError, match="cube dimension k"):
            linf_grid_check(BASE, 0.5, k, 3, family, DEC)
