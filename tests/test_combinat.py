import math
import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from teichlab import combinat, cones, curves, hyp2, surface
from teichlab.combinat import (
    CombinatError, HexagonSystem, classify_and_rotate, combinatorial_rotation,
    distortion_check, distortion_csv_rows, intersection_sequence,
    non_rotating_length,
)
from teichlab.constants import (
    LIFT_SEARCH_DEPTH_DEFAULT, ROTATION_COMPARABILITY_SLACK,
)
from teichlab.surface import FNCoordinates, build_holonomy


DEC = surface.builtin_genus2_convenient()


def make_surface(lengths, twists=None):
    return build_holonomy(DEC, FNCoordinates(lengths, twists))


@pytest.fixture(scope="module")
def thick():
    return make_surface([0.8, 1.0, 1.3])


@pytest.fixture(scope="module")
def reference():
    return make_surface([0.7, 0.8, 0.9])


# --- hexagon system -------------------------------------------------------------


def test_hexagon_system_words(thick):
    system = HexagonSystem(thick)
    assert len(system.pants_words) == 3
    assert len(system.seam_words) == 3


def test_hexagon_system_excludes_members_and_powers(thick):
    system = HexagonSystem(thick)
    for w in ("a", "b", "BA", "aa", "BABA"):
        assert system.excludes(combinat._normalize_word(w))
    # seam curves, including cyclic rotations
    for w in ("dCb", "Cbd", "ca", "ac", "caca"):
        assert system.excludes(combinat._normalize_word(w))
    assert not system.excludes(combinat._normalize_word("c"))
    assert not system.excludes(combinat._normalize_word("aB"))


def test_hexagon_system_needs_the_builtin_marking():
    # the genus-3 graph of test_surface.py has no curve or seam words
    edges = [(0, 1, 1, 1), (0, 2, 1, 2), (0, 3, 2, 1), (1, 3, 2, 2),
             (2, 3, 3, 1), (3, 2, 3, 3)]
    s = build_holonomy(surface.PantsDecomposition([0, 1, 2, 3], edges),
                       FNCoordinates([1.0, 1.2, 0.9, 1.4, 1.1, 0.8]))
    for call in (lambda: HexagonSystem(s),
                 lambda: intersection_sequence(s, (1, 2))):
        with pytest.raises(CombinatError,
                           match="needs the builtin genus-2 marking"):
            call()


def test_excluded_class_rejected(thick):
    with pytest.raises(CombinatError, match="excluded"):
        intersection_sequence(thick, "a")
    with pytest.raises(CombinatError, match="excluded"):
        intersection_sequence(thick, "ac")  # cyclically the seam ca


# --- intersection sequences -----------------------------------------------------


def test_twisted_surface_rejected():
    twisted = make_surface([0.8, 1.0, 1.3], [0.1, 0.0, 0.0])
    with pytest.raises(CombinatError, match="untwisted"):
        intersection_sequence(twisted, "c")


def test_depth_instability_reported(thick):
    with pytest.raises(CombinatError, match="search_depth"):
        intersection_sequence(thick, "aaaaaac", search_depth=2)


def test_two_pants_crossings(thick):
    seq = intersection_sequence(thick, "c", search_depth=8)
    assert seq.intersection_number == 2
    assert sorted(e.curve for e in seq.p_entries) == [1, 2]
    assert seq.period == pytest.approx(thick.curve_length("c"), rel=1e-12)


def isometry_gens(frame):
    """The frame's conjugated generators as hyp2.IsometryMatrix objects."""
    return {letter: hyp2.IsometryMatrix(*entries, _normalize=False)
            for letter, entries in frame.gens.items()}


def full_ball_census(marked, gamma, depth):
    """Beam-free lift census: the entire reduced-word ball, no pruning."""
    word = combinat._normalize_word(gamma)
    frame = combinat._Frame(marked, word)
    period = frame.period
    found = {}

    def record(mat, path):
        for spec in frame.curve_specs:
            if frame.lift_of(mat.entries(), spec) is None:
                continue
            vals = frame.refine_endpoints(path, spec)
            if vals is None:
                continue
            lift = combinat._Lift(spec[0], spec[1], vals[1], vals[0])
            lift = lift.shifted(-math.floor(lift.s / period) * period)
            found[(lift.curve, lift.family,
                   round(lift.key1, 7), round(lift.key2, 7))] = lift

    gens = isometry_gens(frame)
    level = [(hyp2.IsometryMatrix.identity(), 0, ())]
    record(level[0][0], ())
    for _ in range(depth):
        nxt = []
        for mat, last, path in level:
            for letter, gen in gens.items():
                if letter == -last:
                    continue
                child = mat @ gen
                child_path = path + (letter,)
                record(child, child_path)
                nxt.append((child, letter, child_path))
        level = nxt
    return sorted(found.values(), key=lambda l: (l.s, l.family, l.curve))


@pytest.mark.parametrize("gamma", ["c", "aB"])
def test_census_matches_full_word_ball(thick, gamma):
    seq = intersection_sequence(thick, gamma, search_depth=8)
    oracle = full_ball_census(thick, gamma, 5)
    # compare as sets: a pants lift and seam lift may cross the axis at
    # mathematically the same point, leaving the interleaving to float ulps
    got = sorted((e.curve, e.family, round(e.s, 6)) for e in seq.entries)
    want = sorted((e.curve, e.family, round(e.s, 6)) for e in oracle)
    assert got == want


def lift_bits(lifts):
    return [(l.curve, l.family, l.att.hex(), l.rep.hex(), l.s.hex(),
             l.shift.hex(), l.path) for l in lifts]


CRITERION_7_LENGTHS = ([0.02, 0.03, 0.025], [0.035, 0.015, 0.04],
                       [0.012, 0.028, 0.02])


@pytest.mark.parametrize("lengths", CRITERION_7_LENGTHS)
def test_single_pass_matches_pass_stopped_at_depth(lengths, monkeypatch):
    # the single pass copies its buckets once level `depth` is done; that
    # list must be bit for bit the one of a pass that ends there.  The lists
    # still grow between depth 1 and 2, so a copy one level late would show
    marked = make_surface(lengths)
    frames = [combinat._Frame(marked, combinat._normalize_word(gamma))
              for gamma in ("c", "cd", "aB", "aaac")]
    single = {(i, depth): combinat._collect_lifts(frame, depth)
              for i, frame in enumerate(frames) for depth in (1, 12)}
    monkeypatch.setattr(combinat, "_STABILITY_STEP", 0)
    grew = False
    for (i, depth), (at_depth, deeper) in single.items():
        _, stopped = combinat._collect_lifts(frames[i], depth)
        assert at_depth
        assert lift_bits(at_depth) == lift_bits(stopped)
        if depth == 12:
            assert combinat._sequences_match(at_depth, deeper)
        else:
            grew = grew or len(deeper) > len(at_depth)
    assert grew


def mobius_boundary_lift(mat, spec):
    """Frame endpoints (rep, att) of a lift through hyp2.mobius_boundary."""
    ends = []
    for x in spec[2:]:
        img = hyp2.mobius_boundary(mat, hyp2.BoundaryPoint.inf() if x is None
                                   else hyp2.BoundaryPoint(x))
        ends.append(math.inf if img.is_infinity else img.value)
    rep, att = ends
    if not (math.isfinite(rep) and math.isfinite(att)):
        return None
    if rep == 0.0 or att == 0.0 or rep * att >= 0.0:
        return None
    return rep, att


def test_lift_of_matches_mobius_boundary(reference):
    frame = combinat._Frame(reference, combinat._normalize_word("cd"))
    # an endpoint at infinity on either side, and z -> (-z) / (z - 2),
    # whose denominator vanishes at 2
    specs = list(frame.curve_specs) + [
        (1, "P", None, 0.5), (1, "P", -3.0, None), (1, "P", 2.0, -1.5)]
    mats = [hyp2.IsometryMatrix(-1.0, 0.0, 1.0, -2.0),
            hyp2.IsometryMatrix(2.0, 1.0, 0.0, 0.5)]
    rng = random.Random(41)
    for _ in range(2000):
        mats.append(hyp2.rotation_at_i(rng.uniform(-math.pi, math.pi))
                    @ hyp2.translation_along_imaginary_axis(rng.uniform(-6, 6))
                    @ hyp2.rotation_at_i(rng.uniform(-math.pi, math.pi)))
    assert mats[0].m21 * 2.0 + mats[0].m22 == 0.0
    found = [0] * len(specs)
    for mat in mats:
        for i, spec in enumerate(specs):
            want = mobius_boundary_lift(mat, spec)
            got = frame.lift_of(mat.entries(), spec)
            if want is None:
                assert got is None
                continue
            found[i] += 1
            assert (got.rep.hex(), got.att.hex()) == (want[0].hex(),
                                                      want[1].hex())
            assert (got.curve, got.family) == spec[:2]
    assert min(found) >= 50
    assert frame.lift_of(mats[0].entries(), specs[-1]) is None
    assert frame.lift_of(mats[1].entries(), specs[-3]) is None


def isometry_node_key(m):
    entries = m.entries()
    scale = max(abs(v) for v in entries)
    if scale == 0.0:
        return (0.0,) * 4
    sign = 1.0
    for v in entries:
        if v != 0.0:
            sign = 1.0 if v > 0 else -1.0
            break
    return tuple(round(sign * v / scale, 9) for v in entries)


def isometry_node_score(m, period):
    a, b, c, d = m.entries()
    top, bottom = math.hypot(a, b), math.hypot(c, d)
    if top == 0.0 or bottom == 0.0:
        raise CombinatError(combinat._UNDERFLOW_MESSAGE)
    s = math.log(top) - math.log(bottom)
    off_axis = math.asinh(abs(a * c + b * d))
    return off_axis + max(0.0, -0.5 * period - s, s - 1.5 * period)


def isometry_beam(frame, depth, beam_width=combinat._BEAM_WIDTH):
    """Raw buckets of the beam pass over hyp2.IsometryMatrix products.

    The search as it ran before nodes became entry tuples: matrices
    composed with `@`, lifts through `hyp2.mobius_boundary`.
    """
    period = frame.period
    gens = isometry_gens(frame)
    buckets = {}

    def record(mat, path):
        for spec in frame.curve_specs:
            ends = mobius_boundary_lift(mat, spec)
            if ends is None:
                continue
            lift = combinat._Lift(spec[0], spec[1], ends[1], ends[0])
            j = math.floor(lift.s / period)
            k1 = lift.key1 - j * period
            k2 = lift.key2 - j * period
            entries = buckets.setdefault((spec[0], spec[1]), [])
            if any(abs(k1 - e[0]) < combinat._COARSE_KEY_TOL
                   and abs(k2 - e[1]) < combinat._COARSE_KEY_TOL
                   for e in entries):
                continue
            entries.append((k1, k2, path))

    identity = hyp2.IsometryMatrix.identity()
    record(identity, ())
    level = [(identity, 0, ())]
    seen = {isometry_node_key(identity)}
    at_depth = None
    for done in range(depth + combinat._STABILITY_STEP):
        if done == depth:
            at_depth = {k: list(v) for k, v in buckets.items()}
        children = []
        for mat, last, path in level:
            for letter, gen in gens.items():
                if letter == -last:
                    continue
                child = mat @ gen
                key = isometry_node_key(child)
                if key in seen:
                    continue
                seen.add(key)
                child_path = path + (letter,)
                record(child, child_path)
                children.append((isometry_node_score(child, period), child,
                                 letter, child_path))
        children.sort(key=lambda t: t[0])
        level = [(m, letter, p) for _, m, letter, p in children[:beam_width]]
        if not level:
            break
    if at_depth is None:
        at_depth = buckets
    return at_depth, buckets


def bucket_bits(buckets):
    return {key: [(k1.hex(), k2.hex(), path) for k1, k2, path in entries]
            for key, entries in buckets.items()}


def beam_outcome(search, frame):
    try:
        return [bucket_bits(b) for b in search(frame, 6, 150)]
    except (CombinatError, hyp2.Hyp2Error) as exc:
        return type(exc), str(exc)


def test_beam_matches_isometry_matrix_beam():
    # the entry-tuple beam must find the buckets of the IsometryMatrix
    # search bit for bit, at depth 6 with a beam that cuts from level 3 on.
    # On the pinched surface the entries run from about 1e-72 to 8e9, and
    # both fallbacks fire: node keys within 1e-6 of a half-step of 1e-9,
    # and children whose chord test keeps every spec
    for lengths in ([0.7, 0.8, 0.9], CRITERION_7_LENGTHS[0],
                    [1e-4, 2e-5, 5e-5]):
        marked = make_surface(lengths)
        for gamma in ("c", "cd", "aB", "aaac"):
            frame = combinat._Frame(marked, combinat._normalize_word(gamma))
            got = beam_outcome(combinat._beam_buckets, frame)
            assert got == beam_outcome(isometry_beam, frame)
            if lengths == [0.7, 0.8, 0.9]:
                assert sum(map(len, got[1].values())) > 0


def test_last_level_keeps_underflow_raise():
    # a two-letter child of aBcB on this surface has a row that rounds to
    # zero.  A pass to depth 0 runs two levels, so that child is on the last
    # level, which is not scored but still raises
    frame = combinat._Frame(make_surface([1e-4, 2e-5, 5e-5]),
                            combinat._normalize_word("aBcB"))
    assert beam_outcome(isometry_beam, frame)[0] is CombinatError
    for depth in (0, 1):
        with pytest.raises(CombinatError, match="underflowed"):
            combinat._beam_buckets(frame, depth, combinat._BEAM_WIDTH)


def rounded_key(entries):
    """The beam's node key as a tuple of round(x, 9), as the oracle has it."""
    return isometry_node_key(hyp2.IsometryMatrix(*entries, _normalize=False))


@st.composite
def normalized_entry(draw):
    """A value in [-1, 1], often a half-integer multiple of 1e-9 or a few
    ulps from one, where rounding to 9 places is decided by the last bit."""
    kind = draw(st.sampled_from(["half", "any", "edge"]))
    if kind == "half":
        x = (draw(st.integers(-10 ** 9, 10 ** 9 - 1)) + 0.5) / 1e9
    elif kind == "any":
        x = draw(st.floats(-1.0, 1.0))
    else:
        return draw(st.sampled_from([1.0, -1.0, 0.0, -0.0]))
    toward = draw(st.sampled_from([math.inf, -math.inf]))
    for _ in range(draw(st.integers(0, 3))):
        x = math.nextafter(x, toward)
    return max(-1.0, min(1.0, x))


@st.composite
def key_pair(draw):
    """Two entry tuples that normalize exactly to the drawn values, the
    second one a few ulps or one half-step of 1e-9 away per entry."""
    xs = [draw(normalized_entry()) for _ in range(4)]
    xs[draw(st.integers(0, 3))] = draw(st.sampled_from([1.0, -1.0]))
    ys = list(xs)
    for i in range(4):
        step = draw(st.sampled_from(["same", "ulp", "half", "fresh"]))
        if step == "ulp":
            ys[i] = math.nextafter(xs[i], draw(st.sampled_from(
                [math.inf, -math.inf])))
        elif step == "half":
            ys[i] = xs[i] + draw(st.sampled_from([5e-10, -5e-10]))
        elif step == "fresh":
            ys[i] = draw(normalized_entry())
        if abs(xs[i]) == 1.0 or abs(ys[i]) > 1.0:
            ys[i] = xs[i]
    # a power-of-two scale keeps sign * v / scale exact
    scale = draw(st.sampled_from([1.0, -1.0])) * 2.0 ** draw(
        st.integers(-60, 60))
    return (tuple(x * scale for x in xs), tuple(y * scale for y in ys))


@settings(max_examples=400, deadline=None)
@given(key_pair())
def test_node_key_matches_rounded_tuples(pair):
    first, second = pair
    assert (combinat._node_key(*first) == combinat._node_key(*second)) == (
        rounded_key(first) == rounded_key(second))


def test_node_key_at_half_steps():
    # every half-integer multiple of 1e-9 near a few points and its float
    # neighbours: the int key splits and joins them as round(x, 9) does
    for center in (0, 1, 123456789, 999999999, -1, -500000000):
        for k in range(center - 3, center + 3):
            half = (k + 0.5) / 1e9
            for x in (math.nextafter(half, -math.inf), half,
                      math.nextafter(half, math.inf)):
                if abs(x) > 1.0:
                    continue
                for y in (x, (k - 0.5) / 1e9, (k + 1.5) / 1e9, k / 1e9,
                          (k + 1) / 1e9):
                    e1, e2 = (1.0, x, 0.0, -x), (1.0, y, 0.0, -x)
                    assert (combinat._node_key(*e1)
                            == combinat._node_key(*e2)) == (
                        rounded_key(e1) == rounded_key(e2)), (x, y)
    assert combinat._node_key(0.0, 0.0, 0.0, 0.0) == 0
    # an overflowed entry normalizes to NaN, and such a tuple equals nothing
    overflowed = (math.inf, 1.0, 0.0, 1.0)
    assert rounded_key(overflowed) != rounded_key(overflowed)
    assert combinat._node_key(*overflowed) != combinat._node_key(*overflowed)
    # digits of +-10^9 in the balanced base do not carry into a neighbour
    assert combinat._node_key(1.0, 0.3, 1.0, 0.2) != combinat._node_key(
        1.0, 0.300000001, 0.0, 0.2)
    assert combinat._node_key(1.0, 0.3, -1.0, 0.2) != combinat._node_key(
        1.0, 0.299999999, 0.0, 0.2)
    assert combinat._node_key(2.0, 0.0, 0.0, 0.5) == combinat._node_key(
        -4.0, -0.0, 0.0, -1.0)


@pytest.fixture(scope="module")
def chord_frames(reference):
    pinched = make_surface([1e-4, 2e-5, 5e-5])
    return [combinat._Frame(m, combinat._normalize_word(w))
            for m, w in ((reference, "cd"), (reference, "aB"),
                         (pinched, "c"), (pinched, "aaac"))]


signed_magnitude = st.builds(
    lambda e, neg: -(10.0 ** e) if neg else 10.0 ** e,
    st.floats(-300.0, 300.0), st.booleans())


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_chord_test_skips_no_linking_lift(chord_frames, data):
    # entries from 1e-300 to 1e300 in size, with p = -b/a or q = -d/c often
    # aimed within a few ulps of a base endpoint of the frame
    frame = data.draw(st.sampled_from(chord_frames))
    a, b, c, d = (data.draw(signed_magnitude) for _ in range(4))
    ends = frame._finite_ends
    if data.draw(st.booleans()):
        b = -a * data.draw(st.sampled_from(ends))
    if data.draw(st.booleans()):
        d = -c * data.draw(st.sampled_from(ends))
    toward = data.draw(st.sampled_from([math.inf, -math.inf]))
    for _ in range(data.draw(st.integers(0, 3))):
        b = math.nextafter(b, toward)
    candidates = frame.link_candidates(a, b, c, d)
    if candidates is frame.curve_specs:
        return
    assert candidates == frame._infinite_specs
    for spec in frame.curve_specs:
        if spec not in candidates:
            assert frame.lift_of((a, b, c, d), spec) is None


def cyclic_rotations(seq):
    return {tuple(seq[i:] + seq[:i]) for i in range(max(1, len(seq)))}


@pytest.mark.parametrize("gamma", ["c", "aB", "cd", "aaac"])
def test_sequence_invariant_across_untwisted_surfaces(gamma):
    lengths = ([0.8, 1.0, 1.3], [0.5, 0.6, 0.7], [0.05, 0.1, 0.08])
    results = []
    for ls in lengths:
        seq = intersection_sequence(make_surface(ls), gamma, search_depth=10)
        data = classify_and_rotate(seq)
        results.append((seq.intersection_number,
                        tuple(e.curve for e in seq.h_entries),
                        tuple(sorted(combinatorial_rotation(data).items())),
                        data.leftover_pairs))
    base = results[0]
    for other in results[1:]:
        assert other[0] == base[0]
        assert cyclic_rotations(list(other[1])) == cyclic_rotations(list(base[1]))
        assert other[2:] == base[2:]


# --- classification and rotation ------------------------------------------------


def test_figure_eight_internal_pattern(thick):
    seq = intersection_sequence(thick, "aB", search_depth=8)
    assert seq.intersection_number == 0
    data = classify_and_rotate(seq)
    assert data.crossing_flags == [False, False, False, False]
    assert data.per_crossing == []
    assert len(data.internal_words) == 1
    seam_pattern = "".join("xyz"[e.curve - 1] for e in seq.h_entries)
    assert cyclic_rotations(list(data.internal_words[0])) \
        == cyclic_rotations(list(seam_pattern))


def test_transversal_class_all_crossing(thick):
    seq = intersection_sequence(thick, "c", search_depth=8)
    data = classify_and_rotate(seq)
    assert data.crossing_flags == [True, True]
    assert data.internal_words == ["", ""]
    assert {d["curve"] for d in data.per_crossing} == {1, 2}
    for d in data.per_crossing:
        assert d["sign"] in (-1, 1)
        assert d["direction"] in ("up", "down")


def basic_rotation_oracle(seq, marked, curve_idx):
    """Core-projection displacement in the annular cover, per crossing.

    The feet of the axis endpoints 0 and infinity on a linking lift are a
    cross-ratio apart; dividing by the pants-curve length counts core
    periods between them.
    """
    length = marked.curve_length(marked.curve_words[curve_idx - 1])
    return [abs(c.key1 - c.key2) / length
            for c in seq.p_entries if c.curve == curve_idx]


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_spiral_rotation_grows_by_one_per_power(thick, k):
    seq = intersection_sequence(thick, "a" * k + "c", search_depth=10)
    data = classify_and_rotate(seq)
    rot = combinatorial_rotation(data)
    assert rot[1] == k - 1
    assert rot[2] == 0 and rot[3] == 0
    basic = basic_rotation_oracle(seq, thick, 1)
    assert len(basic) == 1
    assert abs(basic[0] - rot[1]) <= 0.5


@pytest.mark.parametrize("gamma", ["c", "cd", "cD", "abc", "aaac", "aB"])
def test_synthetic_vs_combinatorial_comparability(thick, gamma):
    seq = intersection_sequence(thick, gamma, search_depth=10)
    data = classify_and_rotate(seq)
    rot = combinatorial_rotation(data)
    for d in data.per_crossing:
        synthetic = d["doubled_abs"] / 2.0
        assert abs(synthetic - rot[d["curve"]]) \
            <= 0.5 + ROTATION_COMPARABILITY_SLACK
    basics = {k: basic_rotation_oracle(seq, thick, k) for k in (1, 2, 3)}
    for d in data.per_crossing:
        synthetic = d["doubled_abs"] / 2.0
        assert any(abs(synthetic - b) <= 0.5 + ROTATION_COMPARABILITY_SLACK
                   for b in basics[d["curve"]])


@pytest.mark.parametrize("gamma", ["c", "cd", "cD", "abc", "aaac", "aB", "acD"])
def test_rotation_control_budgets(thick, gamma):
    seq = intersection_sequence(thick, gamma, search_depth=10)
    data = classify_and_rotate(seq)
    for k in (1, 2, 3):
        assert data.doubled_rules[k] <= data.doubled_rotation[k]
    spill = sum(data.doubled_rotation[k] - data.doubled_rules[k]
                for k in (1, 2, 3))
    assert data.leftover_pairs <= 2 * seq.intersection_number \
        or seq.intersection_number == 0
    assert spill <= 2 * max(seq.intersection_number, 1)


def test_rotation_zero_for_unvisited_curve(thick):
    seq = intersection_sequence(thick, "c", search_depth=8)
    rot = combinatorial_rotation(classify_and_rotate(seq))
    assert rot[3] == 0.0


# --- non-rotating length --------------------------------------------------------


def test_non_rotating_length_identity(reference, thick):
    seq = intersection_sequence(reference, "aB", search_depth=8)
    data = classify_and_rotate(seq)
    rot = combinatorial_rotation(data)
    proj, length = non_rotating_length(thick, "aB", rot)
    expect = sum(rot[k] * thick.curve_length(thick.curve_words[k - 1])
                 for k in (1, 2, 3))
    assert proj == pytest.approx(expect, rel=1e-12)
    assert proj + length == pytest.approx(thick.curve_length("aB"), rel=1e-12)


def test_non_rotating_length_refuses_twisted_surfaces():
    # rotation maps are read on untwisted surfaces; the refusal comes
    # before the map is read
    twisted = make_surface([1e-3, 2e-3, 3e-3], [0.5, -0.3, 0.2])
    with pytest.raises(CombinatError, match="^surfaces must be untwisted$"):
        non_rotating_length(twisted, "cd", {1: 0.0, 2: 1.0, 3: 1.0})


def test_non_rotating_length_excludes_pants(reference):
    seq = intersection_sequence(reference, "c", search_depth=8)
    rot = combinatorial_rotation(classify_and_rotate(seq))
    with pytest.raises(CombinatError, match="excluded"):
        non_rotating_length(reference, "a", rot)


@pytest.mark.parametrize("gamma", ["c", "cd", "cD", "abc", "aaac"])
def test_non_rotating_length_lower_bound_pinched(reference, gamma):
    pinched = make_surface([1e-4, 1e-4, 1e-4])
    seq = intersection_sequence(reference, gamma, search_depth=10)
    rot = combinatorial_rotation(classify_and_rotate(seq))
    proj, length = non_rotating_length(pinched, gamma, rot)
    assert length > 0.0
    assert length >= 5.0 * seq.intersection_number


def test_deep_spiral_projection_exact(reference):
    k = 25
    pinched = make_surface([1e-5, 1e-5, 1e-5])
    seq = intersection_sequence(reference, "a" * k + "c", search_depth=k + 6)
    data = classify_and_rotate(seq)
    rot = combinatorial_rotation(data)
    assert rot[1] == k - 1
    proj, length = non_rotating_length(pinched, "a" * k + "c", rot)
    l1 = pinched.curve_length("a")
    assert proj == pytest.approx((k - 1) * l1, rel=1e-9)
    assert length > 0.0


# --- distortion -----------------------------------------------------------------


def test_distortion_trivial_pair():
    X = make_surface([1e-5, 2e-5, 5e-6])
    rows = distortion_check(X, X, ["c", "aB"], C=1.5, search_depth=8)
    for r in rows:
        assert r["ratio"] == pytest.approx(1.0, rel=1e-12)
        assert r["pass"]


def test_distortion_pinched_pair_passes():
    X = make_surface([1e-6, 5e-5, 1e-5])
    Y = make_surface([1e-4, 1e-6, 2e-5])
    classes = ["c", "cd", "cD", "aB", "abc", "aaac"]
    rows = distortion_check(X, Y, classes, C=2.0, search_depth=8)
    assert all(r["pass"] for r in rows)
    for r in rows:
        assert r["bound_lo"] <= r["ratio"] <= r["bound_hi"]
        assert r["binding_lo"][0] in (1, 2, 3)
        assert r["binding_lo"][1] in (-1, 1)


def test_distortion_requires_pinched_untwisted(thick):
    X = make_surface([1e-5, 1e-5, 1e-5])
    with pytest.raises(CombinatError, match="pinched"):
        distortion_check(thick, X, ["c"], C=2.0)
    twisted = make_surface([1e-5, 1e-5, 1e-5], [1e-3, 0.0, 0.0])
    with pytest.raises(CombinatError, match="untwisted"):
        distortion_check(twisted, X, ["c"], C=2.0)


def test_distortion_csv_schema():
    X = make_surface([1e-5, 2e-5, 5e-6])
    rows = distortion_check(X, X, ["c"], C=1.5, search_depth=8)
    header_fields = combinat.DISTORTION_CSV_HEADER.split(",")
    assert header_fields[0] == "word" and header_fields[-1] == "pass"
    lines = distortion_csv_rows(rows)
    assert len(lines) == 1
    fields = lines[0].split(",")
    assert len(fields) == len(header_fields)
    assert fields[0] == "c"
    assert fields[-1] == "1"
    assert float(fields[header_fields.index("ratio")]) == pytest.approx(1.0)


# --- reference rotation maps -------------------------------------------------


def counted_reference_searches(monkeypatch, dec):
    """Patch `_collect_lifts` to count its runs on `dec`'s reference."""
    calls = []
    search = combinat._collect_lifts

    def counting(frame, depth):
        if frame.marked is surface.reference_surface(dec):
            calls.append(curves.word_to_text(frame.word))
        return search(frame, depth)

    monkeypatch.setattr(combinat, "_collect_lifts", counting)
    return calls


def fresh_builtin():
    """A decomposition glued as the builtin one, with memos of its own."""
    dec = surface.builtin_genus2_convenient()
    return surface.PantsDecomposition(dec.pants, dec.curve_edges)


def test_reference_surface_is_one_per_decomposition():
    dec = surface.builtin_genus2_convenient()
    assert surface.builtin_genus2_convenient() is dec
    assert surface.reference_surface(dec) is surface.reference_surface(dec)
    other = fresh_builtin()
    assert surface.reference_surface(other) is not surface.reference_surface(
        dec)


def run_census_and_split(dec, census_first):
    """Criterion 8's census and the projection split of cd on `dec`."""
    x = build_holonomy(dec, FNCoordinates([1e-6, 5e-5, 1e-5]))
    y = build_holonomy(dec, FNCoordinates([1e-4, 1e-6, 2e-5]))
    pinched = [build_holonomy(dec, FNCoordinates(lengths))
               for lengths in ([0.02, 0.03, 0.025], [0.035, 0.015, 0.04])]
    if census_first:
        rows = distortion_check(x, y, ["cd"], C=2.0)
        split = cones.decompose_projection(pinched, "cd")
    else:
        split = cones.decompose_projection(pinched, "cd")
        rows = distortion_check(x, y, ["cd"], C=2.0)
    return rows, split


def test_census_and_split_share_one_reference_search(monkeypatch):
    dec = fresh_builtin()
    calls = counted_reference_searches(monkeypatch, dec)
    rows, (r_vec, l_vec) = run_census_and_split(dec, census_first=True)
    assert calls == ["cd"]
    # the beam is deterministic: the other order, on a decomposition of
    # its own, gives the same rows and projections bit for bit
    other = fresh_builtin()
    other_calls = counted_reference_searches(monkeypatch, other)
    rows2, (r2, l2) = run_census_and_split(other, census_first=False)
    assert other_calls == ["cd"]
    assert repr(rows) == repr(rows2)
    assert [x.hex() for x in r_vec + l_vec] == [x.hex() for x in r2 + l2]


def test_failed_reference_search_is_searched_again(monkeypatch):
    dec = fresh_builtin()
    calls = counted_reference_searches(monkeypatch, dec)
    for _ in range(2):
        with pytest.raises(CombinatError,
                           match="lift search unstable: increase search_depth"):
            combinat.reference_rotation(dec, "aCbc",
                                        LIFT_SEARCH_DEPTH_DEFAULT)
    assert calls == ["aCbc", "aCbc"]


def test_census_rows_own_their_rotation_map():
    X = make_surface([1e-5, 2e-5, 5e-6])
    first = distortion_check(X, X, ["c", "aB"], C=1.5, search_depth=8)
    maps = [dict(r["rotation"]) for r in first]
    for r in first:
        r["rotation"][1] += 7.0
    again = distortion_check(X, X, ["c", "aB"], C=1.5, search_depth=8)
    for r, want in zip(again, maps):
        assert type(r["rotation"]) is dict
        assert list(r["rotation"]) == [1, 2, 3]
        assert r["rotation"] == want


# --- internals ------------------------------------------------------------------


def test_linking_shifts_match_direct_tests(thick):
    seq = intersection_sequence(thick, "cd", search_depth=8)
    period = seq.period
    for h in seq.h_entries:
        for p in seq.p_entries:
            window = combinat._linking_shifts(h, p, period)

            def links(j):
                try:
                    return combinat._links_centered(h, p.shifted(j * period))
                except CombinatError:
                    # far translates collapse to a point chord: not linking
                    return False

            assert window == [j for j in range(-8, 9) if links(j)]


def angle_order(start, *points):
    """The cyclic order through boundary angles x -> 2 atan x, inf -> pi."""
    def angle(x):
        return math.pi if x == math.inf else 2.0 * math.atan(x)
    rel = [(angle(x) - angle(start)) % (2.0 * math.pi) for x in points]
    return all(r < s for r, s in zip(rel, rel[1:]))


def test_cyclic_order_matches_angle_formula():
    rng = random.Random(17)
    pool = [math.inf, 0.0, 1.0, -1.0, 0.5, -3.0]
    found = set()
    for _ in range(4000):
        pts = [rng.choice(pool) if rng.random() < 0.3
               else rng.uniform(-40.0, 40.0) for _ in range(rng.choice((3, 4)))]
        want = angle_order(*pts)
        assert combinat._cyclic_order(*pts) == want, pts
        found.add((len(pts), want))
    assert found == {(3, True), (3, False), (4, True), (4, False)}
    # far out the angles round together, the reals do not
    assert combinat._cyclic_order(1e17, 2e17, math.inf, -2e17)
    assert not angle_order(1e17, 2e17, math.inf, -2e17)


def test_primitive_root_multiplicity(thick):
    seq = intersection_sequence(thick, "cdcd", search_depth=8)
    base = intersection_sequence(thick, "cd", search_depth=8)
    # the square runs along the same axis for twice the period, so every
    # count per period doubles
    assert seq.period == pytest.approx(2.0 * base.period, rel=1e-12)
    assert seq.intersection_number == 2 * base.intersection_number
    rot = combinatorial_rotation(classify_and_rotate(seq))
    base_rot = combinatorial_rotation(classify_and_rotate(base))
    assert rot == {k: 2 * v for k, v in base_rot.items()}


def test_mp_fixed_points_match_float_axes(reference):
    # the extended-precision frame data and the float axes come from one
    # fixed-point routine; on the six hexagon-system words they must agree
    words = reference.curve_words + reference.seam_words
    assert len(words) == 6
    with mpmath.workdps(surface._DPS):
        for w in words:
            got = hyp2.fixed_points(*reference._mp_holonomy(w), mpmath.sqrt)
            axis = hyp2.axis_endpoints(reference.holonomy(w))
            for mp_end, end in zip(got, (axis.start, axis.end)):
                if end.is_infinity:
                    assert mp_end is None
                else:
                    assert float(mp_end) == pytest.approx(end.value,
                                                          rel=1e-10,
                                                          abs=1e-300)


def mp_links(line1, line2):
    """Whether two chords (rep, att) of extended reals link, at 80 digits.

    None is infinity; angles 2 atan(x) in (-pi, pi] keep the circle order.
    """
    def angle(x):
        return mpmath.pi if x is None else 2 * mpmath.atan(x)

    lo, hi = sorted(angle(x) for x in line1)
    return sum(lo < angle(x) < hi for x in line2) == 1


@pytest.mark.parametrize("lengths", [[0.7, 0.8, 0.9], [1e-6, 5e-5, 1e-5]])
def test_pants_axes_cross_seam_axes_at_base(lengths):
    # seam s of the base hexagon meets pants curves s+1 and s+2 at right
    # angles, so the lift census starts from the base axis of each pants
    # curve p != s and needs no conjugating word
    marked = make_surface(lengths)
    with mpmath.workdps(surface._DPS):
        ends = {w: hyp2.fixed_points(*marked._mp_holonomy(w), mpmath.sqrt)
                for w in marked.curve_words + marked.seam_words}
        for s_idx, seam in enumerate(marked.seam_words, start=1):
            for p_idx, pants in enumerate(marked.curve_words, start=1):
                assert mp_links(ends[pants], ends[seam]) == (p_idx != s_idx)


def test_mp_fixed_points_upper_triangular():
    # c = 0: infinity is attracting exactly when |a| > 1, and the finite
    # point b / (d - a) is fixed by z -> (a z + b) / d
    with mpmath.workdps(surface._DPS):
        big, small = mpmath.mpf(2), mpmath.mpf("0.5")
        b, zero = mpmath.mpf(3), mpmath.mpf(0)
        for a, d, infinity_attracts in ((big, small, True),
                                        (small, big, False),
                                        (-big, -small, True)):
            rep, att = hyp2.fixed_points(a, b, zero, d, mpmath.sqrt)
            fin = rep if infinity_attracts else att
            assert (att if infinity_attracts else rep) is None
            assert abs((a * fin + b) / d - fin) < mpmath.mpf(10) ** -70
