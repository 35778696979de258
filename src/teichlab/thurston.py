"""Stretch-path experiments for the Thurston metric in log-FN coordinates.

A noisy path stretches one log-length coordinate at unit speed while the
remaining log-lengths follow a forward-1-Lipschitz perturbation and the
twists follow a D-Lipschitz one.  On sufficiently pinched surfaces such a
path moves at unit speed for the Thurston metric: the stretched pants
curve realizes the length-ratio supremum e^(t2-t1) exactly, and no other
curve exceeds it.  The checks here certify the literally computable half
of that statement: the witness ratio is exact and a supplied family of
curve classes never beats it.  The full supremum over all classes is not
recomputed; every report is a family-restricted certificate.

A certificate reads one batch of length estimates per surface
(`MarkedSurface.length_estimates`, floats within the error bound that
`surface` states, or None).  The estimates rank the words, and only the
words whose estimated ratio can reach the supremum or the witness band,
or whose estimate is None, get exact lengths (`curve_lengths`, the
doubles nearest the lengths of the exact traces).  The screen's margin
covers that bound, so the supremum, the witness and the counts equal
those of exact lengths for every word (see `_sup_certificate`).
"""

import math
import random

from . import constants, curves
from . import surface as surface_mod
from .surface import FNCoordinates


class ThurstonError(ValueError):
    pass


_SLOPE_TOL = 1e-12


class PiecewiseLinearPath:
    """Vector-valued piecewise-linear path on [0, T] with value 0 at 0."""

    def __init__(self, T, values):
        """`values`: per-breakpoint list of coordinate tuples, uniform grid."""
        if T <= 0:
            raise ThurstonError("path horizon must be positive")
        self.T = float(T)
        self.values = [tuple(float(v) for v in row) for row in values]
        if len(self.values) < 2:
            raise ThurstonError("need at least two breakpoints")
        self.dim = len(self.values[0])
        if any(len(row) != self.dim for row in self.values):
            raise ThurstonError("ragged breakpoint values")
        if any(v != 0.0 for v in self.values[0]):
            raise ThurstonError("path must start at 0")

    @property
    def step(self):
        return self.T / (len(self.values) - 1)

    def __call__(self, t):
        if not 0.0 <= t <= self.T + _SLOPE_TOL:
            raise ThurstonError("parameter outside [0, T]")
        t = min(t, self.T)
        pos = t / self.step
        i = min(int(pos), len(self.values) - 2)
        frac = pos - i
        return tuple(a + frac * (b - a)
                     for a, b in zip(self.values[i], self.values[i + 1]))

    def slopes(self):
        """Per-segment coordinate slopes."""
        out = []
        for a, b in zip(self.values, self.values[1:]):
            out.append(tuple((y - x) / self.step for x, y in zip(a, b)))
        return out

    @classmethod
    def zero(cls, T, dim):
        return cls(T, [(0.0,) * dim, (0.0,) * dim])

    @classmethod
    def random(cls, T, dim, lo, hi, seed):
        """Random admissible path: iid segment slopes in [lo, hi]."""
        rng = random.Random(seed)
        step = T / constants.NOISE_BREAKPOINTS_DEFAULT
        rows = [(0.0,) * dim]
        for _ in range(constants.NOISE_BREAKPOINTS_DEFAULT):
            rows.append(tuple(v + rng.uniform(lo, hi) * step
                              for v in rows[-1]))
        return cls(T, rows)


class NoisyPathSpec:
    """Stretch of one log-length coordinate plus admissible noise.

    `base_log_lengths`/`base_twists` give the starting point, `F` perturbs
    the remaining length coordinates (forward slope at most 1, backward at
    most D), and `G` perturbs all twists (slope at most D in both
    directions).
    """

    def __init__(self, base_log_lengths, base_twists, T, stretched_index,
                 F, G, D=5.0, enforce_slopes=True):
        self.base_log_lengths = [float(v) for v in base_log_lengths]
        n = len(self.base_log_lengths)
        self.base_twists = ([0.0] * n if base_twists is None
                            else [float(v) for v in base_twists])
        if len(self.base_twists) != n:
            raise ThurstonError("twists and lengths must have equal length")
        if not 0 <= stretched_index < n:
            raise ThurstonError("stretched index out of range")
        self.T = float(T)
        self.stretched_index = stretched_index
        self.F = F
        self.G = G
        self.D = float(D)
        if F.dim != n - 1:
            raise ThurstonError("F must cover the unstretched lengths")
        if G.dim != n:
            raise ThurstonError("G must cover all twists")
        if abs(F.T - self.T) > _SLOPE_TOL or abs(G.T - self.T) > _SLOPE_TOL:
            raise ThurstonError("noise paths must share the horizon T")
        if not enforce_slopes:
            # deliberately inadmissible noise, used to exercise the
            # falsification channel of verify_noisy_geodesic
            return
        for seg in F.slopes():
            for s in seg:
                if s > 1.0 + _SLOPE_TOL or s < -self.D - _SLOPE_TOL:
                    raise ThurstonError(
                        "F slope %.6g outside [-D, 1]" % s)
        for seg in G.slopes():
            for s in seg:
                if abs(s) > self.D + _SLOPE_TOL:
                    raise ThurstonError("G slope %.6g outside [-D, D]" % s)


def random_noisy_spec(base_log_lengths, T, stretched_index, D=5.0, seed=0,
                      base_twists=None):
    """Admissible spec with seeded random noise paths."""
    n = len(base_log_lengths)
    F = PiecewiseLinearPath.random(T, n - 1, -min(D, 1.0), 1.0, seed)
    G = PiecewiseLinearPath.random(T, n, -D, D, seed + 1)
    return NoisyPathSpec(base_log_lengths, base_twists, T, stretched_index,
                         F, G, D=D)


def noisy_path_point(spec, t):
    """The path point at time t, exponentiated to FN coordinates."""
    if not 0.0 <= t <= spec.T + _SLOPE_TOL:
        raise ThurstonError("parameter outside [0, T]")
    f = spec.F(t)
    g = spec.G(t)
    logs = []
    j = 0
    for i, x in enumerate(spec.base_log_lengths):
        if i == spec.stretched_index:
            logs.append(x + t)
        else:
            logs.append(x + f[j])
            j += 1
    twists = [tw + dg for tw, dg in zip(spec.base_twists, g)]
    return FNCoordinates([math.exp(x) for x in logs], twists)


def symmetric_path_point(spec, t, shrunk_index):
    """Noisy point with a second coordinate shrunk at unit speed.

    The shrunk coordinate's noise component is overridden by exactly -t;
    the other coordinates keep the spec's noise.
    """
    if not 0 <= shrunk_index < len(spec.base_log_lengths):
        raise ThurstonError("shrunk index out of range")
    if shrunk_index == spec.stretched_index:
        raise ThurstonError("shrunk and stretched coordinates must differ")
    coords = noisy_path_point(spec, t)
    lengths = list(coords.lengths)
    lengths[shrunk_index] = math.exp(
        spec.base_log_lengths[shrunk_index] - t)
    return FNCoordinates(lengths, coords.twists)


def asymmetry_path_point(base_log_lengths, t, f, T):
    """Point of the path (t, f(t), 0, ...): prescribed decreasing shrink.

    `f` must be decreasing with f(0) = 0; checked on a 64-step grid over
    [0, max(t, T)].
    """
    horizon = max(t, T)
    if horizon <= 0:
        raise ThurstonError("need a positive horizon")
    if abs(f(0.0)) > _SLOPE_TOL:
        raise ThurstonError("f(0) must be 0")
    grid = [horizon * i / 64 for i in range(65)]
    vals = [f(x) for x in grid]
    if any(b >= a - _SLOPE_TOL * horizon
           for a, b in zip(vals, vals[1:])):
        raise ThurstonError("f must be decreasing")
    logs = list(base_log_lengths)
    logs[0] += t
    logs[1] += f(t)
    return FNCoordinates([math.exp(x) for x in logs])


class RatioCertificate:
    """Supremum of length ratios over an explicit family, with witness."""

    __slots__ = ("sup_ratio", "witness", "family_size", "skipped",
                 "exact_flag")

    def __init__(self, sup_ratio, witness, family_size, skipped, exact_flag):
        self.sup_ratio = sup_ratio
        self.witness = witness
        self.family_size = family_size
        self.skipped = skipped
        self.exact_flag = exact_flag

    def __repr__(self):
        return ("RatioCertificate(sup_ratio=%r, witness=%r, family_size=%r, "
                "skipped=%r, exact_flag=%r)" % (
                    self.sup_ratio, self.witness, self.family_size,
                    self.skipped, self.exact_flag))


def _class_key(word):
    return (len(word), curves._word_key(word))


# relative width of the witness band below the supremum: a curve and its
# powers give ulp-separated ratios
_WITNESS_BAND = 1e-12
# bound on the relative error of a screened ratio, at least
# 2 (rho + 1e-15) + 1e-15 for the estimates' bound rho + 1e-15
# (rho = `surface._ESTIMATE_REL`, see `_sup_certificate`)
_SCREEN_REL_ERR = 1e-13
# relative tolerance of the exact-ratio test
_EXACT_TOL = 1e-9


def is_exact_ratio(ratio, expected):
    """Whether a length ratio is the expected one, to `_EXACT_TOL`."""
    return abs(ratio - expected) <= _EXACT_TOL * expected


def _sup_certificate(family, x_estimates, y_estimates, x_surface,
                     y_surface):
    """The certificate of `ratio_sup` from the length estimates of the
    family's words; only the candidates' classes are read as words.

    Every word with an estimate on both surfaces is screened, with the
    estimated ratio e = l~_Y/l~_X, finite and positive since an estimate
    lies in [2e-20, 1420).  E is the largest screened e, w the witness
    band and delta = `_SCREEN_REL_ERR`.  The candidates are the words
    with a None estimate and the screened words with
    e >= E (1 - w)(1 - 2 delta).  They get `curve_lengths` on X and on Y;
    a candidate that is not hyperbolic on either surface is skipped, and
    the others get exact ratios r of their exact lengths.

    Why this changes nothing: by the contract of `length_estimates` a
    screened word's estimates are within rho + 1e-15 of its exact
    lengths, rho = `surface._ESTIMATE_REL`, and the exact lengths'
    roundings and the two divisions add under 1e-15, so
    |e/r - 1| <= 2 (rho + 1e-15) + 1e-15 <= delta; and its exact traces
    exceed 2 by more than 1e-40, so it is hyperbolic and not skipped: the
    skipped words are those whose exact traces are not hyperbolic, as for
    exact lengths of every word.  Let R be the exact supremum and u a
    word with r_u >= R (1 - w), as the supremum's word and every
    witness-band word are.  If u is screened and E = e_v then
    E <= (1 + delta) r_v <= (1 + delta) R, so e_u >= (1 - delta)(1 - w) R
    >= (1 - delta)/(1 + delta) (1 - w) E >= (1 - 2 delta)(1 - w) E, and
    u is a candidate.  The supremum and the witness band over the
    candidates are thus those over the whole family, and so are the
    supremum, the witness and the counts; delta's slack over the bound on
    |e/r - 1| absorbs the roundings of the bar itself.
    """
    if not family:
        raise ThurstonError("family must be nonempty")
    screened, candidates = [], []
    for i, (ex, ey) in enumerate(zip(x_estimates, y_estimates)):
        if ex is None or ey is None:
            candidates.append(i)
        else:
            screened.append((ey / ex, i))
    if screened:
        bar = max(r for r, _ in screened) * ((1.0 - _WITNESS_BAND)
                                             * (1.0 - 2.0 * _SCREEN_REL_ERR))
        candidates += [i for ratio, i in screened if ratio >= bar]
    error = surface_mod.SurfaceError
    batch = [curves._as_word(family[i]) for i in candidates]
    evaluated = [(w, ly / lx) for w, lx, ly in zip(
        batch, x_surface.curve_lengths(batch), y_surface.curve_lengths(batch))
        if not isinstance(lx, error) and not isinstance(ly, error)]
    skipped = len(candidates) - len(evaluated)
    if skipped == len(family):
        raise ThurstonError("no hyperbolic class in the family")
    sup_ratio = max(r for _, r in evaluated)
    # witness: canonically smallest word within the band below the supremum
    witness = min((w for w, r in evaluated
                   if r >= sup_ratio * (1.0 - _WITNESS_BAND)), key=_class_key)
    return RatioCertificate(sup_ratio, witness, len(family) - skipped,
                            skipped, False)


def _certificates(surfaces, family, pairs):
    """`ratio_sup` certificates for index pairs (x, y) into `surfaces`.

    Each surface estimates the family's lengths once, and every pair
    reads those batches; only a pair's candidates go through
    `curve_lengths`.
    """
    reduced = [curves._reduced_word(cls) for cls in family]
    estimates = [s.length_estimates(reduced) for s in surfaces]
    return [_sup_certificate(family, estimates[x], estimates[y], surfaces[x],
                             surfaces[y]) for x, y in pairs]


def ratio_sup(x_surface, y_surface, family, designated=None, expected=None):
    """Max of l_Y/l_X over the family; ties break by canonical word order.

    The supremum and witness come from exact lengths (`curve_lengths`)
    of the words a screen of length estimates leaves in reach of them;
    the screen's margin makes them equal to the supremum and witness of
    exact lengths for all words (`_sup_certificate`).  The designated
    word's ratio, when given, is exact.
    """
    cert, = _certificates([x_surface, y_surface], family, [(0, 1)])
    if designated is not None and expected is not None:
        des = [curves._as_word(designated)]
        lx, = x_surface.curve_lengths(des)
        ly, = y_surface.curve_lengths(des)
        cert.exact_flag = (not isinstance(lx, surface_mod.SurfaceError)
                           and not isinstance(ly, surface_mod.SurfaceError)
                           and is_exact_ratio(ly / lx, expected)
                           and cert.sup_ratio <= expected * (1.0 + _EXACT_TOL))
    return cert


def ratio_sup_both_ways(x_surface, y_surface, family):
    """`ratio_sup(x, y)` and `ratio_sup(y, x)` from one fold per surface."""
    forward, reverse = _certificates([x_surface, y_surface], family,
                                     [(0, 1), (1, 0)])
    return forward, reverse


def verify_noisy_geodesic(spec, decomposition, sample_pairs, family,
                          log_pinch=constants.LOG_PINCH_DEFAULT):
    """Family-restricted geodesic certificate along a noisy path.

    For each time pair the stretched pants curve must realize the ratio
    e^(t2-t1) exactly, and no family member may exceed it.  A family
    member beating the bound is reported as a counterexample; this is the
    falsification channel for inadmissible noise.
    """
    for i, x in enumerate(spec.base_log_lengths):
        if i != spec.stretched_index and x > log_pinch + _SLOPE_TOL:
            raise ThurstonError(
                "base log-length %d above the pinching threshold" % i)
    results = []
    for t1, t2 in sample_pairs:
        if not (0.0 <= t1 < t2 <= spec.T + _SLOPE_TOL):
            raise ThurstonError("need 0 <= t1 < t2 <= T")
        x_surf = surface_mod.build_holonomy(decomposition,
                                            noisy_path_point(spec, t1))
        y_surf = surface_mod.build_holonomy(decomposition,
                                            noisy_path_point(spec, t2))
        stretched_word = x_surf.curve_words[spec.stretched_index]
        expected = math.exp(t2 - t1)
        cert = ratio_sup(x_surf, y_surf, family,
                         designated=stretched_word, expected=expected)
        witness_ratio = (y_surf.curve_length(stretched_word)
                         / x_surf.curve_length(stretched_word))
        results.append({
            "t1": t1, "t2": t2, "expected": expected,
            "witness_ratio": witness_ratio,
            "sup_ratio": cert.sup_ratio,
            "sup_witness": curves.word_to_text(cert.witness),
            "family_size": cert.family_size,
            "skipped": cert.skipped,
            "pass": cert.exact_flag,
        })
    counterexamples = [r for r in results if not r["pass"]]
    return {
        "certificate": "family-restricted",
        "pairs": results,
        "passed": not counterexamples,
        "counterexamples": counterexamples,
    }


def linf_grid_check(base_log_lengths, T, k, grid_n, family, decomposition):
    """Grid certificate for the sup-metric embedding of [0, T]^k.

    Coordinate i of the cube moves the pair of log-lengths (2i, 2i+1) by
    (+x_i, -x_i); between two grid points the family ratio supremum must
    equal exp(max_i |x_i - y_i|) in both directions (`is_exact_ratio`).
    """
    n = len(base_log_lengths)
    if not T > 0:
        raise ThurstonError("need a positive cube side T")
    if k < 1:
        raise ThurstonError("need a cube dimension k of at least 1")
    if 2 * k > n:
        raise ThurstonError("cube dimension needs 2k coordinate slots")
    if grid_n < 2:
        raise ThurstonError("need at least a 2-point grid")
    if any(x > constants.LOG_PINCH_DEFAULT + _SLOPE_TOL
           for x in base_log_lengths):
        raise ThurstonError("base log-lengths above the pinching threshold")

    def embed(x):
        logs = list(base_log_lengths)
        for i, xi in enumerate(x):
            logs[2 * i] += xi
            logs[2 * i + 1] -= xi
        return FNCoordinates([math.exp(v) for v in logs])

    ticks = [T * i / (grid_n - 1) for i in range(grid_n)]
    points = [()]
    for _ in range(k):
        points = [p + (t,) for p in points for t in ticks]
    # each surface folds the family once; every ordered pair then reads the
    # certificate `ratio_sup` would form from the same two batches
    ordered = [(a, b) for a in points for b in points if a != b]
    index = {p: i for i, p in enumerate(points)}
    certs = dict(zip(ordered, _certificates(
        [surface_mod.build_holonomy(decomposition, embed(p)) for p in points],
        family, [(index[a], index[b]) for a, b in ordered])))

    results = []
    for a in points:
        for b in points:
            if b <= a:
                continue
            diffs = [abs(x - y) for x, y in zip(a, b)]
            expected = math.exp(max(diffs))
            axis = max(range(k), key=lambda i: diffs[i])
            for src, dst in ((a, b), (b, a)):
                cert = certs[src, dst]
                ok = is_exact_ratio(cert.sup_ratio, expected)
                results.append({
                    "from": src, "to": dst,
                    "expected": expected,
                    "sup_ratio": cert.sup_ratio,
                    "witness": curves.word_to_text(cert.witness),
                    "axis": axis,
                    "pass": ok,
                })
    counterexamples = [r for r in results if not r["pass"]]
    return {
        "certificate": "family-restricted",
        "pairs": results,
        "passed": not counterexamples,
        "counterexamples": counterexamples,
    }
