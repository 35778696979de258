"""Command-line front end: one subcommand per experiment.

Exit codes: 0 all properties hold, 1 a property failed (counterexample
rows are printed), 2 usage or configuration error, 3 an arithmetic error
(overflow, division by zero) stopped the computation.  All floats are
printed with 17 significant digits; randomized experiments require an
explicit seed and are reproducible from it.
"""

import argparse
import json
import math
import os
import random
import sys

from . import combinat
from . import cones
from . import constants
from . import curves
from . import cylinder
from . import pants
from . import surface as surface_mod
from . import thurston

PASS, FAIL, USAGE, ARITHMETIC = 0, 1, 2, 3


def _fmt(v):
    return "%.17g" % v


class _Reporter:
    """Collects lines and optional report files, emitted deterministically."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.lines = []

    def say(self, text):
        self.lines.append(text)

    def file(self, name, text):
        if self.out_dir is None:
            self.lines.append(text)
            return
        path = os.path.join(self.out_dir, name)
        try:
            os.makedirs(self.out_dir, exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as ex:
            raise UsageError("cannot write %s: %s" % (path, ex))
        self.lines.append("wrote %s" % path)

    def flush(self):
        for line in self.lines:
            print(line)


class UsageError(ValueError):
    pass


def _build(lengths, twists=None):
    dec = surface_mod.builtin_genus2_convenient()
    coords = surface_mod.FNCoordinates(lengths, twists)
    return surface_mod.build_holonomy(dec, coords)


def _family(args):
    return [c.word for c in
            curves.enumerate_conj_classes(2, args.max_word_len)]


def _load_json(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as ex:
        raise UsageError("cannot read %s: %s" % (path, ex))
    try:
        return json.loads(text)
    except json.JSONDecodeError as ex:
        raise UsageError("malformed JSON in %s: line %d column %d: %s"
                         % (path, ex.lineno, ex.colno, ex.msg))


def _json_number(value, whole=False):
    """A JSON number knob as a float, or as an int when `whole`.

    The one reader of the JSON inputs' numbers: a string, a bool, a
    value that is not a finite float or, when `whole`, one with a
    fraction raises TypeError, which each command reports as its usage
    error.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError
    try:
        x = float(value)
    except OverflowError:
        raise TypeError from None
    if not math.isfinite(x) or whole and not x.is_integer():
        raise TypeError
    return int(value) if whole else x


def _json_numbers(values):
    """A JSON list of number knobs as floats (`_json_number`)."""
    if not isinstance(values, list):
        raise TypeError
    return [_json_number(v) for v in values]


def _time_pairs(seed, horizon, count):
    """`count` seeded time pairs 0 <= t1 < t2 <= horizon; a certificate
    over no pair says nothing, so a count below 1 is a usage error."""
    if count < 1:
        raise UsageError("--pairs must be at least 1")
    rng = random.Random(seed + 2)
    pairs = []
    for _ in range(count):
        t1 = rng.uniform(0.0, horizon * 0.9)
        pairs.append((t1, rng.uniform(t1 + 1e-3, horizon)))
    return pairs


# --- subcommands ---------------------------------------------------------------


def cmd_hexagon(args, rep):
    tol = 1e-10   # on the relative pentagon residuals
    if not args.a and args.samples < 1:
        # a residual over no shape says nothing
        raise UsageError("hexagon needs --a or --samples of at least 1")
    shapes = [tuple(args.a)] if args.a else []
    rng = random.Random(args.seed)
    for _ in range(args.samples):
        shapes.append(tuple(rng.uniform(0.05, 0.45) for _ in range(3)))
    worst = 0.0
    for a1, a2, a3 in shapes:
        shape = pants.PantsShape(a1, a2, a3)
        for i in (1, 2, 3):
            worst = max(worst, *pants.pentagon_relative_residuals(shape, i))
    rep.say("shapes %d worst_residual %s tol %s"
            % (len(shapes), _fmt(worst), _fmt(tol)))
    return PASS if worst <= tol else FAIL


def cmd_surface(args, rep):
    tol = 1e-9   # on the relator residual and the relative length errors
    marked = _build(args.lengths, args.twists)
    residual = marked.relator_residual
    worst_rel = 0.0
    for i, w in enumerate(marked.curve_words):
        got = marked.curve_length(w)
        want = marked.coords.lengths[i]
        worst_rel = max(worst_rel, abs(got - want) / want)
        rep.say("curve %s length %s target %s" % (w, _fmt(got), _fmt(want)))
    rep.say("relator_residual %s worst_length_rel %s"
            % (_fmt(residual), _fmt(worst_rel)))
    return PASS if residual <= tol and worst_rel <= tol else FAIL


def cmd_lengths(args, rep):
    marked = _build(args.lengths, args.twists)
    for w in args.words:
        rep.say("%s %s" % (w, _fmt(marked.curve_length(w))))
    return PASS


def cmd_rotation(args, rep):
    marked = _build(args.lengths)
    seq = combinat.intersection_sequence(marked, args.word, args.depth)
    data = combinat.classify_and_rotate(seq)
    rot = combinat.combinatorial_rotation(data)
    rep.say("word %s i_P %d" % (args.word, seq.intersection_number))
    for k in (1, 2, 3):
        rep.say("r_%d %s" % (k, _fmt(rot[k])))
    return PASS


def cmd_nonrot(args, rep):
    marked = _build(args.lengths)
    i_p, rotation = combinat.reference_rotation(marked.decomposition,
                                                args.word, args.depth)
    proj, rest = combinat.non_rotating_length(marked, args.word, rotation)
    total = marked.curve_length(args.word)
    rep.say("word %s length %s rotational %s non_rotating %s"
            % (args.word, _fmt(total), _fmt(proj), _fmt(rest)))
    bound = constants.B_NONROT * i_p
    rep.say("crossing_bound %s pass %d" % (_fmt(bound), rest >= bound))
    return PASS if rest >= bound else FAIL


def cmd_distortion(args, rep):
    x = _build(args.x_lengths)
    y = _build(args.y_lengths)
    reference = surface_mod.reference_surface(x.decomposition)
    classes = [c for c in curves.enumerate_conj_classes(2, args.max_word_len)
               if not combinat.system_excludes(reference.curve_words,
                                               reference.seam_words, c.word)]
    rows = combinat.distortion_check(x, y, classes, args.C,
                                     search_depth=args.depth)
    text = combinat.DISTORTION_CSV_HEADER + "\n" + "\n".join(
        combinat.distortion_csv_rows(rows)) + "\n"
    rep.file("distortion.csv", text)
    failures = [r for r in rows if not r["pass"]]
    rep.say("classes %d failures %d" % (len(rows), len(failures)))
    for r in failures:
        rep.say("FAIL %s ratio %s bounds [%s, %s]"
                % (r["word"], _fmt(r["ratio"]), _fmt(r["bound_lo"]),
                   _fmt(r["bound_hi"])))
    return PASS if not failures else FAIL


def _noisy_spec_from_config(cfg):
    try:
        base = _json_numbers(cfg["base_log_lengths"])
        horizon = _json_number(cfg["T"])
        stretched = _json_number(cfg["stretched_index"], whole=True)
        seed = _json_number(cfg["seed"], whole=True)
        d_const = _json_number(cfg.get("D", 5.0))
    except KeyError as ex:
        raise UsageError("config missing knob %s" % ex)
    except TypeError:
        raise UsageError("config must be an object of finite number knobs, "
                         "seed and stretched_index whole, base_log_lengths "
                         "a list of them") from None
    return thurston.random_noisy_spec(base, horizon, stretched, D=d_const,
                                      seed=seed), seed


def cmd_thurston_verify_noisy(args, rep):
    spec, seed = _noisy_spec_from_config(_load_json(args.config))
    pairs = _time_pairs(seed, spec.T, args.pairs)
    dec = surface_mod.builtin_genus2_convenient()
    family = _family(args)
    report = thurston.verify_noisy_geodesic(spec, dec, pairs, family)
    rep.file("noisy_report.json", json.dumps(report, indent=2,
                                             sort_keys=True) + "\n")
    rep.say("pairs %d passed %d" % (len(report["pairs"]),
                                    report["passed"]))
    for r in report["counterexamples"]:
        rep.say("FAIL t1 %s t2 %s sup %s witness %s expected %s"
                % (_fmt(r["t1"]), _fmt(r["t2"]), _fmt(r["sup_ratio"]),
                   r["sup_witness"], _fmt(r["expected"])))
    return PASS if report["passed"] else FAIL


def cmd_thurston_verify_symmetric(args, rep):
    spec = thurston.random_noisy_spec(args.base, args.T,
                                      args.stretched_index, seed=args.seed)
    pairs = _time_pairs(args.seed, args.T, args.pairs)
    dec = surface_mod.builtin_genus2_convenient()
    family = _family(args)
    ok = True
    for t1, t2 in pairs:
        expected = math.exp(t2 - t1)
        surfs = [surface_mod.build_holonomy(
            dec, thurston.symmetric_path_point(spec, t, args.shrunk_index))
            for t in (t1, t2)]
        fwd, rev = thurston.ratio_sup_both_ways(surfs[0], surfs[1], family)
        for name, cert in (("forward", fwd), ("reverse", rev)):
            good = thurston.is_exact_ratio(cert.sup_ratio, expected)
            ok = ok and good
            rep.say("%s t1 %s t2 %s sup %s expected %s witness %s pass %d"
                    % (name, _fmt(t1), _fmt(t2), _fmt(cert.sup_ratio),
                       _fmt(expected), curves.word_to_text(cert.witness),
                       good))
    return PASS if ok else FAIL


def cmd_thurston_linf_grid(args, rep):
    dec = surface_mod.builtin_genus2_convenient()
    family = _family(args)
    report = thurston.linf_grid_check(args.base, args.T, args.k, args.grid,
                                      family, dec)
    rep.file("linf_report.json", json.dumps(report, indent=2,
                                            sort_keys=True) + "\n")
    rep.say("pairs %d passed %d" % (len(report["pairs"]),
                                    report["passed"]))
    return PASS if report["passed"] else FAIL


def cmd_thurston_asymmetry(args, rep):
    dec = surface_mod.builtin_genus2_convenient()
    family = _family(args)

    def f(t):
        return -args.slope * t - args.quad * t * t

    ok = True
    for t1, t2 in ((0.0, args.T / 2), (args.T / 2, args.T),
                   (0.0, args.T)):
        surfs = [surface_mod.build_holonomy(
            dec, thurston.asymmetry_path_point(args.base, t, f, T=args.T))
            for t in (t1, t2)]
        fwd, rev = thurston.ratio_sup_both_ways(surfs[0], surfs[1], family)
        e_fwd = math.exp(t2 - t1)
        e_rev = math.exp(f(t1) - f(t2))
        ok_f = thurston.is_exact_ratio(fwd.sup_ratio, e_fwd)
        ok_r = thurston.is_exact_ratio(rev.sup_ratio, e_rev)
        ok = ok and ok_f and ok_r
        rep.say("t1 %s t2 %s forward %s (expected %s) reverse %s "
                "(expected %s) pass %d"
                % (_fmt(t1), _fmt(t2), _fmt(fwd.sup_ratio), _fmt(e_fwd),
                   _fmt(rev.sup_ratio), _fmt(e_rev), ok_f and ok_r))
    return PASS if ok else FAIL


def cmd_cones_verify(args, rep):
    data = _load_json(args.spec)
    try:
        rows = [[args.scale * v for v in _json_numbers(row)]
                for row in data["rows"]]
    except (KeyError, TypeError):
        raise UsageError("cone spec JSON needs a \"rows\" matrix") from None
    spec = cones.ConeSpecL(rows)
    dec = surface_mod.builtin_genus2_convenient()
    n = spec.n
    surfaces = [surface_mod.build_holonomy(
        dec, surface_mod.FNCoordinates([spec.rows[i][j]
                                        for i in range(len(spec.rows))]))
        for j in range(n)]
    family = curves.enumerate_conj_classes(2, args.max_word_len)
    report = cones.verify_limit_cone(surfaces, family, args.slack)
    rows = cones.ray_rows(surfaces, family, report["cone"], args.slack)
    rep.file("cone.json", cones.cone_to_json(report["cone"]) + "\n")
    rep.file("ray_cloud.csv", cones.ray_csv_header(n) + "\n"
             + "\n".join(cones.ray_csv_rows(rows)) + "\n")
    rep.say("classes %d containment_rate %s worst %s (%s) "
            "vertices_attained %d"
            % (len(rows), _fmt(report["containment_rate"]),
               _fmt(report["worst_excess"]), report["worst_word"],
               report["vertex_attained"]))
    ok = report["containment_rate"] == 1.0 and report["vertex_attained"]
    return PASS if ok else FAIL


def cmd_cones_designer(args, rep):
    data = _load_json(args.spec)
    try:
        vertices = [_json_numbers(row) for row in data["vertices"]]
    except (KeyError, TypeError):
        raise UsageError("designer spec JSON needs a \"vertices\" list") from None
    cone = cones.cone_over_hull(vertices)
    spec = cones.designer_lengths(cone, args.total_curves, args.scale)
    rep.file("designer_lengths.json",
             json.dumps({"rows": [list(r) for r in spec.rows]},
                        sort_keys=True) + "\n")
    back = cones.cone_over_hull(spec)
    worst = max(cone.angular_excess(v) for v in back.vertex_directions)
    rep.say("vertices %d roundtrip_excess %s"
            % (len(back.vertex_directions), _fmt(worst)))
    return PASS if worst <= 1e-9 else FAIL


def cmd_cyl_lipschitz(args, rep):
    r1 = math.acosh(constants.DELTA_STAR_DEFAULT / args.a1)
    r2 = math.acosh(constants.DELTA_STAR_DEFAULT / args.a2)
    m = cylinder.ModelMap(args.a1, r1, args.a2, r2)
    report = cylinder.sampled_lipschitz(m, args.samples, seed=args.seed)
    rep.file("lipschitz.csv", cylinder.LIPSCHITZ_CSV_HEADER + "\n"
             + cylinder.lipschitz_csv_row(m, report) + "\n")
    rep.say("sampled %s theoretical %s" % (_fmt(report.sampled_sup),
                                           _fmt(report.theoretical)))
    ok = report.sampled_sup <= report.theoretical * (1.0 + 1e-6)
    return PASS if ok else FAIL


def cmd_cyl_damping(args, rep):
    log_lip = cylinder.damping_profile(args.a, args.t, args.D0,
                                       n_samples=args.samples,
                                       seed=args.seed)
    analytic = math.log(cylinder.damping_restriction_constant(
        args.a, args.t, args.D0))
    rep.say("log_lipschitz %s analytic %s budget %s"
            % (_fmt(log_lip), _fmt(analytic), _fmt(0.05 * args.t)))
    return PASS if log_lip <= 0.05 * args.t else FAIL


def cmd_cyl_excursion(args, rep):
    depth = cylinder.excursion_depth(args.a, args.t)
    residue = cylinder.spiral_residue(args.a, args.t)
    rep.say("a %s t %s depth %s residue %s"
            % (_fmt(args.a), _fmt(args.t), _fmt(depth), _fmt(residue)))
    return PASS


def cmd_cyl_cusp(args, rep):
    best = cylinder.cusp_rotation_check(args.samples, seed=args.seed)
    rep.say("max_rotation %s bound %s"
            % (_fmt(best), _fmt(constants.CUSP_ROTATION_BOUND)))
    return PASS if best <= constants.CUSP_ROTATION_BOUND else FAIL


# --- argument parsing -----------------------------------------------------------


def _lengths_arg(p):
    p.add_argument("--lengths", type=float, nargs=3, required=True)


def build_parser():
    top = argparse.ArgumentParser(
        prog="teichlab",
        description="Experiments on hyperbolic surfaces in "
                    "Fenchel-Nielsen coordinates.")
    top.add_argument("--out-dir", default=None,
                     help="write report files here instead of stdout")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hexagon", help="pentagon identity residuals")
    p.add_argument("--a", type=float, nargs=3, default=None)
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_hexagon)

    p = sub.add_parser("surface", help="holonomy consistency")
    _lengths_arg(p)
    p.add_argument("--twists", type=float, nargs=3, default=None)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("lengths", help="translation lengths of words")
    _lengths_arg(p)
    p.add_argument("--twists", type=float, nargs=3, default=None)
    p.add_argument("--words", nargs="+", required=True)
    p.set_defaults(func=cmd_lengths)

    p = sub.add_parser("rotation", help="combinatorial rotation numbers")
    _lengths_arg(p)
    p.add_argument("--word", required=True)
    p.add_argument("--depth", type=int,
                   default=constants.LIFT_SEARCH_DEPTH_DEFAULT)
    p.set_defaults(func=cmd_rotation)

    p = sub.add_parser("nonrot", help="non-rotating length")
    _lengths_arg(p)
    p.add_argument("--word", required=True)
    p.add_argument("--depth", type=int,
                   default=constants.LIFT_SEARCH_DEPTH_DEFAULT)
    p.set_defaults(func=cmd_nonrot)

    p = sub.add_parser("distortion", help="length distortion bounds")
    p.add_argument("--x-lengths", type=float, nargs=3, required=True)
    p.add_argument("--y-lengths", type=float, nargs=3, required=True)
    p.add_argument("--max-word-len", type=int, default=4)
    p.add_argument("--C", type=float, default=2.0)
    p.add_argument("--depth", type=int,
                   default=constants.LIFT_SEARCH_DEPTH_DEFAULT)
    p.set_defaults(func=cmd_distortion)

    th = sub.add_parser("thurston", help="stretch-path certificates")
    ths = th.add_subparsers(dest="subcommand", required=True)

    p = ths.add_parser("verify-noisy")
    p.add_argument("--config", required=True)
    p.add_argument("--max-word-len", type=int, default=4)
    p.add_argument("--pairs", type=int, default=20)
    p.set_defaults(func=cmd_thurston_verify_noisy)

    p = ths.add_parser("verify-symmetric")
    p.add_argument("--base", type=float, nargs=3, required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--stretched-index", type=int, default=0)
    p.add_argument("--shrunk-index", type=int, default=1)
    p.add_argument("--max-word-len", type=int, default=4)
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_thurston_verify_symmetric)

    p = ths.add_parser("linf-grid")
    p.add_argument("--base", type=float, nargs=3, required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--grid", type=int, default=3)
    p.add_argument("--max-word-len", type=int, default=4)
    p.set_defaults(func=cmd_thurston_linf_grid)

    p = ths.add_parser("asymmetry")
    p.add_argument("--base", type=float, nargs=3, required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--slope", type=float, default=0.5)
    p.add_argument("--quad", type=float, default=0.25)
    p.add_argument("--max-word-len", type=int, default=4)
    p.set_defaults(func=cmd_thurston_asymmetry)

    co = sub.add_parser("cones", help="limit-cone experiments")
    cos = co.add_subparsers(dest="subcommand", required=True)

    p = cos.add_parser("verify")
    p.add_argument("--spec", required=True)
    p.add_argument("--max-word-len", type=int, default=4)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--slack", type=float, default=1e-2)
    p.set_defaults(func=cmd_cones_verify)

    p = cos.add_parser("designer")
    p.add_argument("--spec", required=True)
    p.add_argument("--total-curves", type=int, default=3)
    p.add_argument("--scale", type=float, default=1e-3)
    p.set_defaults(func=cmd_cones_designer)

    cy = sub.add_parser("cylinder", help="collar model-map experiments")
    cys = cy.add_subparsers(dest="subcommand", required=True)

    p = cys.add_parser("lipschitz")
    p.add_argument("--a1", type=float, required=True)
    p.add_argument("--a2", type=float, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_cyl_lipschitz)

    p = cys.add_parser("damping")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--D0", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_cyl_damping)

    p = cys.add_parser("excursion")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=cmd_cyl_excursion)

    p = cys.add_parser("cusp")
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_cyl_cusp)

    return top


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        # argparse exits 2 on usage errors already; normalize the rest
        return USAGE if ex.code not in (0, None) else 0
    rep = _Reporter(args.out_dir)
    try:
        code = args.func(args, rep)
    except ValueError as ex:
        # UsageError, and domain violations from the library that name the
        # offending knob
        print("error: %s" % ex, file=sys.stderr)
        return USAGE
    except ArithmeticError as ex:
        stage = " ".join(filter(None, (args.command,
                                       getattr(args, "subcommand", None))))
        print("error: %s: %s" % (stage, ex), file=sys.stderr)
        return ARITHMETIC
    rep.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
