"""Command-line front end: classification, distances, geodesic certificates,
verification sweeps, and plot-data emission.

Complex numbers on the command line are ``re,im`` pairs; vectors are
space-separated.  Output is JSON (sorted keys, shortest round-trip floats);
``sweep`` and ``plotdata`` print CSV.  Exit codes: 0 success,
1 computational failure (machine-readable error object on stdout),
2 validation error.  A number that is not finite, or a value that leaves
the float range, is a typed error with exit 1, never a traceback or a NaN
in the output: ``discgeom`` owns both checks.

``verify-lempert`` and ``sweep`` pass a sample when its disc certifies and
meets the lifted point z; a non-finite residual is null in the report and
an empty field in the CSV.

No option sets a tolerance.  Each check uses the one value of the module
that makes it: ``metrics.MATCH_TOL`` for the miss of a certificate's disc
at z, ``geodesics.RESIDUAL_TOL`` for the disc certificate,
``varieties.TRANSPORT_TOL`` for ``transport`` and ``ball.LOCUS_TOL`` for the
boundary locus of ``ball locus`` and ``plotdata locus``.  Every residual gate
(the disc certificate, the membership test of ``geodesic`` and the base point
of ``transport``) follows one convention, ``discgeom._residual_within``: a
residual passes when it is at most tol * size + 8 eps * (the sum of the
moduli of the terms it adds up), so rounding alone never refuses an answer.
The size is |q| for the certificate and min(1, S), S that sum, for the two
membership tests, which therefore do not change with the scale of the input.

Each subcommand imports the layers it needs when it runs.  The module itself
loads only the standard library, ``errors``, ``discgeom`` and ``varieties``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys

from .discgeom import MobiusMap
from .errors import DomainError, GeodiscError
from .varieties import Alpha, DomainDab, TridiscAutomorphism, classify, lift_to_M, normalize, transport


def _complex(s: str) -> complex:
    try:
        re_s, im_s = s.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected re,im pair, got {s!r}") from exc


def _cjson(z: complex) -> list[float]:
    return [z.real, z.imag]


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _emit_csv(header, rows) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    sys.stdout.write(buf.getvalue())


def cmd_classify(args) -> int:
    alpha = Alpha(*args.alpha)
    _emit_json(classify(alpha).to_json())
    return 0


def cmd_normalize(args) -> int:
    alpha = Alpha(*args.alpha)
    _emit_json(normalize(alpha).to_json())
    return 0


def cmd_transport(args) -> int:
    alpha = Alpha(*args.alpha)
    maps = tuple(MobiusMap(nu, rot) for nu, rot in zip(args.nu, args.rotation))
    m = TridiscAutomorphism(perm=tuple(p - 1 for p in args.perm), maps=maps)
    beta = transport(alpha, m)
    _emit_json(beta.to_json())
    return 0


def cmd_distance(args) -> int:
    from .metrics import c_dab, c_polydisc

    if args.kind == "dab":
        d = DomainDab(args.a, args.b)
        _emit_json({"c": c_dab(d, tuple(args.z), tuple(args.w))})
    else:
        _emit_json({"c": c_polydisc(tuple(args.z), tuple(args.w))})
    return 0


def cmd_geodesic(args) -> int:
    from .metrics import geodesic_through

    d = DomainDab(args.a, args.b)
    z = tuple(args.z)
    if len(z) == 2:
        z = lift_to_M(d, z)
    out = geodesic_through(args.a, args.b, z, find_alternates=True).to_json()
    out["point"] = [_cjson(w) for w in z]
    _emit_json(out)
    return 0


def cmd_lens(args) -> int:
    from .geodesics import Lens, solve_omega_eta

    L = Lens(args.a, args.b)
    out = {"a": args.a, "b": args.b, "nonempty": L.nonempty}
    if L.nonempty:
        c_up, c_dn = L.corners()
        out["corners"] = [_cjson(c_up), _cjson(c_dn)]
        if args.gamma is not None:
            sols = solve_omega_eta(L, args.gamma)
            out["solutions"] = [
                {"branch": s.branch, "omega": _cjson(s.omega), "eta": _cjson(s.eta)}
                for s in sols
            ]
    _emit_json(out)
    return 0


def cmd_verify_lempert(args) -> int:
    from .metrics import lempert_verify

    d = DomainDab(args.a, args.b)
    report = lempert_verify(d, samples=args.samples, seed=args.seed)
    _emit_json(report.to_json())
    return 0 if report.failures == 0 else 1


def cmd_convexity(args) -> int:
    from .metrics import linear_convexity_quadratic

    d = DomainDab(args.a, args.b)
    r1, r2, uni = linear_convexity_quadratic(d)
    _emit_json(
        {
            "root1": _cjson(r1),
            "root2": _cjson(r2),
            "all_unimodular": uni,
            "moduli": [abs(r1), abs(r2)],
        }
    )
    return 0


def cmd_universal(args) -> int:
    from .metrics import dab_universal_set, kappa_dab_origin, universal_c, universal_gamma

    d = DomainDab(args.a, args.b)
    U = dab_universal_set(d)
    if args.X is not None:
        at = tuple(args.at) if args.at else (0.0j, 0.0j)
        val = universal_gamma(U, at, tuple(args.X))
        out = {"gamma": val, "at": [_cjson(w) for w in at], "X": [_cjson(w) for w in args.X]}
        if at == (0.0j, 0.0j):
            out["kappa_formula"] = kappa_dab_origin(d, tuple(args.X))
    else:
        out = {
            "c": universal_c(U, tuple(args.z), tuple(args.w)),
            "members": [m.name for m in U.members],
        }
    _emit_json(out)
    return 0


def cmd_ball(args) -> int:
    from . import ball as ball_mod

    kind = args.kind
    if kind == "cstar":
        val, dist = ball_mod._c_star_distance(args.w, args.z)
        _emit_json({"cstar": val, "distance": dist})
    elif kind == "auto":
        img = ball_mod.ball_automorphism(args.base, args.z)
        _emit_json({"image": [_cjson(c) for c in img]})
    elif kind == "extremal":
        line = ball_mod.ComplexLine(base=tuple(args.base), direction=tuple(args.direction))
        psi = ball_mod.psi_l(line)
        out = psi.to_json()
        if args.z:
            out["value"] = _cjson(psi(args.z))
        _emit_json(out)
    elif kind == "F":
        _emit_json({"value": _cjson(ball_mod.F_left_inverse(args.z))})
    elif kind == "ft":
        pt = ball_mod.f_t_geodesic(args.t, args.lam)
        _emit_json({"point": [_cjson(c) for c in pt]})
    else:  # locus
        on = ball_mod.boundary_modulus_locus(args.z)
        _emit_json({"on_locus": on})
    return 0


def cmd_sweep(args) -> int:
    from .geodesics import Lens
    from .metrics import lempert_verify

    cells = []
    for i in range(args.a_steps):
        for j in range(args.b_steps):
            a = args.a_min + (args.a_max - args.a_min) * (i / max(args.a_steps - 1, 1))
            b = args.b_min + (args.b_max - args.b_min) * (j / max(args.b_steps - 1, 1))
            cells.append((len(cells), a, b))

    def run_cell(cell):
        idx, a, b = cell
        d = DomainDab(a, b)
        if not Lens(a, b).nonempty:
            if not args.allow_degenerate:
                raise DomainError(
                    f"grid cell ({a:.6g}, {b:.6g}) leaves the triangle-inequality "
                    "regime; pass --allow-degenerate to mark such cells"
                )
            return (idx, a, b, "retract-regime", 0, 0, "")
        rep = lempert_verify(d, samples=args.samples, seed=args.seed * 1000003 + idx)
        status = "ok" if rep.failures == 0 else "fail"
        return (idx, a, b, status, args.samples, rep.failures, rep.to_json()["worst_residual"])

    rows = [run_cell(c) for c in cells]
    header = ["index", "a", "b", "status", "samples", "failures", "worst_residual"]
    _emit_csv(header, rows)
    return 1 if any(r[3] == "fail" for r in rows) else 0


def cmd_plotdata(args) -> int:
    from .ball import locus_value
    from .geodesics import Lens, admissible_arc
    from .metrics import kappa_dab_origin

    kind = args.kind
    if kind == "lens":
        L = Lens(args.a, args.b)
        rows = [(tag, g.real, g.imag) for tag, g in L.boundary_points(args.n)]
        _emit_csv(["segment", "re", "im"], rows)
    elif kind == "arc":
        L = Lens(args.a, args.b)
        arcs = admissible_arc(L, args.gamma)
        rows = [(lo, hi) for lo, hi in arcs]
        _emit_csv(["theta_lo", "theta_hi"], rows)
    elif kind == "indicatrix":
        d = DomainDab(args.a, args.b)
        rows = []
        for k in range(args.n):
            th = 2.0 * math.pi * k / args.n
            X = (math.cos(th), math.sin(th))
            kap = kappa_dab_origin(d, X)
            rows.append((th, X[0], X[1], kap, 1.0 / kap if kap > 0 else float("inf")))
        _emit_csv(["theta", "X1", "X2", "kappa", "radius"], rows)
    else:  # locus
        rows = []
        n = args.n
        for i in range(n):
            th = 0.5 * math.pi * (i + 0.5) / n
            for j in range(n):
                ph1 = 2.0 * math.pi * j / n
                for k in range(n):
                    ph2 = 2.0 * math.pi * k / n
                    z1 = math.cos(th) * complex(math.cos(ph1), math.sin(ph1))
                    z2 = math.sin(th) * complex(math.cos(ph2), math.sin(ph2))
                    im, on = locus_value(z1, z2)
                    rows.append((z1.real, z1.imag, z2.real, z2.imag, im, int(on)))
        _emit_csv(["z1_re", "z1_im", "z2_re", "z2_im", "im_value", "on_locus"], rows)
    return 0


# let tokens like -0.625,0 parse as values rather than option strings
_NEG_VALUE = re.compile(r"^-\d|^-\.\d")


class _Parser(argparse.ArgumentParser):
    """An argument parser, and the parser class of its subcommands, that
    reads a token like -0.625,0 as a value, and sets the parsed arguments'
    ``parser`` to the innermost parser that read them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEG_VALUE
        self.set_defaults(parser=self)


def _count(s: str) -> int:
    try:
        n = int(s)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {s!r}")
    return n


def _ab(sp, **kwargs) -> None:
    sp.add_argument("--a", type=float, **kwargs)
    sp.add_argument("--b", type=float, **kwargs)


def _vectors(sp, *names, nargs="+", required=True) -> None:
    for name in names:
        sp.add_argument(f"--{name}", type=_complex, nargs=nargs, required=required)


def _command(sub, name, fn, help):
    sp = sub.add_parser(name, help=help)
    sp.set_defaults(fn=fn)
    return sp


def _kinds(sub, name, fn, help):
    """The sub-parsers of a command whose first argument names a kind; each
    kind's parser declares only the options that kind reads."""
    return _command(sub, name, fn, help).add_subparsers(dest="kind", required=True)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="geodisc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = _command(sub, "classify", cmd_classify, "triangle-inequality classification of a triple")
    sp.add_argument("--alpha", type=_complex, nargs=3, required=True)

    sp = _command(sub, "normalize", cmd_normalize, "positive normal form and rotations")
    sp.add_argument("--alpha", type=_complex, nargs=3, required=True)

    sp = _command(sub, "transport", cmd_transport, "image triple under a tridisc automorphism")
    sp.add_argument("--alpha", type=_complex, nargs=3, required=True)
    sp.add_argument("--perm", type=int, nargs=3, default=[1, 2, 3], help="1-based permutation")
    sp.add_argument("--nu", type=_complex, nargs=3, required=True, help="Mobius pole per slot")
    sp.add_argument(
        "--rotation", type=_complex, nargs=3, default=[complex(-1.0)] * 3,
        help="unimodular rotation per slot (default: -1, the maps lam -> (lam - nu)/(1 - conj(nu) lam))",
    )

    kinds = _kinds(sub, "distance", cmd_distance, "invariant distance between two points")
    sp = kinds.add_parser("dab", help="Caratheodory distance on D(a, b)")
    _ab(sp, required=True)
    _vectors(sp, "z", "w", nargs=2)
    _vectors(kinds.add_parser("polydisc", help="Caratheodory distance on the polydisc"), "z", "w")

    sp = _command(sub, "geodesic", cmd_geodesic, "certificate geodesic through the origin and a point")
    _ab(sp, required=True)
    sp.add_argument("--z", type=_complex, nargs="+", required=True, help="domain pair or lifted triple")

    sp = _command(sub, "lens", cmd_lens, "lens corners and branch solutions")
    _ab(sp, required=True)
    sp.add_argument("--gamma", type=_complex, default=None)

    sp = _command(sub, "verify-lempert", cmd_verify_lempert,
                  "sampled equality check of the extremal problems")
    _ab(sp, required=True)
    sp.add_argument("--samples", type=_count, default=100)
    sp.add_argument("--seed", type=int, default=0)

    sp = _command(sub, "convexity", cmd_convexity, "linear-convexity witness quadratic roots")
    _ab(sp, required=True)

    sp = _command(sub, "universal", cmd_universal, "universal-set distance or infinitesimal value")
    _ab(sp, required=True)
    _vectors(sp, "z", "w", "at", "X", nargs=2, required=False)

    kinds = _kinds(sub, "ball", cmd_ball, "unit-ball constructions")
    _vectors(kinds.add_parser("cstar", help="tanh of the ball distance of --w and --z"), "z", "w")
    _vectors(kinds.add_parser("auto", help="involution swapping --base and the origin, at --z"), "base", "z")
    sp = kinds.add_parser("extremal", help="extremal psi_l of a complex line, and its value at --z")
    _vectors(sp, "base", "direction")
    _vectors(sp, "z", required=False)
    _vectors(kinds.add_parser("F", help="the two-ball map F at --z"), "z", nargs=2)
    sp = kinds.add_parser("ft", help="the geodesic f_t at --lam")
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--lam", type=_complex, default=0.0j)
    _vectors(kinds.add_parser("locus", help="whether --z lies on the boundary modulus locus"), "z", nargs=2)

    sp = _command(sub, "sweep", cmd_sweep, "grid verification sweep, CSV output")
    sp.add_argument("--a-min", type=float, required=True)
    sp.add_argument("--a-max", type=float, required=True)
    sp.add_argument("--a-steps", type=_count, default=5)
    sp.add_argument("--b-min", type=float, required=True)
    sp.add_argument("--b-max", type=float, required=True)
    sp.add_argument("--b-steps", type=_count, default=5)
    sp.add_argument("--samples", type=_count, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--allow-degenerate", action="store_true")

    kinds = _kinds(sub, "plotdata", cmd_plotdata, "CSV point clouds for external plotting")
    sp = kinds.add_parser("lens", help="lens boundary")
    _ab(sp, default=0.8)
    sp.add_argument("--n", type=_count, default=64)
    sp = kinds.add_parser("arc", help="admissible arc of --gamma")
    _ab(sp, default=0.8)
    sp.add_argument("--gamma", type=_complex, default=0.0j)
    sp = kinds.add_parser("indicatrix", help="indicatrix of D(a, b) at the origin")
    _ab(sp, default=0.8)
    sp.add_argument("--n", type=_count, default=64)
    kinds.add_parser("locus", help="boundary modulus locus on the sphere").add_argument(
        "--n", type=_count, default=64
    )
    return p


def _argument_problem(args) -> str | None:
    """Why the parsed arguments cannot run, or None: the validation argparse
    cannot express."""
    if args.command == "universal" and not (
        (args.X is None and args.at is None and args.z is not None and args.w is not None)
        or (args.X is not None and args.z is None and args.w is None)
    ):
        return "universal takes --z and --w, or --X with an optional --at"
    if args.command == "geodesic" and len(args.z) not in (2, 3):
        return "geodesic --z takes a domain pair or a lifted triple"
    # every vector option of one command has the same number of entries
    vectors = {name: len(value) for name, value in vars(args).items() if isinstance(value, list)}
    if len(set(vectors.values())) > 1:
        return f"{' and '.join('--' + name for name in vectors)} differ in length"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    # extras are reported by the parser of the command that was given, with its usage
    args, extras = parser.parse_known_args(argv)
    if extras:
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    problem = _argument_problem(args)
    if problem:
        args.parser.error(problem)
    try:
        return args.fn(args)
    except GeodiscError as exc:
        _emit_json({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
