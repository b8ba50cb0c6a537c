"""Command-line front end: classification, distances, geodesic certificates,
verification sweeps, and plot-data emission.

Complex numbers on the command line are ``re,im`` pairs; vectors are
space-separated.  Output is JSON (sorted keys, shortest round-trip floats);
``sweep`` and ``plotdata`` print CSV.  Exit codes: 0 success,
1 computational failure (machine-readable error object on stdout),
2 validation error.

Each subcommand imports the layers it needs when it runs.  The module itself
loads only the standard library, ``errors``, ``discgeom`` and ``varieties``,
so ``classify``, ``normalize`` and every argument error (exit 2) run without
numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys

from .discgeom import MATCH_TOL, MobiusMap
from .errors import GeodiscError
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
    beta = transport(alpha, m, tol=args.tol_residual)
    _emit_json(beta.to_json())
    return 0


def cmd_distance(args) -> int:
    from .metrics import c_dab, c_polydisc

    if args.domain == "dab":
        d = DomainDab(args.a, args.b)
        _emit_json({"c": c_dab(d, tuple(args.z), tuple(args.w))})
    else:
        _emit_json({"c": c_polydisc(tuple(args.z), tuple(args.w))})
    return 0


def cmd_geodesic(args) -> int:
    from .metrics import dominant_permutation, geodesic_through, permuted_parameters

    d = DomainDab(args.a, args.b)
    z = tuple(args.z)
    if len(z) == 2:
        z = lift_to_M(d, z)
    perm = dominant_permutation(z)
    ap, bp = permuted_parameters(args.a, args.b, perm)
    zp = tuple(z[perm[j]] for j in range(3))
    cert = geodesic_through(ap, bp, zp, tol=args.tol_match, find_alternates=True)
    out = cert.to_json()
    out["permutation"] = [p + 1 for p in perm]
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
    report = lempert_verify(d, samples=args.samples, seed=args.seed, tol=args.tol_match)
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
        val = ball_mod.c_star_ball(args.w, args.z)
        _emit_json({"cstar": val, "distance": math.atanh(val)})
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
        on = ball_mod.boundary_modulus_locus(args.z, tol=args.tol_boundary)
        _emit_json({"on_locus": on})
    return 0


def cmd_sweep(args) -> int:
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
        if not d.interesting:
            if not args.allow_degenerate:
                raise GeodiscError(
                    f"grid cell ({a:.6g}, {b:.6g}) leaves the triangle-inequality "
                    "regime; pass --allow-degenerate to mark such cells"
                )
            return (idx, a, b, "retract-regime", 0, 0, "", "")
        rep = lempert_verify(
            d, samples=args.samples, seed=args.seed * 1000003 + idx, tol=args.tol_match
        )
        status = "ok" if rep.failures == 0 else "fail"
        return (idx, a, b, status, args.samples, rep.failures, rep.worst_match, rep.worst_residual)

    rows = [run_cell(c) for c in cells]
    header = ["index", "a", "b", "status", "samples", "failures", "worst_match", "worst_residual"]
    _emit_csv(header, rows)
    return 1 if any(r[3] == "fail" for r in rows) else 0


def cmd_plotdata(args) -> int:
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
                    im = (z2 * (1.0 - z1.conjugate())).imag
                    rows.append((z1.real, z1.imag, z2.real, z2.imag, im, int(abs(im) <= args.tol_boundary)))
        _emit_csv(["z1_re", "z1_im", "z2_re", "z2_im", "im_value", "on_locus"], rows)
    return 0


# let tokens like -0.625,0 parse as values rather than option strings
_NEG_VALUE = re.compile(r"^-\d|^-\.\d")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="geodisc", description=__doc__)
    p._negative_number_matcher = _NEG_VALUE
    sub = p.add_subparsers(dest="command", required=True)

    def add_tols(sp):
        sp.add_argument("--tol-residual", type=float, default=1e-10)
        sp.add_argument("--tol-match", type=float, default=MATCH_TOL)
        sp.add_argument("--tol-boundary", type=float, default=1e-9)

    sp = sub.add_parser("classify", help="triangle-inequality classification of a triple")
    sp.add_argument("--alpha", type=_complex, nargs=3, required=True)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("normalize", help="positive normal form and rotations")
    sp.add_argument("--alpha", type=_complex, nargs=3, required=True)
    sp.set_defaults(fn=cmd_normalize)

    sp = sub.add_parser("transport", help="image triple under a tridisc automorphism")
    sp.add_argument("--alpha", type=_complex, nargs=3, required=True)
    sp.add_argument("--perm", type=int, nargs=3, default=[1, 2, 3], help="1-based permutation")
    sp.add_argument("--nu", type=_complex, nargs=3, required=True, help="Mobius pole per slot")
    sp.add_argument(
        "--rotation", type=_complex, nargs=3, default=[complex(-1.0)] * 3,
        help="unimodular rotation per slot (default: identity maps)",
    )
    add_tols(sp)
    sp.set_defaults(fn=cmd_transport)

    sp = sub.add_parser("distance", help="invariant distance between two points")
    sp.add_argument("domain", choices=["dab", "polydisc"])
    sp.add_argument("--a", type=float)
    sp.add_argument("--b", type=float)
    sp.add_argument("--z", type=_complex, nargs="+", required=True)
    sp.add_argument("--w", type=_complex, nargs="+", required=True)
    sp.set_defaults(fn=cmd_distance)

    sp = sub.add_parser("geodesic", help="certificate geodesic through the origin and a point")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--z", type=_complex, nargs="+", required=True, help="domain pair or lifted triple")
    add_tols(sp)
    sp.set_defaults(fn=cmd_geodesic)

    sp = sub.add_parser("lens", help="lens corners and branch solutions")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--gamma", type=_complex, default=None)
    sp.set_defaults(fn=cmd_lens)

    sp = sub.add_parser("verify-lempert", help="sampled equality check of the extremal problems")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    add_tols(sp)
    sp.set_defaults(fn=cmd_verify_lempert)

    sp = sub.add_parser("convexity", help="linear-convexity witness quadratic roots")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.set_defaults(fn=cmd_convexity)

    sp = sub.add_parser("universal", help="universal-set distance or infinitesimal value")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--b", type=float, required=True)
    sp.add_argument("--z", type=_complex, nargs=2)
    sp.add_argument("--w", type=_complex, nargs=2)
    sp.add_argument("--at", type=_complex, nargs=2, default=None)
    sp.add_argument("--X", type=_complex, nargs=2, default=None)
    sp.set_defaults(fn=cmd_universal)

    sp = sub.add_parser("ball", help="unit-ball constructions")
    sp.add_argument("kind", choices=["cstar", "auto", "extremal", "F", "ft", "locus"])
    sp.add_argument("--z", type=_complex, nargs="+", default=None)
    sp.add_argument("--w", type=_complex, nargs="+", default=None)
    sp.add_argument("--base", type=_complex, nargs="+", default=None)
    sp.add_argument("--direction", type=_complex, nargs="+", default=None)
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--lam", type=_complex, default=0.0j)
    add_tols(sp)
    sp.set_defaults(fn=cmd_ball)

    sp = sub.add_parser("sweep", help="grid verification sweep, CSV output")
    sp.add_argument("--a-min", type=float, required=True)
    sp.add_argument("--a-max", type=float, required=True)
    sp.add_argument("--a-steps", type=int, default=5)
    sp.add_argument("--b-min", type=float, required=True)
    sp.add_argument("--b-max", type=float, required=True)
    sp.add_argument("--b-steps", type=int, default=5)
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--allow-degenerate", action="store_true")
    add_tols(sp)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("plotdata", help="CSV point clouds for external plotting")
    sp.add_argument("kind", choices=["lens", "arc", "indicatrix", "locus"])
    sp.add_argument("--a", type=float, default=0.8)
    sp.add_argument("--b", type=float, default=0.8)
    sp.add_argument("--gamma", type=_complex, default=0.0j)
    sp.add_argument("--n", type=int, default=64)
    add_tols(sp)
    sp.set_defaults(fn=cmd_plotdata)

    for sp in sub.choices.values():
        sp._negative_number_matcher = _NEG_VALUE
    return p


# options a subcommand needs for a given positional choice, which argparse's
# `required` cannot express
_NEEDS = {
    ("distance", "dab"): ("a", "b"),
    ("ball", "cstar"): ("z", "w"),
    ("ball", "auto"): ("base", "z"),
    ("ball", "extremal"): ("base", "direction"),
    ("ball", "F"): ("z",),
    ("ball", "locus"): ("z",),
}

# vector options that must have the same number of entries when given
_SAME_LENGTH = {
    ("distance", "dab"): ("z", "w"),
    ("distance", "polydisc"): ("z", "w"),
    ("ball", "cstar"): ("z", "w"),
    ("ball", "auto"): ("base", "z"),
    ("ball", "extremal"): ("base", "direction", "z"),
}


# subcommands whose --z has a fixed number of coordinates
_Z_LENGTH = {
    ("distance", "dab"): 2,
    ("ball", "F"): 2,
    ("ball", "locus"): 2,
}

# count options that must be at least 1 when present
_COUNTS = ("samples", "a_steps", "b_steps", "n")


def _argument_problem(args) -> str | None:
    """Why the parsed arguments cannot run, or None: the validation argparse
    leaves to the subcommand."""
    key = (args.command, getattr(args, "domain", None) or getattr(args, "kind", None))
    missing = [f"--{n}" for n in _NEEDS.get(key, ()) if getattr(args, n) is None]
    if args.command == "universal" and args.X is None:
        missing = [f"--{n}" for n in ("z", "w") if getattr(args, n) is None]
    if missing:
        return f"{' '.join(k for k in key if k)} requires {' and '.join(missing)}"
    if key in _Z_LENGTH and len(args.z) != _Z_LENGTH[key]:
        return f"{' '.join(key)} takes --z of {_Z_LENGTH[key]} coordinates"
    for name in _COUNTS:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            return f"--{name.replace('_', '-')} must be at least 1"
    if args.command == "geodesic" and len(args.z) not in (2, 3):
        return "geodesic --z takes a domain pair or a lifted triple"
    names = [n for n in _SAME_LENGTH.get(key, ()) if getattr(args, n) is not None]
    if len({len(getattr(args, n)) for n in names}) > 1:
        return f"{' '.join(key)}: {' and '.join('--' + n for n in names)} differ in length"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _argument_problem(args)
    if problem:
        parser.error(problem)
    try:
        return args.fn(args)
    except GeodiscError as exc:
        _emit_json({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
