"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import cmath
import contextlib
import io
import json
import math
import time

import numpy as np

from geodisc import ball as ball_mod
from geodisc.cli import main as cli_main
from geodisc.discgeom import Quadratic, rho, schur_roots_outside
from geodisc.errors import Tangent
from geodisc.geodesics import (
    MINUS,
    PLUS,
    AnalyticDisc,
    Lens,
    admissibility_margin,
    admissible_arc,
    arc_contains,
    phi_gamma,
    solvability_gaps,
    solve_omega_eta,
)
from geodisc.metrics import (
    MATCH_TOL,
    _sample_dab,
    dab_universal_set,
    c_dab,
    compose_with_mobius,
    dominant_permutation,
    geodesic_through,
    kappa_dab_origin,
    lempert_verify,
    linear_convexity_quadratic,
    permuted_parameters,
    universal_c,
    universal_gamma,
    UniversalSet,
)
from geodisc.discgeom import MobiusMap
from geodisc.oracle import quadratic_roots, rng_for, surface_samples, _sample_ball
from geodisc.varieties import (
    Alpha,
    DomainDab,
    TridiscAutomorphism,
    classify,
    lift_to_M,
    membership_residual,
    transport,
)


@contextlib.contextmanager
def criterion(num, title):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL — {title} [{time.time() - t0:.1f}s]")
        raise
    print(f"ACCEPTANCE {num}: PASS — {title} [{time.time() - t0:.1f}s]")


def _rand_interesting(rng, lo=0.35, hi=1.6):
    while True:
        a = float(rng.uniform(lo, hi))
        b = float(rng.uniform(lo, hi))
        if abs(a - b) < 0.96 and a + b > 1.04:
            return a, b


def _rand_lens_point(L, rng, margin=0.01):
    for _ in range(10000):
        g = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(g) < 1 - margin and abs(L.a * g + 1) < L.b - margin:
            return g
    raise RuntimeError("lens sampling failed")


def test_criterion_1_geodesic_family():
    with criterion(1, "geodesic family correctness"):
        t0 = time.time()
        rng = rng_for(1001, 0)
        for trial in range(1000):
            a, b = _rand_interesting(rng)
            L = Lens(a, b)
            g1 = _rand_lens_point(L, rng)
            g2 = L.gamma2(g1)
            r1 = a * (1 - abs(g1) ** 2)
            r2 = b * (1 - abs(g2) ** 2)
            q = a * g2 + b * g1 + g1 * g2
            alpha = Alpha(a, b, 1.0)
            for branch, sol in zip((PLUS, MINUS), solve_omega_eta(L, g1)):
                assert abs(abs(sol.omega) - 1.0) < 1e-12
                assert abs(abs(sol.eta) - 1.0) < 1e-12
                assert abs(r1 * sol.omega + r2 * sol.eta + q) < 1e-12
                disc = phi_gamma(L, g1, branch)
                worst = 0.0
                for k in range(64):
                    lam = 0.97 * cmath.exp(2j * math.pi * k / 64) * ((k % 8 + 1) / 8.3)
                    worst = max(worst, abs(membership_residual(alpha, disc(lam))))
                assert worst < 1e-10
        assert time.time() - t0 < 10.0


def test_criterion_2_inequality_chain():
    with criterion(2, "two-sided solvability inequality and boundary gap decay"):
        rng = rng_for(1002, 0)
        for trial in range(1000):
            a, b = _rand_interesting(rng)
            L = Lens(a, b)
            g1 = _rand_lens_point(L, rng)
            lo_gap, hi_gap = solvability_gaps(L, g1)
            assert lo_gap > 0.0
            assert hi_gap > 0.0
        # right gap decays monotonically along radial paths to the boundary
        for path_idx in range(10):
            a, b = _rand_interesting(rng)
            L = Lens(a, b)
            anchor_lo = max(-1.0, (-1.0 - b) / a)
            anchor_hi = (b - 1.0) / a
            anchor = complex(0.5 * (anchor_lo + anchor_hi), 0.0)
            assert L.contains(anchor)
            boundary = L.boundary_points(16)[1 + path_idx % 14][1]
            gaps = []
            for t in (0.0, 0.3, 0.6, 0.8, 0.9, 0.96, 0.99, 0.999):
                g = anchor + t * (boundary - anchor)
                gaps.append(solvability_gaps(L, g)[1])
            assert all(gaps[i] > gaps[i + 1] - 1e-12 for i in range(len(gaps) - 1))
            assert gaps[-1] < 2e-2 * gaps[0]


def test_criterion_3_desk_scale_lempert():
    with criterion(3, "desk-scale equality of the two extremal problems"):
        t0 = time.time()
        subset = rng_for(1003, 0).choice(500, size=20, replace=False)
        for a in (0.65, 0.8, 0.95):
            for b in (0.65, 0.8, 0.95):
                d = DomainDab(a, b)
                rep = lempert_verify(d, samples=500, seed=2024)
                assert rep.failures == 0, rep.failed
                assert rep.worst_residual < 1e-9
                # the disc each sample got, read back from its JSON, meets the
                # sample's lift at param_at_target: evaluated by the disc's own
                # rational maps, not by the closed form geodesic_through checks
                for i in subset:
                    z = lift_to_M(d, _sample_dab(d, 2024, int(i)))
                    cert = geodesic_through(a, b, z)
                    disc = AnalyticDisc.from_json(json.loads(json.dumps(cert.disc.to_json())))
                    assert max(abs(u - v) for u, v in zip(disc(cert.param_at_target), z)) <= MATCH_TOL
        assert time.time() - t0 < 60.0


def test_criterion_4_kappa_equals_gamma_at_origin():
    with criterion(4, "infinitesimal metrics meet the max formula at the origin"):
        rng = rng_for(1004, 0)
        done = 0
        while done < 1000:
            a, b = _rand_interesting(rng)
            d = DomainDab(a, b)
            X = (
                complex(rng.normal(), rng.normal()),
                complex(rng.normal(), rng.normal()),
            )
            lifted = (X[0], X[1], -(a * X[0] + b * X[1]))
            mods = sorted(abs(w) for w in lifted)
            if mods[2] - mods[1] < 1e-6 * mods[2]:  # near-tie: tangent case
                continue
            formula = kappa_dab_origin(d, X)
            lower = universal_gamma(dab_universal_set(d), (0.0, 0.0), X)
            perm = dominant_permutation(lifted)
            ap, bp = permuted_parameters(a, b, perm)
            Y = tuple(lifted[perm[j]] for j in range(3))
            g1 = Y[0] / Y[2]
            L = Lens(ap, bp)
            assert L.contains(g1)
            try:
                disc = phi_gamma(L, g1, PLUS)  # certifies the upper bound
            except Tangent:
                continue
            upper = abs(Y[2])
            assert abs(upper - formula) <= 1e-10 * max(1.0, formula)
            assert abs(lower - formula) <= 1e-10 * max(1.0, formula)
            done += 1


def test_criterion_5_schur_criterion_and_arcs():
    with criterion(5, "Schur criterion vs root oracle; admissible arcs"):
        rng = rng_for(1005, 0)
        checked = 0
        for _ in range(100000):
            q = Quadratic(
                complex(rng.uniform(-10, 10), rng.uniform(-10, 10)),
                complex(rng.uniform(-10, 10), rng.uniform(-10, 10)),
                complex(rng.uniform(-10, 10), rng.uniform(-10, 10)),
            )
            roots = quadratic_roots(q)
            if any(abs(abs(r) - 1.0) <= 1e-9 for r in roots):
                continue
            checked += 1
            assert schur_roots_outside(q) == all(abs(r) > 1.0 for r in roots)
        assert checked > 99000
        # admissible arcs: nonempty and open for lens points, pointwise agreement
        for _ in range(200):
            a, b = _rand_interesting(rng)
            L = Lens(a, b)
            g = _rand_lens_point(L, rng)
            arcs = admissible_arc(L, g)
            total = sum(hi - lo for lo, hi in arcs)
            assert 0.0 < total < 2.0 * math.pi
            for _ in range(1000):
                th = float(rng.uniform(0.0, 2.0 * math.pi))
                margin = admissibility_margin(L, g, cmath.exp(1j * th))
                if abs(margin) < 1e-10:
                    continue
                assert arc_contains(arcs, th) == (margin > 0.0)


def test_criterion_6_automorphism_transport():
    with criterion(6, "automorphism transport preserves membership and class"):
        rng = rng_for(1006, 0)
        for trial in range(200):
            while True:
                coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
                if min(abs(c) for c in coeffs) > 0.1:
                    break
            alpha = Alpha(*coeffs)
            base = surface_samples(alpha, 1, seed=trial)[0]
            perm = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0)][
                int(rng.integers(6))
            ]
            maps = tuple(
                MobiusMap(base[p], cmath.exp(2j * math.pi * rng.uniform())) for p in perm
            )
            m = TridiscAutomorphism(perm=perm, maps=maps)
            beta = transport(alpha, m)
            worst = 0.0
            for z in surface_samples(alpha, 200, seed=trial + 7000):
                worst = max(worst, abs(membership_residual(beta, m(z))))
            assert worst < 1e-10
            assert classify(beta).retract == classify(alpha).retract


def test_criterion_7_linear_convexity_witness():
    with criterion(7, "non-linear-convexity witness roots"):
        rng = rng_for(1007, 0)
        for _ in range(100):
            a, b = _rand_interesting(rng)
            r1, r2, uni = linear_convexity_quadratic(DomainDab(a, b))
            assert uni
            assert abs(abs(r1) - 1.0) < 1e-10 and abs(abs(r2) - 1.0) < 1e-10
        for _ in range(100):
            while True:
                a = float(rng.uniform(0.05, 0.9))
                b = float(rng.uniform(0.05, 0.9))
                if a + b < 0.99:
                    break
            r1, r2, uni = linear_convexity_quadratic(DomainDab(a, b))
            assert not uni
            assert abs(abs(r1) - 1.0) > 1e-10 or abs(abs(r2) - 1.0) > 1e-10


def test_criterion_8_ball_constructions():
    with criterion(8, "ball constructions: involution, isometry, extremals, locus"):
        t0 = time.time()
        rng = rng_for(1008, 0)

        def rand_ball(n, radius=0.95):
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            return v * (radius * float(rng.uniform()) ** 0.25 / max(np.linalg.norm(v), 1e-12))

        # involution on 10^4 pairs in dimensions 2 and 3
        for i in range(10000):
            n = 2 if i % 2 == 0 else 3
            a, z = rand_ball(n), rand_ball(n)
            w = ball_mod.ball_automorphism(a, z)
            assert np.linalg.norm(ball_mod.ball_automorphism(a, w) - z) < 1e-12

        # isometry of the distance formula under automorphisms
        for _ in range(10000):
            a, w, z = rand_ball(2), rand_ball(2), rand_ball(2)
            lhs = ball_mod.c_star_ball(
                ball_mod.ball_automorphism(a, w), ball_mod.ball_automorphism(a, z)
            )
            assert abs(lhs - ball_mod.c_star_ball(w, z)) < 1e-10

        # extremal certificate over random lines
        done = 0
        while done < 10000:
            base = rand_ball(2, radius=0.6)
            dvec = rng.normal(size=2) + 1j * rng.normal(size=2)
            line = ball_mod.ComplexLine(base=tuple(base), direction=tuple(dvec))
            psi = ball_mod.psi_l(line)
            foot = np.asarray(psi.minimal_point)
            pts = []
            while len(pts) < 2:
                lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                p = foot + lam * np.asarray(line.direction)
                if np.linalg.norm(p) < 0.99:
                    pts.append(p)
            got = rho(psi(pts[0]), psi(pts[1]))
            want = math.atanh(ball_mod.c_star_ball(pts[0], pts[1]))
            assert abs(got - want) < 1e-9
            done += 1

        # one scalar map inverts the whole geodesic fan up to automorphism
        for t in (0.0, 0.5, 1.0, 2.0, 10.0):
            for _ in range(64):
                l1 = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
                l2 = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
                if abs(l1) >= 0.97 or abs(l2) >= 0.97:
                    continue
                lhs = rho(
                    ball_mod.F_left_inverse(ball_mod.f_t_geodesic(t, l1)),
                    ball_mod.F_left_inverse(ball_mod.f_t_geodesic(t, l2)),
                )
                assert abs(lhs - rho(l1, l2)) < 1e-10

        # fan stays inside the ball
        for _ in range(10000):
            t = float(rng.uniform(-5, 5))
            lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(lam) > 1 - 1e-6:
                continue
            assert np.linalg.norm(ball_mod.f_t_geodesic(t, lam)) < 1.0

        # boundary locus agreement except near the indeterminacy point
        for _ in range(10000):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            z = v / np.linalg.norm(v)
            if min(abs(z[1]), abs(1.0 - z[0])) < 1e-6:
                continue
            on = ball_mod.boundary_modulus_locus(z)
            dev = abs(ball_mod.boundary_modulus(z) - 1.0)
            if on:
                assert dev < 1e-8
            else:
                assert dev > 1e-14
        assert time.time() - t0 < 20.0


def test_criterion_9_universal_set_consistency():
    with criterion(9, "three-member universal set is coherent and stable"):
        rng = rng_for(1009, 0)
        d = DomainDab(0.8, 0.8)
        U = dab_universal_set(d)
        extra = []
        while len(extra) < 50:
            nu = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            if abs(nu) >= 0.9:
                continue
            m = MobiusMap(nu, cmath.exp(2j * math.pi * rng.uniform()))
            extra.append(compose_with_mobius(U.members[int(rng.integers(3))], m))
        U_big = UniversalSet(members=U.members + tuple(extra))
        from geodisc.metrics import _sample_dab

        for i in range(1000):
            z = _sample_dab(d, 90, 2 * i)
            w = _sample_dab(d, 90, 2 * i + 1)
            assert universal_c(U, z, w) == c_dab(d, z, w)
            assert abs(universal_c(U_big, z, w) - universal_c(U, z, w)) <= 1e-12


def test_criterion_10_determinism():
    with criterion(10, "byte-identical reports under fixed seeds"):
        d = DomainDab(0.8, 0.8)
        r1 = lempert_verify(d, samples=100, seed=5).dumps()
        r2 = lempert_verify(d, samples=100, seed=5).dumps()
        assert r1 == r2

        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv)
            return code, buf.getvalue()

        args = [
            "sweep", "--a-min", "0.7", "--a-max", "0.9", "--a-steps", "3",
            "--b-min", "0.7", "--b-max", "0.9", "--b-steps", "3",
            "--samples", "20", "--seed", "17",
        ]
        c1, out1 = run(args)
        c2, out2 = run(args)
        assert c1 == c2 == 0
        assert out1 == out2

        vargs = ["verify-lempert", "--a", "0.8", "--b", "0.8", "--samples", "60", "--seed", "9"]
        _, v1 = run(vargs)
        _, v2 = run(vargs)
        assert v1 == v2
