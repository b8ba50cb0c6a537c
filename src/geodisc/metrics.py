"""Invariant-metric evaluators and geodesic certificates.

Distances from the origin on the variety of (a, b, 1) and on the planar-pair
domain reduce to coordinate maxima of disc distances; the certificate that
the maximum is attained is an explicit analytic disc through the target,
produced by inverting the tangent-to-point map with damped Gauss-Newton in
the lens coordinate.  Newton starts from the closed-form preimage
candidates; the deterministic lens grid is a fallback, built (once per lens)
only when those starts fail.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .discgeom import MATCH_TOL, MobiusMap, gamma_disc, rho
from .errors import (
    ConvergenceFailure,
    DomainError,
    EmptyLens,
    EvaluationOutOfDisc,
    NotInDomain,
    NotOnVariety,
    SamplingExhausted,
    Tangent,
    Infeasible,
)
from .geodesics import PLUS, MINUS, AnalyticDisc, Lens, phi_gamma, solve_omega_eta
from .varieties import Alpha, DomainDab, dab_contains, membership_residual
from .oracle import rng_for


def c_polydisc(z: Sequence[complex], w: Sequence[complex]) -> float:
    """Coordinate-max distance on the open polydisc."""
    if len(z) != len(w):
        raise DomainError("dimension mismatch")
    return max(rho(zi, wi) for zi, wi in zip(z, w))


def c_dab(d: DomainDab, z, w) -> float:
    """max of the disc distances of the three defining functions."""
    if not (dab_contains(d, z) and dab_contains(d, w)):
        raise NotInDomain("both points must lie in the domain")
    z1, z2 = complex(z[0]), complex(z[1])
    w1, w2 = complex(w[0]), complex(w[1])
    return max(rho(z1, w1), rho(z2, w2), rho(d.f(z1, z2), d.f(w1, w2)))


def kappa_dab_origin(d: DomainDab, X) -> float:
    """max{|X1|, |X2|, |a X1 + b X2|}: the infinitesimal metric at the origin."""
    X1, X2 = complex(X[0]), complex(X[1])
    return max(abs(X1), abs(X2), abs(d.a * X1 + d.b * X2))


def indicatrix_membership(d: DomainDab, X) -> bool:
    return kappa_dab_origin(d, X) < 1.0


def c_M_origin(a: float, b: float, z, tol: float = 1e-8) -> float:
    """max_j rho(0, z_j) for a point on the variety of (a, b, 1)."""
    alpha = Alpha(complex(a), complex(b), 1.0 + 0.0j)
    res = abs(membership_residual(alpha, tuple(z)))
    if res > tol:
        raise NotOnVariety(f"residual {res:.3e} exceeds {tol:.1e}")
    return max(rho(0.0j, complex(zj)) for zj in z)


def psi_x_forward(L: Lens, gamma1: complex, branch: str, x: complex) -> tuple[complex, complex]:
    """Slice coordinates of the tangent-(gamma,1) geodesic at parameter x."""
    if not 0.0 < abs(x) < 1.0:
        raise DomainError("x must satisfy 0 < |x| < 1")
    sols = solve_omega_eta(L, gamma1)
    sol = sols[0] if branch == PLUS else sols[1]
    g2 = L.gamma2(gamma1)
    return (MobiusMap(gamma1)(sol.omega * x), MobiusMap(g2)(sol.eta * x))


@dataclass(frozen=True)
class GeodesicCertificate:
    disc: AnalyticDisc
    param_at_target: complex
    residual: float
    caratheodory_value: float
    lempert_value: float
    gamma1: complex
    branch: str
    alternates: tuple = ()

    def to_json(self) -> dict:
        return {
            "disc": self.disc.to_json(),
            "param_at_target": [self.param_at_target.real, self.param_at_target.imag],
            "residual": self.residual,
            "caratheodory_value": self.caratheodory_value,
            "lempert_value": self.lempert_value,
            "gamma1": [self.gamma1.real, self.gamma1.imag],
            "branch": self.branch,
            "alternates": [
                {"branch": br, "gamma1": [g.real, g.imag]} for br, g in self.alternates
            ],
        }


def _forward_error(L: Lens, g: complex, branch: str, x: complex, t1: complex, t2: complex):
    try:
        p1, p2 = psi_x_forward(L, g, branch, x)
    except (Tangent, Infeasible, DomainError):
        return None
    return (p1 - t1, p2 - t2)


def _forward_error_mp(L: Lens, g: complex, branch: str, x, t1, t2, dps: int = 40):
    """High-precision mirror of the slice-map residual.

    Near the lens corners the double-precision pipeline has a noise floor of
    about 1e-8 (tiny r1, r2, q amplified through the Mobius factors), so the
    final digits of stiff inversions are evaluated in mpmath.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a, b = mp.mpf(L.a), mp.mpf(L.b)
        gm, xm = mp.mpc(g), mp.mpc(x)
        g2 = -(a * gm + 1) / b
        r1 = a * (1 - mp.re(gm * mp.conj(gm)))
        r2 = b * (1 - mp.re(g2 * mp.conj(g2)))
        q = a * g2 + b * gm + gm * g2
        aq = mp.fabs(q)
        if r1 <= 0 or r2 <= 0 or aq == 0:
            return None
        ct = (r1 * r1 + aq * aq - r2 * r2) / (2 * r1 * aq)
        if ct > 1 or ct < -1:
            return None
        st = mp.sqrt(1 - ct * ct)
        sign = 1 if branch == PLUS else -1
        u = -q / aq
        w = u * (ct + sign * 1j * st)
        e = (-q - r1 * w) / r2
        p1 = (gm - w * xm) / (1 - mp.conj(gm) * w * xm)
        p2 = (g2 - e * xm) / (1 - mp.conj(g2) * e * xm)
        d1, d2 = p1 - mp.mpc(t1), p2 - mp.mpc(t2)
        return (complex(d1), complex(d2))


def _compass_polish(L: Lens, g: complex, res: float, branch: str, x, t1, t2, tol):
    """Derivative-free descent for the last digits where the finite-difference
    Jacobian has run out of accuracy."""
    step = 1e-7
    while step > 1e-16 and res >= tol:
        moved = False
        for dg in (step, -step, 1j * step, -1j * step,
                   step * (1 + 1j), step * (1 - 1j), -step * (1 + 1j), -step * (1 - 1j)):
            e = _forward_error(L, g + dg, branch, x, t1, t2)
            if e is None:
                continue
            r = max(abs(e[0]), abs(e[1]))
            if r < res:
                g, res, moved = g + dg, r, True
                break
        if not moved:
            step *= 0.5
    return g, res


def _gauss_newton_mp(L: Lens, g0: complex, branch: str, x, t1, t2, tol, max_iter=25):
    """Gauss-Newton with the residual and Jacobian evaluated in mpmath.

    Used for preimages near the lens corners, where double precision cannot
    resolve residuals below about 1e-8.
    """
    h = 1e-9

    def err(gg):
        return _forward_error_mp(L, gg, branch, x, t1, t2)

    g = g0
    e = err(g)
    if e is None:
        return None, float("inf")
    res = max(abs(e[0]), abs(e[1]))
    for _ in range(max_iter):
        if res < tol:
            return g, res
        cols = []
        for dg in (h, 1j * h):
            ep, em = err(g + dg), err(g - dg)
            if ep is None or em is None:
                return g, res
            cols.append([(ep[k] - em[k]) / (2 * h) for k in range(2)])
        J = np.array(
            [
                [cols[0][0].real, cols[1][0].real],
                [cols[0][0].imag, cols[1][0].imag],
                [cols[0][1].real, cols[1][1].real],
                [cols[0][1].imag, cols[1][1].imag],
            ]
        )
        rhs = -np.array([e[0].real, e[0].imag, e[1].real, e[1].imag])
        step, *_ = np.linalg.lstsq(J, rhs, rcond=None)
        dgc = complex(step[0], step[1])
        scale = 1.0
        for _ in range(30):
            en = err(g + scale * dgc)
            if en is not None:
                rn = max(abs(en[0]), abs(en[1]))
                if rn < res:
                    g, e, res = g + scale * dgc, en, rn
                    break
            scale *= 0.5
        else:
            return g, res
    return g, res


def _gauss_newton(L: Lens, g0: complex, branch: str, x, t1, t2, tol, max_iter=80):
    """Damped Gauss-Newton on (Re g, Im g); central-difference Jacobian."""
    h = 1e-7
    g = g0
    err = _forward_error(L, g, branch, x, t1, t2)
    if err is None:
        return None, float("inf")
    res = max(abs(err[0]), abs(err[1]))
    for _ in range(max_iter):
        if res < tol:
            return g, res
        cols = []
        for dg in (h, 1j * h):
            ep = _forward_error(L, g + dg, branch, x, t1, t2)
            em = _forward_error(L, g - dg, branch, x, t1, t2)
            if ep is None or em is None:
                return g, res
            cols.append([(ep[k] - em[k]) / (2 * h) for k in range(2)])
        J = np.array(
            [
                [cols[0][0].real, cols[1][0].real],
                [cols[0][0].imag, cols[1][0].imag],
                [cols[0][1].real, cols[1][1].real],
                [cols[0][1].imag, cols[1][1].imag],
            ]
        )
        rhs = -np.array([err[0].real, err[0].imag, err[1].real, err[1].imag])
        step, *_ = np.linalg.lstsq(J, rhs, rcond=None)
        dgc = complex(step[0], step[1])
        # damping by halving until the residual drops
        scale = 1.0
        for _ in range(25):
            gn = g + scale * dgc
            errn = _forward_error(L, gn, branch, x, t1, t2)
            if errn is not None:
                resn = max(abs(errn[0]), abs(errn[1]))
                if resn < res:
                    g, err, res = gn, errn, resn
                    break
            scale *= 0.5
        else:
            break
    if tol <= res < 1e-4:
        g, res = _compass_polish(L, g, res, branch, x, t1, t2, tol)
    if tol <= res < 1e-5:
        g, res = _gauss_newton_mp(L, g, branch, x, t1, t2, tol)
    return g, res


def _h_circle(center: complex, s: float) -> tuple[complex, float]:
    """Euclidean center and radius of the hyperbolic circle of radius
    arctanh(s) around `center`."""
    den = 1.0 - s * s * abs(center) ** 2
    return center * (1.0 - s * s) / den, s * (1.0 - abs(center) ** 2) / den


def _intersection_candidates(L: Lens, x, t1, t2) -> list[complex]:
    """Closed-form preimage candidates from the two distance constraints.

    Each slice component sits at hyperbolic distance arctanh|x| from its
    lens parameter, so gamma1 lies on the intersection of one hyperbolic
    circle around t1 and the affine pullback of another around t2; these
    intersect in at most two points.
    """
    s = abs(x)
    c1, r1 = _h_circle(t1, s)
    c2, r2 = _h_circle(t2, s)
    # gamma2 = -(a gamma1 + 1)/b on circle(c2, r2) pulls back to a circle
    m2 = -(1.0 + L.b * c2) / L.a
    q2 = L.b * r2 / L.a
    d = abs(m2 - c1)
    if d < 1e-15:
        return []
    ct = (r1 * r1 + d * d - q2 * q2) / (2.0 * r1 * d)
    if abs(ct) > 1.0 + 1e-9:
        return []
    ct = min(1.0, max(-1.0, ct))
    st = math.sqrt(1.0 - ct * ct)
    u = (m2 - c1) / d
    return [c1 + r1 * u * complex(ct, st), c1 + r1 * u * complex(ct, -st)]


def _h_circle_search(L: Lens, branch: str, x, t1, t2, tol, grid: int = 720):
    """1-D inversion fallback along the hyperbolic circle around the target.

    The first component of the slice map sits at hyperbolic distance
    arctanh|x| from gamma1, so any preimage lies on the hyperbolic circle of
    that radius centered at t1.  Searching its Euclidean parametrization
    pins the stiff radial direction exactly and stays stable as |x| -> 1.
    """
    s = abs(x)
    denom = 1.0 - s * s * abs(t1) ** 2
    cE = t1 * (1.0 - s * s) / denom
    rE = s * (1.0 - abs(t1) ** 2) / denom

    def err(phi: float) -> float:
        g = cE + rE * complex(math.cos(phi), math.sin(phi))
        e = _forward_error(L, g, branch, x, t1, t2)
        if e is None:
            return float("inf")
        return max(abs(e[0]), abs(e[1]))

    vals = [(2.0 * math.pi * k / grid, err(2.0 * math.pi * k / grid)) for k in range(grid)]
    best_g, best_res = None, float("inf")
    for k in range(grid):
        pm, p0, pp = vals[k - 1], vals[k], vals[(k + 1) % grid]
        if not (math.isfinite(p0[1]) and p0[1] <= pm[1] and p0[1] <= pp[1]):
            continue
        lo = p0[0] - 2.0 * math.pi / grid
        hi = p0[0] + 2.0 * math.pi / grid
        # golden-section refinement of the local minimum
        gr = 0.5 * (math.sqrt(5.0) - 1.0)
        u, v = hi - gr * (hi - lo), lo + gr * (hi - lo)
        fu, fv = err(u), err(v)
        for _ in range(90):
            if hi - lo < 1e-15:
                break
            if fu <= fv:
                hi, v, fv = v, u, fu
                u = hi - gr * (hi - lo)
                fu = err(u)
            else:
                lo, u, fu = u, v, fv
                v = lo + gr * (hi - lo)
                fv = err(v)
        phi = u if fu <= fv else v
        res = min(fu, fv)
        if res < best_res:
            best_res = res
            best_g = cE + rE * complex(math.cos(phi), math.sin(phi))
        if best_res < tol:
            break
    return best_g, best_res


def geodesic_through(
    a: float,
    b: float,
    z,
    tol: float = MATCH_TOL,
    find_alternates: bool = False,
    multistart: int = 16,
) -> GeodesicCertificate:
    """Certificate geodesic through the origin and z on the variety of (a, b, 1).

    Requires the third coordinate to dominate in modulus (permute first).
    Inverts the slice map by damped Gauss-Newton over the lens coordinate,
    on each branch in turn.  Newton starts from the closed-form intersection
    candidates and the small-parameter limit gamma ~ z1/z3; only when none
    of these converges on a branch does it go on to `multistart` points of a
    deterministic lens grid, which is built then and cached per lens.
    Targets whose preimage hugs the lens boundary fall back to a
    one-dimensional search along the hyperbolic circle on which the
    preimage must lie.
    """
    z = tuple(complex(w) for w in z)
    alpha = Alpha(complex(a), complex(b), 1.0 + 0.0j)
    res0 = abs(membership_residual(alpha, z))
    if res0 > 1e-8:
        raise NotOnVariety(f"residual {res0:.3e}")
    z1, z2, x = z
    if abs(x) == 0.0:
        raise DomainError("target must differ from the origin")
    if abs(x) + 1e-15 < max(abs(z1), abs(z2)):
        raise DomainError("third coordinate must dominate; permute coordinates first")
    t1, t2 = z1 / x, z2 / x
    L = Lens(a, b)

    if not L.nonempty:
        raise EmptyLens(f"lens of ({L.a}, {L.b}) is empty")
    cheap: list[complex] = list(_intersection_candidates(L, x, t1, t2))
    if L.contains(t1, tol=1e-6):
        cheap.append(t1)

    def starts():
        yield from cheap
        # the lens grid is built (and cached per lens) only when a branch
        # gets past every closed-form start
        yield from L.interior_points(multistart, seed=11)

    best_res = float("inf")
    found: list[tuple[str, complex, float]] = []
    for branch in (PLUS, MINUS):
        for g0 in starts():
            g, res = _gauss_newton(L, g0, branch, x, t1, t2, tol)
            best_res = min(best_res, res)
            if g is not None and res < tol:
                found.append((branch, g, res))
                break
        if found and not find_alternates:
            break
    if not found:
        for branch in (PLUS, MINUS):
            g, res = _h_circle_search(L, branch, x, t1, t2, tol)
            best_res = min(best_res, res)
            if g is not None and res < tol:
                found.append((branch, g, res))
                break
    if not found:
        raise ConvergenceFailure(
            f"no lens preimage located; best residual {best_res:.3e}", best_residual=best_res
        )

    branch, g, res = found[0]
    disc = phi_gamma(L, g, branch)
    cval = max(rho(0.0j, w) for w in z)
    lval = rho(0.0j, x)
    return GeodesicCertificate(
        disc=disc,
        param_at_target=x,
        residual=res,
        caratheodory_value=cval,
        lempert_value=lval,
        gamma1=g,
        branch=branch,
        alternates=tuple((br, gg) for br, gg, _ in found[1:]),
    )


_PERMS_TO_THIRD = {0: (2, 1, 0), 1: (0, 2, 1), 2: (0, 1, 2)}


def dominant_permutation(z) -> tuple[int, int, int]:
    """Permutation placing the dominant-modulus coordinate third.

    Ties pick the largest index, so an already-dominant third slot stays put.
    """
    mods = [abs(complex(w)) for w in z]
    k = max(range(3), key=lambda i: (mods[i], i))
    return _PERMS_TO_THIRD[k]


def permuted_parameters(a: float, b: float, perm: tuple[int, int, int]) -> tuple[float, float]:
    """(a', b') of the variety after permuting coordinates of (a, b, 1)."""
    alpha = [a, b, 1.0]
    ap = [alpha[perm[0]], alpha[perm[1]], alpha[perm[2]]]
    return (ap[0] / ap[2], ap[1] / ap[2])


@dataclass(frozen=True)
class LempertReport:
    a: float
    b: float
    samples: int
    seed: int
    failures: int
    worst_match: float
    worst_residual: float
    failed: tuple = ()
    tolerance: float = MATCH_TOL

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "samples": self.samples,
            "seed": self.seed,
            "failures": self.failures,
            "worst_match": self.worst_match,
            "worst_residual": self.worst_residual,
            "failed": list(self.failed),
            "tolerance": self.tolerance,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


SAMPLE_DRAWS = 100_000


def _sample_dab(d: DomainDab, seed: int, index: int) -> tuple[complex, complex]:
    rng = rng_for(seed, index)
    for _ in range(SAMPLE_DRAWS):
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z1) >= 0.995 or abs(z2) >= 0.995:
            continue
        if abs(d.a * z2 + d.b * z1 - 1.0) < 1e-6:
            continue
        if dab_contains(d, (z1, z2)):
            return (z1, z2)
    raise SamplingExhausted(f"no point of D({d.a}, {d.b}) in {SAMPLE_DRAWS} draws")


def _verify_one(d: DomainDab, seed: int, index: int, tol: float):
    w = _sample_dab(d, seed, index)
    lifted = (w[0], w[1], d.f(w[0], w[1]))
    perm = dominant_permutation(lifted)
    ap, bp = permuted_parameters(d.a, d.b, perm)
    zp = tuple(lifted[perm[j]] for j in range(3))
    try:
        cert = geodesic_through(ap, bp, zp, tol=tol)
    except (ConvergenceFailure, NotOnVariety, DomainError) as exc:
        best = getattr(exc, "best_residual", float("nan"))
        return (index, False, float("nan"), best, f"{type(exc).__name__}: {exc}")
    c = c_dab(d, (0.0j, 0.0j), w)
    match = abs(c - cert.lempert_value)
    ok = match < tol and cert.residual < tol
    return (index, ok, match, cert.residual, "" if ok else "tolerance exceeded")


def lempert_verify(
    d: DomainDab,
    samples: int,
    seed: int,
    tol: float = MATCH_TOL,
) -> LempertReport:
    """Sampled equality check of the two extremal problems on the domain.

    Each sample draws a point, lifts it to the variety, constructs the
    geodesic through the origin, and compares the coordinate-max distance
    against the disc-parameter distance.  Each sample is seeded by its index.
    """
    if not d.interesting:
        raise DomainError("verification needs the triangle-inequality regime")
    rows = [_verify_one(d, seed, i, tol) for i in range(samples)]
    failures = [r for r in rows if not r[1]]
    finite_match = [r[2] for r in rows if math.isfinite(r[2])]
    finite_res = [r[3] for r in rows if math.isfinite(r[3])]
    return LempertReport(
        a=d.a,
        b=d.b,
        samples=samples,
        seed=seed,
        failures=len(failures),
        worst_match=max(finite_match) if finite_match else float("nan"),
        worst_residual=max(finite_res) if finite_res else float("nan"),
        failed=tuple(
            {"index": r[0], "match": r[2], "residual": r[3], "reason": r[4]} for r in failures
        ),
        tolerance=tol,
    )


@dataclass(frozen=True)
class UniversalMember:
    """Scalar disc-valued function with an exact gradient contract."""

    name: str
    value: Callable
    gradient: Callable

    def __call__(self, z):
        return self.value(z)


@dataclass(frozen=True)
class UniversalSet:
    members: tuple[UniversalMember, ...]
    domain: str

    def __post_init__(self):
        if not self.members:
            raise DomainError("universal set must be nonempty")


def dab_universal_set(d: DomainDab) -> UniversalSet:
    """The three defining functions with closed-form gradients."""
    members = (
        UniversalMember("z1", lambda z: complex(z[0]), lambda z: (1.0 + 0.0j, 0.0j)),
        UniversalMember("z2", lambda z: complex(z[1]), lambda z: (0.0j, 1.0 + 0.0j)),
        UniversalMember(
            "f_ab",
            lambda z: d.f(complex(z[0]), complex(z[1])),
            lambda z: d.f_gradient(complex(z[0]), complex(z[1])),
        ),
    )
    return UniversalSet(members=members, domain=f"D({d.a},{d.b})")


def compose_with_mobius(member: UniversalMember, m: MobiusMap) -> UniversalMember:
    """Post-composition with a disc automorphism; gradients by the chain rule."""

    def value(z):
        return m(member.value(z))

    def gradient(z):
        w = member.value(z)
        dm = m.rotation * (abs(m.nu) ** 2 - 1.0) / (1.0 - m.nu.conjugate() * w) ** 2
        return tuple(dm * g for g in member.gradient(z))

    return UniversalMember(f"{member.name}|mobius", value, gradient)


def universal_embed(U: UniversalSet, points: Sequence) -> list[tuple[complex, ...]]:
    """Componentwise evaluation into the polydisc, with injectivity spot-check."""
    images = []
    for p in points:
        img = tuple(member(p) for member in U.members)
        for v in img:
            if abs(v) >= 1.0:
                raise EvaluationOutOfDisc(f"member value {v!r} left the disc at {p!r}")
        images.append(img)
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if max(abs(u - v) for u, v in zip(images[i], images[j])) < 1e-14:
                raise DomainError(f"embedding collision between points {i} and {j}")
    return images


def universal_c(U: UniversalSet, z, w) -> float:
    best = 0.0
    for member in U.members:
        vz, vw = member(z), member(w)
        if abs(vz) >= 1.0 or abs(vw) >= 1.0:
            raise EvaluationOutOfDisc(f"member {member.name} left the disc")
        best = max(best, rho(vz, vw))
    return best


def universal_gamma(U: UniversalSet, z, X) -> float:
    best = 0.0
    for member in U.members:
        vz = member(z)
        if abs(vz) >= 1.0:
            raise EvaluationOutOfDisc(f"member {member.name} left the disc")
        push = sum(g * complex(x) for g, x in zip(member.gradient(z), X))
        best = max(best, gamma_disc(vz, push))
    return best


def linear_convexity_quadratic(d: DomainDab) -> tuple[complex, complex, bool]:
    """Roots of b w^2 - (b^2 + 1 - a^2) w + b and their unimodularity flag."""
    roots = np.roots([d.b, -(d.b**2 + 1.0 - d.a**2), d.b])
    r1, r2 = complex(roots[0]), complex(roots[1])
    uni = all(abs(abs(r) - 1.0) < 1e-10 for r in (r1, r2))
    return (r1, r2, uni)
