"""Invariant-metric evaluators and geodesic certificates.

Distances from the origin on the variety of (a, b, 1) and on the planar-pair
domain reduce to coordinate maxima of disc distances; the certificate that
the maximum is attained is an explicit analytic disc through the target.
Its tangent parameter is one of at most two closed-form preimage candidates,
computed with its unimodular pair in unknowns scaled by the target, so that
no digits cancel however near the origin the target lies; no iterative
search is involved.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from collections.abc import Sequence

from .discgeom import (MobiusMap, _distance, _in_float_range, _out_of_range, _require_finite, _residual_within,
                       gamma_disc, require_disc_point, rho)
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
from .geodesics import (
    PLUS,
    MINUS,
    Lens,
    OmegaEta,
    _ik_data,
    phi_gamma,
    solve_omega_eta,
)
from .varieties import DomainDab, _dab_lift, _membership, dab_contains

# `geodesic_through`'s default bound on the miss at z in each coordinate; the
# residual is gated by `_certify_disc` alone, on `discgeom._residual_within`
MATCH_TOL = 1e-9


def c_polydisc(z: Sequence[complex], w: Sequence[complex]) -> float:
    """Coordinate-max distance on the open polydisc."""
    if len(z) != len(w):
        raise DomainError("dimension mismatch")
    if len(z) == 0:
        raise DomainError("expected points of dimension at least 1")
    return max(rho(zi, wi) for zi, wi in zip(z, w))


def _pair(v, what: str) -> tuple[complex, complex]:
    """v as a pair of complex numbers, else DomainError: a point or tangent
    vector of D(a, b) has two coordinates."""
    try:
        v1, v2 = v
        return complex(v1), complex(v2)
    except (TypeError, ValueError):
        raise DomainError(f"{what} {v!r} is not a pair of complex numbers") from None


def c_dab(d: DomainDab, z, w) -> float:
    """max of the disc distances of the three defining functions."""
    zl = _dab_lift(d, z)
    wl = _dab_lift(d, w) if zl else None
    if wl is None:
        raise NotInDomain("both points must lie in the domain")
    # rho of each lifted coordinate, which _dab_lift has checked
    return max(_distance(zl[0], wl[0]), _distance(zl[1], wl[1]), _distance(zl[2], wl[2]))


@_in_float_range
def kappa_dab_origin(d: DomainDab, X) -> float:
    """max{|X1|, |X2|, |a X1 + b X2|}: the infinitesimal metric at the origin."""
    X1, X2 = X = _pair(X, "tangent vector")
    _require_finite(X, "tangent vector")
    # the sum first: max keeps a NaN only in its first place
    return max(abs(d.a * X1 + d.b * X2), abs(X1), abs(X2))


class GeodesicCertificate(
    namedtuple(
        "GeodesicCertificate",
        "disc param_at_target residual lempert_value gamma1 branch alternates",
        defaults=((),),
    )
):
    """A disc through the origin and, within `tol` of `geodesic_through`,
    the target, which it meets at param_at_target.

    `lempert_value` is arctanh|param_at_target|; the parameter is the
    target's dominant coordinate, so this is also the Caratheodory value.
    `residual` is the relative inverse-kinematics residual
    |r1 omega + r2 eta + q| / |q| of the disc's pair, and `phi_gamma` has
    certified in closed form that the disc lies in M: the residual
    coefficients are at most `geodesics.RESIDUAL_TOL` |q| plus 8 eps times
    the sum of the moduli of their terms (`discgeom._residual_within`), so
    `residual` itself can exceed RESIDUAL_TOL by rounding on a thin lens.
    `alternates` lists (branch, gamma1) of the other candidates whose discs
    certify.  A named tuple: it compares equal to the plain tuple of its
    fields.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        disc, x, residual, l_value, g, branch, alternates = self
        # a plain loop: CPython 3.11 makes a frame for each comprehension, even
        # over no alternates (PEP 709 inlines them from 3.12 on)
        alts = []
        for br, gg in alternates:
            alts.append({"branch": br, "gamma1": [gg.real, gg.imag]})
        return {
            "disc": disc.to_json(),
            "param_at_target": [x.real, x.imag],
            "residual": residual,
            "lempert_value": l_value,
            "gamma1": [g.real, g.imag],
            "branch": branch,
            "alternates": alts,
        }


def _intersection_candidates(L: Lens, z1: complex, x: complex) -> list[tuple[complex, complex, complex]]:
    """Closed-form preimage candidates (gamma1, omega, eta), gamma1 inside
    the lens, for the target with first and third coordinates z1 and x.

    The unknowns are u = (gamma1 - t1)/x and v = (gamma2 - t2)/x, with
    t1 = z1/x and t2 = z2/x at the point (z1, z2, x) of M, so that each
    pair is exact on M; where b - z1 - a x = 0 there is no such point and
    no candidate.  Each slice component sits at hyperbolic distance
    arctanh|x| from its lens parameter: |omega| = 1 for
    omega = u / (1 - conj(gamma1) t1), that is u on the circle around
    -t1 conj(x) R1 of radius R1 = p1 / (1 - |x t1|^2), p1 = 1 - |t1|^2;
    and v on the same circle of t2, with eta = v / (1 - conj(gamma2) t2).
    Each denominator is p - conj(x u) t with the p of its circle, so
    |omega| = |eta| = 1 hold to rounding even where p has lost digits
    (|t| near 1).  The lens line gamma2 = -(a gamma1 + 1)/b is
    v = e - (a/b) u with e = -(t1 t2 + b t1 + a t2)/b, the surface equation
    divided by x, so nothing cancels.  The circles meet in at most two
    points, read on the smaller one and listed once each (equal u is one
    point).  The cosine of their angle is clamped to [-1, 1], so circles
    that rounding sets a hair apart near tangency still give their nearest
    point, which the caller certifies like any other.  A circle degenerates
    to a point when |t1| or |t2| is 1, and there is no candidate.
    """
    a, b = L.a, L.b
    den = b - z1 - a * x
    if not den:
        return []
    t1 = z1 / x
    t2 = (b * z1 - a * t1 - 1.0) / den
    ss = abs(x) ** 2
    tt1, tt2 = abs(t1) ** 2, abs(t2) ** 2
    p1, p2 = 1.0 - tt1, 1.0 - tt2
    r1, r2 = p1 / (1.0 - ss * tt1), p2 / (1.0 - ss * tt2)
    if not (r1 > 0.0 and r2 > 0.0):
        return []
    xc = x.conjugate()
    k = a / b
    e = -(t1 * t2 + b * t1 + a * t2) / b
    # the smaller circle (c, r) and the other (co, ro), in the smaller one's plane
    on_u = k * r1 <= r2
    if on_u:
        c, r, co, ro = -t1 * xc * r1, r1, (e + t2 * xc * r2) / k, r2 / k
    else:
        c, r, co, ro = -t2 * xc * r2, r2, e + k * (t1 * xc * r1), k * r1
    d = abs(co - c)
    if not d > 0.0:
        return []
    ct = min(1.0, max(-1.0, (r * r + d * d - ro * ro) / (2.0 * r * d)))
    st = math.sqrt(1.0 - ct * ct)
    n = r * (co - c) / d
    out, prev = [], None
    for w in (c + n * complex(ct, st), c + n * complex(ct, -st)):
        u, v = (w, e - k * w) if on_u else ((e - w) / k, w)
        if u == prev:
            break
        prev = u
        xu = x * u
        g = t1 + xu
        if L.contains(g):
            out.append((g, u / (p1 - xu.conjugate() * t1), v / (p2 - (x * v).conjugate() * t2)))
    return out


def geodesic_through(
    a: float,
    b: float,
    z,
    tol: float = MATCH_TOL,
    find_alternates: bool = False,
) -> GeodesicCertificate:
    """Certificate geodesic through the origin and z on the variety of (a, b, 1).

    a and b are checked first, by `Lens` (DomainError unless positive and
    finite).  z is any point of the surface; it is checked once, here: a
    finite point of the open tridisc (DomainError) on the surface
    (NotOnVariety unless the residual of the defining equation of (a, b, 1)
    at z itself, before any permutation, passes
    `discgeom._residual_within(|residual|, 1e-8, min(1, S), S)`, S the sum
    of the moduli of its six terms from `varieties._membership`: at most
    1e-8 min(1, S) + 8 eps S); then z = 0 raises DomainError and an empty
    Lens(a, b) EmptyLens.  The construction needs the dominant coordinate
    third, so unless |z3| >= |z1|, |z2| it runs on the point and lens
    permuted by `dominant_permutation` (ties to the larger index) and
    `permuted_parameters`, and the disc's components are put back in z's own
    order: disc(param_at_target) = z within `tol`.  `gamma1`, `branch`,
    `alternates` and `disc.params` refer to the permuted lens, and the
    value is rho(0, x) = arctanh|x| of the dominant x.  The preimage is
    closed form: `_intersection_candidates` gives at most two
    tangent parameters gamma1 inside the lens, each with its unimodular pair
    (omega, eta), computed in unknowns scaled by x so that nothing cancels
    as x tends to 0, and exact on M.  They are ranked by one comparison:
    plus branch first, by the sign of each pair against its q from
    `_ik_data`, then the smaller relative inverse-kinematics (IK) residual
    |r1 omega + r2 eta + q| / |q|, and in the order found on a tie.  The
    residual is computed only where it is read: for two candidates of one
    sign (no target is known to give them), for the returned candidate,
    and for a failure's best residual.  The first whose disc `phi_gamma`
    certifies in closed form
    (`_certify_disc`: the pair unimodular and both residual coefficients at
    most RESIDUAL_TOL |q| plus their rounding, 8 eps times the sum of their
    term moduli) and whose value at x is within `tol` of z in
    every coordinate is the answer: x is met exactly and z1 to rounding, z2
    only to within z's own membership residual.  Its pair is labelled by
    comparing its distances |omega - omega_s| + |eta - eta_s| to the two
    exact `solve_omega_eta` solutions s: minus when the minus solution is
    strictly nearer, else plus; by its own sign where the two coalesce
    (Tangent).  With `find_alternates`, every other candidate that passes
    the same tests is listed as an alternate.  The certificate's `residual`
    is the IK residual of its pair.  Raises ConvergenceFailure when no
    candidate passes.
    """
    L = Lens(a, b)  # a and b positive and finite
    z1, z2, x = z
    z = z1, z2, x = complex(z1), complex(z2), complex(x)
    try:
        m1, m2, mx = abs(z1), abs(z2), abs(x)
    except OverflowError:  # a modulus beyond the float range
        m1 = m2 = mx = math.inf
    # false for NaN and infinity: require_disc_point diagnoses a failure
    if not (m1 < 1.0 and m2 < 1.0 and mx < 1.0):
        for w in z:
            require_disc_point(w)
    # the defining equation of (a, b, 1) in z's own coordinates: after a
    # permutation it would be divided by the moved coefficient
    res, S = _membership(a, b, 1.0, z1, z2, x)
    if not _residual_within(abs(res), 1e-8, min(1.0, S), S):
        raise NotOnVariety(f"residual {abs(res):.3e}")
    if not (m1 or m2 or mx):
        raise DomainError("target must differ from the origin")
    # decided on z's own lens: a permuted lens is rescaled and can round the other way
    if not L.nonempty:
        raise EmptyLens(f"lens of ({L.a}, {L.b}) is empty")
    perm = None
    if not (mx >= m1 and mx >= m2):
        # the dominant coordinate goes third; each permutation is its own inverse
        perm = dominant_permutation(z)
        L = Lens(*permuted_parameters(a, b, perm))
        z = z1, z2, x = z[perm[0]], z[perm[1]], z[perm[2]]

    ranked = []  # (minus, gamma1, gamma2, omega, eta, r1, r2, q): plus first, then the smaller residual
    for g, omega, eta in _intersection_candidates(L, z1, x):
        g2, r1, r2, q = _ik_data(L, g)
        # solve_omega_eta's convention: plus turns positively from -q to r1 omega
        minus = not (omega * -q.conjugate()).imag > 0.0
        cand = (minus, g, g2, omega, eta, r1, r2, q)
        if ranked and (minus < ranked[0][0] or minus == ranked[0][0]
                       and _ik_residual(*cand[3:]) < _ik_residual(*ranked[0][3:])):
            ranked.insert(0, cand)
        else:
            ranked.append(cand)
    certified = []  # (candidate, branch, disc) of each disc that certifies and passes z within tol
    for cand in ranked:
        minus, g, g2, omega, eta = cand[:5]
        try:
            (wp, ep, bp), (wm, em, bm) = solve_omega_eta(L, g)
        except Infeasible:
            continue
        except Tangent:
            branch = MINUS if minus else PLUS  # the solutions coalesce: the sign label stands
        else:
            # the label of the nearer exact solution, plus on a tie
            branch = bm if abs(wm - omega) + abs(em - eta) < abs(wp - omega) + abs(ep - eta) else bp
        try:
            disc = phi_gamma(L, g, branch, omega_eta=tuple.__new__(OmegaEta, (omega, eta, branch)))
        except DomainError:
            continue
        # the disc's first two components lam (g - w lam)/(1 - conj(g) w lam)
        # at lam = x, against z1 and z2 (the third is x itself); in closed
        # form, since disc(x) costs several times as much on the per-sample path
        w1, w2 = omega * x, eta * x
        miss1 = abs(x * (g - w1) / (1.0 - g.conjugate() * w1) - z1)
        if not max(miss1, abs(x * (g2 - w2) / (1.0 - g2.conjugate() * w2) - z2)) <= tol:
            continue
        certified.append((cand, branch, disc))
        if not find_alternates:
            break
    if not certified:
        best = min((_ik_residual(*c[3:]) for c in ranked), default=math.inf)
        raise ConvergenceFailure(
            f"no certified disc meets the target within {tol:g}; best residual {best:.3e}",
            best_residual=best,
        )
    cand, branch, disc = certified[0]
    if perm is not None:
        disc = disc._replace(components=tuple(disc.components[p] for p in perm))

    alternates = tuple([(br, c[1]) for c, br, _ in certified[1:]]) if len(certified) > 1 else ()
    # rho(0, x) = atanh|x|, bit for bit; tuple.__new__ skips the generated
    # __new__ and its frame, as for the pair above
    fields = (disc, x, _ik_residual(*cand[3:]), math.atanh(abs(x)), cand[1], branch, alternates)
    return tuple.__new__(GeodesicCertificate, fields)


def _ik_residual(omega: complex, eta: complex, r1: float, r2: float, q: complex) -> float:
    """The relative inverse-kinematics residual |r1 omega + r2 eta + q| / |q|
    of a pair, with r1, r2 and q of `geodesics._ik_data`."""
    return abs(r1 * omega + r2 * eta + q) / abs(q) if q else math.inf


_PERMS_TO_THIRD = {0: (2, 1, 0), 1: (0, 2, 1), 2: (0, 1, 2)}


def dominant_permutation(z) -> tuple[int, int, int]:
    """Permutation placing the dominant-modulus coordinate third.

    Ties pick the largest index, so an already-dominant third slot stays put.
    DomainError where a modulus leaves the float range.
    """
    try:  # a modulus of finite parts can leave the float range
        k, top = 0, abs(z[0])
        m = abs(z[1])
        if m >= top:
            k, top = 1, m
        if abs(z[2]) >= top:
            k = 2
        return _PERMS_TO_THIRD[k]
    except OverflowError:
        raise _out_of_range("dominant_permutation") from None


def permuted_parameters(a: float, b: float, perm: tuple[int, int, int]) -> tuple[float, float]:
    """(a', b') of the variety after permuting coordinates of (a, b, 1)."""
    alpha = (a, b, 1.0)
    c = alpha[perm[2]]
    return (alpha[perm[0]] / c, alpha[perm[1]] / c)


def _finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


class LempertReport(
    namedtuple("LempertReport", "a b samples seed failures worst_residual failed", defaults=((),))
):
    """The verifier's summary: a sample passes when its disc certifies and
    meets the sample's lift.  `worst_residual` is the largest finite
    residual, a certificate's or a failure's best; each failed sample has a
    dict of its index, residual and reason.  A named tuple: it compares
    equal to the plain tuple of its fields."""

    __slots__ = ()

    def to_json(self) -> dict:
        """The report with each non-finite number as None, so that it dumps to strict JSON."""
        failed = [{**f, "residual": _finite(f["residual"])} for f in self.failed]
        return {**self._asdict(), "worst_residual": _finite(self.worst_residual), "failed": failed}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


SAMPLE_DRAWS = 100_000

_WORD = (1 << 64) - 1


def _philox_block(counter: int, key0: int, key1: int) -> tuple[int, int, int, int]:
    """Philox4x64-10 (Salmon et al., SC'11) of the counter (counter, 0, 0, 0).

    The block numpy's Philox keyed by the words (key0, key1) produces at that
    counter; both words lie in [0, 2^64).
    """
    x0, x1, x2, x3 = counter, 0, 0, 0
    for _ in range(10):
        p0 = 0xD2E7470EE14C6C93 * x0
        p1 = 0xCA5A826395121157 * x2
        x0, x1, x2, x3 = (p1 >> 64) ^ x1 ^ key0, p1 & _WORD, (p0 >> 64) ^ x3 ^ key1, p0 & _WORD
        key0 = (key0 + 0x9E3779B97F4A7C15) & _WORD
        key1 = (key1 + 0xBB67AE8584CAA73B) & _WORD
    return x0, x1, x2, x3


def _sample_dab(d: DomainDab, seed: int, index: int) -> tuple[complex, complex]:
    # Draw k is the Philox block at counter k + 1 under the key (seed, index)
    # mod 2^64, each word u giving -1 + 2 (u >> 11) 2^-53: bit for bit the
    # uniform(-1, 1) of numpy's Generator on that Philox, four calls a draw.
    key0, key1 = seed & _WORD, index & _WORD
    for k in range(SAMPLE_DRAWS):
        x1, y1, x2, y2 = (-1.0 + 2.0 * ((u >> 11) * 2.0 ** -53) for u in _philox_block(k + 1, key0, key1))
        z1, z2 = complex(x1, y1), complex(x2, y2)
        if abs(z1) >= 0.995 or abs(z2) >= 0.995:
            continue
        if abs(d.a * z2 + d.b * z1 - 1.0) < 1e-6:
            continue
        if dab_contains(d, (z1, z2)):
            return (z1, z2)
    raise SamplingExhausted(f"no point of D({d.a}, {d.b}) in {SAMPLE_DRAWS} draws")


@_in_float_range
def lempert_verify(d: DomainDab, samples: int, seed: int) -> LempertReport:
    """Sampled check of the Lempert equality: each sample, seeded by its
    index, draws a point of the domain, lifts it to z on the variety, and
    passes when `geodesic_through` returns a disc that certifies and meets
    z.  Its parameter at z is z's dominant coordinate, so its length is the
    Caratheodory value by construction, and the two are not compared."""
    if not Lens(d.a, d.b).nonempty:
        raise DomainError("verification needs the triangle-inequality regime")
    residuals, failed = [], []
    for i in range(samples):
        w = _sample_dab(d, seed, i)
        try:
            residuals.append(geodesic_through(d.a, d.b, (w[0], w[1], d.f(w[0], w[1]))).residual)
        except (ConvergenceFailure, NotOnVariety, DomainError) as exc:
            residuals.append(getattr(exc, "best_residual", math.nan))
            failed.append({"index": i, "residual": residuals[-1], "reason": f"{type(exc).__name__}: {exc}"})
    worst = max((r for r in residuals if math.isfinite(r)), default=math.nan)
    return LempertReport(d.a, d.b, samples, seed, len(failed), worst, tuple(failed))


class UniversalMember(namedtuple("UniversalMember", "name value gradient")):
    """Scalar disc-valued function with an exact gradient contract.  A named
    tuple: it compares equal to the plain tuple of its fields."""

    __slots__ = ()

    def __call__(self, z):
        return self.value(z)


class UniversalSet(namedtuple("UniversalSet", "members")):
    """A nonempty tuple of universal members.  A named tuple: it compares
    equal to the plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, members: tuple[UniversalMember, ...]):
        if not members:
            raise DomainError("universal set must be nonempty")
        return tuple.__new__(cls, (members,))


def dab_universal_set(d: DomainDab) -> UniversalSet:
    """The three defining functions with closed-form gradients.  Each value
    takes a point of D(a, b), a pair, and raises DomainError on another length."""
    members = (
        UniversalMember("z1", lambda z: _pair(z, "point")[0], lambda z: (1.0 + 0.0j, 0.0j)),
        UniversalMember("z2", lambda z: _pair(z, "point")[1], lambda z: (0.0j, 1.0 + 0.0j)),
        UniversalMember(
            "f_ab",
            lambda z: d.f(*_pair(z, "point")),
            lambda z: d.f_gradient(*_pair(z, "point")),
        ),
    )
    return UniversalSet(members=members)


def compose_with_mobius(member: UniversalMember, m: MobiusMap) -> UniversalMember:
    """Post-composition with a disc automorphism; gradients by the chain rule."""

    def value(z):
        return m(member.value(z))

    def gradient(z):
        w = member.value(z)
        dm = m.rotation * (abs(m.nu) ** 2 - 1.0) / (1.0 - m.nu.conjugate() * w) ** 2
        return tuple(dm * g for g in member.gradient(z))

    return UniversalMember(f"{member.name}|mobius", value, gradient)


@_in_float_range
def universal_c(U: UniversalSet, z, w) -> float:
    best = 0.0
    for member in U.members:
        vz, vw = member(z), member(w)
        if abs(vz) >= 1.0 or abs(vw) >= 1.0:
            raise EvaluationOutOfDisc(f"member {member.name} left the disc")
        best = max(best, rho(vz, vw))
    return best


@_in_float_range
def universal_gamma(U: UniversalSet, z, X) -> float:
    """max over the members of the disc length of their push-forward of X;
    DomainError where X and a member's gradient differ in length."""
    X = tuple(map(complex, X))
    _require_finite(X, "tangent vector")
    best = 0.0
    for member in U.members:
        vz = member(z)
        if abs(vz) >= 1.0:
            raise EvaluationOutOfDisc(f"member {member.name} left the disc")
        grad = member.gradient(z)
        if len(grad) != len(X):
            raise DomainError(f"tangent vector {X!r} and the gradient of member {member.name} differ in length")
        push = sum(g * x for g, x in zip(grad, X))
        best = max(best, gamma_disc(vz, push))
    return best


@_in_float_range
def linear_convexity_quadratic(d: DomainDab) -> tuple[complex, complex, bool]:
    """Roots of b w^2 - (b^2 + 1 - a^2) w + b and their unimodularity flag.

    The roots have product 1 and sum 2h, h = (b^2 + 1 - a^2) / (2b): for
    |h| < 1 they are h +- i sqrt(1 - h^2), upper half-plane first; otherwise
    they are real, the larger modulus h + sign(h) sqrt(h^2 - 1) first and
    then its reciprocal.  h is evaluated as ((b - a)(b + a) + 1) / (2b);
    where h^2 overflows, the larger root is 2h to rounding.  DomainError
    where (b - a)(b + a), 2b or that root leaves the float range.
    """
    a, b = d.a, d.b
    h = ((b - a) * (b + a) + 1.0) / (2.0 * b)
    if abs(h) < 1.0:
        s = math.sqrt(1.0 - h * h)
        r1, r2 = complex(h, s), complex(h, -s)
    else:
        big = 2.0 * h if math.isinf(h * h) else h + math.copysign(math.sqrt(h * h - 1.0), h)
        r1, r2 = complex(big), complex(1.0 / big)
    uni = all(abs(abs(r) - 1.0) < 1e-10 for r in (r1, r2))
    return (r1, r2, uni)
