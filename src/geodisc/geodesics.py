"""Explicit complex-geodesic families on the normalized variety of (a, b, 1).

Two constructions through the origin are provided.  The first attaches to a
tangent direction (gamma, 1) the disc

    lam -> (lam m_{g1}(omega lam), lam m_{g2}(eta lam), lam)

where the unimodular pair (omega, eta) solves the linear equation

    a omega (1-|g1|^2) + b eta (1-|g2|^2) + a g2 + b g1 + g1 g2 = 0,

a two-link inverse-kinematics problem with exactly two solutions for tangent
parameters inside the lens.  Its residual in the defining equation is
closed form in the left side above and one partner number, which
`_certify_disc` checks.  The second fixes gamma and lets omega run over an
open arc of the circle: the first component stays lam m_gamma(omega lam),
the third stays lam, and the middle component is completed from the defining
equation, so its residual vanishes identically; it equals lam times a
degree-two Blaschke factor q/r whose denominator r is certified zero-free on
the closed disc by the Schur criterion.  The arc endpoints are precisely the
two inverse-kinematics solutions, where the factor drops to degree one.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from types import MappingProxyType

from .discgeom import (
    BOUNDARY_TOL,
    Quadratic,
    _in_float_range,
    _out_of_range,
    _require_finite,
    _residual_within,
    _strict_triangle,
    require_disc_point,
    schur_roots_outside,
)
from .errors import DomainError, EmptyLens, Infeasible, Tangent

RESIDUAL_TOL = 1e-10

PLUS = "plus"
MINUS = "minus"


class Lens(namedtuple("Lens", "a b")):
    """Tangent-parameter region: |g1| < 1 and |a g1 + 1| < b on the line
    a g1 + b g2 + 1 = 0; an intersection of two discs.  A named tuple: it
    compares equal to the plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        try:
            ok = 0.0 < a < math.inf and 0.0 < b < math.inf
        except TypeError:
            ok = False
        if not ok:
            raise DomainError(f"lens parameters ({a!r}, {b!r}) must be positive and finite")
        return tuple.__new__(cls, (a, b))

    @property
    def nonempty(self) -> bool:
        return _strict_triangle(self.a, self.b, 1.0)

    def gamma2(self, gamma1: complex) -> complex:
        return -(self.a * gamma1 + 1.0) / self.b

    def contains(self, gamma1: complex) -> bool:
        return abs(gamma1) < 1.0 and abs(self.a * gamma1 + 1.0) < self.b

    @_in_float_range
    def corners(self) -> tuple[complex, complex]:
        """Intersection points of |g1| = 1 and |a g1 + 1| = b (law of cosines).

        The real part is ((b - a)(b + a) - 1) / (2a), factored so that it
        stays finite wherever the lens is nonempty; it overflows (DomainError)
        only for parameters within a factor two of the largest float.
        """
        a, b = self.a, self.b
        x = ((b - a) * (b + a) - 1.0) / (2.0 * a)
        y2 = 1.0 - x * x
        if y2 < 0.0:
            raise EmptyLens(f"lens of ({self.a}, {self.b}) has no corners")
        y = math.sqrt(y2)
        return (complex(x, y), complex(x, -y))

    def boundary_points(self, count: int) -> list[tuple[str, complex]]:
        """Polyline of the two boundary arcs, corner to corner.

        In the triangle-inequality regime the unit-circle arc passes through
        -1 and the pair-circle arc through its point closest to the origin.
        EmptyLens outside it, where the lens has no boundary to trace.
        """
        if not self.nonempty:
            raise EmptyLens(f"lens of ({self.a}, {self.b}) is empty")
        c_up, c_dn = self.corners()
        out: list[tuple[str, complex]] = [("corner", c_up)]
        th = cmath.phase(c_up)  # in (0, pi); c_dn is the conjugate
        for k in range(1, count):
            t = th + (2.0 * math.pi - 2.0 * th) * k / count
            out.append(("unit-circle", cmath.exp(1j * t)))
        out.append(("corner", c_dn))
        ctr, rad = -1.0 / self.a, self.b / self.a
        ph = cmath.phase(c_dn - ctr)  # in (-pi, 0); arc through phase 0
        for k in range(1, count):
            t = ph - 2.0 * ph * k / count
            out.append(("pair-circle", ctr + rad * cmath.exp(1j * t)))
        return out


class OmegaEta(namedtuple("OmegaEta", "omega eta branch")):
    """A pair (omega, eta) for the disc of a tangent parameter, with its
    branch label PLUS or MINUS.  A named tuple: it compares equal to the
    plain tuple of its fields."""

    __slots__ = ()


def _ik_data(L: Lens, gamma1: complex):
    """(gamma2, r1, r2, q) of the pair equation r1 omega + r2 eta = -q;
    Infeasible where |gamma1|^2 or |gamma2|^2 overflows, far outside the lens."""
    a, b = L.a, L.b
    g2 = -(a * gamma1 + 1.0) / b  # L.gamma2(gamma1), without the method call
    try:
        r1 = a * (1.0 - abs(gamma1) ** 2)
        r2 = b * (1.0 - abs(g2) ** 2)
    except OverflowError:
        raise Infeasible(f"tangent parameters {gamma1!r}, {g2!r} overflow; not in the lens") from None
    return g2, r1, r2, a * g2 + b * gamma1 + gamma1 * g2


@_in_float_range
def solvability_gaps(L: Lens, gamma1: complex) -> tuple[float, float]:
    """Margins of the two-sided inequality |r1-r2| < |q| < r1+r2.

    Returns (|q| - |r1-r2|, r1+r2 - |q|); both positive inside the lens, the
    right margin tending to zero at the boundary.
    """
    _, r1, r2, q = _ik_data(L, gamma1)
    return (abs(q) - abs(r1 - r2), r1 + r2 - abs(q))


def solve_omega_eta(L: Lens, gamma1: complex) -> tuple[OmegaEta, OmegaEta]:
    """Both unimodular solutions of r1*omega + r2*eta = -q, closed form.

    The two branches are the two triangle configurations; `plus` carries the
    positive oriented angle from -q to r1*omega.  Raises Tangent when |q|
    meets r1+r2 or |r1-r2| within BOUNDARY_TOL, Infeasible when it leaves
    the interval by more than that, and DomainError for a non-finite gamma1
    or where |q| or r1 + r2 leaves the float range.
    """
    _, r1, r2, q = _ik_data(L, gamma1)
    try:
        aq = abs(q)
    except OverflowError:  # |q| of finite parts can leave the float range on a huge lens
        raise _out_of_range("solve_omega_eta") from None
    lo, hi = abs(r1 - r2), r1 + r2
    # false for every NaN, so a non-finite gamma1 takes the failure path, and
    # where r1 + r2 overflows, as it does near the float maximum
    if not lo + BOUNDARY_TOL < aq < hi - BOUNDARY_TOL < math.inf:
        _require_finite((gamma1,), "tangent parameter")
        if aq > hi + BOUNDARY_TOL or aq < lo - BOUNDARY_TOL:
            raise Infeasible(
                f"|q| = {aq:.6g} outside ({lo:.6g}, {hi:.6g}); parameter not in the lens"
            )
        if hi == math.inf:  # no interval end to be tangent to
            raise _out_of_range("solve_omega_eta")
        raise Tangent(f"|q| = {aq:.6g} within tolerance of the interval ends")
    u = -q / aq
    # 1 - cos and 1 + cos of the angle at r1*omega, each a product of side
    # differences, so that a thin triangle keeps its small angle to full
    # relative precision
    one_minus = (aq - r1 + r2) * (r1 + r2 - aq) / (2.0 * r1 * aq)
    one_plus = (r1 + aq - r2) * (r1 + aq + r2) / (2.0 * r1 * aq)
    ct = 1.0 - one_minus if one_minus < one_plus else one_plus - 1.0
    st = math.sqrt(max(0.0, one_minus * one_plus))
    wp, wm = u * complex(ct, st), u * complex(ct, -st)
    # tuple.__new__ skips the generated __new__ and its frame
    return (tuple.__new__(OmegaEta, (wp, (-q - r1 * wp) / r2, PLUS)),
            tuple.__new__(OmegaEta, (wm, (-q - r1 * wm) / r2, MINUS)))


class RationalMap(namedtuple("RationalMap", "num den")):
    """Quotient of polynomials, num / den, each a tuple of complex
    coefficients descending in the argument.  A named tuple: it compares
    equal to the plain tuple of its fields."""

    __slots__ = ()

    def __call__(self, lam: complex) -> complex:
        """Value at lam."""
        return _horner(self.num, lam) / _horner(self.den, lam)

    @classmethod
    def from_json(cls, obj: dict) -> "RationalMap":
        return cls(
            num=tuple(complex(re, im) for re, im in obj["num"]),
            den=tuple(complex(re, im) for re, im in obj["den"]),
        )


def _horner(cs, lam):
    acc = 0.0 + 0.0j
    for c in cs:
        acc = acc * lam + c
    return acc


IDENTITY_MAP = RationalMap((0.0j, 1.0 + 0.0j, 0.0j), (0.0j, 0.0j, 1.0 + 0.0j))


class AnalyticDisc(namedtuple("AnalyticDisc", "components tag params", defaults=(MappingProxyType({}),))):
    """Disc -> polydisc map with rational components; serializable and exact.

    `components` is a tuple of RationalMap, `tag` PhiGamma or
    BlaschkeFamily, and `params` maps names to JSON scalars and [re, im]
    pairs.  A named tuple: it compares equal to the plain tuple of its
    fields.
    """

    __slots__ = ()

    def __call__(self, lam: complex) -> tuple[complex, ...]:
        return tuple(c(lam) for c in self.components)

    def to_json(self) -> dict:
        """The disc in fresh containers: editing them leaves the disc as it is."""
        # plain loops: CPython 3.11 makes a frame for each comprehension (PEP 709
        # inlines them from 3.12 on), and this runs once per certificate
        components = []
        for num, den in self.components:
            n, d = [], []
            for c in num:
                n.append([c.real, c.imag])
            for c in den:
                d.append([c.real, c.imag])
            components.append({"num": n, "den": d})
        params = {}
        for k, v in self.params.items():
            params[k] = v[:] if type(v) is list else v
        return {"components": components, "tag": self.tag, "params": params}

    @classmethod
    def from_json(cls, obj: dict) -> "AnalyticDisc":
        return cls(
            components=tuple(RationalMap.from_json(c) for c in obj["components"]),
            tag=obj["tag"],
            params=dict(obj.get("params", {})),
        )


def _certify_disc(L: Lens, gamma1: complex, omega: complex, eta: complex) -> complex:
    """Closed-form check that the disc of (gamma1, omega, eta) lies in M;
    returns gamma2 = -(a gamma1 + 1)/b, for the caller that builds the disc.

    With r1, r2, q of `_ik_data`, the disc
    lam -> (lam m_g1(omega lam), lam m_g2(eta lam), lam) has, for any omega
    and eta, the residual

        a z1 + b z2 + z3 - z1 z2 - b z1 z3 - a z2 z3
            = -lam^2 (k - k' lam) / (D1 D2),
        k = r1 omega + r2 eta + q,   k' = r1 eta + r2 omega + omega eta conj(q),
        D1 = 1 - conj(g1) omega lam,   D2 = 1 - conj(g2) eta lam,

    and k' = omega eta conj(k) when |omega| = |eta| = 1.  Checked: gamma1,
    omega and eta are finite; |g1|, |g2|, |g1 omega| and |g2 eta| are below
    1, so D1 D2 has no zero in the closed disc; omega and eta are unimodular
    to RESIDUAL_TOL; and max(|k|, |k'|) passes
    `discgeom._residual_within(., RESIDUAL_TOL, |q|, T)`, that is

        max(|k|, |k'|) <= RESIDUAL_TOL |q| + 8 eps T,
        T = a (1 + |g1|^2) + b (1 + |g2|^2) + a |g2| + b |g1| + |g1 g2|,

    T the sum of the moduli of the seven terms that k and k' expand to
    (r1 = a - a |g1|^2 is two of them, and r1 itself cancels).  The eps
    term bounds the rounding of k and k' (the factor 8 is derived beside
    the helper): on a thin lens, where T is far above |q|, it admits a
    correct disc that RESIDUAL_TOL |q| alone would refuse.

    The claim is a backward bound on the two coefficients, relative to |q|
    up to rounding.  The forward supremum of the residual over the closed
    disc is at most (|k| + |k'|) / ((1 - |g1 omega|)(1 - |g2 eta|)), which
    is not tested: near the lens boundary it exceeds RESIDUAL_TOL on discs
    whose residual on the circle stays far below it.  DomainError where a
    modulus leaves the float range.  A non-finite coefficient fails the
    disc or the denominator test, so finiteness is tested on the failure
    paths only, before any other error is raised.
    """
    try:  # a modulus of finite parts can leave the float range on a huge lens
        try:
            g2, r1, r2, q = _ik_data(L, gamma1)
        except Infeasible:  # |gamma1|^2 or |gamma2|^2 overflows: the disc test refuses it
            g2 = L.gamma2(gamma1)
        m1, m2 = abs(gamma1), abs(g2)
        if not (m1 < 1.0 and m2 < 1.0):
            _require_finite((gamma1, omega, eta), "coefficient")
            raise DomainError(f"tangent parameters {gamma1!r}, {g2!r} are not in the open unit disc")
        if not (abs(gamma1 * omega) < 1.0 and abs(g2 * eta) < 1.0):
            _require_finite((gamma1, omega, eta), "coefficient")
            raise DomainError("component denominator has a root in the closed disc")
        off = max(abs(abs(omega) - 1.0), abs(abs(eta) - 1.0))
        if off > RESIDUAL_TOL:
            raise DomainError(f"pair (omega, eta) is off the unit circle by {off:.3e}")
        kappa = r1 * omega + r2 * eta + q
        kappa2 = r1 * eta + r2 * omega + omega * eta * q.conjugate()
        worst = max(abs(kappa), abs(kappa2))
        # the moduli of the seven terms kappa and kappa' expand to, with |omega| = |eta| = 1
        a, b = L.a, L.b
        terms = a * (1.0 + m1 * m1) + b * (1.0 + m2 * m2) + a * m2 + b * m1 + m1 * m2
        if not _residual_within(worst, RESIDUAL_TOL, abs(q), terms):
            raise DomainError(f"constructed disc misses the variety: coefficient {worst:.3e}, |q| {abs(q):.3e}")
        return g2
    except OverflowError:
        pass
    _require_finite((gamma1, omega, eta), "coefficient")
    raise _out_of_range("_certify_disc")


def phi_gamma(
    L: Lens,
    gamma1: complex,
    branch: str = PLUS,
    omega_eta: OmegaEta | None = None,
) -> AnalyticDisc:
    """Geodesic through the origin tangent to (gamma1, gamma2, 1).

    The unimodular pair is the `branch` solution of `solve_omega_eta`, unless
    `omega_eta` gives the pair (with its own branch label) to use as it is.
    Either way `_certify_disc` checks the disc in closed form, to
    RESIDUAL_TOL relative to |q| plus rounding, before it is built, and
    raises DomainError when it is not in M.
    """
    if branch not in (PLUS, MINUS):
        raise DomainError(f"unknown branch {branch!r}")
    if omega_eta is None:
        sols = solve_omega_eta(L, gamma1)
        sol = sols[0] if branch == PLUS else sols[1]
    else:
        sol = omega_eta
    omega, eta, label = sol
    g2 = _certify_disc(L, gamma1, omega, eta)
    # lam m_nu(rot lam) = (-rot lam^2 + nu lam) / (1 - conj(nu) rot lam) for
    # (nu, rot) = (gamma1, omega) and (gamma2, eta); the checked parts go
    # into their records through tuple.__new__, without the generated __new__
    return tuple.__new__(AnalyticDisc, (
        (
            tuple.__new__(RationalMap, ((-omega, gamma1, 0.0j), (0.0j, -gamma1.conjugate() * omega, 1.0 + 0.0j))),
            tuple.__new__(RationalMap, ((-eta, g2, 0.0j), (0.0j, -g2.conjugate() * eta, 1.0 + 0.0j))),
            IDENTITY_MAP,
        ),
        "PhiGamma",
        {
            "a": L.a,
            "b": L.b,
            "gamma1": [gamma1.real, gamma1.imag],
            "branch": label,
            "omega": [omega.real, omega.imag],
            "eta": [eta.real, eta.imag],
        },
    ))


@_in_float_range
def _arc_terms(L: Lens, gamma: complex) -> tuple[complex, float, float]:
    """(v, w, R) of the arc inequality |omega v + w| < R at gamma; DomainError
    where one leaves the float range, as b^2 does on a large lens."""
    a, b = L.a, L.b
    v = a * gamma.conjugate() ** 2 + (a * a - b * b + 1.0) * gamma.conjugate() + a
    return v, -a * b * (1.0 - abs(gamma) ** 2), b * b - abs(a * gamma + 1.0) ** 2


@_in_float_range
def admissibility_margin(L: Lens, gamma: complex, omega: complex) -> float:
    """Slack of the arc inequality; positive exactly on the admissible arc.

    The inequality is the Schur condition for the quadratic denominator of
    the completed middle component: with T = 1-|gamma|^2,

        b^2 - |a gamma + 1|^2 > |-a b T + omega (a conj(g)^2
                                   + (a^2 - b^2 + 1) conj(g) + a)|.
    """
    v, w, R = _arc_terms(L, gamma)
    return R - abs(w + omega * v)


def _family_qr(L: Lens, gamma: complex, omega: complex):
    a, b = L.a, L.b
    g = gamma
    q = Quadratic(
        -b * omega,
        b * g + (a + g.conjugate()) * omega,
        -(a * g + 1.0),
    )
    r = Quadratic(
        (1.0 + a * g.conjugate()) * omega,
        -(b * g.conjugate() * omega + g + a),
        b,
    )
    return q, r


def blaschke_family(L: Lens, gamma: complex, omega: complex):
    """Disc through the origin with prescribed first-factor parameter gamma.

    For omega on the admissible arc, returns
    (lam m_gamma(omega lam), lam q(lam)/r(lam), lam) whose middle component
    is lam times the degree-two Blaschke factor q/r; the denominator r is
    certified zero-free on the closed disc via the Schur criterion.  Returns
    None (inadmissible) when it fails: the test is the arc inequality.

    The middle component is solved from the defining equation, so the
    disc's residual vanishes identically for every omega, and no residual
    check is made.
    """
    gamma = require_disc_point(gamma)
    if not abs(abs(omega) - 1.0) <= BOUNDARY_TOL:
        raise DomainError("omega must be unimodular")
    q, r = _family_qr(L, gamma, omega)
    if not schur_roots_outside(r):
        return None
    middle = RationalMap(q.coeffs() + (0.0j,), r.coeffs())
    return AnalyticDisc(
        (
            RationalMap((-omega, gamma, 0.0j), (0.0j, -gamma.conjugate() * omega, 1.0 + 0.0j)),
            middle,
            IDENTITY_MAP,
        ),
        "BlaschkeFamily",
        {
            "a": L.a,
            "b": L.b,
            "gamma": [gamma.real, gamma.imag],
            "omega": [omega.real, omega.imag],
        },
    )


@_in_float_range
def admissible_arc(L: Lens, gamma: complex) -> list[tuple[float, float]]:
    """Open angle intervals of admissible omega = exp(i theta), closed form.

    The inequality |omega v + w| < R with v, w fixed defines an arc; its
    endpoints come from the circle-line geometry, accurate to the floating
    solve of one arccos.  Its argument is

        c0 = (R^2 - |v|^2 - |w|^2) / (2 |v| |w|)
           = ((R - |w|) / (2 |v|)) ((R + |w|) / |w|) - |v| / (2 |w|),

    which squares none of the terms.  With |w| = a b (1 - |g|^2),
    R -+ |w| = (b -+ a)(b +- a |g|^2) - (2 a Re g + 1), so neither is the
    difference of two rounded terms near R: on a large lens, R and |w| agree
    to far beyond their rounding and R - |w| is of the order of a.
    (R + |w|) / |w| is divided through term by term, as R + |w| leaves the
    float range on lenses near a = b = 1.3e154, where R does not.  The
    phase of v conj(w) is taken as a difference of phases, as the product
    can overflow.  DomainError unless gamma lies in the open disc, as for
    `blaschke_family`, and where a term of the inequality leaves the float
    range.
    """
    gamma = require_disc_point(gamma)
    v, w, R = _arc_terms(L, gamma)
    if R <= 0.0:
        return []
    av, aw = abs(v), abs(w)
    if av < 1e-15:
        return [(0.0, 2.0 * math.pi)] if aw < R else []
    if aw < 1e-15:
        return [(0.0, 2.0 * math.pi)] if av < R else []
    a, b, m = L.a, L.b, gamma.real * gamma.real + gamma.imag * gamma.imag
    t = 2.0 * a * gamma.real + 1.0
    R_minus = (b - a) * (b + a * m) - t
    c0 = R_minus / (2.0 * av) * ((b + a) / aw * (b - a * m) - t / aw) - av / (2.0 * aw)
    if c0 >= 1.0:
        return [(0.0, 2.0 * math.pi)]
    if c0 <= -1.0:
        return []
    alpha = math.acos(c0)
    phi0 = cmath.phase(v) - cmath.phase(w)
    lo = alpha - phi0
    hi = 2.0 * math.pi - alpha - phi0
    lo %= 2.0 * math.pi
    hi %= 2.0 * math.pi
    if lo < hi:
        return [(lo, hi)]
    return [(0.0, hi), (lo, 2.0 * math.pi)]


def arc_contains(arcs: list[tuple[float, float]], theta: float) -> bool:
    theta %= 2.0 * math.pi
    return any(lo < theta < hi for lo, hi in arcs)
