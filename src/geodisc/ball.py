"""Euclidean-ball constructions: automorphisms, line extremals, the scalar
family for the two-ball, and the special left inverse with its geodesic fan.

The extremal psi_l of a complex line is a closed form, and both members of the
two-ball family are built as the psi_l of a line.

Points are complex vectors; the Hermitian pairing is <z, w> = sum z_j conj(w_j).
The kernels compute on tuples of Python ``complex``: the vectors here have two
or three coordinates, where numpy's per-call overhead outweighs the
arithmetic.  Inputs may be any sequence of numbers; vectors are returned as
tuples of ``complex``.

Each kernel builds a vector in one plain loop, which also adds up the
vector's |.|^2 or pairing as it goes, instead of a comprehension followed by
a separate pass: before 3.12 (PEP 709), CPython runs every comprehension in a
function frame of its own, which costs more than the arithmetic on two or
three coordinates.  The loops add in the order of `_norm2` and `_herm`, left
to right from 0.0 or 0j, so every output bit is that of the comprehension
forms.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .discgeom import _in_float_range, _require_finite, require_disc_point
from .errors import DomainError, Indeterminate, NoIntersection

DEN_GUARD = 1e-13
# slack of the boundary locus Im(z2 (1 - conj(z1))) = 0
LOCUS_TOL = 1e-9

Vec = tuple[complex, ...]


def _vec(z) -> Vec:
    try:
        v = tuple(map(complex, z))
    except (TypeError, ValueError):
        raise DomainError("expected a complex vector") from None
    if not v:
        raise DomainError("expected a complex vector")
    return v


def _herm(z: Vec, w: Vec) -> complex:
    """<z, w> on tuples of complex of equal length: the products
    z_j conj(w_j) added left to right from 0j, as `sum` adds them from 0."""
    h = 0j
    for a, b in zip(z, w):
        h += a * b.conjugate()
    return h


def _norm2(z: Vec) -> float:
    """|z|^2: the real parts of z_j conj(z_j), added left to right from 0.0.
    A sum's real part is the sum of the real parts, so this is the real part
    of `_herm(z, z)` bit for bit, without its imaginary sums."""
    n = 0.0
    for c in z:
        n += (c * c.conjugate()).real
    return n


def _unit(z: Vec, name: str) -> Vec:
    """z / |z|, taken through z / max|z_j| so that |z|^2 neither underflows nor overflows."""
    try:
        m = max(map(abs, z))
    except OverflowError:  # a modulus beyond the float range: scale by the largest part
        m = max(max(abs(c.real), abs(c.imag)) for c in z)
    if m == 0.0:
        raise DomainError(f"{name} must be nonzero")
    s, n = [], 0.0
    for c in z:
        c /= m
        s.append(c)
        n += (c * c.conjugate()).real
    n = math.sqrt(n)
    out = []
    for c in s:
        out.append(c / n)
    return tuple(out)


def _ball_point(z) -> tuple[Vec, float]:
    """(v, |v|^2) for v = z as a tuple of complex, checked as `_vec` checks
    it, and to be finite and in the open unit ball; |v|^2 is `_norm2`'s sum,
    the value the check compared with 1.  Both are inlined: every kernel
    call checks its points here."""
    v, n2 = [], 0.0
    try:
        for c in z:
            c = complex(c)
            v.append(c)
            n2 += (c * c.conjugate()).real
    except (TypeError, ValueError):
        raise DomainError("expected a complex vector") from None
    v = tuple(v)
    if not (n2 < 1.0 and v):
        if not v:
            raise DomainError("expected a complex vector")
        _require_finite(v, "coordinates")
        raise DomainError("point is not in the open unit ball")
    return v, n2


def require_ball_point(z) -> Vec:
    """z as a tuple of complex, checked by `_ball_point`."""
    return _ball_point(z)[0]


def _ball_pair(w, z) -> tuple[tuple[Vec, float], tuple[Vec, float]]:
    """`_ball_point` of w and of z, which must have the same dimension."""
    w, z = _ball_point(w), _ball_point(z)
    if len(w[0]) != len(z[0]):
        raise DomainError("dimension mismatch")
    return w, z


def ball_automorphism(a, z) -> Vec:
    """Involutive automorphism swapping the base point a with the origin.

    Rudin's (a - P z - s Q z) / (1 - <z, a>), with P the projection on a,
    Q = 1 - P and s = sqrt(1 - |a|^2); the identity at a = 0.
    """
    (a, na), (z, _) = _ball_pair(a, z)
    m = max(map(abs, a))
    if m == 0.0:
        return z
    # P z = <z, u> u / |u|^2 with u = a / m, since |a|^2 underflows below |a| ~ 1e-154
    u, nu, zu, za = [], 0.0, 0j, 0j
    for ai, zi in zip(a, z):
        ui = ai / m
        u.append(ui)
        nu += (ui * ui.conjugate()).real
        zu += zi * ui.conjugate()
        za += zi * ai.conjugate()
    p = zu / nu
    s = math.sqrt(1.0 - na)
    den = 1.0 - za
    out = []
    for ai, ui, zi in zip(a, u, z):
        pu = p * ui
        out.append((ai - pu - s * (zi - pu)) / den)
    return tuple(out)


class ComplexLine(namedtuple("ComplexLine", "base direction")):
    """Affine complex line base + lambda * direction, direction normalized.
    A named tuple: it compares equal to the plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, base: Vec, direction: Vec):
        base, d = _vec(base), _vec(direction)
        if len(base) != len(d):
            raise DomainError("dimension mismatch")
        if not (all(map(cmath.isfinite, base)) and all(map(cmath.isfinite, d))):
            _require_finite(base + d, "coordinates")
        return tuple.__new__(cls, (base, _unit(d, "direction")))


def minimal_norm_point(l: ComplexLine) -> Vec:
    """Orthogonal foot of the origin on the line, base - <base, d> d for the
    unit direction d; must land inside the ball."""
    base, d = l
    p = _herm(base, d)
    foot, n = [], 0.0
    for b, c in zip(base, d):
        f = b - p * c
        foot.append(f)
        n += (f * f.conjugate()).real
    if not n < 1.0:
        raise NoIntersection("line misses the open unit ball")
    return tuple(foot)


def _householder_unitary(r: Vec) -> list[list[list[float]]]:
    """-t (I - 2 v v* / |v|^2), v = e1 + t conj(r): a unitary with row 0 the
    unit vector r, as rows of [re, im] pairs.

    t is the phase of r0, so v_0 = 1 + |r0| cannot cancel; it is read from
    r0 / max(|Re|, |Im|), since r0 / |r0| is not unimodular for a subnormal r0.
    One loop builds v_j = t conj(r_j) + (j == 0), conj(v_j) and |v|^2 as
    `_norm2` adds it; k = 2 / |v|^2.  Row i is then built in one loop over
    j, each entry once, as -t ((i == j) - (k v_i) conj(v_j)) evaluated in
    that order: the product is subtracted from the integer 0 or 1, not
    negated, so its zero parts become +0 before the factor -t.  Each entry
    is split into its [re, im] pair as it is made.
    """
    m = max(abs(r[0].real), abs(r[0].imag))
    t = r[0] / m if m else 1.0 + 0j
    t /= abs(t)
    v, vc, n = [], [], 0.0
    for j, c in enumerate(r):
        vj = t * c.conjugate() + (j == 0)
        c = vj.conjugate()
        v.append(vj)
        vc.append(c)
        n += (vj * c).real
    k = 2.0 / n
    nt = -t
    rows = []
    for i, vi in enumerate(v):
        kvi = k * vi
        row = []
        for j, c in enumerate(vc):
            e = nt * ((i == j) - kvi * c)
            row.append([e.real, e.imag])
        rows.append(row)
    return rows


class BallExtremal(namedtuple("BallExtremal", "minimal_point direction")):
    """psi_l(z) = s <z, d> / (1 - <z, a>), s = sqrt(1 - |a|^2), for the line l with
    foot a and unit direction d.  It is <U Phi_a(z), e1> for Rudin's involution
    Phi_a and a unitary U with row 0 equal to -conj(d): <a, d> = <P_a z, d> = 0.
    A named tuple: it compares equal to the plain tuple of its fields."""

    __slots__ = ()

    def __call__(self, z) -> complex:
        (a, na), (z, _) = _ball_pair(self.minimal_point, z)
        return math.sqrt(1.0 - na) * _herm(z, self.direction) / (1.0 - _herm(z, a))

    def to_json(self) -> dict:
        """Foot, direction, and a unitary U with psi_l(z) = <U Phi_a(z), e1> for
        Phi_a = ``ball_automorphism``, the identity at a = 0: row 0 of U is -conj(d),
        or conj(d) for a foot of exactly 0, completed by a Householder reflection.
        Every number is an [re, im] pair; U is the rows `_householder_unitary`
        builds from r = sign * conj(d), entry by entry in the order it states."""
        a, d = self
        sign = -1.0 if any(a) else 1.0
        foot, direction, r = [], [], []
        for ai, di in zip(a, d):
            foot.append([ai.real, ai.imag])
            direction.append([di.real, di.imag])
            r.append(sign * di.conjugate())
        return {"minimal_point": foot, "direction": direction, "unitary": _householder_unitary(r)}


def psi_l(l: ComplexLine) -> BallExtremal:
    """Extremal for the geodesic cut by the line: see ``BallExtremal``."""
    return tuple.__new__(BallExtremal, (minimal_norm_point(l), l.direction))


def universal_member_B2(a) -> BallExtremal:
    """Cross-term extremal of the two-ball family for lines with foot a != 0.

    psi_l of the line {a + lambda n} with n = (-conj(u2), conj(u1)), u = a / |a|:
    z -> sqrt(1-|a|^2) (u1 z2 - u2 z1) / (1 - (conj(a1) z1 + conj(a2) z2)).  It
    maps the ball into the disc and vanishes on the line {lambda a}.
    """
    a = require_ball_point(a)
    if len(a) != 2:
        raise DomainError("two-ball member needs a in dimension 2")
    u1, u2 = _unit(a, "parameter")
    return psi_l(ComplexLine(a, (-u2.conjugate(), u1.conjugate())))


@_in_float_range
def universal_member_linear(a1: float, a2: complex) -> BallExtremal:
    """Unit linear functional z -> a1 z1 + a2 z2 with a1 >= 0 real: psi_l of the
    line through 0 with direction (a1, conj(a2))."""
    a1 = float(a1)
    a2 = complex(a2)
    if a1 < 0.0:
        raise DomainError("first coefficient must be nonnegative")
    # false for NaN, so a non-finite coefficient fails here
    if not abs(a1 * a1 + abs(a2) ** 2 - 1.0) <= 1e-12:
        raise DomainError("coefficients must satisfy a1^2 + |a2|^2 = 1")
    return psi_l(ComplexLine((0.0, 0.0), (a1, a2.conjugate())))


def F_left_inverse(z) -> complex:
    """The scalar map (2 z1 (1-z1) - z2^2) / (2 (1-z1) - z2^2) on the two-ball."""
    z = require_ball_point(z)
    if len(z) != 2:
        raise DomainError("defined on dimension 2")
    z1, z2 = z
    den = 2.0 * (1.0 - z1) - z2 * z2
    if abs(den) < DEN_GUARD:
        raise Indeterminate(f"denominator vanishes at ({z1!r}, {z2!r})")
    return (2.0 * z1 * (1.0 - z1) - z2 * z2) / den


def f_t_geodesic(t: float, lam: complex) -> tuple[complex, complex]:
    """The fan of geodesics ((t^2 + lam)/(1 + t^2), t (lam - 1)/(1 + t^2)).

    Each member maps the disc into the ball, so lam must lie in the disc.
    Where t^2 overflows, the same point is taken in s = 1/t:
    ((1 + lam s^2)/(1 + s^2), s (lam - 1)/(1 + s^2)).
    """
    t = float(t)
    _require_finite((t,), "parameter t")
    lam = require_disc_point(lam)
    tt = t * t
    if math.isinf(tt):
        s = 1.0 / t
        ss = s * s
        return ((1.0 + lam * ss) / (1.0 + ss), s * (lam - 1.0) / (1.0 + ss))
    return ((tt + lam) / (1.0 + tt), t * (lam - 1.0) / (1.0 + tt))


def c_star_ball(w, z) -> float:
    """sqrt(1 - (1-|w|^2)(1-|z|^2)/|1-<w,z>|^2): tanh of the ball distance."""
    (w, nw), (z, nz) = _ball_pair(w, z)
    val = 1.0 - (1.0 - nw) * (1.0 - nz) / abs(1.0 - _herm(w, z)) ** 2
    return math.sqrt(max(val, 0.0))


def _c_star_distance(w, z) -> tuple[float, float]:
    """(c*, the ball distance): arctanh c* while c* < 1, and where c* rounds
    to 1, log1p(c*) - log(P)/2 with P = (1-|w|^2)(1-|z|^2)/|1-<w,z>|^2 = 1 - c*^2."""
    c = c_star_ball(w, z)
    if c < 1.0:
        return c, math.atanh(c)
    (w, nw), (z, nz) = _ball_pair(w, z)
    return c, math.log1p(c) - 0.5 * math.log((1.0 - nw) * (1.0 - nz) / abs(1.0 - _herm(w, z)) ** 2)


def locus_value(z1: complex, z2: complex) -> tuple[float, bool]:
    """Im(z2 (1 - conj(z1))) and whether it vanishes to within LOCUS_TOL."""
    im = (z2 * (1.0 - z1.conjugate())).imag
    return im, abs(im) <= LOCUS_TOL


def _sphere_point(z) -> Vec:
    """z as two complex numbers on the unit sphere, to within 1e-6, else DomainError."""
    z = _vec(z)
    if len(z) != 2:
        raise DomainError("defined on dimension 2")
    # false for NaN, so a non-finite point is off the sphere
    if not abs(math.sqrt(_norm2(z)) - 1.0) <= 1e-6:
        raise DomainError("point must lie on the unit sphere")
    return z


def boundary_modulus_locus(z) -> bool:
    """Whether a unit-sphere point lies on the locus of `locus_value`."""
    return locus_value(*_sphere_point(z))[1]


def boundary_modulus(z) -> float:
    """|F| at a sphere point; Indeterminate at the common zero of both parts."""
    z1, z2 = _sphere_point(z)
    den = 2.0 * (1.0 - z1) - z2 * z2
    num = 2.0 * z1 * (1.0 - z1) - z2 * z2
    if abs(den) < DEN_GUARD:
        if abs(num) < DEN_GUARD:
            raise Indeterminate("numerator and denominator vanish together")
        return float("inf")
    return abs(num / den)
