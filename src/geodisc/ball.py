"""Euclidean-ball constructions: automorphisms, line extremals, the scalar
family for the two-ball, and the special left inverse with its geodesic fan.

Points are complex vectors; the Hermitian pairing is <z, w> = sum z_j conj(w_j).
The kernels compute on tuples of Python ``complex``: the vectors here have two
or three coordinates, where numpy's per-call overhead outweighs the
arithmetic.  Inputs may be any sequence of numbers.  ``ball_automorphism``,
``minimal_norm_point`` and ``ComplexLine.at`` return a 1-D ``numpy.ndarray``
at the public boundary; they are the only functions here that import numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import mul

from .discgeom import require_disc_point
from .errors import DomainError, Indeterminate, NoIntersection

DEN_GUARD = 1e-13
PIVOT_MIN = 1e-2

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
    """<z, w> on tuples of complex of equal length."""
    return sum(map(mul, z, map(complex.conjugate, w)))


def _norm2(z: Vec) -> float:
    return _herm(z, z).real


def _unit(z: Vec, name: str) -> Vec:
    """z / |z|, taken through z / max|z_j| so that |z|^2 neither underflows nor overflows."""
    m = max(map(abs, z))
    if m == 0.0:
        raise DomainError(f"{name} must be nonzero")
    z = tuple(c / m for c in z)
    n = math.sqrt(_norm2(z))
    return tuple(c / n for c in z)


def require_ball_point(z) -> Vec:
    """z as a tuple of complex, checked to be finite and in the open unit ball."""
    v = _vec(z)
    if not _norm2(v) < 1.0:
        if not all(map(cmath.isfinite, v)):
            raise DomainError("non-finite coordinates")
        raise DomainError("point is not in the open unit ball")
    return v


def _ball_pair(w, z) -> tuple[Vec, Vec]:
    w, z = require_ball_point(w), require_ball_point(z)
    if len(w) != len(z):
        raise DomainError("dimension mismatch")
    return w, z


def herm(z, w) -> complex:
    z, w = _vec(z), _vec(w)
    if len(z) != len(w):
        raise DomainError("dimension mismatch")
    return _herm(z, w)


def _automorphism(a: Vec, z: Vec) -> Vec:
    """ball_automorphism on checked ball points of equal dimension."""
    m = max(map(abs, a))
    if m == 0.0:
        return z
    # P z = <z, u> u / |u|^2 with u = a / m, since |a|^2 underflows below |a| ~ 1e-154
    u = tuple(c / m for c in a)
    p = _herm(z, u) / _norm2(u)
    s = math.sqrt(1.0 - _norm2(a))
    den = 1.0 - _herm(z, a)
    return tuple((ai - p * ui - s * (zi - p * ui)) / den for ai, ui, zi in zip(a, u, z))


def ball_automorphism(a, z):
    """Involutive automorphism swapping the base point a with the origin.

    Rudin's (a - P z - s Q z) / (1 - <z, a>), with P the projection on a,
    Q = 1 - P and s = sqrt(1 - |a|^2); the identity at a = 0.
    """
    import numpy as np

    return np.array(_automorphism(*_ball_pair(a, z)))


@dataclass(frozen=True)
class ComplexLine:
    """Affine complex line base + lambda * direction, direction normalized."""

    base: tuple[complex, ...]
    direction: tuple[complex, ...]

    def __post_init__(self):
        base, d = _vec(self.base), _vec(self.direction)
        if len(base) != len(d):
            raise DomainError("dimension mismatch")
        if not all(map(cmath.isfinite, base + d)):
            raise DomainError("non-finite coordinates")
        object.__setattr__(self, "direction", _unit(d, "direction"))
        object.__setattr__(self, "base", base)

    def at(self, lam: complex):
        import numpy as np

        return np.array([b + lam * c for b, c in zip(self.base, self.direction)])


def _foot(l: ComplexLine) -> Vec:
    p = _herm(l.base, l.direction)
    foot = tuple(b - p * c for b, c in zip(l.base, l.direction))
    if not _norm2(foot) < 1.0:
        raise NoIntersection("line misses the open unit ball")
    return foot


def minimal_norm_point(l: ComplexLine):
    """Orthogonal foot of the origin on the line; must land inside the ball."""
    import numpy as np

    return np.array(_foot(l))


@dataclass(frozen=True)
class BallExtremal:
    """Scalar extremal <U Phi_a(z), e1> for the line through its minimal point."""

    minimal_point: tuple[complex, ...]
    unitary: tuple[tuple[complex, ...], ...]

    def __call__(self, z) -> complex:
        a, z = _ball_pair(self.minimal_point, z)
        return complex(sum(map(mul, self.unitary[0], _automorphism(a, z))))

    def to_json(self) -> dict:
        return {
            "minimal_point": [[c.real, c.imag] for c in self.minimal_point],
            "unitary": [[[c.real, c.imag] for c in row] for row in self.unitary],
        }


def _unitary_sending_to_e1(v: Vec) -> tuple[Vec, ...]:
    """Rows form an orthonormal basis starting with conj(v)/|v|: U v = |v| e1.

    Gram-Schmidt over the standard basis with deterministic pivoting.  A
    single pass loses orthogonality like eps / residual, so a basis vector
    whose residual is below PIVOT_MIN is skipped; one above it always remains.
    """
    n = len(v)
    nv = math.sqrt(_norm2(v))
    cols = [tuple(c / nv for c in v)]
    for k in range(n):
        e = tuple(1 + 0j if j == k else 0j for j in range(n))
        for c in cols:
            p = _herm(e, c)
            e = tuple(x - p * y for x, y in zip(e, c))
        nrm = math.sqrt(_norm2(e))
        if nrm > PIVOT_MIN:
            cols.append(tuple(x / nrm for x in e))
        if len(cols) == n:
            break
    return tuple(tuple(x.conjugate() for x in c) for c in cols)


def psi_l(l: ComplexLine) -> BallExtremal:
    """Extremal for the geodesic cut by the line: automorphism then rotation."""
    a = _foot(l)
    t0 = 0.5 * (1.0 - math.sqrt(_norm2(a)))
    v = _automorphism(a, require_ball_point([x + t0 * y for x, y in zip(a, l.direction)]))
    if math.sqrt(_norm2(v)) < 1e-14:
        raise NoIntersection("degenerate image direction")
    return BallExtremal(minimal_point=a, unitary=_unitary_sending_to_e1(v))


def universal_member_B2(a):
    """Cross-term extremal of the two-ball family for lines with foot a != 0.

    z -> sqrt(1-|a|^2) (u1 z2 - u2 z1) / (1 - (conj(a1) z1 + conj(a2) z2)),
    with u = a / |a|.  Equals the inner product of the ball automorphism image
    against the unit normal of a, so it maps the ball into the disc and
    vanishes on the line {lambda a}.
    """
    a = require_ball_point(a)
    if len(a) != 2:
        raise DomainError("two-ball member needs a in dimension 2")
    u1, u2 = _unit(a, "parameter")
    s = math.sqrt(1.0 - _norm2(a))
    a1, a2 = a

    def member(z) -> complex:
        z = require_ball_point(z)
        den = 1.0 - (a1.conjugate() * z[0] + a2.conjugate() * z[1])
        return s * (u1 * z[1] - u2 * z[0]) / den

    member.parameter = (a1, a2)
    return member


def universal_member_linear(a1: float, a2: complex):
    """Unit linear functional z -> a1 z1 + a2 z2 with a1 >= 0 real."""
    a1 = float(a1)
    a2 = complex(a2)
    if a1 < 0.0:
        raise DomainError("first coefficient must be nonnegative")
    if abs(a1 * a1 + abs(a2) ** 2 - 1.0) > 1e-12:
        raise DomainError("coefficients must satisfy a1^2 + |a2|^2 = 1")

    def member(z) -> complex:
        z = require_ball_point(z)
        return complex(a1 * z[0] + a2 * z[1])

    member.parameter = (a1, a2)
    return member


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
    """
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"non-finite parameter t = {t!r}")
    lam = require_disc_point(lam)
    return ((t * t + lam) / (1.0 + t * t), t * (lam - 1.0) / (1.0 + t * t))


def c_star_ball(w, z) -> float:
    """sqrt(1 - (1-|w|^2)(1-|z|^2)/|1-<w,z>|^2): tanh of the ball distance."""
    w, z = _ball_pair(w, z)
    val = 1.0 - (1.0 - _norm2(w)) * (1.0 - _norm2(z)) / abs(1.0 - _herm(w, z)) ** 2
    return math.sqrt(max(val, 0.0))


def boundary_modulus_locus(z, tol: float = 1e-9) -> bool:
    """Whether Im(z2 (1 - conj(z1))) vanishes at a unit-sphere point."""
    z = _vec(z)
    if len(z) != 2:
        raise DomainError("defined on dimension 2")
    if abs(math.sqrt(_norm2(z)) - 1.0) > 1e-6:
        raise DomainError("point must lie on the unit sphere")
    z1, z2 = z
    return abs((z2 * (1.0 - z1.conjugate())).imag) <= tol


def boundary_modulus(z) -> float:
    """|F| at a sphere point; Indeterminate at the common zero of both parts."""
    z = _vec(z)
    z1, z2 = z[0], z[1]
    den = 2.0 * (1.0 - z1) - z2 * z2
    num = 2.0 * z1 * (1.0 - z1) - z2 * z2
    if abs(den) < DEN_GUARD:
        if abs(num) < DEN_GUARD:
            raise Indeterminate("numerator and denominator vanish together")
        return float("inf")
    return abs(num / den)
