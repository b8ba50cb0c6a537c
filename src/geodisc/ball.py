"""Euclidean-ball constructions: automorphisms, line extremals, the scalar
family for the two-ball, and the special left inverse with its geodesic fan.

Points are complex vectors; the Hermitian pairing is <z, w> = sum z_j conj(w_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, Indeterminate, NoIntersection

DEN_GUARD = 1e-13


def _vec(z) -> np.ndarray:
    v = np.asarray(z, dtype=complex)
    if v.ndim != 1 or v.size < 1:
        raise DomainError("expected a complex vector")
    return v


def require_ball_point(z) -> np.ndarray:
    v = _vec(z)
    if not np.all(np.isfinite(v.view(float))):
        raise DomainError("non-finite coordinates")
    if np.linalg.norm(v) >= 1.0:
        raise DomainError("point is not in the open unit ball")
    return v


def herm(z, w) -> complex:
    return complex(np.dot(_vec(z), _vec(w).conjugate()))


def ball_automorphism(a, z) -> np.ndarray:
    """Involutive automorphism swapping the base point a with the origin."""
    a = require_ball_point(a)
    z = require_ball_point(z)
    na2 = float(np.vdot(a, a).real)
    if na2 == 0.0:
        return z.copy()
    za = herm(z, a)
    s = math.sqrt(1.0 - na2)
    num = s * (za * a - na2 * z) - za * a + na2 * a
    return num / (na2 * (1.0 - za))


@dataclass(frozen=True)
class ComplexLine:
    """Affine complex line base + lambda * direction, direction normalized."""

    base: tuple[complex, ...]
    direction: tuple[complex, ...]

    def __post_init__(self):
        d = _vec(self.direction)
        nd = np.linalg.norm(d)
        if nd == 0.0:
            raise DomainError("direction must be nonzero")
        object.__setattr__(self, "direction", tuple(d / nd))
        object.__setattr__(self, "base", tuple(_vec(self.base)))

    def at(self, lam: complex) -> np.ndarray:
        return _vec(self.base) + lam * _vec(self.direction)


def minimal_norm_point(l: ComplexLine) -> np.ndarray:
    """Orthogonal foot of the origin on the line; must land inside the ball."""
    base, d = _vec(l.base), _vec(l.direction)
    foot = base - herm(base, d) * d
    if np.linalg.norm(foot) >= 1.0:
        raise NoIntersection("line misses the open unit ball")
    return foot


@dataclass(frozen=True)
class BallExtremal:
    """Scalar extremal <U Phi_a(z), e1> for the line through its minimal point."""

    minimal_point: tuple[complex, ...]
    unitary: tuple[tuple[complex, ...], ...]

    def __call__(self, z) -> complex:
        U = np.array(self.unitary, dtype=complex)
        return complex(U[0] @ ball_automorphism(np.array(self.minimal_point), z))

    def to_json(self) -> dict:
        return {
            "minimal_point": [[c.real, c.imag] for c in self.minimal_point],
            "unitary": [[[c.real, c.imag] for c in row] for row in self.unitary],
        }


def _unitary_sending_to_e1(v: np.ndarray) -> np.ndarray:
    """Rows form an orthonormal basis starting with conj(v): U v = e1.

    Gram-Schmidt over the standard basis with deterministic pivoting.
    """
    n = v.size
    cols = [v / np.linalg.norm(v)]
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        for c in cols:
            e = e - np.dot(e, c.conjugate()) * c
        nrm = np.linalg.norm(e)
        if nrm > 1e-10:
            cols.append(e / nrm)
        if len(cols) == n:
            break
    return np.vstack([c.conjugate() for c in cols])


def psi_l(l: ComplexLine) -> BallExtremal:
    """Extremal for the geodesic cut by the line: automorphism then rotation."""
    a = minimal_norm_point(l)
    d = _vec(l.direction)
    na = float(np.linalg.norm(a))
    if na == 0.0:
        v = d.copy()
    else:
        t0 = 0.5 * (1.0 - na)
        w = ball_automorphism(a, a + t0 * d)
        nw = np.linalg.norm(w)
        if nw < 1e-14:
            raise NoIntersection("degenerate image direction")
        v = w / nw
    U = _unitary_sending_to_e1(v)
    return BallExtremal(
        minimal_point=tuple(a),
        unitary=tuple(tuple(row) for row in U),
    )


def universal_member_B2(a):
    """Cross-term extremal of the two-ball family for lines with foot a != 0.

    z -> sqrt(1-|a|^2) (a1 z2 - a2 z1) / (|a| (1 - (conj(a1) z1 + conj(a2) z2))).
    Equals the inner product of the ball automorphism image against the unit
    normal of a, so it maps the ball into the disc and vanishes on the line
    {lambda a}.
    """
    a = require_ball_point(a)
    if a.size != 2:
        raise DomainError("two-ball member needs a in dimension 2")
    na = float(np.linalg.norm(a))
    if na == 0.0:
        raise DomainError("parameter must be nonzero")
    s = math.sqrt(1.0 - na * na)
    a1, a2 = complex(a[0]), complex(a[1])

    def member(z) -> complex:
        z = require_ball_point(z)
        den = 1.0 - (a1.conjugate() * z[0] + a2.conjugate() * z[1])
        return s * (a1 * z[1] - a2 * z[0]) / (na * den)

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
    if z.size != 2:
        raise DomainError("defined on dimension 2")
    z1, z2 = complex(z[0]), complex(z[1])
    den = 2.0 * (1.0 - z1) - z2 * z2
    if abs(den) < DEN_GUARD:
        raise Indeterminate(f"denominator vanishes at ({z1!r}, {z2!r})")
    return (2.0 * z1 * (1.0 - z1) - z2 * z2) / den


def f_t_geodesic(t: float, lam: complex) -> tuple[complex, complex]:
    """The fan of geodesics ((t^2 + lam)/(1 + t^2), t (lam - 1)/(1 + t^2))."""
    t = float(t)
    lam = complex(lam)
    return ((t * t + lam) / (1.0 + t * t), t * (lam - 1.0) / (1.0 + t * t))


def c_star_ball(w, z) -> float:
    """sqrt(1 - (1-|w|^2)(1-|z|^2)/|1-<w,z>|^2): tanh of the ball distance."""
    w = require_ball_point(w)
    z = require_ball_point(z)
    val = 1.0 - (1.0 - float(np.vdot(w, w).real)) * (1.0 - float(np.vdot(z, z).real)) / abs(
        1.0 - herm(w, z)
    ) ** 2
    return math.sqrt(max(val, 0.0))


def boundary_modulus_locus(z, tol: float = 1e-9) -> bool:
    """Whether Im(z2 (1 - conj(z1))) vanishes at a unit-sphere point."""
    z = _vec(z)
    if z.size != 2:
        raise DomainError("defined on dimension 2")
    if abs(np.linalg.norm(z) - 1.0) > 1e-6:
        raise DomainError("point must lie on the unit sphere")
    z1, z2 = complex(z[0]), complex(z[1])
    return abs((z2 * (1.0 - z1.conjugate())).imag) <= tol


def boundary_modulus(z) -> float:
    """|F| at a sphere point; Indeterminate at the common zero of both parts."""
    z = _vec(z)
    z1, z2 = complex(z[0]), complex(z[1])
    den = 2.0 * (1.0 - z1) - z2 * z2
    num = 2.0 * z1 * (1.0 - z1) - z2 * z2
    if abs(den) < DEN_GUARD:
        if abs(num) < DEN_GUARD:
            raise Indeterminate("numerator and denominator vanish together")
        return float("inf")
    return abs(num / den)
