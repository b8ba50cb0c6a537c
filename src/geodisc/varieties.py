"""Tridisc varieties cut by a conjugate-symmetric bilinear equation, and the
planar-pair domains biholomorphic to them.

A nonzero triple ``alpha`` cuts the surface

    alpha1 z1 + alpha2 z2 + alpha3 z3
        = conj(alpha3) z1 z2 + conj(alpha2) z1 z3 + conj(alpha1) z2 z3

inside the open tridisc.  The triple is classified by the strict triangle
inequality on the moduli; in the non-retract regime the surface carries the
explicit geodesic families built in :mod:`geodisc.geodesics`.

numpy is imported only by :func:`transport`, so that the scalar functions
here load without it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .discgeom import MobiusMap, require_disc_point
from .errors import (
    DegenerateImage,
    DomainError,
    InvalidAutomorphism,
    NotInDomain,
    PoleError,
    Unsupported,
)

POLE_GUARD = 1e-13


@dataclass(frozen=True)
class Alpha:
    a1: complex
    a2: complex
    a3: complex

    def __post_init__(self):
        vals = self.coeffs()
        for c in vals:
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise DomainError(f"non-finite coefficient {c!r}")
        if all(c == 0 for c in vals):
            raise DomainError("alpha must not be the zero triple")

    def coeffs(self) -> tuple[complex, complex, complex]:
        return (complex(self.a1), complex(self.a2), complex(self.a3))

    def permuted(self, perm: tuple[int, int, int]) -> "Alpha":
        c = self.coeffs()
        return Alpha(c[perm[0]], c[perm[1]], c[perm[2]])

    def to_json(self) -> dict:
        return {"alpha": [[c.real, c.imag] for c in self.coeffs()]}

    @classmethod
    def from_json(cls, obj: dict) -> "Alpha":
        return cls(*(complex(re, im) for re, im in obj["alpha"]))


@dataclass(frozen=True)
class TriClass:
    retract: bool
    axis: int | None = None  # 1-based graph coordinate when retract

    def to_json(self) -> dict:
        if self.retract:
            return {"class": "RetractGraph", "axis": self.axis}
        return {"class": "NonRetract"}


def classify(alpha: Alpha) -> TriClass:
    """Non-retract iff the moduli satisfy all three strict triangle inequalities.

    Otherwise the surface is a graph over the complement of the coordinate
    whose modulus dominates (smallest index on ties).
    """
    m = [abs(c) for c in alpha.coeffs()]
    for k in range(3):
        i, j = [t for t in range(3) if t != k]
        if m[i] + m[j] <= m[k]:
            return TriClass(retract=True, axis=k + 1)
    return TriClass(retract=False)


def membership_residual(alpha: Alpha, z: tuple[complex, complex, complex]) -> complex:
    """Defining-equation residual; zero iff z lies on the surface."""
    z1, z2, z3 = (require_disc_point(w) for w in z)
    return surface_residual(alpha, z1, z2, z3)


def surface_residual(alpha: Alpha, z1, z2, z3):
    """Defining-equation residual without the tridisc check.

    The coordinates may be numpy arrays, which gives the residual at many
    points at once by the same formula as at one point.
    """
    a1, a2, a3 = alpha.coeffs()
    return (
        a1 * z1
        + a2 * z2
        + a3 * z3
        - a3.conjugate() * z1 * z2
        - a2.conjugate() * z1 * z3
        - a1.conjugate() * z2 * z3
    )


def graph_value(alpha: Alpha, z1: complex, z2: complex) -> complex:
    """Third coordinate solving the defining equation over (z1, z2).

    Needs alpha3 != 0; callers must permute coordinates first otherwise.
    """
    a1, a2, a3 = alpha.coeffs()
    if a3 == 0:
        raise Unsupported("graph over (z1, z2) needs alpha3 != 0; permute first")
    den = a3 - a2.conjugate() * z1 - a1.conjugate() * z2
    if abs(den) < POLE_GUARD * max(abs(a3), 1.0):
        raise PoleError(f"graph denominator vanishes at ({z1!r}, {z2!r})")
    return (a3.conjugate() * z1 * z2 - a1 * z1 - a2 * z2) / den


@dataclass(frozen=True)
class NormalForm:
    """Positive parameters (a, b) and the diagonal rotation matching them.

    A point z lies on the original surface iff (u1 z1, u2 z2, u3 z3) lies on
    the surface of the real triple (a, b, 1).
    """

    a: float
    b: float
    rotations: tuple[complex, complex, complex]

    def apply(self, z):
        return tuple(u * w for u, w in zip(self.rotations, z))

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "rotations": [[u.real, u.imag] for u in self.rotations],
        }


def normalize(alpha: Alpha) -> NormalForm:
    """Diagonal-rotation normal form with a = |a1|/|a3|, b = |a2|/|a3|.

    The three unimodular factors are pinned by matching the defining
    equations coefficient by coefficient; the solution is unique.  Triples
    with a1 or a2 equal to zero have no positive normal form.
    """
    a1, a2, a3 = alpha.coeffs()
    if a3 == 0:
        raise Unsupported("normalize needs alpha3 != 0; permute first")
    if a1 == 0 or a2 == 0:
        raise Unsupported("degenerate triple: positive normal form needs alpha1, alpha2 != 0")
    a = abs(a1) / abs(a3)
    b = abs(a2) / abs(a3)
    u1 = (a3.conjugate() / abs(a3)) * (abs(a2) / a2)
    u2 = (a3.conjugate() / abs(a3)) * (abs(a1) / a1)
    u3 = (abs(a1) / a1) * (abs(a2) / a2)
    return NormalForm(a=a, b=b, rotations=(u1, u2, u3))


@dataclass(frozen=True)
class TridiscAutomorphism:
    """Coordinate permutation followed by per-coordinate Mobius maps.

    Acts as w_j = maps[j](z[perm[j]]); perm is 0-based.
    """

    perm: tuple[int, int, int]
    maps: tuple[MobiusMap, MobiusMap, MobiusMap]

    def __post_init__(self):
        if sorted(self.perm) != [0, 1, 2]:
            raise DomainError(f"perm {self.perm!r} is not a permutation of (0,1,2)")

    def __call__(self, z):
        return tuple(m(z[p]) for m, p in zip(self.maps, self.perm))

    def inverse_point(self, w):
        """Preimage of w (enough for base-point checks; avoids composing)."""
        z = [0.0j, 0.0j, 0.0j]
        for j in range(3):
            z[self.perm[j]] = self.maps[j].inverse()(w[j])
        return tuple(z)

    @classmethod
    def moving_to_origin(cls, p, perm=(0, 1, 2)) -> "TridiscAutomorphism":
        """The automorphism z -> (m_{p_sigma(j)}(z_sigma(j)))_j sending p to 0."""
        return cls(perm=perm, maps=tuple(MobiusMap(p[q]) for q in perm))


def _equation_tensor(alpha: Alpha) -> list:
    """The defining equation as nested 2x2x2 lists: entry [i][j][k] is the
    coefficient of z1^i z2^j z3^k."""
    a1, a2, a3 = alpha.coeffs()
    return [[[0j, a3], [a2, -a1.conjugate()]], [[a1, -a2.conjugate()], [-a3.conjugate(), 0j]]]


def _inverse_slot_matrix(m: MobiusMap) -> list:
    """How substituting the inverse of m into one coordinate acts on that axis.

    The inverse of lam -> rot (nu - lam)/(1 - conj(nu) lam) is
    w -> (nu - conj(rot) w)/(1 - conj(nu rot) w).  With its denominator
    cleared, z^0 becomes 1 - conj(nu rot) w and z^1 becomes nu - conj(rot) w;
    column a of the 2x2 nested list holds the coefficients (of w^0, w^1) of z^a.
    """
    rc = m.rotation.conjugate()
    return [[1.0, m.nu], [-m.nu.conjugate() * rc, -rc]]


def transport(alpha: Alpha, m: TridiscAutomorphism, tol: float = 1e-9) -> Alpha:
    """Image triple beta with m(surface of alpha) = surface of beta.

    The defining equation is multi-affine, so it is the tensor T of
    :func:`_equation_tensor`.  A point w lies on the image iff m^-1(w) lies
    on the surface.  Coordinate perm[j] of m^-1(w) depends on w_j alone, so
    the permutation transposes the axes of T and each Mobius slot acts on
    one axis through the 2x2 matrix of its inverse with the denominator
    cleared (the denominators do not vanish on the closed tridisc):

        Q = einsum("abc,ia,jb,kc->ijk", T.transpose(perm), M1, M2, M3).

    Q is the image equation up to a nonzero factor.  Its constant entry is
    the equation at m^-1(0), and its w1 w2 w3 entry the equation at the
    reflection of m^-1(0) in the torus (z -> 1/conj(z)), so both vanish.
    Read as the graph w3 = (A w1 + B w2 + C w1 w2)/(D w1 + E w2 + F),
    A = Q100, B = Q010, C = Q110, D = -Q101, E = -Q011 and F = -Q001.  With
    F normalized to 1, beta = (c conj(E), c conj(D), -conj(c)) where c^2 = C,
    branch Re c >= 0 (positive imaginary part on ties).

    Requires m to send some point of the surface to the origin (checked via
    the preimage of 0).  The result is checked coefficient by coefficient:
    Q rescaled to beta3 must equal the tensor of beta to within `tol` in the
    sum of moduli, which bounds the residual of beta on the image at every
    point of the closed tridisc.
    """
    import numpy as np

    base = m.inverse_point((0.0j, 0.0j, 0.0j))
    if max(abs(w) for w in base) >= 1.0:
        raise InvalidAutomorphism("preimage of 0 left the tridisc")
    if abs(membership_residual(alpha, base)) > tol:
        raise InvalidAutomorphism("m does not move a surface point to the origin")

    T = np.array(_equation_tensor(alpha)).transpose(m.perm)
    Q = np.einsum("abc,ia,jb,kc->ijk", T, *(np.array(_inverse_slot_matrix(s)) for s in m.maps))
    F = -complex(Q[0, 0, 1])
    if abs(F) < 1e-12 * float(np.abs(Q).max()):
        raise DegenerateImage("image surface has F = 0; not a graph over (z1, z2)")
    coeffs = (Q[1, 0, 0], Q[0, 1, 0], Q[1, 1, 0], -Q[1, 0, 1], -Q[0, 1, 1])
    A, B, C, D, E = (complex(x) / F for x in coeffs)
    if abs(C) < 1e-9:
        raise DegenerateImage("image collapsed to a linear graph z3 = A z1 + B z2")
    c = cmath.sqrt(C)
    if c.real < 0 or (c.real == 0 and c.imag < 0):
        c = -c
    beta = Alpha(c * E.conjugate(), c * D.conjugate(), -c.conjugate())
    worst = float(np.abs(Q * (beta.a3 / -F) - np.array(_equation_tensor(beta))).sum())
    if not worst <= tol:
        raise DegenerateImage(f"transported coefficients miss by {worst:.3e}, above tolerance")
    return beta


@dataclass(frozen=True)
class DomainDab:
    """The planar-pair domain of all bidisc points with rational image in the disc."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise DomainError("parameters a, b must be positive")

    @property
    def interesting(self) -> bool:
        """True in the triangle-inequality regime |a-b| < 1 < a+b."""
        return abs(self.a - self.b) < 1.0 < self.a + self.b

    def f(self, z1: complex, z2: complex) -> complex:
        """The defining rational map (a z1 + b z2 - z1 z2)/(a z2 + b z1 - 1)."""
        den = self.a * z2 + self.b * z1 - 1.0
        if abs(den) < POLE_GUARD:
            raise PoleError(f"denominator vanishes at ({z1!r}, {z2!r})")
        return (self.a * z1 + self.b * z2 - z1 * z2) / den

    def f_gradient(self, z1: complex, z2: complex) -> tuple[complex, complex]:
        num = self.a * z1 + self.b * z2 - z1 * z2
        den = self.a * z2 + self.b * z1 - 1.0
        d1 = ((self.a - z2) * den - num * self.b) / (den * den)
        d2 = ((self.b - z1) * den - num * self.a) / (den * den)
        return (d1, d2)


def dab_contains(d: DomainDab, z: tuple[complex, complex]) -> bool:
    z1, z2 = complex(z[0]), complex(z[1])
    if abs(z1) >= 1.0 or abs(z2) >= 1.0:
        return False
    try:
        return abs(d.f(z1, z2)) < 1.0
    except PoleError:
        return False


def lift_to_M(d: DomainDab, z: tuple[complex, complex]) -> tuple[complex, complex, complex]:
    """Lift (z1, z2) to the surface point (z1, z2, f(z)) of the triple (a, b, 1)."""
    if not dab_contains(d, z):
        raise NotInDomain(f"{z!r} is not in the domain")
    z1, z2 = complex(z[0]), complex(z[1])
    return (z1, z2, d.f(z1, z2))


def normal_alpha(d: DomainDab) -> Alpha:
    """The real triple (a, b, 1) whose surface the domain lifts onto."""
    return Alpha(complex(d.a), complex(d.b), 1.0 + 0.0j)
