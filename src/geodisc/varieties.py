"""Tridisc varieties cut by a conjugate-symmetric bilinear equation, and the
planar-pair domains biholomorphic to them.

A nonzero triple ``alpha`` cuts the surface

    alpha1 z1 + alpha2 z2 + alpha3 z3
        = conj(alpha3) z1 z2 + conj(alpha2) z1 z3 + conj(alpha1) z2 z3

inside the open tridisc.  The triple is classified by the strict triangle
inequality on the moduli; in the non-retract regime the surface carries the
explicit geodesic families built in :mod:`geodisc.geodesics`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

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


def _surface_samples(alpha: Alpha, n: int, seed: int = 20240) -> list:
    """Deterministic points on the surface via the graph over two coordinates."""
    from .oracle import rng_for

    a1, a2, a3 = alpha.coeffs()
    # permute so the graph denominator is generically well-conditioned
    if a3 == 0:
        perm = (2, 0, 1) if a2 != 0 else (1, 2, 0)
    else:
        perm = (0, 1, 2)
    ap = alpha.permuted(perm)
    pts = []
    i = 0
    while len(pts) < n:
        rng = rng_for(seed, i)
        i += 1
        z1 = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        z2 = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        if abs(z1) >= 0.8 or abs(z2) >= 0.8:
            continue
        try:
            z3 = graph_value(ap, z1, z2)
        except PoleError:
            continue
        if abs(z3) >= 0.999:
            continue
        w = (z1, z2, z3)
        inv = {perm[j]: j for j in range(3)}
        pts.append(tuple(w[inv[k]] for k in range(3)))
    return pts


def transport(alpha: Alpha, m: TridiscAutomorphism, tol: float = 1e-9) -> Alpha:
    """Image triple beta with m(surface of alpha) = surface of beta.

    The image is again a graph z3 = (A z1 + B z2 + C z1 z2)/(D z1 + E z2 + F);
    the six coefficients are fitted as the nullspace of sampled image points,
    F is normalized to 1, and beta = (c conj(E), c conj(D), -conj(c)) with
    c^2 = C, branch Re c >= 0 (positive imaginary part on ties).

    Requires m to send some point of the surface to the origin (checked via
    the preimage of 0).
    """
    base = m.inverse_point((0.0j, 0.0j, 0.0j))
    if max(abs(w) for w in base) >= 1.0:
        raise InvalidAutomorphism("preimage of 0 left the tridisc")
    if abs(membership_residual(alpha, base)) > tol:
        raise InvalidAutomorphism("m does not move a surface point to the origin")

    pts = _surface_samples(alpha, 12)
    rows = []
    for z in pts:
        w1, w2, w3 = m(z)
        rows.append([w1, w2, w1 * w2, -w1 * w3, -w2 * w3, -w3])
    M = np.array(rows, dtype=complex)
    _, sing, vh = np.linalg.svd(M)
    if sing[-2] < 1e-6:  # a second relation would mean degenerate sampling
        raise DegenerateImage("coefficient fit is rank-deficient")
    A, B, C, D, E, F = vh[-1].conj()
    if abs(F) < 1e-12:
        raise DegenerateImage("image surface has F = 0; not a graph over (z1, z2)")
    A, B, C, D, E, F = (x / F for x in (A, B, C, D, E, F))
    if abs(C) < 1e-9:
        raise DegenerateImage("image collapsed to a linear graph z3 = A z1 + B z2")
    c = cmath.sqrt(C)
    if c.real < 0 or (c.real == 0 and c.imag < 0):
        c = -c
    beta = Alpha(c * E.conjugate(), c * D.conjugate(), -c.conjugate())
    worst = max(abs(membership_residual(beta, m(z))) for z in pts)
    if worst > tol:
        raise DegenerateImage(f"transported residual {worst:.3e} exceeds tolerance")
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
