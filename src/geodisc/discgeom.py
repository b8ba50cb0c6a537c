"""Hyperbolic geometry of the unit disc and one-variable Blaschke/Schur machinery.

Everything here is exact scalar arithmetic on ``complex``; no arrays.  All
types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, ZeroPolynomial

# Decision-boundary slack for strict inequalities; callers may override.
BOUNDARY_TOL = 1e-9
# Default tolerance of the geodesic certificates and of the Lempert verifier
# in :mod:`geodisc.metrics`.  It lives here, in a module without numpy, so that
# the CLI can show it as a default without loading the metrics layer.
MATCH_TOL = 1e-9


def require_disc_point(z: complex, tol: float = 0.0) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite point {z!r}")
    if abs(z) >= 1.0 + tol:
        raise DomainError(f"point {z!r} is not in the open unit disc")
    return z


def mobius_dist(z: complex, w: complex) -> float:
    """Pseudodistance |(z-w)/(1-conj(w)z)| in [0, 1)."""
    z = require_disc_point(z)
    w = require_disc_point(w)
    return abs((z - w) / (1.0 - w.conjugate() * z))


def rho(z: complex, w: complex) -> float:
    """Hyperbolic distance arctanh of the Mobius pseudodistance."""
    return math.atanh(mobius_dist(z, w))


def gamma_disc(w: complex, X: complex) -> float:
    """Infinitesimal hyperbolic length |X| / (1 - |w|^2) at w."""
    w = require_disc_point(w)
    return abs(X) / (1.0 - abs(w) ** 2)


@dataclass(frozen=True)
class MobiusMap:
    """The involutive family lam -> rotation * (nu - lam) / (1 - conj(nu) lam)."""

    nu: complex
    rotation: complex = 1.0 + 0.0j

    def __post_init__(self):
        require_disc_point(self.nu)
        if abs(abs(self.rotation) - 1.0) > BOUNDARY_TOL:
            raise DomainError(f"rotation {self.rotation!r} is not unimodular")

    def __call__(self, lam: complex) -> complex:
        return self.rotation * (self.nu - lam) / (1.0 - self.nu.conjugate() * lam)

    def inverse(self) -> "MobiusMap":
        # inverse of rot*m_nu is m_{rot*nu} followed by division by rot
        return MobiusMap(self.rotation * self.nu, self.rotation.conjugate())


# identity element of the group: m_0 with rotation -1
IDENTITY_MOBIUS = MobiusMap(0.0j, -1.0 + 0.0j)


def mobius_eval(m: MobiusMap, lam: complex) -> complex:
    lam = require_disc_point(lam)
    return m(lam)


@dataclass(frozen=True)
class Quadratic:
    """Polynomial a2*lam^2 + a1*lam + a0."""

    a2: complex
    a1: complex
    a0: complex

    def __post_init__(self):
        for c in (self.a2, self.a1, self.a0):
            c = complex(c)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise DomainError(f"non-finite coefficient {c!r}")

    def __call__(self, lam: complex) -> complex:
        return (self.a2 * lam + self.a1) * lam + self.a0

    def coeffs(self) -> tuple[complex, complex, complex]:
        return (complex(self.a2), complex(self.a1), complex(self.a0))

    def is_zero(self) -> bool:
        return self.a2 == 0 and self.a1 == 0 and self.a0 == 0

    def degree(self) -> int:
        if self.a2 != 0:
            return 2
        if self.a1 != 0:
            return 1
        if self.a0 != 0:
            return 0
        raise ZeroPolynomial("zero polynomial has no degree")


def schur_roots_outside(q: Quadratic) -> bool:
    """True iff every root of q lies strictly outside the closed unit disc.

    Degree two uses the Schur coefficient criterion
    ``|a0| > |a2| and |a0|^2 - |a2|^2 > |a1*conj(a0) - a2*conj(a1)|``;
    lower degrees reduce to the obvious conditions.  A nonzero constant
    passes vacuously.
    """
    if q.is_zero():
        raise ZeroPolynomial("schur_roots_outside: zero polynomial")
    A, B, C = q.a2, q.a1, q.a0
    if A == 0:
        if B == 0:
            return True  # nonzero constant, no roots
        return abs(C) > abs(B)  # single root -C/B
    return abs(C) > abs(A) and abs(C) ** 2 - abs(A) ** 2 > abs(
        B * C.conjugate() - A * B.conjugate()
    )


def _trimmed(q: Quadratic, scale_tol: float) -> list[complex]:
    """Coefficients [high..low] with negligible leading terms dropped."""
    cs = list(q.coeffs())
    big = max(abs(c) for c in cs)
    if big == 0.0:
        raise ZeroPolynomial("zero polynomial")
    while len(cs) > 1 and abs(cs[0]) <= scale_tol * big:
        cs.pop(0)
    return cs


def _reflection(cs: list[complex]) -> list[complex]:
    """Reversed conjugate coefficients: p*(lam) = lam^d * conj(p(1/conj(lam)))."""
    return [c.conjugate() for c in reversed(cs)]


def _roots_inside(cs: list[complex]) -> int:
    """Number of roots of the coefficient list strictly inside the unit disc."""
    import numpy as np

    if len(cs) == 1:
        return 0
    return int(sum(1 for r in np.roots(cs) if abs(r) < 1.0))


def blaschke_degree(num: Quadratic, den: Quadratic, tol: float = BOUNDARY_TOL):
    """Degree of num/den as a finite Blaschke product, or None if it is not one.

    Requires the denominator to be zero-free on the closed disc (checked via
    the Schur criterion).  The primary test is the self-inversive coefficient
    identity den = omega * reflection(num) with |omega| = 1; a 64-point
    unit-circle sampling of |num/den| is the fallback for non-coprime inputs.
    """
    if not schur_roots_outside(den):
        raise DomainError("denominator has a root in the closed unit disc")
    if num.is_zero():
        return None
    ncs = _trimmed(num, 1e-14)
    dcs = _trimmed(den, 1e-14)
    scale = max(abs(c) for c in ncs + dcs)

    refl = _reflection(ncs)
    if len(dcs) <= len(refl):
        padded = [0.0 + 0.0j] * (len(refl) - len(dcs)) + dcs
        pivot = max(range(len(refl)), key=lambda i: abs(refl[i]))
        omega = padded[pivot] / refl[pivot]
        ok = abs(abs(omega) - 1.0) <= tol and all(
            abs(padded[i] - omega * refl[i]) <= tol * scale for i in range(len(refl))
        )
        if ok:
            return len(ncs) - 1

    # fallback: sample the unit circle
    for k in range(64):
        lam = cmath.exp(2j * math.pi * (k + 0.5) / 64)
        nv = _polyval(ncs, lam)
        dv = _polyval(dcs, lam)
        if abs(abs(nv / dv) - 1.0) > tol:
            return None
    # unimodular on the circle: Blaschke; degree = zeros inside the disc
    return _roots_inside(ncs)


def _polyval(cs: list[complex], lam: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in cs:
        acc = acc * lam + c
    return acc
