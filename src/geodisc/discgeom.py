"""Hyperbolic geometry of the unit disc and the Schur test on quadratics.

Everything here is exact scalar arithmetic on ``complex``; no arrays.  All
types are immutable values and all operations are pure functions.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .errors import DomainError, ZeroPolynomial

# Decision-boundary slack for strict inequalities.
BOUNDARY_TOL = 1e-9


def _strict_triangle(m1: float, m2: float, m3: float) -> bool:
    """|m1 - m2| < m3 < m1 + m2 in floating point: the test of the non-retract regime."""
    return abs(m1 - m2) < m3 < m1 + m2


# k of `_residual_within`, derived from the rounding of the residuals it
# gates.  Each is a sum of terms t_i, products of stored values, evaluated
# left to right.  To first order in u = eps/2 the computed sum is off by at
# most n u sum|t_i|, n the largest count of rounding units on one term's
# path: u for a complex sum, a real-by-complex product, a square or a
# subtraction from 1, 2u for a modulus (hypot), 2 sqrt(2) u for a complex
# product (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
# lemma 3.5).  The longest path is the gamma1 gamma2 term of
# kappa' = r1 eta + r2 omega + omega eta conj(q) in `_certify_disc`: three
# complex products (gamma1 gamma2, omega eta, and that times conj(q)) and
# two sums, n < 10.5.  kappa needs n = 8 (b |gamma2|^2 eta: modulus, square,
# 1 -, times b, times eta, two sums), the six-term defining equation
# n < 8.7 (two complex products, three sums).  k = 8, that is 16 units,
# covers 10.5 with room for the second-order terms, for |omega| and |eta|
# off 1 by up to RESIDUAL_TOL, and for the rounding of sum|t_i| itself.
# Errors in the stored values (a pair that is not exact) are not rounding
# of the evaluation; they must fit in tol * size.
_ROUNDING_K = 8
_EPS = sys.float_info.epsilon


def _residual_within(residual: float, tol: float, size: float, terms: float) -> bool:
    """residual <= tol * size + k * eps * terms, false for NaN: the one
    backward-error gate on a residual.

    `tol * size` is the stated tolerance on its own scale; `terms` is the
    sum of the moduli of the terms whose sum the residual is, and k eps
    times it bounds the rounding of that sum, so that a residual which is
    rounding only always passes.
    """
    return residual <= tol * size + _ROUNDING_K * _EPS * terms


def require_disc_point(z: complex) -> complex:
    """z as a complex number of the open unit disc, else DomainError.

    One comparison on success: abs(z) < 1 is false for NaN and infinity, and
    only a failure is diagnosed as non-finite or outside the disc.
    """
    z = complex(z)
    if abs(z) < 1.0:
        return z
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"non-finite point {z!r}")
    raise DomainError(f"point {z!r} is not in the open unit disc")


def _pseudo_dist(z: complex, w: complex) -> float:
    """|(z-w)/(1-conj(w)z)| of two complex points the caller has checked."""
    return abs((z - w) / (1.0 - w.conjugate() * z))


def mobius_dist(z: complex, w: complex) -> float:
    """Pseudodistance |(z-w)/(1-conj(w)z)| in [0, 1)."""
    return _pseudo_dist(require_disc_point(z), require_disc_point(w))


def rho(z: complex, w: complex) -> float:
    """Hyperbolic distance arctanh of the Mobius pseudodistance."""
    return math.atanh(mobius_dist(z, w))


def gamma_disc(w: complex, X: complex) -> float:
    """Infinitesimal hyperbolic length |X| / (1 - |w|^2) at w."""
    w = require_disc_point(w)
    return abs(X) / (1.0 - abs(w) ** 2)


class MobiusMap(namedtuple("MobiusMap", "nu rotation")):
    """The involutive family lam -> rotation * (nu - lam) / (1 - conj(nu) lam).
    A named tuple: it compares equal to the plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, nu: complex, rotation: complex = 1.0 + 0.0j):
        nu = require_disc_point(nu)
        if not abs(abs(rotation) - 1.0) <= BOUNDARY_TOL:
            raise DomainError(f"rotation {rotation!r} is not unimodular")
        return tuple.__new__(cls, (nu, rotation))

    def __call__(self, lam: complex) -> complex:
        return self.rotation * (self.nu - lam) / (1.0 - self.nu.conjugate() * lam)


class Quadratic(namedtuple("Quadratic", "a2 a1 a0")):
    """Polynomial a2*lam^2 + a1*lam + a0.  A named tuple: it compares equal to
    the plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, a2: complex, a1: complex, a0: complex):
        cs = []
        for c in (a2, a1, a0):
            c = complex(c)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise DomainError(f"non-finite coefficient {c!r}")
            cs.append(c)
        return tuple.__new__(cls, cs)

    def __call__(self, lam: complex) -> complex:
        return (self.a2 * lam + self.a1) * lam + self.a0

    def coeffs(self) -> tuple[complex, complex, complex]:
        return self[:]


def schur_roots_outside(q: Quadratic) -> bool:
    """True iff every root of q lies strictly outside the closed unit disc.

    Degree two uses the Schur coefficient criterion
    ``|a0| > |a2| and |a0|^2 - |a2|^2 > |a1*conj(a0) - a2*conj(a1)|``;
    lower degrees reduce to the obvious conditions.  A nonzero constant
    passes vacuously.
    """
    A, B, C = q.a2, q.a1, q.a0
    if A == 0 and B == 0 and C == 0:
        raise ZeroPolynomial("schur_roots_outside: zero polynomial")
    if A == 0:
        if B == 0:
            return True  # nonzero constant, no roots
        return abs(C) > abs(B)  # single root -C/B
    return abs(C) > abs(A) and abs(C) ** 2 - abs(A) ** 2 > abs(
        B * C.conjugate() - A * B.conjugate()
    )
