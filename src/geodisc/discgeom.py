"""Hyperbolic geometry of the unit disc and the Schur test on quadratics.

Everything here is exact scalar arithmetic on ``complex``; no arrays.  All
types are immutable values and all operations are pure functions.

It owns the package's scalar contract: `_require_finite` is the one test
that input numbers are finite, and `_in_float_range` the one guard on a value
that leaves the float range; each raises DomainError.  A function on the
verifier's per-sample path keeps the statements that can overflow in a
``try`` instead, free on success, and raises `_out_of_range` on an
OverflowError.
"""

from __future__ import annotations

import cmath
import functools
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
    """residual <= tol * size + k * eps * terms, false for NaN and where that
    bound overflows: the one backward-error gate on a residual.

    `tol * size` is the stated tolerance on its own scale; `terms` is the
    sum of the moduli of the terms whose sum the residual is, and k eps
    times it bounds the rounding of that sum, so that a residual which is
    rounding only always passes.  A sum of terms beyond the float range
    bounds nothing, so it passes no residual.
    """
    return residual <= tol * size + _ROUNDING_K * _EPS * terms < math.inf


def _require_finite(values, what: str) -> None:
    """DomainError naming the first of the numbers `values` that is not
    finite; a hot path tests inline and calls this only to raise."""
    for v in values:
        if not cmath.isfinite(v):
            raise DomainError(f"non-finite {what} {v!r}")


def _finite_value(value) -> bool:
    """Whether no float or complex in value, or in its plain tuples and lists,
    is NaN or infinite; a named tuple is a value type that checked itself."""
    if type(value) in (tuple, list):
        return all(map(_finite_value, value))
    return not isinstance(value, (float, complex)) or cmath.isfinite(value)


def _out_of_range(name: str) -> DomainError:
    """The error of a value that leaves the float range inside `name`."""
    return DomainError(f"{name}: a value overflows or is not a number")


def _in_float_range(fn):
    """fn raising DomainError where a value leaves the float range: an
    OverflowError inside it, or a NaN or infinity in what it returns."""
    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except OverflowError:
            pass
        else:
            if _finite_value(value):
                return value
        raise _out_of_range(fn.__qualname__)
    return guarded


def require_disc_point(z: complex) -> complex:
    """z as a complex number of the open unit disc, else DomainError.

    One comparison on success: abs(z) < 1 is false for NaN and infinity, and
    only a failure is diagnosed as non-finite or outside the disc.
    """
    z = complex(z)
    try:
        if abs(z) < 1.0:
            return z
    except OverflowError:  # |z| of finite parts beyond the float range
        pass
    _require_finite((z,), "point")
    raise DomainError(f"point {z!r} is not in the open unit disc")


def _distance(z: complex, w: complex) -> float:
    """rho(z, w) of two disc points the caller has checked: arctanh p of the
    pseudodistance p, and where p rounds to 1, log1p(p) - log(1 - p^2)/2 with
    1 - p^2 as (1 - |z|)(1 + |z|)(1 - |w|)(1 + |w|) / |1 - conj(w) z|^2, which
    does not cancel."""
    den = 1.0 - w.conjugate() * z
    p = abs((z - w) / den)
    if p < 1.0:
        return math.atanh(p)
    az, aw = abs(z), abs(w)
    return math.log1p(p) - 0.5 * math.log((1.0 - az) * (1.0 + az) * (1.0 - aw) * (1.0 + aw) / abs(den) ** 2)


def rho(z: complex, w: complex) -> float:
    """Hyperbolic distance: `_distance` of z and w, checked to lie in the disc."""
    return _distance(require_disc_point(z), require_disc_point(w))


@_in_float_range
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
        try:
            off = abs(abs(rotation) - 1.0)
        except OverflowError:  # |rotation| of finite parts beyond the float range
            off = math.inf
        if not off <= BOUNDARY_TOL:
            raise DomainError(f"rotation {rotation!r} is not unimodular")
        return tuple.__new__(cls, (nu, rotation))

    def __call__(self, lam: complex) -> complex:
        return self.rotation * (self.nu - lam) / (1.0 - self.nu.conjugate() * lam)


class Quadratic(namedtuple("Quadratic", "a2 a1 a0")):
    """Polynomial a2*lam^2 + a1*lam + a0.  A named tuple: it compares equal to
    the plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, a2: complex, a1: complex, a0: complex):
        cs = complex(a2), complex(a1), complex(a0)
        _require_finite(cs, "coefficient")
        return tuple.__new__(cls, cs)

    def __call__(self, lam: complex) -> complex:
        return (self.a2 * lam + self.a1) * lam + self.a0

    def coeffs(self) -> tuple[complex, complex, complex]:
        return self[:]


@_in_float_range
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
