"""Tridisc varieties cut by a conjugate-symmetric bilinear equation, and the
planar-pair domains biholomorphic to them.

A nonzero triple ``alpha`` cuts the surface

    alpha1 z1 + alpha2 z2 + alpha3 z3
        = conj(alpha3) z1 z2 + conj(alpha2) z1 z3 + conj(alpha1) z2 z3

inside the open tridisc.  The triple is classified by the strict triangle
inequality on the moduli; in the non-retract regime the surface carries the
explicit geodesic families built in :mod:`geodisc.geodesics`.

Everything here computes on Python ``complex``, :func:`transport` included.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import namedtuple
from operator import mul, sub

from .discgeom import (MobiusMap, _in_float_range, _require_finite, _residual_within, _strict_triangle,
                       require_disc_point)
from .errors import (
    DegenerateImage,
    DomainError,
    InvalidAutomorphism,
    NotInDomain,
    PoleError,
    Unsupported,
)

POLE_GUARD = 1e-13
# bound on the base-point residual (relative to min(1, S), S the sum of its
# term moduli) and on the coefficient miss in `transport`
TRANSPORT_TOL = 1e-9


class Alpha(namedtuple("Alpha", "a1 a2 a3")):
    """Coefficients of the defining equation, finite and not all zero.  A
    named tuple: it compares equal to the plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, a1: complex, a2: complex, a3: complex):
        vals = complex(a1), complex(a2), complex(a3)
        if not all(map(cmath.isfinite, vals)):  # inline on success: transport builds one per call
            _require_finite(vals, "coefficient")
        if not any(vals):
            raise DomainError("alpha must not be the zero triple")
        return tuple.__new__(cls, vals)

    def coeffs(self) -> tuple[complex, complex, complex]:
        return self[:]

    def permuted(self, perm: tuple[int, int, int]) -> "Alpha":
        return Alpha(self[perm[0]], self[perm[1]], self[perm[2]])

    def to_json(self) -> dict:
        return {"alpha": [[c.real, c.imag] for c in self]}


class TriClass(namedtuple("TriClass", "retract axis", defaults=(None,))):
    """Class of a triple; axis is the 1-based graph coordinate when retract.
    A named tuple: it compares equal to the plain tuple of its fields."""

    __slots__ = ()

    def to_json(self) -> dict:
        if self.retract:
            return {"class": "RetractGraph", "axis": self.axis}
        return {"class": "NonRetract"}


@_in_float_range
def classify(alpha: Alpha) -> TriClass:
    """Non-retract iff the moduli satisfy all three strict triangle inequalities.

    Otherwise the surface is a graph over the complement of the coordinate
    whose modulus dominates (smallest index on ties).  Ties are decided in
    floating point as |m1 - m2| < m3 < m1 + m2 on the computed moduli, in
    the triple's own order, as `Lens.nonempty` decides (a, b, 1); a
    transport that is correct to rounding can still move a triple across it.
    """
    m = [abs(c) for c in alpha]
    if _strict_triangle(*m):
        return TriClass(retract=False)
    return TriClass(retract=True, axis=m.index(max(m)) + 1)


def _membership(
    a1: complex, a2: complex, a3: complex, z1: complex, z2: complex, z3: complex
) -> tuple[complex, float]:
    """(residual, S): the defining equation of (a1, a2, a3) at z, and S the
    sum of the moduli of its six terms, the scale of its rounding."""
    e1, e2, e3 = a1 * z1, a2 * z2, a3 * z3
    e4, e5, e6 = a3.conjugate() * z1 * z2, a2.conjugate() * z1 * z3, a1.conjugate() * z2 * z3
    return e1 + e2 + e3 - e4 - e5 - e6, abs(e1) + abs(e2) + abs(e3) + abs(e4) + abs(e5) + abs(e6)


def membership_residual(alpha: Alpha, z: tuple[complex, complex, complex]) -> complex:
    """Defining-equation residual; zero iff z lies on the surface."""
    z1, z2, z3 = map(require_disc_point, z)
    return _membership(*alpha, z1, z2, z3)[0]


@_in_float_range
def graph_value(alpha: Alpha, z1: complex, z2: complex) -> complex:
    """Third coordinate solving the defining equation over (z1, z2).

    Needs alpha3 != 0; callers must permute coordinates first otherwise.
    """
    a1, a2, a3 = alpha
    if a3 == 0:
        raise Unsupported("graph over (z1, z2) needs alpha3 != 0; permute first")
    den = a3 - a2.conjugate() * z1 - a1.conjugate() * z2
    if abs(den) < POLE_GUARD * max(abs(a3), 1.0):
        raise PoleError(f"graph denominator vanishes at ({z1!r}, {z2!r})")
    return (a3.conjugate() * z1 * z2 - a1 * z1 - a2 * z2) / den


class NormalForm(namedtuple("NormalForm", "a b rotations")):
    """Positive parameters (a, b) and the diagonal rotation matching them.

    A point z lies on the original surface iff (u1 z1, u2 z2, u3 z3) lies on
    the surface of the real triple (a, b, 1).  A named tuple: it compares
    equal to the plain tuple of its fields.
    """

    __slots__ = ()

    def apply(self, z):
        return tuple(u * w for u, w in zip(self.rotations, z))

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "rotations": [[u.real, u.imag] for u in self.rotations],
        }


@_in_float_range
def normalize(alpha: Alpha) -> NormalForm:
    """Diagonal-rotation normal form with a = |a1|/|a3|, b = |a2|/|a3|.

    The three unimodular factors are pinned by matching the defining
    equations coefficient by coefficient; the solution is unique.  Triples
    with a1 or a2 equal to zero have no positive normal form, and DomainError
    is raised where a or b overflows or underflows to 0.
    """
    a1, a2, a3 = alpha
    if a3 == 0:
        raise Unsupported("normalize needs alpha3 != 0; permute first")
    if a1 == 0 or a2 == 0:
        raise Unsupported("degenerate triple: positive normal form needs alpha1, alpha2 != 0")
    a = abs(a1) / abs(a3)
    b = abs(a2) / abs(a3)
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"normal form parameters a, b = {a}, {b} leave the positive float range")
    u1 = (a3.conjugate() / abs(a3)) * (abs(a2) / a2)
    u2 = (a3.conjugate() / abs(a3)) * (abs(a1) / a1)
    u3 = (abs(a1) / a1) * (abs(a2) / a2)
    return NormalForm(a=a, b=b, rotations=(u1, u2, u3))


# Flat index 4i + 2j + k of the coefficient of z1^i z2^j z3^k in the 2x2x2
# equation tensor, and for each permutation the source index of each entry of
# the tensor with its axes transposed by that permutation (new axis n is old
# axis perm[n], as numpy's transpose).
_TRANSPOSE = {
    perm: tuple(sum(((f >> (2 - n)) & 1) << (2 - perm[n]) for n in range(3)) for f in range(8))
    for perm in itertools.permutations(range(3))
}
# the four (low, high) index pairs along each axis
_AXIS_PAIRS = tuple(tuple((f, f | s) for f in range(8) if not f & s) for s in (4, 2, 1))


class TridiscAutomorphism(namedtuple("TridiscAutomorphism", "perm maps")):
    """Coordinate permutation followed by per-coordinate Mobius maps.

    Acts as w_j = maps[j](z[perm[j]]); perm is 0-based.  A named tuple: it
    compares equal to the plain tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, perm: tuple[int, int, int], maps: tuple[MobiusMap, MobiusMap, MobiusMap]):
        try:
            p = tuple(perm)
            ok = p in _TRANSPOSE
        except TypeError:
            ok = False
        if not ok:
            raise DomainError(f"perm {perm!r} is not a permutation of (0,1,2)")
        try:
            s = tuple(maps)
        except TypeError:
            s = ()
        if len(s) != 3 or not all(isinstance(f, MobiusMap) for f in s):
            raise DomainError(f"maps {maps!r} are not three MobiusMap slots")
        return tuple.__new__(cls, (p, s))

    def __call__(self, z):
        return tuple(m(z[p]) for m, p in zip(self.maps, self.perm))

    @classmethod
    def moving_to_origin(cls, p, perm=(0, 1, 2)) -> "TridiscAutomorphism":
        """The automorphism z -> (m_{p_sigma(j)}(z_sigma(j)))_j sending p to 0."""
        return cls(perm, tuple(MobiusMap(p[q]) for q in perm))


def _equation_tensor(alpha: Alpha) -> tuple[complex, ...]:
    """The defining equation as the flat 8-tuple: entry 4i + 2j + k is the
    coefficient of z1^i z2^j z3^k."""
    a1, a2, a3 = alpha
    return (0j, a3, a2, -a1.conjugate(), a1, -a2.conjugate(), -a3.conjugate(), 0j)


@_in_float_range
def transport(alpha: Alpha, m: TridiscAutomorphism) -> Alpha:
    """Image triple beta with m(surface of alpha) = surface of beta.

    The defining equation is multi-affine, so it is the 2x2x2 tensor T of
    :func:`_equation_tensor`, held flat.  A point w lies on the image iff
    m^-1(w) lies on the surface.  Coordinate perm[j] of m^-1(w) depends on
    w_j alone, so the permutation transposes the axes of T (one index table
    per permutation), and each Mobius slot then acts on its own axis.  The
    inverse of lam -> rot (nu - lam)/(1 - conj(nu) lam) is
    w -> (nu - conj(rot) w)/(1 - conj(nu rot) w); with its denominator cleared
    (it does not vanish on the closed tridisc), each pair (x0, x1) of
    coefficients of z^0, z^1 along the axis becomes the pair of w^0, w^1

        (x0 + nu x1,  -conj(rot) (conj(nu) x0 + x1)).

    The result Q is the image equation up to a nonzero factor.  Its constant
    entry is the equation at m^-1(0), and its w1 w2 w3 entry the equation at
    the reflection of m^-1(0) in the torus (z -> 1/conj(z)), so both vanish.
    Read as the graph w3 = (A w1 + B w2 + C w1 w2)/(D w1 + E w2 + F),
    A = Q100, B = Q010, C = Q110, D = -Q101, E = -Q011 and F = -Q001.  With
    F normalized to 1, beta = (c conj(E), c conj(D), -conj(c)) where c^2 = C,
    branch Re c >= 0 (positive imaginary part on ties).

    Requires m to send some point of the surface to the origin.  Each slot
    sends its own pole to 0, so m^-1(0) has coordinate perm[j] equal to
    maps[j].nu.  Its residual, with S the sum of the moduli of its six
    terms, must pass `_residual_within(|residual|, TRANSPORT_TOL, min(1, S),
    S)`, the membership test of `geodesic_through` with TRANSPORT_TOL, so
    the test does not change with the scale of alpha.  The result is checked
    coefficient by coefficient: Q rescaled to beta3 must equal the tensor of
    beta to within TRANSPORT_TOL in the sum of moduli, which bounds the
    residual of beta on the image at every point of the closed tridisc.
    """
    base = [0j, 0j, 0j]
    for p, s in zip(m.perm, m.maps):
        base[p] = s.nu
    res, S = _membership(*alpha, *base)
    if not _residual_within(abs(res), TRANSPORT_TOL, min(1.0, S), S):
        raise InvalidAutomorphism("m does not move a surface point to the origin")

    t = _equation_tensor(alpha)
    q = list(map(t.__getitem__, _TRANSPOSE[m.perm]))
    for pairs, s in zip(_AXIS_PAIRS, m.maps):
        nu, nuc, rc = s.nu, s.nu.conjugate(), -s.rotation.conjugate()
        for lo, hi in pairs:
            x0, x1 = q[lo], q[hi]
            q[lo] = x0 + nu * x1
            q[hi] = rc * (nuc * x0 + x1)
    F = -q[1]
    if not F or abs(F) < 1e-12 * max(map(abs, q)):  # the scaled bound underflows to 0 on a tiny triple
        raise DegenerateImage("image surface has F = 0; not a graph over (z1, z2)")
    C, D, E = q[6] / F, -q[5] / F, -q[3] / F
    if abs(C) < 1e-9:
        raise DegenerateImage("image collapsed to a linear graph z3 = A z1 + B z2")
    c = cmath.sqrt(C)
    if c.real < 0 or (c.real == 0 and c.imag < 0):
        c = -c
    beta = Alpha(c * E.conjugate(), c * D.conjugate(), -c.conjugate())
    scale = beta.a3 / -F
    worst = sum(map(abs, map(sub, map(mul, q, itertools.repeat(scale)), _equation_tensor(beta))))
    if not worst <= TRANSPORT_TOL:
        raise DegenerateImage(f"transported coefficients miss by {worst:.3e}, above tolerance")
    return beta


class DomainDab(namedtuple("DomainDab", "a b")):
    """The planar-pair domain of all bidisc points with rational image in the disc.
    A named tuple: it compares equal to the plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        try:
            ok = 0.0 < a < math.inf and 0.0 < b < math.inf
        except TypeError:
            ok = False
        if not ok:
            raise DomainError(f"parameters a, b = {a!r}, {b!r} must be positive and finite")
        return tuple.__new__(cls, (a, b))

    def f(self, z1: complex, z2: complex) -> complex:
        """The defining rational map (a z1 + b z2 - z1 z2)/(a z2 + b z1 - 1)."""
        den = self.a * z2 + self.b * z1 - 1.0
        if abs(den) < POLE_GUARD:
            raise PoleError(f"denominator vanishes at ({z1!r}, {z2!r})")
        return (self.a * z1 + self.b * z2 - z1 * z2) / den

    @_in_float_range
    def f_gradient(self, z1: complex, z2: complex) -> tuple[complex, complex]:
        """The gradient of `f`; PoleError where f has its pole."""
        num = self.a * z1 + self.b * z2 - z1 * z2
        den = self.a * z2 + self.b * z1 - 1.0
        if abs(den) < POLE_GUARD:
            raise PoleError(f"denominator vanishes at ({z1!r}, {z2!r})")
        d1 = ((self.a - z2) * den - num * self.b) / (den * den)
        d2 = ((self.b - z1) * den - num * self.a) / (den * den)
        return (d1, d2)


def _dab_lift(d: DomainDab, z) -> tuple[complex, complex, complex] | None:
    """(z1, z2, f(z)) when z lies in the domain, else None; f is evaluated once."""
    z1, z2 = complex(z[0]), complex(z[1])
    try:
        if abs(z1) >= 1.0 or abs(z2) >= 1.0:
            return None
        fz = d.f(z1, z2)
    except (OverflowError, PoleError):  # |z1| or |z2| beyond the float range, or the pole of f
        return None
    return (z1, z2, fz) if abs(fz) < 1.0 else None


def dab_contains(d: DomainDab, z: tuple[complex, complex]) -> bool:
    return _dab_lift(d, z) is not None


def lift_to_M(d: DomainDab, z: tuple[complex, complex]) -> tuple[complex, complex, complex]:
    """Lift (z1, z2) to the surface point (z1, z2, f(z)) of the triple (a, b, 1)."""
    lifted = _dab_lift(d, z)
    if lifted is None:
        raise NotInDomain(f"{z!r} is not in the domain")
    return lifted

