"""Independent brute-force cross-checks for the test suites and the benchmark.

A test and benchmark module on no runtime path: no other module of the
package imports it, and it is the only one that imports numpy.

The code here deliberately shares no evaluation paths with the primary
implementations it is used to check: roots come from the explicit quadratic
formula, distances from direct definitions, derivatives from central
differences.  Randomness is counter-based (Philox) keyed by (seed, index) so
sampling is reproducible regardless of call order.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, EmptyLens, EvaluationOutOfDisc, NotThrough, PoleError, ZeroPolynomial
from .discgeom import Quadratic
from .varieties import Alpha, graph_value


def rng_for(seed: int, index: int) -> np.random.Generator:
    """Deterministic generator for sample `index` of stream `seed`.

    The key words are seed and index mod 2^64, passed as exact uint64 words:
    a Python list would send words of 2^63 and above through float64.
    """
    mask = (1 << 64) - 1
    return np.random.Generator(np.random.Philox(key=np.array([seed & mask, index & mask], dtype=np.uint64)))


def quadratic_roots(q: Quadratic) -> tuple[complex, ...]:
    """All roots of q via the sign-matched quadratic formula.

    Returns 2, 1 or 0 roots for degree 2, 1, 0.  The discriminant branch is
    chosen so the larger-magnitude root is formed without cancellation; the
    other root comes from the product identity a0/a2 = r1*r2.
    """
    A, B, C = q.coeffs()
    if A == 0 and B == 0:
        if C == 0:
            raise ZeroPolynomial("quadratic_roots: zero polynomial")
        return ()
    if A == 0:
        return (-C / B,)
    disc = cmath.sqrt(B * B - 4.0 * A * C)
    if (B.conjugate() * disc).real < 0.0:
        disc = -disc
    t = -0.5 * (B + disc)
    r1 = t / A
    r2 = C / t if t != 0 else -B / A - r1
    return (r1, r2)


def blaschke_degree(num: Quadratic, den: Quadratic, tol: float = 1e-9):
    """Degree of num/den as a finite Blaschke product, or None if it is not one.

    The roots of den (by `quadratic_roots`) must lie outside the closed disc,
    else DomainError.  A zero numerator gives None.  The quotient is Blaschke
    when its modulus is 1 within `tol` at 64 points of the unit circle, and
    its degree is then the number of roots of num inside the disc; a factor
    shared by num and den is cancelled by that count, as it lies outside.
    """
    if any(abs(r) <= 1.0 for r in quadratic_roots(den)):
        raise DomainError("denominator has a root in the closed unit disc")
    ncs, dcs = num.coeffs(), den.coeffs()
    if not any(ncs):
        return None
    for k in range(64):
        lam = cmath.exp(2j * math.pi * (k + 0.5) / 64)
        nv = dv = 0j
        for n, d in zip(ncs, dcs):
            nv, dv = nv * lam + n, dv * lam + d
        if abs(abs(nv / dv) - 1.0) > tol:
            return None
    return sum(1 for r in quadratic_roots(num) if abs(r) < 1.0)


def _rho(u: complex, v: complex) -> float:
    return math.atanh(abs((u - v) / (1.0 - v.conjugate() * u)))


def caratheodory_lower_bound(
    family: Sequence[Callable[..., complex]],
    z,
    w,
    check_samples: Sequence = (),
) -> float:
    """max over the family of rho(F(z), F(w)): a certified lower bound for c.

    Every member is first evaluated on `check_samples` (plus z and w); a
    value of modulus >= 1 disqualifies the family.
    """
    best = 0.0
    probes = list(check_samples) + [z, w]
    for F in family:
        for p in probes:
            v = F(p)
            if abs(v) >= 1.0:
                raise EvaluationOutOfDisc(f"family member left the disc at {p!r}")
        best = max(best, _rho(F(z), F(w)))
    return best


def lempert_upper_bound(disc, z, w, lam_z=None, lam_w=None, tol: float = 1e-9) -> float:
    """rho of the parameters at which an analytic disc hits z and w.

    Parameters may be given; otherwise they are recovered by inverting a
    component of degree one (`_param_for`).  The disc must pass through both
    points within `tol` (sup-norm over components), else NotThrough is
    raised.
    """
    lam_z = _param_for(disc, z) if lam_z is None else lam_z
    lam_w = _param_for(disc, w) if lam_w is None else lam_w
    for lam, pt in ((lam_z, z), (lam_w, w)):
        val = disc(lam)
        err = max(abs(a - b) for a, b in zip(val, pt))
        if err > tol:
            raise NotThrough(f"disc misses {pt!r} by {err:.3e}")
    return _rho(lam_z, lam_w)


def _param_for(disc, pt) -> complex:
    """The parameter in the disc at which a degree-one component takes its
    coordinate of pt, by Mobius inversion; leading zero coefficients do not
    count towards the degree.  NotThrough when no component gives one."""
    for comp, target in zip(disc.components, pt):
        num, den = _strip(comp.num), _strip(comp.den)
        if len(num) <= 2 and len(den) <= 2:
            lam = _invert_mobius_coeffs(num, den, target)
            if lam is not None and abs(lam) < 1.0:
                return lam
    raise NotThrough(f"no component of degree one takes {pt!r} inside the disc")


def _strip(cs):
    """Descending coefficients without their leading zeros; at least one is kept."""
    i = 0
    while i < len(cs) - 1 and cs[i] == 0:
        i += 1
    return cs[i:]


def _invert_mobius_coeffs(num, den, target):
    # solve (n1*lam + n0)/(d1*lam + d0) = target for lam
    n1, n0 = (num[0], num[1]) if len(num) == 2 else (0.0j, num[0])
    d1, d0 = (den[0], den[1]) if len(den) == 2 else (0.0j, den[0])
    a = n1 - target * d1
    b = n0 - target * d0
    if abs(a) < 1e-15 * max(abs(b), 1.0):
        return None
    return -b / a


def finite_diff_derivative(f, z, direction, h: float = 1e-6) -> complex:
    """Central difference (f(z + h e) - f(z - h e)) / (2h) along `direction`."""
    if h <= 0:
        raise ValueError("h must be positive")
    if isinstance(z, (tuple, list)):
        zp = tuple(a + h * e for a, e in zip(z, direction))
        zm = tuple(a - h * e for a, e in zip(z, direction))
    else:
        zp = z + h * direction
        zm = z - h * direction
    return (f(zp) - f(zm)) / (2.0 * h)


def surface_samples(alpha: Alpha, n: int, seed: int = 20240) -> list:
    """Deterministic points on the surface via the graph over two coordinates.

    Each draw of (z1, z2) in the disc of radius 0.8 uses its own generator
    `rng_for(seed, i)`; draws near a pole of the graph or with the third
    coordinate at modulus >= 0.999 are rejected.
    """
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


def lens_interior_points(
    a: float, b: float, count: int, seed: int = 1, margin: float = 0.02
) -> list[complex]:
    """Deterministic rejection sample of the lens |g| < 1, |a g + 1| < b.

    Points come from the one stream `rng_for(seed, 0)` and keep a distance
    `margin` from both boundary circles; a thin lens that yields too few
    points in 200 000 draws restarts the stream with a quarter of the margin.
    """
    if not abs(a - b) < 1.0 < a + b:
        raise EmptyLens(f"lens of ({a}, {b}) is empty")
    while True:
        rng = rng_for(seed, 0)
        pts: list[complex] = []
        for _ in range(200000):
            if len(pts) >= count:
                return pts
            g = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(g) < 1.0 - margin and abs(a * g + 1.0) < b - margin:
                pts.append(g)
        if margin < 1e-9:
            raise EmptyLens("lens sampling exhausted")
        margin *= 0.25


def _sample_ball(seed, i, n=2, radius=1.0):
    rng = rng_for(seed, i)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    r = radius * rng.uniform() ** (1.0 / (2 * n))
    return tuple(v * (r / np.linalg.norm(v)))
