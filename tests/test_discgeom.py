import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodisc.discgeom import (
    MobiusMap,
    Quadratic,
    _residual_within,
    gamma_disc,
    rho,
    schur_roots_outside,
)
from geodisc.errors import DomainError, ZeroPolynomial
from geodisc.oracle import quadratic_roots, rng_for


disc_points = st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False)


# the Mobius pseudodistance |(z-w)/(1-conj(w)z)| is tanh rho(z, w)
def test_mobius_dist_examples():
    assert rho(0.0, 0.0) == 0.0
    for t in (0.0, 0.25, 0.5, 0.99):
        assert math.tanh(rho(0.0, t)) == pytest.approx(t, abs=1e-15)
    assert math.tanh(rho(0.5, -0.5)) == pytest.approx(0.8, abs=1e-15)


def test_mobius_dist_rejects_outside():
    with pytest.raises(DomainError):
        rho(1.0, 0.0)
    with pytest.raises(DomainError):
        rho(0.0, complex(float("nan"), 0.0))


def test_rho_examples():
    assert rho(0.0, 0.0) == 0.0
    assert rho(0.0, 0.5) == pytest.approx(math.atanh(0.5), abs=1e-15)


@given(disc_points, disc_points)
def test_rho_is_arctanh_of_the_pseudodistance_bit_for_bit(z, w):
    p = abs((z - w) / (1.0 - w.conjugate() * z))
    assert p < 1.0
    assert rho(z, w) == math.atanh(p)


@given(disc_points, disc_points)
def test_rho_symmetry_and_separation(z, w):
    assert rho(z, w) == pytest.approx(rho(w, z), abs=1e-12)
    assert (rho(z, w) == 0.0) == (z == w)


def test_rho_mobius_invariance_bulk():
    rng = rng_for(31, 0)
    for _ in range(1000):
        nu = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if abs(nu) >= 0.95:
            continue
        m = MobiusMap(nu, cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        w = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        if abs(z) >= 1 or abs(w) >= 1:
            continue
        assert abs(rho(m(z), m(w)) - rho(z, w)) < 1e-12


def test_gamma_disc_examples():
    assert gamma_disc(0.0, 1.0) == 1.0
    assert gamma_disc(0.5, 1.0) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert gamma_disc(0.3 + 0.1j, 0.0) == 0.0


def test_gamma_disc_is_rho_rate():
    for w in (0.0, 0.3 + 0.2j, -0.6j):
        for X in (1.0, 1j, 0.4 - 0.7j):
            t = 1e-6
            fd = rho(w, w + t * X) / t
            assert abs(fd - gamma_disc(w, X)) / gamma_disc(w, X) < 1e-6


def test_mobius_eval_examples():
    m0 = MobiusMap(0.0)
    assert m0(0.25 + 0.1j) == -(0.25 + 0.1j)
    m = MobiusMap(0.4 - 0.2j)
    assert abs(m(m.nu)) == 0.0
    assert m(0.0) == m.nu
    rot = MobiusMap(0.4 - 0.2j, 1j)
    assert rot(0.0) == pytest.approx(1j * (0.4 - 0.2j))


@given(disc_points)
@settings(max_examples=200)
def test_mobius_involution(nu):
    m = MobiusMap(nu)
    for lam in (0.0, 0.5, -0.3 + 0.4j):
        assert abs(m(m(lam)) - lam) < 1e-12


def test_mobius_identity():
    assert MobiusMap(0j, -1 + 0j)(0.37 - 0.11j) == 0.37 - 0.11j


def test_schur_examples():
    assert schur_roots_outside(Quadratic(1, 0, 2)) is True
    assert schur_roots_outside(Quadratic(1, 0, 0.5)) is False
    assert schur_roots_outside(Quadratic(0, 1, 2)) is True
    assert schur_roots_outside(Quadratic(0, 0, 3)) is True  # constant: vacuous
    with pytest.raises(ZeroPolynomial):
        schur_roots_outside(Quadratic(0, 0, 0))


def test_schur_agrees_with_root_oracle():
    rng = rng_for(77, 0)
    checked = 0
    for _ in range(20000):
        coeffs = [complex(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
        q = Quadratic(*coeffs)
        roots = quadratic_roots(q)
        if any(abs(abs(r) - 1.0) < 1e-9 for r in roots):
            continue
        checked += 1
        assert schur_roots_outside(q) == all(abs(r) > 1.0 for r in roots)
    assert checked > 19000


def test_residual_within_adds_the_rounding_of_the_terms():
    eps = 2.0 ** -52
    assert _residual_within(0.0, 0.0, 0.0, 0.0)
    assert _residual_within(1e-10, 1e-10, 1.0, 0.0)
    assert not _residual_within(2e-10, 1e-10, 1.0, 0.0)
    # 8 eps per unit of the term sum on top of tol * size
    assert _residual_within(1e-10 + 8 * eps * 1e3, 1e-10, 1.0, 1e3)
    assert not _residual_within(1e-10 + 9 * eps * 1e3, 1e-10, 1.0, 1e3)
    assert not _residual_within(math.nan, 1e-10, 1.0, 1e3)
    assert not _residual_within(0.0, 1e-10, 1.0, math.nan)
