import math

import pytest

from geodisc.discgeom import Quadratic, rho
from geodisc.errors import DomainError, EmptyLens, NotThrough, ZeroPolynomial
from geodisc.geodesics import IDENTITY_MAP, AnalyticDisc, Lens, RationalMap, phi_gamma
from geodisc.metrics import c_polydisc
from geodisc.oracle import (
    _param_for,
    blaschke_degree,
    caratheodory_lower_bound,
    lempert_upper_bound,
    lens_interior_points,
    quadratic_roots,
    rng_for,
)
from geodisc.varieties import DomainDab

# the coordinate disc lam -> (lam, 0, 0)
ZERO_MAP = RationalMap(num=(0j, 0j, 0j), den=(0j, 0j, 1 + 0j))
FLAT_DISC = AnalyticDisc(components=(IDENTITY_MAP, ZERO_MAP, ZERO_MAP), tag="Flat")


def test_quadratic_roots_examples():
    r = quadratic_roots(Quadratic(1, 0, -1))
    assert sorted((x.real for x in r)) == pytest.approx([-1.0, 1.0], abs=1e-15)
    r = quadratic_roots(Quadratic(0.8, -1, 0.8))
    expect = {complex(0.625, math.sqrt(0.609375)), complex(0.625, -math.sqrt(0.609375))}
    assert all(min(abs(x - e) for e in expect) < 1e-12 for x in r)
    assert quadratic_roots(Quadratic(0, 1, -2)) == (2.0 + 0j,)
    assert quadratic_roots(Quadratic(0, 0, 5)) == ()
    with pytest.raises(ZeroPolynomial):
        quadratic_roots(Quadratic(0, 0, 0))


def test_quadratic_roots_residuals():
    rng = rng_for(5, 0)
    for _ in range(2000):
        q = Quadratic(*(complex(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)))
        scale = max(abs(c) for c in q.coeffs())
        for r in quadratic_roots(q):
            assert abs(q(r)) < 1e-10 * scale * max(1.0, abs(r)) ** 2


def test_blaschke_degree_examples():
    # lam / 1
    assert blaschke_degree(Quadratic(0, 1, 0), Quadratic(0, 0, 1)) == 1
    # Mobius factor (nu - lam)/(1 - conj(nu) lam), quadratic padding
    nu = 0.3 - 0.5j
    assert blaschke_degree(Quadratic(0, -1, nu), Quadratic(0, -nu.conjugate(), 1)) == 1
    # product of two factors: degree 2
    n1, n2 = 0.5 + 0j, 0.6j
    num = Quadratic(1, -(n1 + n2), n1 * n2)
    den = Quadratic(n1.conjugate() * n2.conjugate(), -(n1.conjugate() + n2.conjugate()), 1)
    assert blaschke_degree(num, den) == 2


def test_blaschke_degree_rejects():
    # 1/(1 - 0.5 lam) is not inner
    assert blaschke_degree(Quadratic(0, 0, 1), Quadratic(0, -0.5, 1)) is None
    # denominator with root inside the closed disc is an error
    with pytest.raises(DomainError):
        blaschke_degree(Quadratic(0, 1, 0), Quadratic(0, -2.0, 1))


def test_blaschke_degree_non_coprime_representation():
    # lam(1 - 0.5 lam) / (1 - 0.5 lam) == lam: the shared factor is not counted, degree 1
    assert blaschke_degree(Quadratic(-0.5, 1, 0), Quadratic(0, -0.5, 1)) == 1


def test_lower_bound_projections_reproduce_polydisc():
    proj = [lambda z, j=j: z[j] for j in range(3)]
    rng = rng_for(6, 0)
    for _ in range(50):
        z = tuple(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)) for _ in range(3))
        w = tuple(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)) for _ in range(3))
        assert caratheodory_lower_bound(proj, z, w) == pytest.approx(
            c_polydisc(z, w), abs=1e-14
        )


def test_lower_bound_empty_family():
    assert caratheodory_lower_bound([], (0.1, 0.2), (0.3, 0.1)) == 0.0


def test_upper_bound_flat_disc():
    val = lempert_upper_bound(FLAT_DISC, (0.0, 0.0, 0.0), (0.4, 0.0, 0.0))
    assert val == pytest.approx(math.atanh(0.4), abs=1e-12)


def test_upper_bound_phi_gamma():
    L = Lens(0.8, 0.8)
    disc = phi_gamma(L, -0.625)
    x = 0.37 - 0.21j
    val = lempert_upper_bound(disc, disc(0.0), disc(x), lam_z=0.0, lam_w=x)
    assert val == pytest.approx(rho(0.0, x), abs=1e-12)
    # parameter recovery from the identity third component
    val2 = lempert_upper_bound(disc, disc(0.0), disc(x))
    assert val2 == pytest.approx(val, abs=1e-10)


def test_param_recovery_inverts_the_identity_component():
    # every package disc pads its components to three coefficients; the
    # third component of phi_gamma is lam itself, so the recovered parameter
    # is z3, exactly
    disc = phi_gamma(Lens(0.8, 0.8), -0.5 + 0.2j)
    for x in (0.37 - 0.21j, -0.9 + 0.01j, 1e-300 + 0j):
        z = disc(x)
        assert _param_for(disc, z) == z[2] == x
    # no component of degree one: nothing to invert
    quad = RationalMap(num=(1 + 0j, 0j, 0j), den=(0j, 0j, 1 + 0j))
    with pytest.raises(NotThrough):
        _param_for(AnalyticDisc(components=(quad, quad, quad), tag="Quadratic"), (0.25, 0.25, 0.25))


def test_upper_bound_not_through():
    with pytest.raises(NotThrough):
        lempert_upper_bound(FLAT_DISC, (0.0, 0.0, 0.0), (0.4, 0.2, 0.0), lam_z=0.0, lam_w=0.4)


def test_sandwich_on_dab():
    d = DomainDab(0.8, 0.8)
    L = Lens(0.8, 0.8)
    disc = phi_gamma(L, -0.5 + 0.2j)
    x = 0.44 + 0.1j
    z3 = disc(x)
    upper = lempert_upper_bound(disc, (0.0, 0.0, 0.0), z3, lam_z=0.0, lam_w=x)
    members = [lambda z: z[0], lambda z: z[1], lambda z: z[2]]
    lower = caratheodory_lower_bound(members, (0.0, 0.0, 0.0), z3)
    assert lower <= upper + 1e-12
    assert upper - lower < 1e-9  # equality at desk scale


def test_rng_reproducible_and_counterbased():
    a = rng_for(9, 4).uniform()
    b = rng_for(9, 4).uniform()
    c = rng_for(9, 5).uniform()
    assert a == b
    assert a != c


def test_lens_interior_points_stream():
    # the first points of seed 11 at (0.8, 0.8), as the sampler has always drawn them
    assert lens_interior_points(0.8, 0.8, 3, seed=11) == [
        -0.7459649346512824 + 0.3692572269186105j,
        -0.7624522685048751 - 0.422752152547877j,
        -0.43431895109364915 + 0.01895660409619815j,
    ]
    a, b, m = 0.8, 0.8, 0.02
    assert all(abs(g) < 1 - m and abs(a * g + 1) < b - m for g in lens_interior_points(a, b, 50, seed=3))
    with pytest.raises(EmptyLens):
        lens_interior_points(0.4, 0.5, 1)
