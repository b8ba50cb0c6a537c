import cmath
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geodisc.discgeom import Quadratic, rho
from geodisc.errors import DomainError, EmptyLens, Infeasible, Tangent
from geodisc.geodesics import (
    MINUS,
    PLUS,
    AnalyticDisc,
    Lens,
    OmegaEta,
    _certify_disc,
    admissibility_margin,
    admissible_arc,
    arc_contains,
    blaschke_family,
    phi_gamma,
    solve_omega_eta,
    solvability_gaps,
)
from geodisc.oracle import blaschke_degree, lens_interior_points, rng_for
from geodisc.varieties import Alpha, membership_residual


L88 = Lens(0.8, 0.8)
SQ = math.sqrt(0.609375)


def rand_interesting(rng):
    while True:
        a = rng.uniform(0.3, 1.6)
        b = rng.uniform(0.3, 1.6)
        if abs(a - b) < 0.97 and a + b > 1.03:
            return a, b


def test_lens_contains_examples():
    assert L88.contains(-0.625)
    assert not L88.contains(0.0)  # |1| > 0.8
    empty = Lens(0.4, 0.5)  # a + b < 1
    assert not empty.nonempty
    for g in (-0.9, -0.5, 0.0, 0.5j):
        assert not empty.contains(g)


def test_lens_corners_example():
    c_up, c_dn = L88.corners()
    assert c_up == pytest.approx(complex(-0.625, SQ), abs=1e-12)
    assert c_dn == pytest.approx(complex(-0.625, -SQ), abs=1e-12)
    for c in (c_up, c_dn):
        assert abs(abs(c) - 1.0) < 1e-12
        assert abs(abs(0.8 * c + 1.0) - 0.8) < 1e-12
    # conjugate pair for real parameters
    assert c_up == c_dn.conjugate()


def test_lens_corner_tangency():
    tangent = Lens(0.6, 0.4)  # a + b = 1
    c_up, c_dn = tangent.corners()
    assert abs(c_up - c_dn) < 1e-12  # single corner, flagged by coincidence
    with pytest.raises(EmptyLens):
        Lens(0.3, 0.3).corners()


def test_solve_omega_eta_worked_example():
    plus, minus = solve_omega_eta(L88, -0.625)
    assert plus.omega == pytest.approx(complex(0.625, SQ), abs=1e-12)
    assert plus.eta == pytest.approx(complex(0.625, -SQ), abs=1e-12)
    assert minus.omega == pytest.approx(complex(0.625, -SQ), abs=1e-12)
    # omega + eta = 1.25 forced by the linear equation here
    assert plus.omega + plus.eta == pytest.approx(1.25, abs=1e-12)
    # inequality chain at this point: 0 < 0.609375 < 0.975
    lo_gap, hi_gap = solvability_gaps(L88, -0.625)
    assert lo_gap == pytest.approx(0.609375, abs=1e-12)
    assert hi_gap == pytest.approx(0.975 - 0.609375, abs=1e-12)


def test_solve_omega_eta_properties():
    rng = rng_for(21, 0)
    for _ in range(300):
        a, b = rand_interesting(rng)
        L = Lens(a, b)
        g = lens_interior_points(a, b, 1, seed=int(rng.integers(1 << 30)))[0]
        plus, minus = solve_omega_eta(L, g)
        g2 = L.gamma2(g)
        r1 = a * (1 - abs(g) ** 2)
        r2 = b * (1 - abs(g2) ** 2)
        q = a * g2 + b * g + g * g2
        for sol in (plus, minus):
            assert abs(abs(sol.omega) - 1.0) < 1e-12
            assert abs(abs(sol.eta) - 1.0) < 1e-12
            assert abs(r1 * sol.omega + r2 * sol.eta + q) < 1e-12
            assert abs(sol.omega - sol.eta) > 1e-9  # components differ
        assert abs(plus.omega - minus.omega) > 1e-9  # two distinct pairs


def test_solve_omega_eta_outside_lens():
    with pytest.raises((Infeasible, Tangent)):
        solve_omega_eta(L88, 0.2)  # not in the lens


def test_huge_tangent_parameter_is_a_typed_error():
    # |gamma1|^2 leaves the float range; so does |gamma2|^2 on a lens with tiny b
    for L, g in ((L88, 1e200 + 0j), (Lens(1.0, 1e-160), 0.5 + 0j)):
        with pytest.raises(Infeasible, match="overflow"):
            solve_omega_eta(L, g)
        with pytest.raises(DomainError, match="not in the open unit disc"):
            _certify_disc(L, g, 1 + 0j, 1 + 0j)
        with pytest.raises(DomainError, match="not in the open unit disc"):
            phi_gamma(L, g, omega_eta=OmegaEta(1 + 0j, 1 + 0j, PLUS))


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, -math.inf)])
def test_solve_omega_eta_rejects_a_non_finite_parameter(bad):
    # every comparison with NaN is false, so both interval tests let it through
    with pytest.raises(DomainError, match="non-finite tangent parameter"):
        solve_omega_eta(L88, bad)


@pytest.mark.parametrize("a, b", [(math.inf, 0.8), (0.8, math.inf), (math.nan, 0.8), (0.0, 0.8), (0.8, -1.0)])
def test_lens_parameters_are_positive_and_finite(a, b):
    with pytest.raises(DomainError, match="positive and finite"):
        Lens(a, b)


def test_corners_of_a_large_lens_are_finite():
    # b**2 overflows at 1e200; the factored form does not
    c_up, c_dn = Lens(1e200, 1e200).corners()
    assert (c_up, c_dn) == (complex(-5e-201, 1.0), complex(-5e-201, -1.0))
    with pytest.raises(DomainError, match="overflow"):
        Lens(1e308, 1e308).corners()


def test_phi_gamma_construction():
    for branch in (PLUS, MINUS):
        disc = phi_gamma(L88, -0.625, branch)
        assert disc(0.0) == (0.0, 0.0, 0.0)
        # tangent direction (gamma1, gamma2, 1): each component vanishes at 0,
        # so its derivative there is the lam coefficient over the constant one
        d = [c.num[-2] / c.den[-1] for c in disc.components]
        assert d[0] == pytest.approx(-0.625, abs=1e-12)
        assert d[1] == pytest.approx(L88.gamma2(-0.625), abs=1e-12)
        assert d[2] == pytest.approx(1.0, abs=1e-12)


def test_phi_gamma_residual_64_samples():
    alpha = Alpha(0.8, 0.8, 1.0)
    for branch in (PLUS, MINUS):
        disc = phi_gamma(L88, -0.625, branch)
        worst = 0.0
        for k in range(64):
            lam = 0.98 * cmath.exp(2j * math.pi * k / 64) * ((k % 8 + 1) / 8.5)
            worst = max(worst, abs(membership_residual(alpha, disc(lam))))
        assert worst < 1e-11


def test_phi_gamma_contraction_certificate():
    # |component_j(lam)| <= |lam| with equality only at 0
    rng = rng_for(22, 0)
    disc = phi_gamma(L88, -0.5 + 0.3j)
    for _ in range(200):
        lam = complex(rng.uniform(-0.97, 0.97), rng.uniform(-0.97, 0.97))
        if abs(lam) >= 0.98 or lam == 0:
            continue
        v = disc(lam)
        assert abs(v[0]) < abs(lam) + 1e-15
        assert abs(v[1]) < abs(lam) + 1e-15
        assert rho(0, v[2]) == pytest.approx(max(rho(0, w) for w in v), abs=1e-13)


def test_branches_have_distinct_images():
    rng = rng_for(23, 0)
    for _ in range(100):
        a, b = rand_interesting(rng)
        L = Lens(a, b)
        g = lens_interior_points(a, b, 1, seed=int(rng.integers(1 << 30)))[0]
        try:
            d_plus = phi_gamma(L, g, PLUS)
            d_minus = phi_gamma(L, g, MINUS)
        except Tangent:
            continue
        assert abs(d_plus(0.5)[0] - d_minus(0.5)[0]) > 1e-10


def test_admissibility_margin_matches_equivalent_form():
    # b(1-|g2|^2) > |a(1-|g1|^2) + conj(omega) (a g2 + b g1 + g1 g2)|,
    # the sign-corrected equivalent of the arc inequality
    rng = rng_for(24, 0)
    for _ in range(300):
        a, b = rand_interesting(rng)
        L = Lens(a, b)
        g = lens_interior_points(a, b, 1, seed=int(rng.integers(1 << 30)))[0]
        w = cmath.exp(2j * math.pi * rng.uniform())
        g2 = L.gamma2(g)
        r1 = a * (1 - abs(g) ** 2)
        r2 = b * (1 - abs(g2) ** 2)
        q = a * g2 + b * g + g * g2
        equiv = b * (r2 - abs(r1 + w.conjugate() * q))
        assert admissibility_margin(L, g, w) == pytest.approx(equiv, abs=1e-12)


def test_arc_endpoints_are_branch_solutions():
    arcs = admissible_arc(L88, -0.625)
    plus, minus = solve_omega_eta(L88, -0.625)
    endpoints = set()
    for lo, hi in arcs:
        endpoints.add(round(lo % (2 * math.pi), 9))
        endpoints.add(round(hi % (2 * math.pi), 9))
    expect = {
        round(cmath.phase(plus.omega) % (2 * math.pi), 9),
        round(cmath.phase(minus.omega) % (2 * math.pi), 9),
    }
    assert expect <= endpoints


def test_blaschke_family_admissible():
    arcs = admissible_arc(L88, -0.625)
    theta = 0.3  # inside the arc for this lens point
    assert arc_contains(arcs, theta)
    disc = blaschke_family(L88, -0.625, cmath.exp(1j * theta))
    assert disc is not None
    # middle component is unimodular on the circle
    worst = max(
        abs(abs(disc.components[1](cmath.exp(2j * math.pi * k / 64))) - 1.0) for k in range(64)
    )
    assert worst < 1e-9
    # variety residual over 64 samples
    alpha = Alpha(0.8, 0.8, 1.0)
    worst = 0.0
    for k in range(64):
        lam = 0.97 * cmath.exp(2j * math.pi * k / 64) * ((k % 7 + 1) / 7.5)
        worst = max(worst, abs(membership_residual(alpha, disc(lam))))
    assert worst < 1e-11
    # quadratic factor of the middle component is a degree-two Blaschke product
    middle = disc.components[1]
    q, r = Quadratic(*middle.num[:3]), Quadratic(*middle.den)
    assert blaschke_degree(q, r) == 2


def test_blaschke_family_inadmissible():
    assert blaschke_family(L88, -0.625, cmath.exp(2.2j)) is None


def test_blaschke_family_is_none_exactly_off_the_admissible_arc():
    # the Schur test on the returned denominator is the arc inequality
    rng = rng_for(26, 0)
    decided = 0
    for _ in range(100):
        a, b = rand_interesting(rng)
        L = Lens(a, b)
        for g in lens_interior_points(a, b, 4, seed=int(rng.integers(1 << 30))):
            for _ in range(10):
                w = cmath.exp(2j * math.pi * rng.uniform())
                margin = admissibility_margin(L, g, w)
                if abs(margin) <= 1e-12:
                    continue
                assert (blaschke_family(L, g, w) is None) == (margin <= 0.0)
                decided += 1
    assert decided > 3900


def test_blaschke_family_projection_left_inverse():
    # the parameter slot is the third coordinate: z -> z3 recovers lam
    disc = blaschke_family(L88, -0.625, cmath.exp(0.35j))
    for lam in (0.3, -0.2 + 0.4j, 0.77j):
        assert disc(lam)[2] == pytest.approx(lam, abs=1e-15)


def test_admissible_arc_agreement_and_openness():
    rng = rng_for(25, 0)
    for _ in range(50):
        a, b = rand_interesting(rng)
        L = Lens(a, b)
        g = lens_interior_points(a, b, 1, seed=int(rng.integers(1 << 30)))[0]
        arcs = admissible_arc(L, g)
        assert arcs, "arc must be nonempty for interior lens points"
        total = sum(hi - lo for lo, hi in arcs)
        assert 0 < total < 2 * math.pi  # open, proper arc
        for _ in range(200):
            th = rng.uniform(0, 2 * math.pi)
            margin = admissibility_margin(L, g, cmath.exp(1j * th))
            if abs(margin) < 1e-10:
                continue
            assert arc_contains(arcs, th) == (margin > 0)


@pytest.mark.parametrize("gamma", [complex(math.nan, 0.0), 1.5 + 0j, 1.0 + 0j])
def test_admissible_arc_and_family_need_gamma_in_the_disc(gamma):
    with pytest.raises(DomainError):
        admissible_arc(L88, gamma)
    with pytest.raises(DomainError):
        blaschke_family(L88, gamma, 1.0 + 0j)


def test_family_and_arc_use_the_checked_gamma():
    omega = cmath.exp(0.35j)
    assert blaschke_family(L88, "-0.625", omega) == blaschke_family(L88, -0.625 + 0j, omega)
    assert admissible_arc(L88, "-0.625") == admissible_arc(L88, -0.625 + 0j)


def test_blaschke_family_needs_omega_on_the_circle():
    for omega in (complex(math.nan, 0.0), complex(0.0, math.nan), 1.5 + 0j):
        with pytest.raises(DomainError, match="omega must be unimodular"):
            blaschke_family(Lens(0.8, 0.8), -0.5, omega)


def test_admissible_arc_degenerates_at_boundary():
    # marching toward the |gamma2| -> 1 boundary (g -> -0.25 on the real
    # axis) drives the bound b^2 - |a g + 1|^2 to zero and the arc with it
    lengths = []
    for t in (0.0, 0.6, 0.9, 0.99, 0.9999):
        g = -0.625 + t * 0.375
        arcs = admissible_arc(L88, g)
        lengths.append(sum(hi - lo for lo, hi in arcs))
    assert all(lengths[i] > lengths[i + 1] for i in range(len(lengths) - 1))
    assert lengths[-1] < 0.05


def test_disc_json_round_trip():
    disc = phi_gamma(L88, -0.625)
    clone = AnalyticDisc.from_json(disc.to_json())
    for lam in (0.3, -0.5j, 0.1 + 0.6j):
        assert max(abs(u - v) for u, v in zip(disc(lam), clone(lam))) < 1e-15


def test_disc_json_is_a_fresh_copy():
    disc = phi_gamma(L88, -0.625)
    before = json.dumps(disc.to_json(), sort_keys=True)
    obj = disc.to_json()
    obj["params"]["a"] = 99.0
    obj["params"]["gamma1"][0] = 99.0
    obj["components"][0]["num"][0][0] = 99.0
    obj["components"][2]["den"].clear()
    assert disc.params["a"] == 0.8 and disc.params["gamma1"][0] == -0.625
    assert json.dumps(disc.to_json(), sort_keys=True) == before


@st.composite
def lens_points(draw):
    """(L, gamma1): an interior point of a nonempty lens."""
    a = draw(st.floats(0.05, 20.0))
    b = a + draw(st.floats(-0.95, 0.95))
    assume(b > 0.05 and a + b > 1.05)
    L = Lens(a, b)
    c_up, c_dn = L.corners()
    # convex combination of a chord point and a point of the real diameter:
    # an interior point of the (convex) lens
    chord = c_dn + draw(st.floats(0.02, 0.98)) * (c_up - c_dn)
    real = -1.0 + draw(st.floats(0.02, 0.98)) * ((b - 1.0) / a + 1.0)
    s = draw(st.floats(0.0, 0.98))
    return L, (1.0 - s) * chord + s * real


def _polar(draw, moduli):
    return draw(moduli) * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))


@settings(max_examples=500, deadline=None)
@given(lens_points(), st.data())
def test_phi_gamma_residual_identity(point, data):
    # the residual of lam -> (lam m_g1(omega lam), lam m_g2(eta lam), lam) is
    # -lam^2 (k - k' lam) / (D1 D2) for any omega and eta, not only unimodular ones
    L, g1 = point
    a, b = L.a, L.b
    omega = _polar(data.draw, st.floats(0.5, 1.5))
    eta = _polar(data.draw, st.floats(0.5, 1.5))
    lam = _polar(data.draw, st.one_of(st.just(1.0), st.floats(0.0, 1.0, allow_subnormal=False)))
    g2 = -(a * g1 + 1.0) / b
    d1 = 1.0 - g1.conjugate() * omega * lam
    d2 = 1.0 - g2.conjugate() * eta * lam
    assume(min(abs(d1), abs(d2)) > 1e-3)  # away from a pole of the components
    z1 = lam * (g1 - omega * lam) / d1
    z2 = lam * (g2 - eta * lam) / d2
    z3 = lam
    terms = (a * z1, b * z2, z3, -z1 * z2, -b * z1 * z3, -a * z2 * z3)
    r1 = a * (1.0 - abs(g1) ** 2)
    r2 = b * (1.0 - abs(g2) ** 2)
    q = a * g2 + b * g1 + g1 * g2
    kappa = r1 * omega + r2 * eta + q
    kappa2 = r1 * eta + r2 * omega + omega * eta * q.conjugate()
    closed = -lam * lam * (kappa - kappa2 * lam) / (d1 * d2)
    assert abs(sum(terms) - closed) <= 1e-12 * sum(abs(t) for t in terms)


def _pair(L, g, branch=PLUS):
    return solve_omega_eta(L, g)[0 if branch == PLUS else 1]


VERDICT_POINTS = [(L88, -0.625), (L88, -0.5 + 0.3j), (Lens(0.51, 0.5), -0.99 + 0.005j),
                  (Lens(20.0, 20.5), -0.98 + 0.1j)]


@pytest.mark.parametrize("L, g", VERDICT_POINTS)
@pytest.mark.parametrize("branch", [PLUS, MINUS])
def test_phi_gamma_accepts_the_exact_pair(L, g, branch):
    sol = _pair(L, g, branch)
    disc = phi_gamma(L, g, omega_eta=OmegaEta(sol.omega, sol.eta, branch))
    assert disc.params["branch"] == branch


@pytest.mark.parametrize("L, g", VERDICT_POINTS)
@pytest.mark.parametrize("scale", [1.0 + 1e-9, 1.0 - 1e-9])
def test_phi_gamma_rejects_a_pair_off_the_circle(L, g, scale):
    sol = _pair(L, g)
    with pytest.raises(DomainError, match="off the unit circle"):
        phi_gamma(L, g, omega_eta=OmegaEta(sol.omega, sol.eta * scale, PLUS))


@pytest.mark.parametrize("L, g", VERDICT_POINTS)
def test_phi_gamma_rejects_a_rotated_pair(L, g):
    sol = _pair(L, g)
    with pytest.raises(DomainError, match="misses the variety"):
        phi_gamma(L, g, omega_eta=OmegaEta(sol.omega * cmath.exp(1e-6j), sol.eta, PLUS))


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(math.inf, 1.0)])
def test_phi_gamma_rejects_a_non_finite_pair(bad):
    sol = _pair(L88, -0.625)
    with pytest.raises(DomainError, match="non-finite coefficient"):
        phi_gamma(L88, -0.625, omega_eta=OmegaEta(bad, sol.eta, PLUS))


def test_certify_disc_rejects_off_variety():
    # unimodular, but omega and eta of different branches
    plus, minus = solve_omega_eta(L88, -0.625)
    with pytest.raises(DomainError, match="misses the variety"):
        _certify_disc(L88, -0.625, plus.omega, minus.eta)


def test_certify_disc_rejects_component_leaving_disc():
    # gamma1 = 0 is off the lens: gamma2 = -1.25
    with pytest.raises(DomainError, match="open unit disc"):
        _certify_disc(L88, 0.0, 1.0 + 0.0j, 1.0 + 0.0j)


def test_certify_disc_rejects_denominator_root_in_closed_disc():
    eta = solve_omega_eta(L88, -0.625)[0].eta
    for omega in (3.2 + 0.0j, 1.6 + 0.0j):  # 1 - conj(g1) omega lam vanishes at 1/2, at 1
        with pytest.raises(DomainError, match="root in the closed disc"):
            _certify_disc(L88, -0.625, omega, eta)
