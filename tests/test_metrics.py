import cmath
import hashlib
import json
import math

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from geodisc.discgeom import MobiusMap, rho
from geodisc import metrics
from geodisc.errors import ConvergenceFailure, DomainError, EmptyLens, GeodiscError, NotInDomain, NotOnVariety
from geodisc.geodesics import MINUS, PLUS, RESIDUAL_TOL, AnalyticDisc, Lens, _ik_data, phi_gamma
from geodisc.metrics import (
    MATCH_TOL,
    UniversalMember,
    UniversalSet,
    c_dab,
    c_polydisc,
    compose_with_mobius,
    dab_universal_set,
    dominant_permutation,
    geodesic_through,
    kappa_dab_origin,
    lempert_verify,
    linear_convexity_quadratic,
    permuted_parameters,
    _sample_dab,
    universal_c,
    universal_gamma,
)
from geodisc.oracle import lens_interior_points, lempert_upper_bound, quadratic_roots, rng_for
from geodisc.discgeom import Quadratic
from geodisc.varieties import Alpha, DomainDab, classify, dab_contains, lift_to_M


D88 = DomainDab(0.8, 0.8)
L88 = Lens(0.8, 0.8)


def test_c_polydisc_examples():
    assert c_polydisc((0.0, 0.0), (0.0, 0.0)) == 0.0
    val = c_polydisc((0.0, 0.0, 0.0), (0.5, -2.0 / 3.0, 0.0))
    assert val == pytest.approx(math.atanh(2.0 / 3.0), abs=1e-14)
    # permutation invariance
    assert val == pytest.approx(c_polydisc((0.0, 0.0, 0.0), (-2.0 / 3.0, 0.0, 0.5)), abs=1e-15)


def test_c_dab_examples():
    assert c_dab(D88, (0.0, 0.0), (0.0, 0.0)) == 0.0
    val = c_dab(D88, (0.0, 0.0), (0.5, 0.0))
    assert val == pytest.approx(math.atanh(2.0 / 3.0), abs=1e-14)
    assert val >= rho(0.0, 0.5)
    with pytest.raises(NotInDomain):
        c_dab(D88, (0.0, 0.0), (0.99, 0.99))


def test_kappa_examples():
    assert kappa_dab_origin(D88, (0.0, 0.0)) == 0.0
    d = DomainDab(0.8, 0.9)
    assert kappa_dab_origin(d, (1.0, -1.0)) == pytest.approx(1.0, abs=1e-15)
    # homogeneity
    X = (0.3 + 0.2j, -0.5j)
    assert kappa_dab_origin(d, tuple(2.5j * x for x in X)) == pytest.approx(
        2.5 * kappa_dab_origin(d, X), abs=1e-14
    )


def test_geodesic_through_rejects_off_surface_target():
    with pytest.raises(NotOnVariety):
        geodesic_through(0.8, 0.8, (0.5, 0.5, 0.5))
    # below unit scale the residual is weighed against its terms: 1.3e-9 is
    # under 1e-8 but 2.6 times the coordinates
    with pytest.raises(NotOnVariety):
        geodesic_through(0.8, 0.8, (5e-10, 5e-10, 5e-10))


def test_geodesic_through_tests_membership_in_its_own_coordinates():
    # neither point has a dominant third coordinate; the equation of the
    # permuted lens is that of (20, 20.5, 1) divided by the moved coefficient
    with pytest.raises(NotOnVariety, match=r"residual 1\.448e\+01"):
        geodesic_through(20, 20.5, (0.5, 0.3, 0.1))
    # 5.0e-8 off the surface: above the 1e-8 bound, below it once divided by 20
    with pytest.raises(NotOnVariety, match=r"residual 5\.000e-08"):
        geodesic_through(20, 20.5, (-0.69 + 0.1j, 0.6, 0.5245295401758411 - 0.27494895705652056j))


def test_psi_x_limits():
    # the slice coordinates z_j / x of the disc tend to the tangent (gamma1, gamma2) as x -> 0
    g = -0.5 + 0.25j
    x = 1e-8
    for branch in (PLUS, MINUS):
        p = phi_gamma(L88, g, branch)(x)
        assert abs(p[0] / x - g) < 3e-8
        assert abs(p[1] / x - L88.gamma2(g)) < 3e-8


def test_psi_x_boundary_pinning():
    # as |gamma2| -> 1 the second slice coordinate approaches gamma2
    x = 0.5 + 0.2j
    for eps in (1e-2, 1e-4, 1e-6):
        g = -0.625 + (0.375 - eps)  # near the gamma2-side boundary
        g2 = L88.gamma2(g)
        p = phi_gamma(L88, g, PLUS)(x)
        assert abs(p[1] / x - g2) < 10 * (1 - abs(g2))


def test_geodesic_through_round_trip():
    rng = rng_for(30, 0)
    hits = 0
    while hits < 60:
        a = rng.uniform(0.55, 1.3)
        b = rng.uniform(0.55, 1.3)
        if not (abs(a - b) < 0.95 and a + b > 1.05):
            continue
        L = Lens(a, b)
        g0 = lens_interior_points(a, b, 1, seed=int(rng.integers(1 << 30)))[0]
        branch = PLUS if rng.uniform() < 0.5 else MINUS
        x = 0.8 * cmath.exp(2j * math.pi * rng.uniform()) * rng.uniform(0.2, 1.0)
        disc = phi_gamma(L, g0, branch)
        z = disc(x)
        if abs(z[2]) + 1e-12 < max(abs(z[0]), abs(z[1])):
            continue
        cert = geodesic_through(a, b, z)
        assert cert.residual < 1e-9
        # the found disc passes through z
        vals = cert.disc(cert.param_at_target)
        assert max(abs(u - v) for u, v in zip(vals, z)) < 1e-9
        # the Caratheodory value of z, the coordinate maximum, and arctanh|x|
        assert cert.lempert_value == pytest.approx(max(rho(0, w) for w in z), abs=1e-12)
        assert cert.lempert_value == pytest.approx(rho(0, x), abs=1e-12)
        hits += 1


def test_geodesic_through_symmetric_slice():
    # for a = b the swap z1 <-> z2 is a variety symmetry; the symmetric lens
    # point gamma1 = gamma2 = -1/(a+b) produces a swap-conjugate image pair
    a = b = 0.8
    gsym = -1.0 / (a + b)
    L = Lens(a, b)
    assert L.contains(gsym)
    assert L.gamma2(gsym) == pytest.approx(gsym, abs=1e-15)
    disc = phi_gamma(L, gsym)
    z = disc(0.45)
    assert abs(z[1] - z[0].conjugate()) < 1e-13
    cert = geodesic_through(a, b, z, find_alternates=True)
    found = [cert.gamma1] + [g for _, g in cert.alternates]
    assert any(abs(g - gsym) < 1e-7 for g in found)
    # swapping the first two coordinates swaps the lens roles
    zs = (z[1], z[0], z[2])
    cert_s = geodesic_through(a, b, zs, find_alternates=True)
    found_s = [cert_s.gamma1] + [g for _, g in cert_s.alternates]
    assert any(abs(g - L.gamma2(gsym)) < 1e-7 for g in found_s)


# fat, thin and large cells; the report writes a = 20 as given, an int
CELLS = [(0.8, 0.8), (0.51, 0.5), (0.02, 0.99), (20, 20.5), (10.01, 10.745)]


def _dominant_first_then_second(d):
    """Lifted sample points of D(a, b) with z1, then z2, dominant."""
    found = {}
    for i in range(100):
        z = lift_to_M(d, _sample_dab(d, 5, i))
        found.setdefault(dominant_permutation(z), z)
    return [found[(2, 1, 0)], found[(0, 2, 1)]]


# z1 or z2 dominant at each cell, and z1 dominant below any absolute slack
TARGETS = {f"{a},{b}-z{k}": (DomainDab(a, b), z) for a, b in CELLS
           for k, z in enumerate(_dominant_first_then_second(DomainDab(a, b)), 1)}
TARGETS.update({f"tiny-{s:g}": (D88, (0.5 * s, 0.0, -0.4 * s)) for s in (1e-9, 1e-15)})


@pytest.mark.parametrize("d, z", list(TARGETS.values()), ids=list(TARGETS))
def test_geodesic_through_certifies_any_dominant_coordinate(d, z):
    cert = geodesic_through(d.a, d.b, z)
    assert cert.residual <= MATCH_TOL
    # the disc passes through z in z's own coordinates, after a JSON round trip
    disc = AnalyticDisc.from_json(json.loads(json.dumps(cert.disc.to_json())))
    upper = lempert_upper_bound(disc, (0j, 0j, 0j), z, lam_z=0j, lam_w=cert.param_at_target)
    assert upper == pytest.approx(c_dab(d, (0j, 0j), z[:2]), abs=1e-9)
    # and relative to the size of z, which the absolute 1e-9 above is not at tiny scales
    miss = max(abs(u - v) for u, v in zip(disc(cert.param_at_target), z))
    assert miss <= 1e-9 * max(map(abs, z))
    # the same certificate as the pre-permuted call, its components reordered
    perm = dominant_permutation(z)
    assert perm != (0, 1, 2)
    cp = geodesic_through(*permuted_parameters(d.a, d.b, perm), tuple(z[p] for p in perm))
    assert cert.disc.components == tuple(cp.disc.components[p] for p in perm)
    assert cert._replace(disc=cp.disc) == cp


def test_dominant_permutation_and_parameters():
    assert dominant_permutation((0.1, 0.2, 0.9)) == (0, 1, 2)
    assert dominant_permutation((0.9, 0.2, 0.1)) == (2, 1, 0)
    assert dominant_permutation((0.1, 0.9, 0.2)) == (0, 2, 1)
    # tie: largest index wins (stays third)
    assert dominant_permutation((0.9, 0.2, 0.9)) == (0, 1, 2)
    ap, bp = permuted_parameters(0.8, 0.5, (2, 1, 0))
    assert (ap, bp) == pytest.approx((1.0 / 0.8, 0.5 / 0.8))


def test_lempert_verify_report():
    rep = lempert_verify(D88, samples=120, seed=7)
    assert rep.failures == 0 and rep.failed == ()
    assert rep.worst_residual < 1e-9
    # seed reproducibility, byte identical
    rep2 = lempert_verify(D88, samples=120, seed=7)
    assert rep.dumps() == rep2.dumps()


def test_lempert_verify_bytes_are_pinned():
    # the reports of 1 000 samples at seed 5 on five cells, thin, fat and
    # large, concatenated: any change in a certificate's outcome moves them
    # (recorded when the report lost "tolerance" and "worst_match", which
    # changed nothing else)
    h = hashlib.sha256()
    for a, b in CELLS:
        h.update(lempert_verify(DomainDab(a, b), samples=1000, seed=5).dumps().encode())
    assert h.hexdigest() == "2ad3f777cccdcced808309fb2f76f4e193b01227b0096ba818a4d0c6534e4062"


def _numpy_sample_dab(d, seed, index):
    # the sampler drawn from the oracle's numpy stream, four uniforms a draw
    rng = rng_for(seed, index)
    while True:
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z1) < 0.995 and abs(z2) < 0.995 and abs(d.a * z2 + d.b * z1 - 1.0) >= 1e-6 and dab_contains(d, (z1, z2)):
            return (z1, z2)


words = st.integers(0, 2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(words, words)
@example(0, 0)
@example(2**63 - 1, 2**63)
@example(2**64 - 1, 2**63 - 1)
@example(-1, -5)
@example(-5, 2**64 - 1)
@example(2**63, -1)
def test_sampler_draws_the_oracle_stream(seed, index):
    # the library's Philox blocks are numpy's raw words, and its sampler
    # returns the point numpy's uniform(-1, 1) draws give, bit for bit
    mask = 2**64 - 1
    raw = rng_for(seed, index).bit_generator.random_raw(12).tolist()
    assert [u for k in range(3) for u in metrics._philox_block(k + 1, seed & mask, index & mask)] == raw
    for d in (D88, DomainDab(20.0, 20.5)):
        assert _sample_dab(d, seed, index) == _numpy_sample_dab(d, seed, index)


def test_sampler_keys_are_exact_words():
    # no two seeds share a stream: numpy keys built from a Python list sent
    # words of 2^63 and above through float64, so every negative seed drew
    # the points of seed 0
    for s, t in ((-5, -6), (-5, 0), (2**63, 2**63 + 1), (0, 2**64)):
        same = s % 2**64 == t % 2**64
        assert (_sample_dab(D88, s, 0) == _sample_dab(D88, t, 0)) == same
        assert (rng_for(s, 0).uniform(-1, 1) == rng_for(t, 0).uniform(-1, 1)) == same


def test_lempert_verify_exercises_permutation():
    # w = (0.5, 0) at a = b = 0.8 has |F| = 2/3 dominant: the lifted third
    # slot dominates, while samples with z1 dominant exercise permutation
    found_perm = False
    for i in range(200):
        from geodisc.metrics import _sample_dab

        w = _sample_dab(D88, 99, i)
        lifted = lift_to_M(D88, w)
        if dominant_permutation(lifted) != (0, 1, 2):
            found_perm = True
            break
    assert found_perm


def test_lempert_verify_requires_interesting_regime():
    with pytest.raises(DomainError):
        lempert_verify(DomainDab(0.3, 0.3), samples=5, seed=1)


# b - a < 1 exactly; a classify with its own rounding called them RetractGraph,
# and the verifier aborted on the last two with EmptyLens from a permuted lens
NEAR_TIE_PAIRS = [
    (3.3270701728262524, 4.327070172826252),
    (3.093451662965775, 4.093451662965775),
    (0.08265427487481344, 1.0826542748748134),
]


@pytest.mark.parametrize("a, b", NEAR_TIE_PAIRS)
def test_near_tie_pairs_are_non_retract_and_verify(a, b):
    assert not classify(Alpha(a, b, 1)).retract
    assert Lens(a, b).nonempty
    rep = lempert_verify(DomainDab(a, b), samples=50, seed=0)
    assert rep.samples == 50 and rep.failures == 0


def test_geodesic_through_error_order():
    # off the surface, then z = 0, then the surface's own empty lens
    z = lift_to_M(DomainDab(0.3, 0.3), (0.1, 0.0))
    with pytest.raises(NotOnVariety):
        geodesic_through(0.3, 0.3, (z[0], z[1], z[2] + 0.1))
    with pytest.raises(DomainError) as exc:
        geodesic_through(0.3, 0.3, (0j, 0j, 0j))
    assert type(exc.value) is DomainError
    with pytest.raises(EmptyLens):
        geodesic_through(0.3, 0.3, z)


def _ulps(x, k):
    """x moved k representable floats up (k > 0) or down."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@settings(max_examples=300, deadline=None)
@given(
    st.floats(1e-3, 10.0),
    st.sampled_from(["sum", "a above", "b above"]),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.floats(0.05, 0.95),
    st.floats(-0.5, 0.5),
)
def test_near_tie_regime_is_decided_once(x, tie, ka, kb, t, phase):
    # (a, b) within a few ulps of a + b = 1 or |a - b| = 1
    a, b = {"sum": (x, 1.0 - x), "a above": (x + 1.0, x), "b above": (x, x + 1.0)}[tie]
    a, b = _ulps(a, ka), _ulps(b, kb)
    assume(a > 0.0 and b > 0.0)
    nonempty = Lens(a, b).nonempty
    assert classify(Alpha(a, b, 1)).retract == (not nonempty)
    if not nonempty:
        return
    # a point near the negative real axis of one coordinate; kept where that
    # coordinate dominates the lift, so the target runs on a permuted lens
    d = DomainDab(a, b)
    s = -t * cmath.exp(1j * phase)
    for w in ((s, 0j), (0j, s)):
        if not dab_contains(d, w):
            continue
        z = lift_to_M(d, w)
        if abs(z[2]) >= max(abs(z[0]), abs(z[1])):
            continue
        try:
            geodesic_through(a, b, z)
        except ConvergenceFailure:
            pass  # a thin lens can leave no candidate within tol; the regime stands


def test_universal_c_equals_c_dab():
    U = dab_universal_set(D88)
    from geodisc.metrics import _sample_dab

    for i in range(200):
        z = _sample_dab(D88, 13, 2 * i)
        w = _sample_dab(D88, 13, 2 * i + 1)
        assert universal_c(U, z, w) == c_dab(D88, z, w)


def test_universal_gamma_matches_kappa_formula():
    U = dab_universal_set(D88)
    rng = rng_for(32, 0)
    for _ in range(200):
        X = (
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        assert universal_gamma(U, (0.0, 0.0), X) == pytest.approx(
            kappa_dab_origin(D88, X), abs=1e-12
        )


def test_universal_singleton_identity_reproduces_rho():
    ident = UniversalMember("id", lambda z: complex(z[0]), lambda z: (1.0 + 0.0j,))
    U = UniversalSet(members=(ident,))
    assert universal_c(U, (0.3,), (-0.5j,)) == pytest.approx(rho(0.3, -0.5j), abs=1e-15)


def test_universal_augmentation_changes_nothing():
    U = dab_universal_set(D88)
    rng = rng_for(33, 0)
    extra = []
    for _ in range(50):
        nu = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        if abs(nu) >= 0.9:
            continue
        m = MobiusMap(nu, cmath.exp(2j * math.pi * rng.uniform()))
        extra.append(compose_with_mobius(U.members[int(rng.integers(3))], m))
    U_big = UniversalSet(members=U.members + tuple(extra))
    from geodisc.metrics import _sample_dab

    for i in range(100):
        z = _sample_dab(D88, 14, 2 * i)
        w = _sample_dab(D88, 14, 2 * i + 1)
        assert abs(universal_c(U_big, z, w) - universal_c(U, z, w)) <= 1e-12
        X = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), complex(rng.uniform(-1, 1)))
        assert universal_gamma(U_big, (0.0, 0.0), X) <= universal_gamma(U, (0.0, 0.0), X) + 1e-12


def test_linear_convexity_quadratic():
    r1, r2, uni = linear_convexity_quadratic(D88)
    assert uni
    expect = {complex(0.625, math.sqrt(0.609375)), complex(0.625, -math.sqrt(0.609375))}
    assert min(abs(r1 - e) for e in expect) < 1e-12
    assert abs(r1 * r2 - 1.0) < 1e-12  # Vieta: product b/b
    # agreement with the independent root oracle
    oracle_roots = quadratic_roots(Quadratic(0.8, -(0.64 + 1 - 0.64), 0.8))
    assert min(abs(r1 - o) for o in oracle_roots) < 1e-12
    # retract regime: real roots off the circle
    _, _, uni = linear_convexity_quadratic(DomainDab(0.4, 0.4))
    assert not uni


def test_linear_convexity_root_order():
    # complex roots: the upper half-plane root first
    r1, r2, uni = linear_convexity_quadratic(DomainDab(1.3, 0.7))
    assert uni and r2 == r1.conjugate() and r1.imag > 0.0
    assert r1 == pytest.approx(complex(-1 / 7, math.sqrt(48) / 7), abs=1e-15)
    # real roots: the larger modulus first, then its reciprocal
    r1, r2, uni = linear_convexity_quadratic(DomainDab(3.0, 0.5))
    assert not uni and r1.imag == r2.imag == 0.0
    assert r1 == pytest.approx(-7.75 - math.sqrt(59.0625), abs=1e-14)
    assert r2 == pytest.approx(1.0 / r1, abs=1e-15)


def test_geodesic_certificate_json():
    z = lift_to_M(D88, (0.5, 0.0))
    cert = geodesic_through(0.8, 0.8, z)
    obj = cert.to_json()
    assert obj["residual"] < 1e-9
    assert obj["lempert_value"] == pytest.approx(math.atanh(2.0 / 3.0), abs=1e-13)
    assert len(obj["disc"]["components"]) == 3


def test_geodesic_certificate_json_leaves_the_disc_as_it_is():
    cert = geodesic_through(0.8, 0.8, lift_to_M(D88, (0.5, 0.0)))
    before = json.dumps(cert.to_json(), sort_keys=True)
    obj = cert.to_json()
    obj["disc"]["params"]["a"] = 99.0
    obj["disc"]["params"]["omega"][1] = 99.0
    obj["gamma1"][0] = 99.0
    assert cert.disc.params["a"] == 0.8
    assert json.dumps(cert.to_json(), sort_keys=True) == before


@pytest.mark.parametrize("a, b", [(math.inf, 0.8), (0.8, math.nan), (-0.8, 0.8)])
def test_geodesic_through_rejects_bad_parameters(a, b):
    with pytest.raises(DomainError, match="positive and finite"):
        geodesic_through(a, b, lift_to_M(D88, (0.5, 0.0)))


@pytest.mark.parametrize("a, b", [(math.inf, 0.8), (0.8, math.inf), (math.nan, 0.8), (0.0, 0.8)])
def test_domain_parameters_are_positive_and_finite(a, b):
    with pytest.raises(DomainError, match="positive and finite"):
        DomainDab(a, b)


def test_linear_convexity_quadratic_of_large_parameters():
    # b**2 overflows at 1e200; the factored form does not
    r1, r2, uni = linear_convexity_quadratic(DomainDab(1e200, 1e200))
    assert (r1, r2, uni) == (complex(5e-201, 1.0), complex(5e-201, -1.0), True)
    with pytest.raises(DomainError, match="overflows"):
        linear_convexity_quadratic(DomainDab(1e200, 1e300))


def test_closed_form_target_builds_no_lens_grid():
    # (20, 20.5) with z1 or z2 dominant: thin permuted lenses, on which a
    # sampled start would be expensive; the closed form needs none
    d = DomainDab(20.0, 20.5)
    seen = set()
    for i in range(400):
        z = lift_to_M(d, _sample_dab(d, 41, i))
        perm = dominant_permutation(z)
        if perm == (0, 1, 2) or perm in seen:
            continue
        seen.add(perm)
        cert = geodesic_through(d.a, d.b, z)
        vals = cert.disc(cert.param_at_target)
        assert max(abs(u - v) for u, v in zip(vals, z)) < 1e-9
    assert seen == {(2, 1, 0), (0, 2, 1)}


def test_target_near_tridisc_boundary_certifies():
    # a lifted point with |z3| within 1e-5 of 1 (the first benchmark fixture)
    z1 = 0.8035035523696945 - 0.28547648879861764j
    z2 = 0.07984285114202017 - 0.7532957631102906j
    zp = lift_to_M(D88, (z1, z2))
    assert dominant_permutation(zp) == (0, 1, 2)
    assert 1.0 - abs(zp[2]) < 1e-5
    cert = geodesic_through(0.8, 0.8, zp)
    assert cert.residual <= 1e-9
    disc = AnalyticDisc.from_json(json.loads(json.dumps(cert.disc.to_json())))
    upper = lempert_upper_bound(disc, (0j, 0j, 0j), zp, lam_z=0j, lam_w=cert.param_at_target)
    assert upper == pytest.approx(c_dab(D88, (0j, 0j), (z1, z2)), abs=1e-9)


def test_no_candidate_raises_convergence_failure(monkeypatch):
    # without a preimage candidate there is nothing to certify
    monkeypatch.setattr(metrics, "_intersection_candidates", lambda *args: [])
    with pytest.raises(ConvergenceFailure) as info:
        geodesic_through(0.8, 0.8, lift_to_M(D88, (0.5, 0.0)))
    assert info.value.best_residual == math.inf


@pytest.mark.parametrize("z, message", [
    ((1.5, 0, 0), "point (1.5+0j) is not in the open unit disc"),
    ((0, math.nan, 0.1), "non-finite point (nan+0j)"),
    ((0.1, 0.1, math.inf), "non-finite point (inf+0j)"),
])
def test_target_outside_the_tridisc_is_named(z, message):
    with pytest.raises(DomainError) as info:
        geodesic_through(0.8, 0.8, z)
    assert str(info.value) == message


def test_failed_samples_dump_to_strict_json(monkeypatch):
    # a failure with no candidate in the lens carries best_residual inf, one
    # with no residual at all NaN; both are written as null
    errors = iter([ConvergenceFailure("no candidate", best_residual=math.inf), NotOnVariety("off M")])
    real = metrics.geodesic_through

    def failing(*args, **kwargs):
        error = next(errors, None)
        if error is not None:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics, "geodesic_through", failing)
    rep = lempert_verify(D88, samples=3, seed=0)
    assert rep.failures == 2 and rep.failed[0]["residual"] == math.inf and math.isnan(rep.failed[1]["residual"])
    obj = json.loads(rep.dumps(), parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
    assert [(f["index"], f["residual"]) for f in obj["failed"]] == [(0, None), (1, None)]
    assert obj["failed"][0]["reason"] == "ConvergenceFailure: no candidate"
    # the one passing sample keeps its finite numbers
    assert 0.0 < obj["worst_residual"] < 1e-9


def test_unit_ratio_has_no_candidate():
    # |t1| = |z1 / x| = 1 collapses the first hyperbolic circle to its center
    assert metrics._intersection_candidates(L88, 0.5 + 0j, 0.5 + 0j) == []
    assert metrics._intersection_candidates(L88, 0.5j, 0.5 + 0j) == []


@pytest.mark.parametrize("s", [1e-9, 1e-15, 1e-300])
def test_tiny_targets_list_both_branches_from_their_own_pairs(monkeypatch, s):
    # the pair in the scaled unknowns keeps its digits however small |x| is:
    # both candidates certify, one on each branch, and each disc is built
    # once from its candidate's own pair, with no retry
    calls = []

    def traced(L, g, branch, omega_eta=None):
        calls.append((L, g, omega_eta))
        return phi_gamma(L, g, branch, omega_eta=omega_eta)

    monkeypatch.setattr(metrics, "phi_gamma", traced)
    z = lift_to_M(D88, (s, 0.0))
    cert = geodesic_through(0.8, 0.8, z, find_alternates=True)
    assert [br for br, _ in cert.alternates] == [MINUS if cert.branch == PLUS else PLUS]
    assert [g for _, g, _ in calls] == [cert.gamma1, cert.alternates[0][1]]
    assert cert.residual <= RESIDUAL_TOL
    for L, g, (omega, eta, _) in calls:
        _, r1, r2, q = _ik_data(L, g)
        assert abs(r1 * omega + r2 * eta + q) <= RESIDUAL_TOL * abs(q)
    miss = max(abs(u - v) for u, v in zip(cert.disc(cert.param_at_target), z))
    assert miss <= 1e-9 * max(map(abs, z))
    calls.clear()
    geodesic_through(0.8, 0.8, z)
    assert len(calls) == 1


def _pole_target(d):
    """A target of (1.5, 0.8, 1) with |z3| = 1 - d on the pole of the point of
    M over (z1, z3): b - z1 - a z3 = 0 exactly, and the residual is about
    1.5 d, inside the membership test."""
    a, b = 1.5, 0.8
    h = (a * a + b * b - 1.0) / (2.0 * a * b)
    x = (1.0 - d) * complex(h, math.sqrt(1.0 - h * h))
    z1 = b - a * x
    assert b - z1 - a * x == 0 and abs(z1) < abs(x)
    return a, b, (z1, 0j, x)


def _moved_off(z1, z2, j, shift):
    z = list(lift_to_M(D88, (z1, z2)))
    z[j] += shift
    return 0.8, 0.8, tuple(z)


# (z1, z2, j, shift): the lifted point with z_j moved off M inside the
# membership test (residual <= 1e-8 min(1, S)); the disc meets z only to
# within that residual, above tol at unit scale and far below it at 1e-9 scale
OFF_SURFACE = {
    "unit-z2": (0.3 + 0.1j, 0.2 - 0.2j, 1, 5e-9),
    "unit-z1": (0.3 + 0.1j, 0.2 - 0.2j, 0, 5e-9j),
    "tiny-z2": (3e-10 + 1e-10j, 2e-10 - 2e-10j, 1, 3e-18),
    "tiny-z3": (3e-10 + 1e-10j, 2e-10 - 2e-10j, 2, -3e-18j),
}


@pytest.mark.parametrize("a, b, z", [
    *(_moved_off(*case) for case in OFF_SURFACE.values()),
    _pole_target(1e-12),
    _pole_target(1e-9),
], ids=[*OFF_SURFACE, "pole-1e-12", "pole-1e-9"])
def test_target_off_the_surface_is_met_within_tol_or_fails(a, b, z):
    try:
        cert = geodesic_through(a, b, z, tol=MATCH_TOL)
    except ConvergenceFailure:
        return
    disc = AnalyticDisc.from_json(json.loads(json.dumps(cert.disc.to_json())))
    assert max(abs(u - v) for u, v in zip(disc(cert.param_at_target), z)) <= MATCH_TOL


def _disc_target(a, d, s, t, branch, r, phase):
    """(L, g, z): a lens point g = u + iv of Lens(a, a + d), and the point z
    of its `branch` disc at x = r exp(i phase), with z3 dominant; u runs over
    the lens's real interval, v over the chord of both discs above and below
    it.  |x| stays in the normal floating-point range, since a subnormal x
    leaves z_j = x (g_j + O(x)) too few digits to carry g."""
    b = a + d
    assume(a + b > 1.0)
    lo, hi = max(-1.0, -(1.0 + b) / a), min(1.0, (b - 1.0) / a)
    u = lo + s * (hi - lo)
    v = t * math.sqrt(max(0.0, min(1.0 - u * u, (b / a) ** 2 - (u + 1.0 / a) ** 2)))
    g, L, x = complex(u, v), Lens(a, b), r * cmath.exp(1j * phase)
    assume(L.contains(g))
    try:
        z = phi_gamma(L, g, branch)(x)
    except GeodiscError:
        reject()  # no certified disc to start from
    assume(abs(z[2]) >= max(abs(z[0]), abs(z[1])))
    return L, g, z


disc_targets = dict(
    a=st.floats(0.02, 20.0),
    d=st.floats(-0.999, 0.999),
    s=st.floats(0.001, 0.999),
    t=st.floats(-0.999, 0.999),
    branch=st.sampled_from((PLUS, MINUS)),
    r=st.floats(1e-300, 0.95, exclude_max=True),
    phase=st.floats(0.0, 2.0 * math.pi),
)


def _is_minus(L, g, omega):
    """geodesic_through's sign test: plus turns positively from -q to r1 omega."""
    q = _ik_data(L, g)[3]
    return not (omega * -q.conjugate()).imag > 0.0


@settings(max_examples=300, deadline=None)
@given(**disc_targets)
def test_two_candidates_of_a_target_lie_on_opposite_branches(a, d, s, t, branch, r, phase):
    # so geodesic_through's residual tie-break between candidates of one
    # sign is not reached by a target; the next test drives it directly
    L, _, z = _disc_target(a, d, s, t, branch, r, phase)
    cands = metrics._intersection_candidates(L, z[0], z[2])
    assert len(cands) <= 2
    assert len({_is_minus(L, g, omega) for g, omega, _ in cands}) == len(cands)


@pytest.mark.parametrize("worse_first", [True, False], ids=["worse-first", "better-first"])
def test_candidates_of_one_sign_are_ranked_by_their_residual(monkeypatch, worse_first):
    # the returned candidate beside a twin whose omega is turned by 1e-13:
    # both certify and meet z, the twin with the larger residual, so in
    # either order the smaller residual goes first and the twin is its alternate
    z = lift_to_M(D88, (0.3 + 0.1j, 0.2 - 0.2j))  # z3 dominant: no permutation
    cert = geodesic_through(0.8, 0.8, z)
    [(g, omega, eta)] = [c for c in metrics._intersection_candidates(L88, z[0], z[2]) if c[0] == cert.gamma1]
    twin = (g, omega * cmath.exp(1e-13j), eta)
    assert _is_minus(L88, g, twin[1]) == _is_minus(L88, g, omega)
    _, r1, r2, q = _ik_data(L88, g)
    assert metrics._ik_residual(twin[1], eta, r1, r2, q) > cert.residual
    pair = [twin, (g, omega, eta)] if worse_first else [(g, omega, eta), twin]
    monkeypatch.setattr(metrics, "_intersection_candidates", lambda L, z1, x: pair)
    tied = geodesic_through(0.8, 0.8, z, find_alternates=True)
    assert (tied.residual, tied.disc, tied.alternates) == (cert.residual, cert.disc, ((cert.branch, g),))


@settings(max_examples=300, deadline=None)
@given(**disc_targets)
# near the lens boundary with small |x|: the two candidates lie 7e-8 apart
@example(a=6.5625, d=0.0, s=0.001, t=0.0, branch=PLUS, r=6.103515625e-05, phase=0.0)
def test_geodesic_through_recovers_tangent_and_branch(a, d, s, t, branch, r, phase):
    L, g, z = _disc_target(a, d, s, t, branch, r, phase)
    cert = geodesic_through(L.a, L.b, z, find_alternates=True)
    found = [(cert.branch, cert.gamma1)] + list(cert.alternates)
    assert any(br == branch and abs(gg - g) < 1e-8 for br, gg in found)
    vals = cert.disc(cert.param_at_target)
    assert max(abs(p - q) for p, q in zip(vals, z)) < 1e-9
