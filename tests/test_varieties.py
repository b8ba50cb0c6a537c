import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geodisc.discgeom import MobiusMap
from geodisc.errors import (
    DegenerateImage,
    DomainError,
    InvalidAutomorphism,
    NotInDomain,
    PoleError,
    Unsupported,
)
from geodisc.geodesics import Lens
from geodisc.oracle import rng_for, surface_samples
from geodisc.varieties import (
    Alpha,
    DomainDab,
    TriClass,
    TridiscAutomorphism,
    classify,
    dab_contains,
    graph_value,
    lift_to_M,
    membership_residual,
    normalize,
    transport,
)


# the identity of the Mobius family: m_0 with rotation -1
IDENTITY = MobiusMap(0j, -1 + 0j)


def rand_alpha(rng, scale=1.5):
    while True:
        c = [complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(3)]
        if min(abs(x) for x in c) > 0.05:
            return Alpha(*c)


def test_alpha_validation():
    with pytest.raises(DomainError):
        Alpha(0, 0, 0)
    Alpha(0, 0, 1)  # single nonzero entry is fine


def test_classify_examples():
    assert classify(Alpha(3, 4, 5)).retract is False
    tc = classify(Alpha(1, 1, 3))
    assert tc.retract and tc.axis == 3
    tc = classify(Alpha(1, 0, 0))
    assert tc.retract and tc.axis == 1
    assert classify(Alpha(3, 4, 5)).to_json() == {"class": "NonRetract"}


@pytest.mark.parametrize("coeffs, axis", [
    ((1, 1, 2), 3),
    ((1j, 1j, 2), 3),
    ((1, 1, 0), 1),
    ((2, 1, 1), 1),
    ((0.2, 0.8, 1), 3),  # 0.2 + 0.8 rounds to 1
    ((0.3, 1.3, 1), 2),  # 1.3 - 0.3 rounds to 1
])
def test_classify_ties_are_retract_on_the_first_largest_modulus(coeffs, axis):
    assert classify(Alpha(*coeffs)) == TriClass(retract=True, axis=axis)


def test_classify_scaling_and_permutation_invariance():
    rng = rng_for(3, 0)
    for _ in range(200):
        alpha = rand_alpha(rng)
        base = classify(alpha).retract
        for c in (2.0, -3.5, 0.1):
            scaled = Alpha(*(c * x for x in alpha.coeffs()))
            assert classify(scaled).retract == base
        for perm in ((1, 2, 0), (2, 0, 1), (1, 0, 2)):
            assert classify(alpha.permuted(perm)).retract == base


def test_membership_examples():
    alpha = Alpha(1, 1, 1)
    assert membership_residual(alpha, (0.0, 0.0, 0.0)) == 0.0
    assert membership_residual(alpha, (0.5, 0.5, 0.0)) == pytest.approx(0.75)


def test_graph_value_examples():
    alpha = Alpha(0.8, 0.8, 1.0)
    assert graph_value(alpha, 0.0, 0.0) == 0.0
    assert graph_value(alpha, 0.5, 0.0) == pytest.approx(-2.0 / 3.0, abs=1e-15)
    z3 = graph_value(alpha, 0.3 + 0.2j, -0.1j)
    assert abs(membership_residual(alpha, (0.3 + 0.2j, -0.1j, z3))) < 1e-14


def test_graph_value_errors():
    with pytest.raises(Unsupported):
        graph_value(Alpha(1, 1, 0), 0.1, 0.1)
    with pytest.raises(PoleError):
        graph_value(Alpha(1, 1, 1), 0.5, 0.5)  # denominator 1 - z1/1 - z2/1 vanishes


def test_graph_membership_round_trip():
    rng = rng_for(4, 0)
    count = 0
    while count < 1000:
        alpha = rand_alpha(rng)
        if alpha.a3 == 0:
            continue
        z1 = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        z2 = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        if abs(z1) >= 1 or abs(z2) >= 1:
            continue
        den = alpha.a3 - alpha.a2.conjugate() * z1 - alpha.a1.conjugate() * z2
        if abs(den) < 0.1 * abs(alpha.a3):
            continue
        z3 = graph_value(alpha, z1, z2)
        if abs(z3) >= 1:
            continue
        scale = max(abs(c) for c in alpha.coeffs())
        assert abs(membership_residual(alpha, (z1, z2, z3))) < 1e-12 * scale
        count += 1


def test_graph_value_inner_on_torus():
    # |psi| = 1 for |z1| = |z2| = 1 off poles
    rng = rng_for(8, 0)
    for _ in range(200):
        alpha = rand_alpha(rng)
        z1 = cmath.exp(2j * math.pi * rng.uniform())
        z2 = cmath.exp(2j * math.pi * rng.uniform())
        den = alpha.a3 - alpha.a2.conjugate() * z1 - alpha.a1.conjugate() * z2
        if abs(den) < 0.05:
            continue
        num = alpha.a3.conjugate() * z1 * z2 - alpha.a1 * z1 - alpha.a2 * z2
        assert abs(abs(num / den) - 1.0) < 1e-12


def test_graph_bounded_iff_retract_axis3():
    # graph over the bidisc stays in the closed disc exactly in the retract case
    retract = Alpha(1, 1, 3)
    rng = rng_for(9, 0)
    for _ in range(500):
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z1) >= 1 or abs(z2) >= 1:
            continue
        assert abs(graph_value(retract, z1, z2)) <= 1.0 + 1e-12
    # non-retract: some witness exceeds 1
    witness = Alpha(0.8, 0.8, 1.0)
    big = 0.0
    for _ in range(2000):
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z1) >= 1 or abs(z2) >= 1:
            continue
        try:
            big = max(big, abs(graph_value(witness, z1, z2)))
        except PoleError:
            continue
    assert big > 1.0


def test_normalize_trivial():
    nf = normalize(Alpha(0.8, 0.8, 1.0))
    assert nf.a == pytest.approx(0.8) and nf.b == pytest.approx(0.8)
    assert all(abs(u - 1.0) < 1e-15 for u in nf.rotations)


def test_normalize_rotation_case():
    alpha = Alpha(0.8j, 0.8, 1.0)
    nf = normalize(alpha)
    assert nf.a == pytest.approx(0.8) and nf.b == pytest.approx(0.8)
    assert any(abs(u - 1.0) > 0.1 for u in nf.rotations)
    beta = Alpha(nf.a, nf.b, 1.0)
    for z in surface_samples(alpha, 100):
        assert abs(membership_residual(beta, nf.apply(z))) < 1e-12


def test_normalize_preserves_classification():
    rng = rng_for(10, 0)
    for _ in range(1000):
        alpha = rand_alpha(rng)
        try:
            nf = normalize(alpha)
        except Unsupported:
            continue
        beta = Alpha(nf.a, nf.b, 1.0)
        assert classify(beta).retract == classify(alpha).retract


def test_normalize_errors():
    with pytest.raises(Unsupported):
        normalize(Alpha(1, 1, 0))
    with pytest.raises(Unsupported):
        normalize(Alpha(0, 1, 1))


def test_transport_identity():
    alpha = Alpha(3, 4, 5)
    ident = TridiscAutomorphism(perm=(0, 1, 2), maps=(IDENTITY,) * 3)
    beta = transport(alpha, ident)
    # proportional to alpha by a real factor
    ratios = [b / a for a, b in zip(alpha.coeffs(), beta.coeffs())]
    assert all(abs(r - ratios[0]) < 1e-10 for r in ratios)
    assert abs(ratios[0].imag) < 1e-10


def test_transport_permutation():
    alpha = Alpha(3, 4, 5)
    m = TridiscAutomorphism(perm=(1, 2, 0), maps=(IDENTITY,) * 3)
    beta = transport(alpha, m)
    expected = alpha.permuted((1, 2, 0))
    ratios = [b / a for a, b in zip(expected.coeffs(), beta.coeffs())]
    assert all(abs(r - ratios[0]) < 1e-10 for r in ratios)


def test_transport_moving_point_sampled_residual():
    rng = rng_for(11, 0)
    alpha = Alpha(3, 4, 5)
    p = surface_samples(alpha, 1, seed=5)[0]
    m = TridiscAutomorphism.moving_to_origin(p)
    beta = transport(alpha, m)
    worst = 0.0
    for z in surface_samples(alpha, 200, seed=6):
        worst = max(worst, abs(membership_residual(beta, m(z))))
    assert worst < 1e-10
    assert classify(beta).retract == classify(alpha).retract


def test_transport_rejects_bad_base_point():
    alpha = Alpha(3, 4, 5)
    # moves (0.5, 0, 0) to 0, but that point is not on the surface
    m = TridiscAutomorphism(perm=(0, 1, 2), maps=(MobiusMap(0.5), IDENTITY, IDENTITY))
    with pytest.raises(InvalidAutomorphism):
        transport(alpha, m)


# the lift of (0.3+0.2i, -0.1+0.4i) to the surface of (0.8, 0.8, 1)
SCALE_BASE = lift_to_M(DomainDab(0.8, 0.8), (0.3 + 0.2j, -0.1 + 0.4j))


def test_transport_does_not_depend_on_the_scale_of_alpha():
    # the base-point test is relative to min(1, S), S the sum of its term
    # moduli, plus their rounding: at 1e9 the residual's rounding alone is
    # far above the absolute TRANSPORT_TOL, at 1e-12 the whole equation is
    m = TridiscAutomorphism.moving_to_origin(SCALE_BASE)
    ref = transport(Alpha(0.8, 0.8, 1.0), m).coeffs()
    for s in (1e-12, 1e-6, 1.0, 1e6, 1e9, 1e12):
        beta = transport(Alpha(0.8 * s, 0.8 * s, s), m).coeffs()
        assert max(abs(u - v) for u, v in zip(beta, ref)) <= 1e-12


@pytest.mark.parametrize("s", [1.0, 1e-12])
def test_transport_rejects_an_off_surface_base_at_any_scale(s):
    # the residual of (0.8, 0.8, 1) at (0.5, 0.5, 0.5) is 0.65 of a term sum of 2.05
    m = TridiscAutomorphism.moving_to_origin((0.5, 0.5, 0.5))
    with pytest.raises(InvalidAutomorphism):
        transport(Alpha(0.8 * s, 0.8 * s, s), m)


coefficients = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False).filter(
    lambda c: abs(c) > 0.1
)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(coefficients, coefficients, coefficients),
    st.permutations((0, 1, 2)),
    st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_transport_closed_form_property(coeffs, perm, angles, seed):
    # on a tie of the triangle inequality rounding decides the class
    mods = sorted(abs(c) for c in coeffs)
    assume(abs(mods[0] + mods[1] - mods[2]) > 1e-9 * mods[2])
    alpha = Alpha(*coeffs)
    base = surface_samples(alpha, 1, seed=seed)[0]
    maps = tuple(MobiusMap(base[p], cmath.exp(1j * t)) for p, t in zip(perm, angles))
    m = TridiscAutomorphism(perm=tuple(perm), maps=maps)
    beta = transport(alpha, m)
    for z in surface_samples(alpha, 50, seed=seed + 1):
        assert abs(membership_residual(beta, m(z))) < 1e-10
    assert classify(beta).retract == classify(alpha).retract


def _einsum_beta(alpha, m):
    """The contraction transport used before it moved to flat tuples, kept as
    an independent reference: the nested 2x2x2 equation tensor, transposed by
    numpy and contracted with the cleared inverse of each slot by einsum."""
    a1, a2, a3 = alpha.coeffs()
    T = np.array([[[0j, a3], [a2, -a1.conjugate()]], [[a1, -a2.conjugate()], [-a3.conjugate(), 0j]]])
    slots = [np.array([[1.0, s.nu], [-s.nu.conjugate() * s.rotation.conjugate(), -s.rotation.conjugate()]])
             for s in m.maps]
    Q = np.einsum("abc,ia,jb,kc->ijk", T.transpose(m.perm), *slots)
    F = -complex(Q[0, 0, 1])
    C, D, E = complex(Q[1, 1, 0]) / F, -complex(Q[1, 0, 1]) / F, -complex(Q[0, 1, 1]) / F
    c = cmath.sqrt(C)
    if c.real < 0 or (c.real == 0 and c.imag < 0):
        c = -c
    return (c * E.conjugate(), c * D.conjugate(), -c.conjugate())


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(coefficients, coefficients, coefficients),
    st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_transport_matches_einsum_reference(coeffs, angles, seed):
    # a wrong transposition table can still map a symmetric surface onto
    # itself, so compare beta coefficient by coefficient for every permutation
    alpha = Alpha(*coeffs)
    base = surface_samples(alpha, 1, seed=seed)[0]
    for perm in itertools.permutations(range(3)):
        maps = tuple(MobiusMap(base[p], cmath.exp(1j * t)) for p, t in zip(perm, angles))
        m = TridiscAutomorphism(perm=perm, maps=maps)
        beta = transport(alpha, m).coeffs()
        ref = _einsum_beta(alpha, m)
        scale = max(map(abs, ref))
        assert max(abs(b - r) for b, r in zip(beta, ref)) <= 1e-12 * scale


@pytest.mark.parametrize("perm, maps", [
    ((0, 1, 2), (IDENTITY,) * 2),
    ((0, 1, 2), (IDENTITY,) * 4),
    ((0, 1, 2), (IDENTITY, IDENTITY, 0.5)),
    ((0, 1, 1), (IDENTITY,) * 3),
    ((0, 1), (IDENTITY,) * 3),
    (None, (IDENTITY,) * 3),
], ids=["two-maps", "four-maps", "non-map", "repeated-index", "short-perm", "no-perm"])
def test_tridisc_automorphism_rejects_bad_slots(perm, maps):
    with pytest.raises(DomainError):
        TridiscAutomorphism(perm=perm, maps=maps)


def test_tridisc_automorphism_stores_tuples():
    m = TridiscAutomorphism(perm=[1, 2, 0], maps=[IDENTITY] * 3)
    assert m.perm == (1, 2, 0) and m.maps == (IDENTITY,) * 3
    assert transport(Alpha(3, 4, 5), m) == transport(Alpha(3, 4, 5), TridiscAutomorphism((1, 2, 0), (IDENTITY,) * 3))


def test_transport_degenerate_image():
    # the equation of (1, 1, 0) is (z1 + z2)(1 - z3): no linear z3 term, so F = 0
    ident = TridiscAutomorphism(perm=(0, 1, 2), maps=(IDENTITY,) * 3)
    with pytest.raises(DegenerateImage):
        transport(Alpha(1, 1, 0), ident)


def test_dab_membership_examples():
    d = DomainDab(0.8, 0.8)
    assert dab_contains(d, (0.0, 0.0))
    assert dab_contains(d, (0.5, 0.0))  # |F| = 2/3 < 1
    assert not dab_contains(d, (1.0, 0.0))
    assert Lens(0.8, 0.8).nonempty
    assert not Lens(0.3, 0.3).nonempty


def test_lift_examples():
    d = DomainDab(0.8, 0.8)
    assert lift_to_M(d, (0.0, 0.0)) == (0.0, 0.0, 0.0)
    z = lift_to_M(d, (0.5, 0.0))
    assert z[2] == pytest.approx(-2.0 / 3.0, abs=1e-15)
    assert abs(membership_residual(Alpha(0.8, 0.8, 1.0), z)) < 1e-14
    with pytest.raises(NotInDomain):
        lift_to_M(d, (0.99, 0.99))
