import cmath
import json
import math
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geodisc.ball import (
    ComplexLine,
    _herm,
    _householder_unitary,
    _unit,
    F_left_inverse,
    ball_automorphism,
    boundary_modulus,
    boundary_modulus_locus,
    c_star_ball,
    f_t_geodesic,
    minimal_norm_point,
    psi_l,
    universal_member_B2,
    universal_member_linear,
)
from geodisc.discgeom import rho
from geodisc.errors import DomainError, Indeterminate, NoIntersection
from geodisc.oracle import rng_for, _sample_ball


def rand_ball(rng, n=2, radius=0.95):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v * (radius * rng.uniform() ** 0.25 / max(np.linalg.norm(v), 1e-12))


def test_automorphism_fixed_points():
    rng = rng_for(41, 0)
    for _ in range(100):
        a = rand_ball(rng)
        assert np.linalg.norm(ball_automorphism(a, a)) < 1e-12
        assert np.linalg.norm(ball_automorphism(a, np.zeros(2)) - a) < 1e-12
    z = rand_ball(rng, n=3)
    assert np.allclose(ball_automorphism(np.zeros(3), z), z)


def test_automorphism_involution():
    rng = rng_for(42, 0)
    for _ in range(500):
        n = int(rng.integers(2, 4))
        a, z = rand_ball(rng, n=n), rand_ball(rng, n=n)
        w = ball_automorphism(a, z)
        assert np.linalg.norm(w) < 1.0
        assert np.linalg.norm(ball_automorphism(a, w) - z) < 1e-12


def test_automorphism_rejects_outside():
    with pytest.raises(DomainError):
        ball_automorphism((1.0, 0.0), (0.0, 0.0))


@pytest.mark.parametrize("fn", [c_star_ball, ball_automorphism])
def test_dimension_mismatch_is_domain_error(fn):
    with pytest.raises(DomainError, match="dimension mismatch"):
        fn((0.1, 0.2), (0.1, 0.2, 0.3))


def test_minimal_norm_point_examples():
    l = ComplexLine(base=(0.0, 0.0), direction=(1.0, 1.0j))
    assert np.linalg.norm(minimal_norm_point(l)) == 0.0
    l = ComplexLine(base=(0.5, 0.0), direction=(0.0, 1.0))
    foot = minimal_norm_point(l)
    assert type(foot) is tuple and foot == (0.5, 0.0)
    # orthogonality of the foot against the direction
    rng = rng_for(43, 0)
    for _ in range(100):
        base, d = rand_ball(rng, radius=0.8), rng.normal(size=2) + 1j * rng.normal(size=2)
        l = ComplexLine(base=tuple(base), direction=tuple(d))
        foot = minimal_norm_point(l)
        ip = np.dot(foot, np.asarray(l.direction).conjugate())
        assert abs(ip) < 1e-12


def test_minimal_norm_point_no_intersection():
    with pytest.raises(NoIntersection):
        minimal_norm_point(ComplexLine(base=(2.0, 0.0), direction=(0.0, 1.0)))


def test_psi_l_first_axis():
    l = ComplexLine(base=(0.0, 0.0), direction=(1.0, 0.0))
    psi = psi_l(l)
    rng = rng_for(44, 0)
    for _ in range(50):
        z = rand_ball(rng)
        assert abs(abs(psi(z)) - abs(z[0])) < 1e-12  # z1 up to a unimodular factor


def test_psi_l_extremal_certificate():
    rng = rng_for(45, 0)
    for _ in range(100):
        base = rand_ball(rng, radius=0.7)
        d = rng.normal(size=2) + 1j * rng.normal(size=2)
        l = ComplexLine(base=tuple(base), direction=tuple(d))
        try:
            psi = psi_l(l)
        except NoIntersection:
            continue
        foot = np.asarray(psi.minimal_point)
        pts = []
        while len(pts) < 2:
            lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            p = foot + lam * np.asarray(l.direction)
            if np.linalg.norm(p) < 0.98:
                pts.append(p)
        got = rho(psi(pts[0]), psi(pts[1]))
        want = math.atanh(c_star_ball(pts[0], pts[1]))
        assert abs(got - want) < 1e-9


def test_psi_l_maps_into_disc():
    rng = rng_for(46, 0)
    l = ComplexLine(base=(0.3, 0.1j), direction=(0.2, 1.0))
    psi = psi_l(l)
    for i in range(1000):
        z = _sample_ball(46, i, n=2, radius=0.999)
        assert abs(psi(z)) < 1.0


def json_unitary(psi):
    return np.array([[complex(*p) for p in row] for row in psi.to_json()["unitary"]])


def test_unitary_rows_orthonormal():
    l = ComplexLine(base=(0.3, 0.1j), direction=(0.2, 1.0))
    psi = psi_l(l)
    U = json_unitary(psi)
    assert np.allclose(U @ U.conj().T, np.eye(2), atol=1e-12)


def test_row_zero_sign_at_lines_through_the_origin():
    # in double the foot of this line is exactly 0; moved by a rounding-size
    # orthogonal offset it is not, and Phi_a tends to -identity as a -> 0
    base = (1 / 3 + 1j / 6, 1 / 3)
    normal = (-base[1].conjugate(), base[0].conjugate())
    through = psi_l(ComplexLine(base=base, direction=base))
    near = psi_l(ComplexLine(base=tuple(b + 1e-17 * n for b, n in zip(base, normal)), direction=base))
    assert not any(through.minimal_point) and any(near.minimal_point)
    for z in ((0.1, 0.2j), (-0.5 + 0.1j, 0.3), (0.4j, -0.6)):
        assert abs(through(z) - near(z)) <= 1e-15
        # row 0 of the JSON unitary follows Phi_0 = identity: conj(d) through
        # the origin, -conj(d) off it; both give psi through the automorphism
        for psi in (through, near):
            got = json_unitary(psi)[0] @ ball_automorphism(psi.minimal_point, z)
            assert abs(got - psi(z)) <= 1e-15
    d = np.array(through.direction)
    assert close(json_unitary(through)[0], d.conj()) and close(json_unitary(near)[0], -d.conj())


def test_universal_member_B2_properties():
    rng = rng_for(47, 0)
    for _ in range(50):
        a = rand_ball(rng)
        if np.linalg.norm(a) < 0.1:
            continue
        member = universal_member_B2(a)
        # maps the ball into the disc
        for i in range(200):
            z = _sample_ball(47, i, n=2, radius=0.999)
            assert abs(member(z)) < 1.0
        # vanishes on the line through 0 and a
        for t in (0.2, -0.5, 0.3j):
            assert abs(member(t * a)) < 1e-13


def test_universal_member_B2_tiny_parameter():
    # |a|^2 underflows to 0 here; the member at a -> 0 along e1 is z -> z2
    assert abs(universal_member_B2((1e-170, 0))((0.1, 0.2)) - 0.2) <= 1e-15
    with pytest.raises(DomainError, match="nonzero"):
        universal_member_B2((0, 0))


def b2_formula(a, z):
    norm = math.hypot(*map(abs, a))
    u1, u2 = (c / norm for c in a)
    s = math.sqrt(1.0 - norm * norm)
    return s * (u1 * z[1] - u2 * z[0]) / (1.0 - a[0].conjugate() * z[0] - a[1].conjugate() * z[1])


def test_universal_members_match_their_formulas():
    rng = rng_for(55, 0)
    params = [tuple(complex(c) for c in rand_ball(rng)) for _ in range(200)]
    params += [(1e-170 + 0j, 0j), (3e-171j, -4e-171 + 0j)]
    for a in params:
        member = universal_member_B2(a)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = v * np.conj(v[0]) / (abs(v[0]) * np.linalg.norm(v))  # unit, with v[0] >= 0
        a1, a2 = float(v[0].real), complex(v[1])
        linear = universal_member_linear(a1, a2)
        for _ in range(3):
            z = tuple(complex(c) for c in rand_ball(rng))
            assert abs(member(z) - b2_formula(a, z)) < 1e-14
            assert abs(linear(z) - (a1 * z[0] + a2 * z[1])) < 1e-14
    tiny = universal_member_linear(1.0, 1e-170j)
    assert tiny((0.3, 0.5j)) == 0.3 + 0j


def test_universal_members_reject_other_dimensions():
    for member in (universal_member_B2((0.3, 0.2j)), universal_member_linear(0.6, 0.8j)):
        with pytest.raises(DomainError, match="dimension mismatch"):
            member((0.1, 0.2, 0.3))


def test_universal_member_linear():
    member = universal_member_linear(1.0, 0.0)
    assert member((0.3, 0.5j)) == pytest.approx(0.3)
    with pytest.raises(DomainError):
        universal_member_linear(0.5, 0.5)  # fails the unit constraint
    with pytest.raises(DomainError):
        universal_member_linear(-1.0, 0.0)
    for a1, a2 in ((math.nan, 0.0), (0.6, complex(math.nan, 0.8)), (math.inf, 0.0)):
        with pytest.raises(DomainError, match="must satisfy"):
            universal_member_linear(a1, a2)


def test_F_examples():
    assert F_left_inverse((0.0, 0.0)) == 0.0
    rng = rng_for(48, 0)
    for _ in range(50):
        z1 = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if abs(z1) >= 1:
            continue
        assert F_left_inverse((z1, 0.0)) == pytest.approx(z1, abs=1e-14)
    # |F| < 1 on the ball
    for i in range(2000):
        z = _sample_ball(48, i, n=2, radius=0.999)
        assert abs(F_left_inverse(z)) < 1.0


def test_F_rejects_points_outside_ball():
    for z in ((2.0, 0.0), (0.8, 0.8), (1.0, 0.0), (float("nan"), 0.0)):
        with pytest.raises(DomainError):
            F_left_inverse(z)


def test_F_composed_with_f1_is_automorphism():
    for k in range(64):
        lam = 0.95 * cmath.exp(2j * math.pi * k / 64) * ((k % 5 + 1) / 5.5)
        got = F_left_inverse(f_t_geodesic(1.0, lam))
        want = (1.0 + 3.0 * lam) / (3.0 + lam)
        assert abs(got - want) < 1e-13


def test_f_t_examples():
    assert f_t_geodesic(0.0, 0.3 + 0.1j) == (0.3 + 0.1j, 0.0)
    for t in (0.5, 1.0, 2.0, 10.0):
        p = f_t_geodesic(t, 1.0 - 1e-12)
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-9)
        for i in range(200):
            rng = rng_for(49, i)
            lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(lam) > 1 - 1e-6:
                continue
            assert np.linalg.norm(f_t_geodesic(t, lam)) < 1.0


def test_f_t_rejects_lam_outside_disc_and_non_finite_t():
    nan, inf = float("nan"), float("inf")
    for t, lam in ((-1.0, 2.0), (0.5, 1.0), (1.0, complex(nan, 0.0)), (nan, 0.3), (inf, 0.3)):
        with pytest.raises(DomainError):
            f_t_geodesic(t, lam)


def test_F_left_inverse_up_to_automorphism():
    rng = rng_for(50, 0)
    for t in (0.0, 0.5, 1.0, 2.0, 10.0):
        for _ in range(64):
            l1 = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
            l2 = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
            if abs(l1) >= 0.97 or abs(l2) >= 0.97:
                continue
            lhs = rho(F_left_inverse(f_t_geodesic(t, l1)), F_left_inverse(f_t_geodesic(t, l2)))
            assert abs(lhs - rho(l1, l2)) < 1e-10
            if t == 0.0:
                assert F_left_inverse(f_t_geodesic(t, l1)) == pytest.approx(l1, abs=1e-14)


def test_c_star_examples():
    rng = rng_for(51, 0)
    for _ in range(100):
        z = rand_ball(rng)
        assert c_star_ball(np.zeros(2), z) == pytest.approx(np.linalg.norm(z), abs=1e-13)
        w = rand_ball(rng)
        assert c_star_ball(w, z) == pytest.approx(c_star_ball(z, w), abs=1e-13)
    assert c_star_ball((0.2, 0.1), (0.2, 0.1)) == 0.0


def test_c_star_automorphism_invariance():
    rng = rng_for(52, 0)
    for _ in range(300):
        a, w, z = rand_ball(rng), rand_ball(rng), rand_ball(rng)
        lhs = c_star_ball(ball_automorphism(a, w), ball_automorphism(a, z))
        assert abs(lhs - c_star_ball(w, z)) < 1e-10


def test_boundary_locus_examples():
    assert boundary_modulus_locus((1.0, 0.0))
    assert boundary_modulus_locus((0.0, 1.0))
    assert abs(boundary_modulus((0.0, 1.0)) - 1.0) < 1e-12
    zq = (0.0, cmath.exp(1j * math.pi / 4))
    assert not boundary_modulus_locus(zq)
    assert boundary_modulus(zq) == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-12)
    with pytest.raises(Indeterminate):
        boundary_modulus((1.0, 0.0))
    with pytest.raises(DomainError):
        boundary_modulus_locus((0.5, 0.0))  # not on the sphere
    for z in ((math.nan, 1.0), (0.0, complex(1.0, math.nan)), (math.inf, 0.0)):
        with pytest.raises(DomainError, match="unit sphere"):
            boundary_modulus_locus(z)


def test_boundary_locus_agrees_with_modulus():
    rng = rng_for(53, 0)
    for _ in range(2000):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        z = v / np.linalg.norm(v)
        if np.linalg.norm(z - np.array([1.0, 0.0])) < 1e-6:
            continue
        on = boundary_modulus_locus(z)
        if min(abs(z[1]), abs(1 - z[0])) < 1e-6:
            continue  # near the indeterminacy set the comparison is ill-posed
        m = boundary_modulus(z)
        if on:
            assert abs(m - 1.0) < 1e-6
        else:
            assert abs(m - 1.0) > 1e-12


def test_no_false_certification_by_finite_subfamily():
    # a finite slice of the extremal family undershoots the distance for
    # generic pairs: no finite subfamily certifies the ball
    rng = rng_for(54, 0)
    members = [universal_member_linear(1.0, 0.0), universal_member_linear(0.0, 1.0)]
    for _ in range(8):
        a = rand_ball(rng, radius=0.8)
        if np.linalg.norm(a) > 0.1:
            members.append(universal_member_B2(a))
    gap_found = False
    for _ in range(50):
        w, z = rand_ball(rng), rand_ball(rng)
        target = math.atanh(c_star_ball(w, z))
        best = max(rho(m(w), m(z)) for m in members)
        assert best <= target + 1e-12  # lower bounds only
        if best < target - 1e-6:
            gap_found = True
    assert gap_found


# -- scalar kernels against a numpy reference --------------------------------
# The reference is the numpy formulation the tuple kernels replaced, evaluated
# in extended precision (np.clongdouble) so that |a|^2 cannot underflow for
# tiny nonzero a, where the double formula loses every digit.
LD = np.clongdouble


def ref_automorphism(a, z):
    a, z = np.asarray(a, LD), np.asarray(z, LD)
    na2 = np.vdot(a, a).real
    if na2 == 0:
        return z
    za = np.dot(z, a.conj())
    s = np.sqrt(1 - na2)
    return (s * (za * a - na2 * z) - za * a + na2 * a) / (na2 * (1 - za))


def ref_c_star_squared(w, z):
    w, z = np.asarray(w, LD), np.asarray(z, LD)
    return max(1 - (1 - np.vdot(w, w).real) * (1 - np.vdot(z, z).real) / abs(1 - np.dot(w, z.conj())) ** 2, 0)


def ref_psi(base, direction):
    """Minimal point, and row 0 conj(v)/|v| of the unitary for the image direction v."""
    base, d = np.asarray(base, LD), np.asarray(direction, LD)
    d = d / np.linalg.norm(d)
    a = base - np.dot(base, d.conj()) * d
    na = np.linalg.norm(a)
    v = d if na == 0 else ref_automorphism(a, a + 0.5 * (1 - na) * d)
    return a, v.conj() / np.linalg.norm(v)


def close(got, want, tol=1e-13):
    return np.max(np.abs(np.asarray(got, complex) - np.asarray(want, complex))) < tol


unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def vectors(draw, n, radius=None):
    """A complex n-vector, nonzero; with a radius, scaled to a norm in [0, radius]."""
    v = [complex(draw(unit), draw(unit)) for _ in range(n)]
    m = max(map(abs, v))
    if m == 0.0:
        v[0], m = 1.0 + 0j, 1.0
    v = [c / m for c in v]
    if radius is None:
        return tuple(v)
    r = draw(st.floats(0.0, radius)) / math.sqrt(sum(abs(c) ** 2 for c in v))
    return tuple(c * r for c in v)


@st.composite
def ball_case(draw):
    n = draw(st.sampled_from((2, 3)))
    a, z, w = (draw(vectors(n, 0.95)) for _ in range(3))
    base = draw(vectors(n, 0.9))
    direction = draw(vectors(n)) if draw(st.booleans()) else tuple(c * draw(unit) for c in draw(vectors(n)))
    return a, z, w, base, direction


@pytest.mark.skipif(np.finfo(np.longdouble).minexp > -16000, reason="long double has no extended range here")
@settings(max_examples=300, deadline=None)
@given(ball_case())
# conj(r0) / |r0| is not unimodular for this subnormal r0
@example(((0.1, 0.2j), (0.3, -0.1), (0.0, 0.5j), (0.2, 0.1), (5e-324 + 5e-324j, 0.7071j)))
def test_scalar_kernels_match_reference(case):
    a, z, w, base, direction = case
    if not any(direction):
        with pytest.raises(DomainError):
            ComplexLine(base=base, direction=direction)
        direction = (1.0,) + direction[1:]
    # the automorphism: reference, involution, and the swap of a and 0
    img = ball_automorphism(a, z)
    assert type(img) is tuple and len(img) == len(a) and all(type(c) is complex for c in img)
    assert close(img, ref_automorphism(a, z))
    assert close(ball_automorphism(a, img), z, 1e-12)
    assert close(ball_automorphism(a, a), np.zeros(len(a)))
    assert close(ball_automorphism(a, np.zeros(len(a))), a)
    # c* against the reference, and invariant under the automorphism; squared,
    # since the square root amplifies rounding where c* is near 0
    cs = c_star_ball(w, z)
    assert abs(cs**2 - float(ref_c_star_squared(w, z))) < 1e-13
    assert abs(c_star_ball(ball_automorphism(a, w), img) ** 2 - cs**2) < 1e-12
    # psi_l: values against the reference, a unitary sending the image direction to e1
    line = ComplexLine(base=base, direction=direction)
    psi = psi_l(line)
    foot, row0 = ref_psi(base, direction)
    assert close(psi.minimal_point, foot)
    for p in (z, w):
        assert close(psi(p), row0 @ ref_automorphism(foot, p))
    U = json_unitary(psi)
    assert close(U @ U.conj().T, np.eye(len(a)))
    d = np.array(line.direction)
    t0 = 0.5 * (1.0 - np.linalg.norm(foot.astype(complex)))
    v = ball_automorphism(psi.minimal_point, np.array(psi.minimal_point) + t0 * d)
    assert close(U @ (v / np.linalg.norm(v)), np.eye(len(a))[0], 1e-12)
    obj = psi.to_json()
    json.dumps(obj, allow_nan=False)
    leaves = [x for pair in obj["minimal_point"] for x in pair]
    leaves += [x for pair in obj["direction"] for x in pair]
    leaves += [x for row in obj["unitary"] for pair in row for x in pair]
    assert all(type(x) is float for x in leaves)


# The ball kernels in their comprehension forms: each vector a generator
# expression, each norm the real part of a Hermitian `sum` taken in a pass of
# its own where it is used, and every Householder entry
# -t ((i == j) - k v_i conj(v_j)) built in one nested expression.  The loop
# kernels must agree with them bit for bit, signed zeros included: a loop that
# adds its terms in another order, or from another start, fails here on the
# three-dimensional cases, which the output digests of the benchmark need not
# contain.
def gen_herm(z, w):
    return sum(map(mul, z, map(complex.conjugate, w)))


def gen_unit(d):
    d = tuple(map(complex, d))
    m = max(map(abs, d))
    d = tuple(c / m for c in d)
    n = math.sqrt(gen_herm(d, d).real)
    return tuple(c / n for c in d)


def gen_foot(base, d):
    base = tuple(map(complex, base))
    p = gen_herm(base, d)
    return tuple(b - p * c for b, c in zip(base, d))


def gen_automorphism(a, z):
    a, z = tuple(map(complex, a)), tuple(map(complex, z))
    m = max(map(abs, a))
    if m == 0.0:
        return z
    u = tuple(c / m for c in a)
    p = gen_herm(z, u) / gen_herm(u, u).real
    s = math.sqrt(1.0 - gen_herm(a, a).real)
    den = 1.0 - gen_herm(z, a)
    return tuple((ai - p * ui - s * (zi - p * ui)) / den for ai, ui, zi in zip(a, u, z))


def gen_c_star(w, z):
    w, z = tuple(map(complex, w)), tuple(map(complex, z))
    val = 1.0 - (1.0 - gen_herm(w, w).real) * (1.0 - gen_herm(z, z).real) / abs(1.0 - gen_herm(w, z)) ** 2
    return math.sqrt(max(val, 0.0))


def gen_householder(r):
    m = max(abs(r[0].real), abs(r[0].imag))
    t = r[0] / m if m else 1.0 + 0j
    t /= abs(t)
    v = tuple(t * c.conjugate() + (j == 0) for j, c in enumerate(r))
    k = 2.0 / gen_herm(v, v).real
    return tuple(tuple(-t * ((i == j) - k * vi * vj.conjugate()) for j, vj in enumerate(v))
                 for i, vi in enumerate(v))


def gen_psi_value(psi, z):
    a, z = psi.minimal_point, tuple(map(complex, z))
    return math.sqrt(1.0 - gen_herm(a, a).real) * gen_herm(z, psi.direction) / (1.0 - gen_herm(z, a))


def _leaves(x):
    if isinstance(x, (tuple, list)):
        return [y for item in x for y in _leaves(item)]
    if isinstance(x, complex):
        return [x.real, x.imag]
    return [x]


def assert_same_bits(got, want):
    assert type(got) is type(want)
    g, w = _leaves(got), _leaves(want)
    assert g == w
    assert [math.copysign(1.0, x) for x in g] == [math.copysign(1.0, x) for x in w]


def pairs(v):
    return [[c.real, c.imag] for c in v]


def assert_kernels_match_generator_forms(a, z, w, base, direction):
    for x, y in ((z, w), (w, z), (a, z), (base, direction)):
        x, y = tuple(map(complex, x)), tuple(map(complex, y))
        assert_same_bits(_herm(x, y), gen_herm(x, y))
    for v in (a, z, w, direction):
        if any(v):
            assert_same_bits(_unit(tuple(map(complex, v)), "v"), gen_unit(v))
    assert_same_bits(c_star_ball(w, z), gen_c_star(w, z))
    assert_same_bits(ball_automorphism(a, z), gen_automorphism(a, z))
    line = ComplexLine(base=base, direction=direction)
    unit = gen_unit(direction)
    assert_same_bits(line.direction, unit)
    assert_same_bits(minimal_norm_point(line), gen_foot(base, unit))
    psi = psi_l(line)
    for p in (z, w):
        assert_same_bits(psi(p), gen_psi_value(psi, p))
    sign = -1.0 if any(psi.minimal_point) else 1.0
    r = tuple(sign * c.conjugate() for c in psi.direction)
    want = [pairs(row) for row in gen_householder(r)]
    assert_same_bits(_householder_unitary(r), want)
    obj = psi.to_json()
    assert list(obj) == ["minimal_point", "direction", "unitary"]
    assert_same_bits(obj["minimal_point"], pairs(gen_foot(base, unit)))
    assert_same_bits(obj["direction"], pairs(unit))
    assert_same_bits(obj["unitary"], want)


# a subnormal r0 and a base near 1e-170, in dimensions 2 and 3
SUBNORMAL_AND_TINY = [
    ((0.1, 0.2j), (0.3, -0.1), (0.0, 0.5j), (0.2, 0.1), (5e-324 + 5e-324j, 0.7071j)),
    ((0.1, 0.2j, -0.3), (0.3, -0.1, 0.2j), (0.4j, 0.5, 0.0), (0.2, 0.1, 0.1j), (5e-324j, 0.6 - 0.1j, -0.3)),
    ((1e-170, 3e-171j), (0.3, -0.1), (0.0, 0.5j), (1e-170, -2e-170j), (0.6, 0.8j)),
    ((1e-170j, 0.0, -2e-170), (0.3, -0.1, 0.2j), (0.4j, 0.5, 0.0), (1e-170, 3e-170j, -1e-170), (0.3, -0.5j, 0.7)),
]


@settings(max_examples=300, deadline=None)
@given(ball_case())
@example(SUBNORMAL_AND_TINY[0])
@example(SUBNORMAL_AND_TINY[1])
@example(SUBNORMAL_AND_TINY[2])
@example(SUBNORMAL_AND_TINY[3])
def test_kernels_match_generator_forms_bit_for_bit(case):
    a, z, w, base, direction = case
    if not any(direction):
        direction = (1.0,) + direction[1:]
    assert_kernels_match_generator_forms(a, z, w, base, direction)


@pytest.mark.parametrize("a, z, w, base, direction", [
    # directions with exact zero components, on lines with a nonzero foot
    ((0.1, 0.2j), (0.3, -0.1), (0.0, 0.5j), (0.3, 0.1j), (0, 1)),
    ((0.1, 0.2j), (0.3, -0.1), (0.0, 0.5j), (-0.2, 0.4), (1, 0)),
    ((0.1, 0.2j), (0.3, -0.1), (0.0, 0.5j), (0.2j, 0.1), (0, -1j)),
    ((0.1, 0.2j, -0.3), (0.3, -0.1, 0.2j), (0.0, 0.5j, 0.0), (0.1, 0.5, -0.3j), (3, 0, 0)),
    # a foot of exactly 0: through the origin, and along the base itself
    ((0.1, 0.2j), (0.3, -0.1), (0.0, 0.5j), (0.0, 0.0), (0.6, -0.8j)),
    ((0.1, 0.2j), (0.3, -0.1), (0.0, 0.5j), (0.5, 0.0), (1, 0)),
    ((0.1, 0.2j, -0.3), (0.3, -0.1, 0.2j), (0.0, 0.5j, 0.0), (0.0, 0.0, 0.0), (3, 0, 0)),
    # a = 0: the automorphism is the identity
    ((0.0, 0.0), (0.3, -0.1j), (0.0, -0.5j), (0.3, 0.1j), (0, 1)),
    ((0.0, -0.0, 0j), (-0.0, 0.2, -0.4j), (0.1, 0.0, -0.0), (0.1, 0.5, -0.3j), (3, 0, 0)),
    # a foot with |.|^2 below 1 added left to right, and 1.0 added right to left
    ((0.1, 0.2j, -0.3), (0.3, -0.1, 0.2j), (0.0, 0.5j, 0.0),
     (0.6406846997642458, 0.6406846997642458, 0.4231385482037726j), (1, -1, 0)),
])
def test_kernels_match_generator_forms_at_exact_zeros(a, z, w, base, direction):
    assert_kernels_match_generator_forms(a, z, w, base, direction)
    if not any(a):
        assert ball_automorphism(a, z) == tuple(map(complex, z))
