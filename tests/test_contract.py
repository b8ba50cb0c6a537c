"""The float contract of the library: a public function of discgeom,
varieties, geodesics, metrics or ball, called on hostile numbers, returns an
answer with no NaN in it or raises a GeodiscError; discgeom's
`_require_finite` and `_in_float_range` are the two checks behind it."""

import math
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodisc import ball, discgeom, geodesics, metrics, varieties
from geodisc.ball import ComplexLine
from geodisc.discgeom import MobiusMap, Quadratic
from geodisc.errors import DomainError, GeodiscError, PoleError
from geodisc.geodesics import MINUS, PLUS, Lens
from geodisc.varieties import Alpha, DomainDab, TridiscAutomorphism

nan, inf = math.nan, math.inf

# the values of the CLI contract test, as numbers
POOL = [0.0, 1.0, -1.0, 1 - 1e-9, 1e300, 1e-300, 5e-324, nan, inf, -inf, -0.0,
        0.9999999999999999, -0.9999999999999999, 1 - 1e-11, -(1 - 1e-11), 1e154, 0.5, 1.7e308]
R = st.sampled_from(POOL)
C = st.builds(complex, R, R)
V = st.lists(C, min_size=1, max_size=3).map(tuple)
# a point or tangent of D(a, b) or the polydisc, of any length up to 3
P = st.lists(C, min_size=0, max_size=3).map(tuple)


def _psi(base, direction, z):
    psi = ball.psi_l(ComplexLine(base, direction))
    return psi.to_json(), psi(z)


# name -> (call, strategies of its arguments); value types are built inside
# the call, so that their own rejections count as answers too
CALLS = {
    "discgeom.require_disc_point": (discgeom.require_disc_point, (C,)),
    "discgeom.rho": (discgeom.rho, (C, C)),
    "discgeom.gamma_disc": (discgeom.gamma_disc, (C, C)),
    "discgeom.MobiusMap": (MobiusMap, (C, C)),
    "discgeom.Quadratic": (Quadratic, (C, C, C)),
    "discgeom.schur_roots_outside": (lambda *q: discgeom.schur_roots_outside(Quadratic(*q)), (C, C, C)),
    "varieties.Alpha": (Alpha, (C, C, C)),
    "varieties.classify": (lambda *a: varieties.classify(Alpha(*a)), (C, C, C)),
    "varieties.normalize": (lambda *a: varieties.normalize(Alpha(*a)), (C, C, C)),
    "varieties.membership_residual": (lambda a1, a2, a3, *z: varieties.membership_residual(Alpha(a1, a2, a3), z),
                                      (C,) * 6),
    "varieties.graph_value": (lambda a1, a2, a3, z1, z2: varieties.graph_value(Alpha(a1, a2, a3), z1, z2), (C,) * 5),
    "varieties.TridiscAutomorphism": (lambda *p: TridiscAutomorphism.moving_to_origin(p), (C, C, C)),
    "varieties.transport": (lambda a1, a2, a3, *p: varieties.transport(
        Alpha(a1, a2, a3), TridiscAutomorphism.moving_to_origin(p)), (C,) * 6),
    "varieties.DomainDab": (DomainDab, (R, R)),
    "varieties.DomainDab.f_gradient": (lambda a, b, *z: DomainDab(a, b).f_gradient(*z), (R, R, C, C)),
    "varieties.dab_contains": (lambda a, b, z: varieties.dab_contains(DomainDab(a, b), z), (R, R, P)),
    "varieties.lift_to_M": (lambda a, b, z: varieties.lift_to_M(DomainDab(a, b), z), (R, R, P)),
    "geodesics.Lens": (Lens, (R, R)),
    "geodesics.Lens.corners": (lambda a, b: Lens(a, b).corners(), (R, R)),
    "geodesics.Lens.boundary_points": (lambda a, b, n: Lens(a, b).boundary_points(n), (R, R, st.integers(1, 3))),
    "geodesics.solvability_gaps": (lambda a, b, g: geodesics.solvability_gaps(Lens(a, b), g), (R, R, C)),
    "geodesics.solve_omega_eta": (lambda a, b, g: geodesics.solve_omega_eta(Lens(a, b), g), (R, R, C)),
    "geodesics.phi_gamma": (lambda a, b, g, br: geodesics.phi_gamma(Lens(a, b), g, br),
                            (R, R, C, st.sampled_from([PLUS, MINUS]))),
    "geodesics.admissibility_margin": (lambda a, b, g, w: geodesics.admissibility_margin(Lens(a, b), g, w),
                                       (R, R, C, C)),
    "geodesics.blaschke_family": (lambda a, b, g, w: geodesics.blaschke_family(Lens(a, b), g, w), (R, R, C, C)),
    "geodesics.admissible_arc": (lambda a, b, g: geodesics.admissible_arc(Lens(a, b), g), (R, R, C)),
    "geodesics.arc_contains": (lambda lo, hi, t: geodesics.arc_contains([(lo, hi)], t), (R, R, R)),
    "metrics.c_polydisc": (metrics.c_polydisc, (P, P)),
    "metrics.c_dab": (lambda a, b, z, w: metrics.c_dab(DomainDab(a, b), z, w), (R, R, P, P)),
    "metrics.kappa_dab_origin": (lambda a, b, X: metrics.kappa_dab_origin(DomainDab(a, b), X), (R, R, P)),
    "metrics.geodesic_through": (lambda a, b, *z: metrics.geodesic_through(a, b, z, find_alternates=True),
                                 (R, R, C, C, C)),
    "metrics.dominant_permutation": (lambda *z: metrics.dominant_permutation(z), (C, C, C)),
    "metrics.lempert_verify": (lambda a, b: metrics.lempert_verify(DomainDab(a, b), 1, 0), (R, R)),
    "metrics.dab_universal_set": (lambda a, b: metrics.dab_universal_set(DomainDab(a, b)), (R, R)),
    "metrics.compose_with_mobius": (lambda a, b, nu: metrics.compose_with_mobius(
        metrics.dab_universal_set(DomainDab(a, b)).members[2], MobiusMap(nu)), (R, R, C)),
    "metrics.universal_c": (lambda a, b, z, w: metrics.universal_c(
        metrics.dab_universal_set(DomainDab(a, b)), z, w), (R, R, P, P)),
    "metrics.universal_gamma": (lambda a, b, z, X: metrics.universal_gamma(
        metrics.dab_universal_set(DomainDab(a, b)), z, X), (R, R, P, P)),
    "metrics.linear_convexity_quadratic": (lambda a, b: metrics.linear_convexity_quadratic(DomainDab(a, b)),
                                           (R, R)),
    "ball.require_ball_point": (ball.require_ball_point, (V,)),
    "ball.ball_automorphism": (ball.ball_automorphism, (V, V)),
    "ball.ComplexLine": (ComplexLine, (V, V)),
    "ball.minimal_norm_point": (lambda b, d: ball.minimal_norm_point(ComplexLine(b, d)), (V, V)),
    "ball.psi_l": (_psi, (V, V, V)),
    "ball.universal_member_B2": (ball.universal_member_B2, (V,)),
    "ball.universal_member_linear": (ball.universal_member_linear, (R, C)),
    "ball.F_left_inverse": (ball.F_left_inverse, (V,)),
    "ball.f_t_geodesic": (ball.f_t_geodesic, (R, C)),
    "ball.c_star_ball": (ball.c_star_ball, (V, V)),
    "ball.boundary_modulus_locus": (ball.boundary_modulus_locus, (V,)),
    "ball.boundary_modulus": (ball.boundary_modulus, (V,)),
}

# public names the property leaves out, each with its reason
LEFT_OUT = {
    # evaluation maps of values their callers have checked, as DomainDab.f,
    # MobiusMap.__call__, RationalMap.__call__ and a universal member's value
    # and gradient are
    "metrics.permuted_parameters": "divides the parameters geodesic_through has checked",
    "ball.locus_value": "evaluates the locus at the sphere points its callers make",
    # records the library fills with checked values; their constructors check nothing
    **{name: "a record without a check" for name in (
        "varieties.TriClass", "varieties.NormalForm", "geodesics.OmegaEta", "geodesics.RationalMap",
        "geodesics.AnalyticDisc", "metrics.GeodesicCertificate", "metrics.LempertReport",
        "metrics.UniversalMember", "metrics.UniversalSet", "ball.BallExtremal")},
}


def _nans(value):
    """The NaNs in an answer: a number, or a container of answers."""
    if isinstance(value, (float, complex)):
        return [value] if value != value else []
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in _nans(v)]
    return []


def test_every_public_function_is_called_or_left_out():
    public = {f"{mod.__name__.split('.')[-1]}.{name}"
              for mod in (discgeom, varieties, geodesics, metrics, ball)
              for name, v in vars(mod).items()
              if isinstance(v, (type, types.FunctionType)) and not name.startswith("_")
              and v.__module__ == mod.__name__}
    assert public - set(CALLS) - set(LEFT_OUT) == set()


@pytest.mark.parametrize("name", list(CALLS))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_an_answer_has_no_nan_or_is_a_typed_error(name, data):
    call, strategies = CALLS[name]
    args = [data.draw(s) for s in strategies]
    try:
        answer = call(*args)
    except GeodiscError:
        return
    assert _nans(answer) == []


# calls without a finite answer
@pytest.mark.parametrize("call, error", [
    (lambda: discgeom.gamma_disc(0.1, nan), DomainError),
    (lambda: geodesics.solvability_gaps(Lens(0.8, 0.8), nan), DomainError),
    (lambda: varieties.graph_value(Alpha(3, 4, 5), nan, 0.1), DomainError),
    (lambda: ball.boundary_modulus((nan, 0)), DomainError),
    (lambda: geodesics.admissibility_margin(Lens(0.8, 0.8), 0.5, nan), DomainError),
    # f_gradient at the pole of f, where f itself raises PoleError
    (lambda: DomainDab(0.8, 0.8).f_gradient(0.625, 0.625), PoleError),
    # OverflowError: a squared modulus leaves the float range
    (lambda: ball.universal_member_linear(0.0, 1e300), DomainError),
    (lambda: discgeom.schur_roots_outside(Quadratic(1, 0, 1e200)), DomainError),
    (lambda: geodesics.blaschke_family(Lens(1e200, 1e200), 0.5, 1), DomainError),
    # OverflowError: a modulus of finite parts leaves the float range
    (lambda: geodesics.solve_omega_eta(Lens(1.0, 1.7e308), 1 + 1j), DomainError),
    (lambda: geodesics.phi_gamma(Lens(1.0, 1.7e308), 1 + 1j), DomainError),
    (lambda: geodesics._certify_disc(Lens(1.7e308, 1.7e308), -0.5 + 0j, 1j, 1 + 0j), DomainError),
    (lambda: metrics.dominant_permutation((1.7e308 + 1.7e308j, 0j, 0j)), DomainError),
    # r1 + r2 overflows, so no interval end bounds |q| = 1 from above
    (lambda: geodesics.solve_omega_eta(Lens(1.7e308, 1.7e308), 0j), DomainError),
], ids=["gamma_disc", "solvability_gaps", "graph_value", "boundary_modulus", "admissibility_margin",
        "f_gradient", "universal_member_linear", "schur_roots_outside", "blaschke_family",
        "solve_omega_eta", "phi_gamma", "certify_disc", "dominant_permutation", "solve_omega_eta_interval"])
def test_a_value_without_a_finite_answer_is_a_typed_error(call, error):
    with pytest.raises(error):
        call()


D = DomainDab(0.8, 0.8)
U = metrics.dab_universal_set(D)


# a point or tangent of D(a, b) has two coordinates, a point of the polydisc
# at least one; a shorter one has no coordinate to read, and a longer one
# would have its extra coordinates dropped
@pytest.mark.parametrize("call", [
    lambda: metrics.c_dab(D, (0.1,), (0.2, 0.1)),
    lambda: varieties.dab_contains(D, (0.1,)),
    lambda: metrics.universal_c(U, (0.1,), (0.2, 0.1)),
    lambda: metrics.universal_gamma(U, (0.1,), (1.0, 0.0)),
    lambda: metrics.kappa_dab_origin(D, (1.0,)),
    lambda: metrics.kappa_dab_origin(D, (1.0, 0.5, 7.0)),
    lambda: metrics.universal_gamma(U, (0.1, 0.1), (1.0,)),
    lambda: varieties.lift_to_M(D, (0.1, 0.1, 0.9)),
    lambda: metrics.c_dab(D, (0.1, 0.1), (0.2, 0.1, 0.0)),
    lambda: metrics.universal_c(U, (0.1, 0.1, 0.5), (0.2, 0.1)),
    lambda: metrics.c_polydisc((), ()),
], ids=["c_dab-short", "dab_contains-short", "universal_c-short", "universal_gamma-short-point",
        "kappa_dab_origin-short", "kappa_dab_origin-long", "universal_gamma-long-tangent", "lift_to_M-long",
        "c_dab-long", "universal_c-long", "c_polydisc-empty"])
def test_a_vector_of_the_wrong_length_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_a_residual_gate_whose_bound_overflows_passes_nothing():
    assert not discgeom._residual_within(1.0, 1e-10, 1.0, inf)
    # the sum of the term moduli of kappa and kappa' overflows on this lens;
    # a gate without the finite-bound test passes this pair, |kappa| = 1.1e308
    with pytest.raises(DomainError, match="misses the variety"):
        geodesics._certify_disc(Lens(1e308, 1e308), -0.5 + 0j, 1j, 1 + 0j)


def test_the_range_guard_reads_plain_containers_only():
    guarded = discgeom._in_float_range(lambda value: value)
    for value in (1.0, 2j, (1.0, [2.0, (3j,)]), True, "nan", Lens(0.8, 0.8)):
        assert guarded(value) == value
    # a named tuple is a value type that has checked itself
    assert guarded(geodesics.OmegaEta(nan, nan, PLUS)) is not None
    for value in (nan, complex(0.0, inf), (1.0, [2.0, (nan,)]), [(0.0, -inf)]):
        with pytest.raises(DomainError, match="a value overflows or is not a number"):
            guarded(value)
