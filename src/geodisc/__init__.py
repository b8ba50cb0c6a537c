"""Explicit complex geodesics and invariant metrics on tridisc varieties,
planar-pair domains, polydiscs, and the Euclidean ball."""

from .discgeom import MobiusMap, Quadratic, blaschke_degree, gamma_disc, mobius_dist, rho, schur_roots_outside
from .varieties import (
    Alpha,
    DomainDab,
    NormalForm,
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
from .geodesics import (
    AnalyticDisc,
    Lens,
    OmegaEta,
    admissible_arc,
    balanced_pair,
    blaschke_family,
    branch_track,
    phi_gamma,
    solve_omega_eta,
)
from .metrics import (
    GeodesicCertificate,
    LempertReport,
    UniversalMember,
    UniversalSet,
    c_M_origin,
    c_dab,
    c_polydisc,
    dab_universal_set,
    geodesic_through,
    indicatrix_membership,
    kappa_dab_origin,
    lempert_verify,
    linear_convexity_quadratic,
    psi_x_forward,
    universal_c,
    universal_embed,
    universal_gamma,
)
from .ball import (
    BallExtremal,
    ComplexLine,
    F_left_inverse,
    ball_automorphism,
    boundary_modulus_locus,
    c_star_ball,
    f_t_geodesic,
    minimal_norm_point,
    psi_l,
    universal_member_B2,
    universal_member_linear,
)

__version__ = "0.1.0"
