"""Explicit complex geodesics and invariant metrics on tridisc varieties,
planar-pair domains, polydiscs, and the Euclidean ball.

The names exported here are resolved on first use (PEP 562): ``import
geodisc`` loads no submodule, and ``geodisc.X`` or ``from geodisc import X``
imports only the submodule that defines X.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "discgeom": ("MobiusMap", "Quadratic", "gamma_disc", "mobius_dist", "rho", "schur_roots_outside"),
    "varieties": ("Alpha", "DomainDab", "NormalForm", "TriClass", "TridiscAutomorphism", "classify",
                  "dab_contains", "graph_value", "lift_to_M", "membership_residual", "normalize",
                  "transport"),
    "geodesics": ("AnalyticDisc", "Lens", "OmegaEta", "admissible_arc", "blaschke_family", "phi_gamma",
                  "solve_omega_eta"),
    "metrics": ("GeodesicCertificate", "LempertReport", "UniversalMember", "UniversalSet", "c_dab",
                "c_polydisc", "dab_universal_set", "geodesic_through", "kappa_dab_origin", "lempert_verify",
                "linear_convexity_quadratic", "universal_c", "universal_gamma"),
    "ball": ("BallExtremal", "ComplexLine", "F_left_inverse", "ball_automorphism", "boundary_modulus_locus",
             "c_star_ball", "f_t_geodesic", "minimal_norm_point", "psi_l", "universal_member_B2",
             "universal_member_linear"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    # not cached in the package namespace: the name always follows the submodule's attribute
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
