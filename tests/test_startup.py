"""The package namespace resolves its names on demand, and the array-free CLI
paths start without numpy."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geodisc

SRC = Path(__file__).resolve().parent.parent / "src"

# the names the package exports, by the submodule that defines them
EXPORTED = {
    "discgeom": ["MobiusMap", "Quadratic", "blaschke_degree", "gamma_disc", "mobius_dist", "rho",
                 "schur_roots_outside"],
    "varieties": ["Alpha", "DomainDab", "NormalForm", "TriClass", "TridiscAutomorphism", "classify",
                  "dab_contains", "graph_value", "lift_to_M", "membership_residual", "normalize",
                  "transport"],
    "geodesics": ["AnalyticDisc", "Lens", "OmegaEta", "admissible_arc", "balanced_pair", "blaschke_family",
                  "branch_track", "phi_gamma", "solve_omega_eta"],
    "metrics": ["GeodesicCertificate", "LempertReport", "UniversalMember", "UniversalSet", "c_M_origin",
                "c_dab", "c_polydisc", "dab_universal_set", "geodesic_through", "indicatrix_membership",
                "kappa_dab_origin", "lempert_verify", "linear_convexity_quadratic", "psi_x_forward",
                "universal_c", "universal_embed", "universal_gamma"],
    "ball": ["BallExtremal", "ComplexLine", "F_left_inverse", "ball_automorphism", "boundary_modulus_locus",
             "c_star_ball", "f_t_geodesic", "minimal_norm_point", "psi_l", "universal_member_B2",
             "universal_member_linear"],
}
ALL_NAMES = sorted(n for names in EXPORTED.values() for n in names)


def test_all_lists_the_exported_names():
    assert len(ALL_NAMES) == 56
    assert sorted(geodisc.__all__) == ALL_NAMES
    assert set(ALL_NAMES) <= set(dir(geodisc))
    assert geodisc.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_names_resolve_to_the_submodule_objects(module):
    mod = importlib.import_module(f"geodisc.{module}")
    for name in EXPORTED[module]:
        assert getattr(geodisc, name) is getattr(mod, name)


def test_star_import_binds_every_name():
    ns = {}
    exec("from geodisc import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == ALL_NAMES
    for module, names in EXPORTED.items():
        mod = importlib.import_module(f"geodisc.{module}")
        assert all(ns[n] is getattr(mod, n) for n in names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        geodisc.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from geodisc import no_such_name", {})


BASE = {"geodisc", "geodisc.discgeom", "geodisc.errors", "geodisc.varieties"}
NONRETRACT = '{"class": "NonRetract"}\n'
NORMAL_FORM = ('{"a": 0.9428090415820635, "b": 1.3333333333333333, "rotations": [[0.0, 1.0], '
               '[0.7071067811865476, 0.7071067811865476], [0.7071067811865476, -0.7071067811865476]]}\n')
CSTAR = '{"cstar": 0.5954801616253105, "distance": 0.6861146161004036}\n'


@pytest.mark.parametrize("argv, code, stdout, modules", [
    (["-m", "geodisc.cli", "classify", "--alpha", "3,0", "4,0", "5,0"], 0, NONRETRACT, BASE),
    (["-m", "geodisc.cli", "normalize", "--alpha", "1,1", "2,0", "0,-1.5"], 0, NORMAL_FORM, BASE),
    (["-m", "geodisc.cli", "ball", "cstar", "--z", "0.1,0.2", "0.3,0", "--w", "-0.2,0", "0,0.4"], 0, CSTAR,
     BASE | {"geodisc.ball"}),
    (["-c", "import geodisc"], 0, "", {"geodisc"}),
    (["-m", "geodisc.cli", "verify-lempert", "--a", "0.8", "--b", "0.8", "--samples", "0"], 2, "", BASE),
], ids=["classify", "normalize", "ball-cstar", "import", "validation-error"])
def test_startup_loads_no_numpy(argv, code, stdout, modules):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (code, stdout)
    assert not [line for line in proc.stderr.splitlines() if "numpy" in line]
    # "import time: self | cumulative | module", one line per module imported
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {m for m in imported if m.split(".")[0] == "geodisc"} == modules
