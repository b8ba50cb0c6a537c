"""The package namespace resolves its names on demand, and the runtime needs
nothing beyond the standard library: every CLI path starts without numpy,
and the CLI module loads neither dataclasses nor typing."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import geodisc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the names the package exports, by the submodule that defines them
EXPORTED = {
    "discgeom": ["MobiusMap", "Quadratic", "gamma_disc", "mobius_dist", "rho", "schur_roots_outside"],
    "varieties": ["Alpha", "DomainDab", "NormalForm", "TriClass", "TridiscAutomorphism", "classify",
                  "dab_contains", "graph_value", "lift_to_M", "membership_residual", "normalize",
                  "transport"],
    "geodesics": ["AnalyticDisc", "Lens", "OmegaEta", "admissible_arc", "blaschke_family", "phi_gamma",
                  "solve_omega_eta"],
    "metrics": ["GeodesicCertificate", "LempertReport", "UniversalMember", "UniversalSet", "c_dab",
                "c_polydisc", "dab_universal_set", "geodesic_through", "kappa_dab_origin", "lempert_verify",
                "linear_convexity_quadratic", "universal_c", "universal_gamma"],
    "ball": ["BallExtremal", "ComplexLine", "F_left_inverse", "ball_automorphism", "boundary_modulus_locus",
             "c_star_ball", "f_t_geodesic", "minimal_norm_point", "psi_l", "universal_member_B2",
             "universal_member_linear"],
}
ALL_NAMES = sorted(n for names in EXPORTED.values() for n in names)


def test_all_lists_the_exported_names():
    assert len(ALL_NAMES) == 49
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


# Paper results kept without a caller, each with its reason.
UNCALLED = {
    "blaschke_family": "the paper's second geodesic family through the origin, certified by its own checks, "
                       "waiting for a caller",
    "universal_member_B2": "a member of the paper's two-ball universal family, waiting for `universal --ball`",
    "universal_member_linear": "a member of the paper's two-ball universal family, waiting for `universal --ball`",
}


def _public_definitions(module):
    """(name, first line, last line) of each public module-level definition."""
    tree = ast.parse((SRC / "geodisc" / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


@pytest.mark.parametrize("module", ["discgeom", "varieties", "geodesics", "metrics", "ball", "errors"])
def test_every_public_name_has_a_caller(module):
    # callers: the library (less the export table), the benchmark and the acceptance criteria
    files = [p for p in (SRC / "geodisc").glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    lines = {p: p.read_text().splitlines() for p in files}
    own = SRC / "geodisc" / f"{module}.py"
    uncalled = []
    for name, first, last in _public_definitions(module):
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(line) for p, ls in lines.items() for i, line in enumerate(ls, 1)
                   if not (p == own and first <= i <= last)):
            uncalled.append(name)
    assert [name for name in uncalled if name not in UNCALLED] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        geodisc.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from geodisc import no_such_name", {})


BASE = {"geodisc", "geodisc.discgeom", "geodisc.errors", "geodisc.varieties"}
NONRETRACT = '{"class": "NonRetract"}\n'
TRANSPORT = '{"alpha": [[-0.6, 0.0], [-0.8, 0.0], [-1.0, -0.0]]}\n'
NORMAL_FORM = ('{"a": 0.9428090415820635, "b": 1.3333333333333333, "rotations": [[0.0, 1.0], '
               '[0.7071067811865476, 0.7071067811865476], [0.7071067811865476, -0.7071067811865476]]}\n')
CSTAR = '{"cstar": 0.5954801616253105, "distance": 0.6861146161004036}\n'
AUTO = '{"image": [[0.2084523553643545, -0.09325745402856334], [0.2917525094008477, -0.20813587976433756]]}\n'
EXTREMAL = ('{"direction": [[0.1760901812651248, 0.0], [0.880450906325624, 0.440225453162812]], '
            '"minimal_point": [[0.3062015503875969, 0.12790697674418605], [-0.038759689922480633, -0.04496124031007748]], '
            '"unitary": [[[-0.17609018126512455, 0.0], [-0.8804509063256237, 0.44022545316281186]], '
            '[[-0.8804509063256238, -0.4402254531628119], [0.17609018126512466, 0.0]]], '
            '"value": [-0.25496234455426037, 0.15939124909853894]}\n')
LENS = ('{"a": 0.8, "b": 0.8, "corners": [[-0.625, 0.7806247497997998], [-0.625, -0.7806247497997998]], '
        '"nonempty": true, "solutions": [{"branch": "plus", "eta": [0.6249999999999999, -0.7806247497997999], '
        '"omega": [0.625, 0.7806247497997999]}, {"branch": "minus", "eta": [0.6249999999999999, '
        '0.7806247497997999], "omega": [0.625, -0.7806247497997999]}]}\n')
GEODESIC = ('{"alternates": [{"branch": "minus", "gamma1": [-0.6916666666666664, 0.36429154990657336]}], '
            '"branch": "plus", "disc": {"components": [{"den": [[0.0, '
            '0.0], [0.5833333333333333, 0.5204164998665329], [1.0, 0.0]], "num": [[-0.3499999999999998, '
            '-0.9367496997597596], [-0.6916666666666664, -0.36429154990657336], [0.0, 0.0]]}, {"den": [[0.0, 0.0], '
            '[0.666666666666667, -1.1102230246251565e-16], [1.0, 0.0]], "num": [[-0.8375, '
            '0.54643732485986], [-0.5583333333333336, 0.36429154990657336], [0.0, 0.0]]}, {"den": [[0.0, 0.0], '
            '[0.0, 0.0], [1.0, 0.0]], "num": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}], "params": {"a": 0.8, '
            '"b": 0.8, "branch": "plus", "eta": [0.8375, -0.54643732485986], '
            '"gamma1": [-0.6916666666666664, -0.36429154990657336], "omega": [0.3499999999999998, '
            '0.9367496997597596]}, "tag": "PhiGamma"}, "gamma1": [-0.6916666666666664, -0.36429154990657336], '
            '"lempert_value": 0.8047189562170504, "param_at_target": [-0.6666666666666667, -0.0], '
            '"point": [[0.5, 0.0], [0.0, 0.0], [-0.6666666666666667, -0.0]], '
            '"residual": 9.80831006035263e-16}\n')
VERIFY = ('{"a": 0.8, "b": 0.8, "failed": [], "failures": 0, "samples": 3, "seed": 0, '
          '"worst_residual": 1.2265816259300712e-15}\n')
SWEEP = ("index,a,b,status,samples,failures,worst_residual\n"
         "0,0.8,0.8,ok,3,0,1.2265816259300712e-15\n")


@pytest.mark.parametrize("argv, code, stdout, modules", [
    (["-m", "geodisc.cli", "classify", "--alpha", "3,0", "4,0", "5,0"], 0, NONRETRACT, BASE),
    (["-m", "geodisc.cli", "normalize", "--alpha", "1,1", "2,0", "0,-1.5"], 0, NORMAL_FORM, BASE),
    (["-m", "geodisc.cli", "transport", "--alpha", "3,0", "4,0", "5,0", "--nu", "0,0", "0,0", "0,0"], 0, TRANSPORT,
     BASE),
    (["-m", "geodisc.cli", "ball", "cstar", "--z", "0.1,0.2", "0.3,0", "--w", "-0.2,0", "0,0.4"], 0, CSTAR,
     BASE | {"geodisc.ball"}),
    (["-m", "geodisc.cli", "ball", "auto", "--base", "0.3,0.1", "0,-0.2", "--z", "0.1,0.2", "-0.3,0"], 0, AUTO,
     BASE | {"geodisc.ball"}),
    (["-m", "geodisc.cli", "ball", "extremal", "--base", "0.3,0.1", "0,-0.2", "--direction", "0.2,0", "1,0.5",
      "--z", "0.1,0.2", "-0.3,0"], 0, EXTREMAL, BASE | {"geodisc.ball"}),
    (["-c", "import geodisc"], 0, "", {"geodisc"}),
    (["-m", "geodisc.cli", "verify-lempert", "--a", "0.8", "--b", "0.8", "--samples", "0"], 2, "", BASE),
    (["-m", "geodisc.cli", "lens", "--a", "0.8", "--b", "0.8", "--gamma=-0.625,0"], 0, LENS,
     BASE | {"geodisc.geodesics"}),
    (["-m", "geodisc.cli", "geodesic", "--a", "0.8", "--b", "0.8", "--z", "0.5,0", "0,0"], 0, GEODESIC,
     BASE | {"geodisc.geodesics", "geodisc.metrics"}),
    (["-m", "geodisc.cli", "verify-lempert", "--a", "0.8", "--b", "0.8", "--samples", "3"], 0, VERIFY,
     BASE | {"geodisc.geodesics", "geodisc.metrics"}),
    (["-m", "geodisc.cli", "sweep", "--a-min", "0.8", "--a-max", "0.8", "--a-steps", "1", "--b-min", "0.8",
      "--b-max", "0.8", "--b-steps", "1", "--samples", "3"], 0, SWEEP, BASE | {"geodisc.geodesics", "geodisc.metrics"}),
], ids=["classify", "normalize", "transport", "ball-cstar", "ball-auto", "ball-extremal", "import", "validation-error",
        "lens", "geodesic", "verify-lempert", "sweep"])
def test_startup_loads_no_numpy(argv, code, stdout, modules):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (code, stdout)
    assert not [line for line in proc.stderr.splitlines() if "numpy" in line]
    # "import time: self | cumulative | module", one line per module imported
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {m for m in imported if m.split(".")[0] == "geodisc"} == modules


def test_geodesic_certificate_loads_no_mpmath():
    code = ("import sys\n"
            "import geodisc.metrics\n"
            "from geodisc.varieties import DomainDab, lift_to_M\n"
            "geodisc.metrics.geodesic_through(0.8, 0.8, lift_to_M(DomainDab(0.8, 0.8), (0.5, 0.0)))\n"
            "print('mpmath' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def _imports(path):
    """(level, module) of each import statement in the file; level 0 is absolute."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.level, node.module
            else:
                yield from ((node.level, alias.name) for alias in node.names)


def test_runtime_imports_only_the_standard_library():
    # oracle, the numpy checker of the tests and the benchmark, is on no runtime path
    bad = []
    for path in sorted((SRC / "geodisc").glob("*.py")):
        if path.name == "oracle.py":
            continue
        for level, module in _imports(path):
            top = module.split(".")[0]
            if (level == 0 and top not in sys.stdlib_module_names) or "oracle" in module.split("."):
                bad.append(f"{path.name}: {'.' * level}{module}")
    assert bad == []


def test_no_module_imports_dataclasses():
    # the value types are checked named tuples; dataclasses would load inspect, ast, dis and tokenize
    bad = [f"{path.name}: {module}" for path in sorted((SRC / "geodisc").glob("*.py"))
           for _, module in _imports(path) if module.split(".")[0] == "dataclasses"]
    assert bad == []


def test_cli_start_loads_neither_dataclasses_nor_typing():
    # -S: no site hook loads a module before the package does
    code = "import sys, geodisc.cli; print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_certificate_path_loads_no_typing():
    # the geodesic, lens, verify-lempert and sweep commands load metrics and geodesics
    code = "import sys, geodisc.metrics; print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
    assert "numpy" in project["optional-dependencies"]["test"]
