import argparse
import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from geodisc.cli import _complex, _count, build_parser, main
from geodisc.geodesics import AnalyticDisc


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_worked_example(capsys):
    code, out = run_cli(capsys, "classify", "--alpha", "3,0", "4,0", "5,0")
    assert code == 0
    assert json.loads(out) == {"class": "NonRetract"}


def test_classify_retract(capsys):
    code, out = run_cli(capsys, "classify", "--alpha", "1,0", "1,0", "3,0")
    assert code == 0
    assert json.loads(out) == {"class": "RetractGraph", "axis": 3}


def test_distance_worked_example(capsys):
    code, out = run_cli(
        capsys, "distance", "dab", "--a", "0.8", "--b", "0.8",
        "--z", "0,0", "0,0", "--w", "0.5,0", "0,0",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["c"] == pytest.approx(math.atanh(2.0 / 3.0), abs=1e-12)
    assert f"{obj['c']:.6f}" == "0.804719"


def test_distance_polydisc(capsys):
    code, out = run_cli(
        capsys, "distance", "polydisc", "--z", "0,0", "0,0", "0,0",
        "--w", "0.5,0", "-0.666666,0", "0,0",
    )
    assert code == 0
    assert json.loads(out)["c"] == pytest.approx(math.atanh(0.666666), abs=1e-9)


def test_verify_lempert_report(capsys):
    code, out = run_cli(
        capsys, "verify-lempert", "--a", "0.8", "--b", "0.8", "--samples", "100", "--seed", "7"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["failures"] == 0
    assert obj["samples"] == 100
    assert obj["worst_residual"] < 1e-9


def test_verify_lempert_deterministic(capsys):
    args = ("verify-lempert", "--a", "0.8", "--b", "0.8", "--samples", "50", "--seed", "3")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_geodesic_command(capsys):
    code, out = run_cli(capsys, "geodesic", "--a", "0.8", "--b", "0.8", "--z", "0.5,0", "0,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["residual"] < 1e-9
    assert obj["lempert_value"] == pytest.approx(math.atanh(2.0 / 3.0), abs=1e-12)
    assert "permutation" not in obj


def test_geodesic_command_passes_through_its_point(capsys):
    # z1 dominates the lift: the disc comes back in the point's own coordinates
    code, out = run_cli(capsys, "geodesic", "--a", "0.8", "--b", "0.8", "--z", "0.6,0", "-0.55,0")
    assert code == 0
    obj = json.loads(out)
    point = [complex(*w) for w in obj["point"]]
    assert abs(point[0]) > abs(point[2])
    disc = AnalyticDisc.from_json(obj["disc"])
    assert max(abs(u - v) for u, v in zip(disc(complex(*obj["param_at_target"])), point)) < 1e-9


def test_lens_command_far_outside_is_infeasible(capsys):
    # |gamma1|^2 leaves the float range: a typed error, not a traceback
    code, out = run_cli(capsys, "lens", "--a", "0.8", "--b", "0.8", "--gamma", "1e200,0")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "Infeasible"


def test_lens_command(capsys):
    code, out = run_cli(capsys, "lens", "--a", "0.8", "--b", "0.8", "--gamma=-0.625,0")
    assert code == 0
    obj = json.loads(out)
    sq = math.sqrt(0.609375)
    assert obj["corners"][0] == pytest.approx([-0.625, sq], abs=1e-12)
    assert obj["solutions"][0]["omega"] == pytest.approx([0.625, sq], abs=1e-12)


def test_convexity_command(capsys):
    code, out = run_cli(capsys, "convexity", "--a", "0.8", "--b", "0.8")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_unimodular"] is True
    assert obj["moduli"] == pytest.approx([1.0, 1.0], abs=1e-12)


def test_universal_command(capsys):
    code, out = run_cli(
        capsys, "universal", "--a", "0.8", "--b", "0.8", "--z", "0,0", "0,0", "--w", "0.5,0", "0,0"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["c"] == pytest.approx(math.atanh(2.0 / 3.0), abs=1e-12)
    assert obj["members"] == ["z1", "z2", "f_ab"]
    code, out = run_cli(
        capsys, "universal", "--a", "0.8", "--b", "0.9", "--X", "1,0", "-1,0"
    )
    obj = json.loads(out)
    assert obj["gamma"] == pytest.approx(1.0, abs=1e-12)
    assert obj["kappa_formula"] == pytest.approx(1.0, abs=1e-15)


def test_ball_commands(capsys):
    code, out = run_cli(capsys, "ball", "cstar", "--w", "0,0", "0,0", "--z", "0.5,0", "0,0")
    assert code == 0
    assert json.loads(out)["cstar"] == pytest.approx(0.5, abs=1e-13)
    code, out = run_cli(capsys, "ball", "F", "--z", "0.3,0", "0,0")
    assert json.loads(out)["value"] == pytest.approx([0.3, 0.0], abs=1e-13)
    code, out = run_cli(capsys, "ball", "locus", "--z", "0,0", "1,0")
    assert json.loads(out)["on_locus"] is True
    code, out = run_cli(capsys, "ball", "extremal", "--base", "0.5,0", "0,0", "--direction", "0,0", "1,0",
                        "--z", "0.1,0.2", "0.3,-0.1")
    obj = json.loads(out)
    flat = [x for pair in obj["minimal_point"] for x in pair]
    assert flat == pytest.approx([0.5, 0.0, 0.0, 0.0], abs=1e-13)
    assert obj["direction"] == [[0.0, 0.0], [1.0, 0.0]]
    # s <z, d> / (1 - <z, a>) with a = (0.5, 0), d = (0, 1)
    want = math.sqrt(0.75) * (0.3 - 0.1j) / (1.0 - 0.5 * (0.1 + 0.2j))
    assert abs(complex(*obj["value"]) - want) < 1e-15
    U = [[complex(*p) for p in row] for row in obj["unitary"]]
    for i in range(2):
        for j in range(2):
            assert abs(sum(x * y.conjugate() for x, y in zip(U[i], U[j])) - (i == j)) < 1e-15


def test_sweep_deterministic_and_degenerate(capsys):
    args = (
        "sweep", "--a-min", "0.7", "--a-max", "0.9", "--a-steps", "2",
        "--b-min", "0.7", "--b-max", "0.9", "--b-steps", "2",
        "--samples", "5", "--seed", "11",
    )
    code, out1 = run_cli(capsys, *args)
    assert code == 0
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0].startswith("index,a,b,status")
    assert len(lines) == 5
    # degenerate cells flagged with --allow-degenerate
    code, out = run_cli(
        capsys, "sweep", "--a-min", "0.3", "--a-max", "0.8", "--a-steps", "2",
        "--b-min", "0.3", "--b-max", "0.8", "--b-steps", "2",
        "--samples", "5", "--seed", "11", "--allow-degenerate",
    )
    assert code == 0
    assert "retract-regime" in out


def test_sweep_rejects_degenerate_without_flag(capsys):
    code, out = run_cli(
        capsys, "sweep", "--a-min", "0.3", "--a-max", "0.4", "--a-steps", "2",
        "--b-min", "0.3", "--b-max", "0.4", "--b-steps", "2",
        "--samples", "5", "--seed", "11",
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("command, key, first", [
    ("lens", "corners", [[-5e-201, 1.0], [-5e-201, -1.0]]),
    ("convexity", "root1", [5e-201, 1.0]),
])
def test_large_parameters_give_finite_output(capsys, command, key, first):
    # b**2 overflows at 1e200: no traceback, strict JSON
    code, out = run_cli(capsys, command, "--a", "1e200", "--b", "1e200")
    assert code == 0
    obj = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
    assert obj[key] == first


@pytest.mark.parametrize("argv, key, first", [
    # t * t overflows: the point in 1/t
    (("ball", "ft", "--t", "1e200", "--lam", "0.5,0"), "point", [[1.0, 0.0], [-5e-201, 0.0]]),
    # h * h overflows: the larger root is 2h
    (("convexity", "--a", "1e-300", "--b", "1e-300"), "moduli", [9.999999999999999e+299, 1e-300]),
])
def test_overflowing_intermediates_give_finite_output(capsys, argv, key, first):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    obj = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
    assert obj[key] == first


@pytest.mark.parametrize("argv", [
    # a = |alpha1| / |alpha3| overflows
    ("normalize", "--alpha", "1e308,0", "1e308,0", "1e-308,0"),
    # a underflows to 0
    ("normalize", "--alpha", "1e-200,0", "1,0", "1e200,0"),
    # |alpha1| overflows although both its parts are finite
    ("classify", "--alpha", "1.7e308,1.7e308", "1,0", "1,0"),
    ("normalize", "--alpha", "1.7e308,1.7e308", "1,0", "1,0"),
    ("transport", "--alpha", "1.7e308,1.7e308", "1,0", "1,0", "--nu", "0,0", "0,0", "0,0"),
    # the larger root 2h overflows
    ("convexity", "--a", "1e-300", "--b", "4e-309"),
])
def test_overflowing_results_are_domain_errors(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    obj = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
    assert obj["error"]["type"] == "DomainError"


@pytest.mark.parametrize("argv", [
    ("lens", "--a", "0.8", "--b", "0.8", "--gamma", "nan,0"),
    ("lens", "--a", "0.8", "--b", "0.8", "--gamma", "inf,0"),
    ("lens", "--a", "inf", "--b", "inf"),
    ("convexity", "--a", "inf", "--b", "0.8"),
])
def test_non_finite_parameters_are_computational_errors(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_plotdata_lens_contains_exact_corners(capsys):
    code, out = run_cli(capsys, "plotdata", "lens", "--a", "0.8", "--b", "0.8", "--n", "16")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "segment,re,im"
    corners = [l for l in lines if l.startswith("corner")]
    sq = math.sqrt(0.609375)
    assert corners[0].split(",")[1:] == [repr(-0.625), repr(sq)]
    assert corners[1].split(",")[1:] == [repr(-0.625), repr(-sq)]


def test_plotdata_arc_and_indicatrix(capsys):
    code, out = run_cli(capsys, "plotdata", "arc", "--a", "0.8", "--b", "0.8", "--gamma=-0.625,0")
    assert code == 0
    assert out.startswith("theta_lo,theta_hi")
    code, out = run_cli(capsys, "plotdata", "indicatrix", "--a", "0.8", "--b", "0.9", "--n", "8")
    lines = out.strip().split("\n")
    assert lines[0] == "theta,X1,X2,kappa,radius"
    assert len(lines) == 9


def test_plotdata_locus(capsys):
    code, out = run_cli(capsys, "plotdata", "locus", "--n", "4")
    lines = out.strip().split("\n")
    assert lines[0] == "z1_re,z1_im,z2_re,z2_im,im_value,on_locus"
    assert len(lines) == 1 + 4**3


def test_validation_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--alpha", "bogus"])
    assert exc.value.code == 2


def test_computational_error_exit_code(capsys):
    code, out = run_cli(capsys, "distance", "dab", "--a", "0.8", "--b", "0.8",
                        "--z", "0,0", "0,0", "--w", "0.99,0", "0.99,0")
    assert code == 1
    obj = json.loads(out)
    assert obj["error"]["type"] == "NotInDomain"


def test_json_numbers_round_trip(capsys):
    _, out = run_cli(capsys, "distance", "dab", "--a", "0.8", "--b", "0.8",
                     "--z", "0,0", "0,0", "--w", "0.5,0", "0,0")
    val = json.loads(out)["c"]
    assert json.loads(json.dumps({"c": val}))["c"] == val


@pytest.mark.parametrize(
    "argv",
    [
        ("distance", "dab", "--z", "0,0", "0,0", "--w", "0.5,0", "0,0"),
        ("distance", "dab", "--a", "0.8", "--z", "0,0", "0,0", "--w", "0.5,0", "0,0"),
        ("ball", "cstar", "--z", "0.5,0", "0,0"),
        ("ball", "cstar", "--z", "0.5,0", "0,0", "--w", "0,0", "0,0", "0,0"),
        ("universal", "--a", "0.8", "--b", "0.8", "--z", "0,0", "0,0"),
        ("universal", "--a", "0.8", "--b", "0.8", "--z", "0,0", "0,0", "--w", "0.5,0", "0,0",
         "--at", "0.1,0", "0,0"),
        ("universal", "--a", "0.8", "--b", "0.8", "--z", "0,0", "0,0", "--w", "0.5,0", "0,0",
         "--X", "1,0", "0,0"),
        ("geodesic", "--a", "0.8", "--b", "0.8", "--z", "0.5,0"),
        # options the kind does not read
        ("ball", "cstar", "--z", "0.1,0", "0,0", "--w", "0,0", "0,0", "--t", "7"),
        ("ball", "F", "--z", "0.1,0", "0.2,0", "--w", "1,1"),
        ("ball", "ft", "--t", "1", "--lam", "0.5,0", "--z", "9,9"),
        ("distance", "polydisc", "--z", "0,0", "--w", "0.5,0", "--a", "3"),
        ("plotdata", "locus", "--n", "2", "--a", "5"),
    ],
)
def test_missing_or_mismatched_arguments_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-lempert", "--a", "0.8", "--b", "0.8", "--samples", "-1"),
        ("verify-lempert", "--a", "0.8", "--b", "0.8", "--workers", "-3"),
        ("sweep", "--a-min", "0.7", "--a-max", "0.9", "--a-steps", "0",
         "--b-min", "0.7", "--b-max", "0.9"),
        ("plotdata", "lens", "--n", "-2"),
        ("distance", "polydisc", "--z", "0,0", "--w", "0,0", "0,0"),
        ("ball", "locus", "--z", "0.5,0"),
        ("ball", "F", "--z", "0.9,0.9"),
        ("ball", "extremal", "--base", "0.5,0", "0,0", "--direction", "0,0", "1,0", "--z", "0.1,0"),
        # complex values that do not parse
        ("classify", "--alpha", "1", "2", "3"),
        ("classify", "--alpha", "1,x", "0,0", "0,0"),
    ],
)
def test_bad_counts_and_dimensions_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_ball_F_outside_ball_is_computational_error(capsys):
    code, out = run_cli(capsys, "ball", "F", "--z", "2,0", "0,0")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("argv, message", [
    (("transport", "--alpha", "0.8,0", "0.8,0", "1,0", "--nu", "0,0", "0,0", "0,0",
      "--rotation", "nan,0", "1,0", "1,0"), "rotation (nan+0j) is not unimodular"),
    (("ball", "locus", "--z", "nan,0", "1,0"), "point must lie on the unit sphere"),
    # a lifted target outside the tridisc
    (("geodesic", "--a", "0.8", "--b", "0.8", "--z", "0,0", "nan,0", "0.1,0"), "non-finite point (nan+0j)"),
    (("geodesic", "--a", "0.8", "--b", "0.8", "--z", "1.5,0", "0,0", "0,0"),
     "point (1.5+0j) is not in the open unit disc"),
], ids=["transport-rotation", "ball-locus", "geodesic-nan", "geodesic-outside"])
def test_nan_inputs_are_named_domain_errors(capsys, argv, message):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": {"type": "DomainError", "message": message}}


# f of D(0.8, 0.8) has its pole at (0.625, 0.625): the denominator is exactly 0
@pytest.mark.parametrize("argv, error", [
    (("distance", "dab", "--a", "0.8", "--b", "0.8", "--z", "0.625,0", "0.625,0", "--w", "0,0", "0,0"),
     "NotInDomain"),
    (("geodesic", "--a", "0.8", "--b", "0.8", "--z", "0.625,0", "0.625,0"), "NotInDomain"),
    (("universal", "--a", "0.8", "--b", "0.8", "--z", "0.625,0", "0.625,0", "--w", "0,0", "0,0"), "PoleError"),
], ids=["distance", "geodesic", "universal"])
def test_pole_of_f_exit_code(capsys, argv, error):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == error


def test_transport_degenerate_image_exit_code(capsys):
    code, out = run_cli(capsys, "transport", "--alpha", "1,0", "1,0", "0,0",
                        "--perm", "1", "2", "3", "--nu", "0,0", "0,0", "0,0")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DegenerateImage"


def test_transport_of_a_large_triple(capsys):
    # the surface of (0.8, 0.8, 1) scaled by 1e9, moved by the lift of
    # (0.3+0.2i, -0.1+0.4i): the same image as the unscaled triple
    code, out = run_cli(capsys, "transport", "--alpha", "8e8,0", "8e8,0", "1e9,0",
                        "--nu", "0.3,0.2", "-0.1,0.4", "-0.04743589743589736,-0.4794871794871796")
    assert code == 0
    _, small = run_cli(capsys, "transport", "--alpha", "0.8,0", "0.8,0", "1,0",
                       "--nu", "0.3,0.2", "-0.1,0.4", "-0.04743589743589736,-0.4794871794871796")
    beta, ref = json.loads(out)["alpha"], json.loads(small)["alpha"]
    assert max(abs(complex(*u) - complex(*v)) for u, v in zip(beta, ref)) <= 1e-12


@pytest.mark.parametrize("gamma", ["nan,0", "1.5,0"])
def test_plotdata_arc_outside_the_disc_is_a_domain_error(capsys, gamma):
    code, out = run_cli(capsys, "plotdata", "arc", "--a", "0.8", "--b", "0.8", "--gamma", gamma)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_sampling_failure_exit_code(capsys, monkeypatch):
    from geodisc import metrics

    monkeypatch.setattr(metrics, "dab_contains", lambda d, z: False)
    monkeypatch.setattr(metrics, "SAMPLE_DRAWS", 10)
    code, out = run_cli(capsys, "verify-lempert", "--a", "0.8", "--b", "0.8", "--samples", "3")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "SamplingExhausted"


def test_failed_sample_report_is_strict_json(capsys, monkeypatch):
    from geodisc import metrics
    from geodisc.errors import ConvergenceFailure

    def failing(*args, **kwargs):
        raise ConvergenceFailure("no candidate", best_residual=math.inf)

    monkeypatch.setattr(metrics, "geodesic_through", failing)
    code, out = run_cli(capsys, "verify-lempert", "--a", "0.8", "--b", "0.8", "--samples", "2")
    assert code == 1
    obj = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
    assert (obj["failures"], obj["worst_residual"]) == (2, None)
    assert [f["residual"] for f in obj["failed"]] == [None, None]


def test_sweep_writes_an_empty_field_where_the_report_has_null(capsys, monkeypatch):
    from geodisc import metrics
    from geodisc.errors import ConvergenceFailure

    def failing(*args, **kwargs):
        raise ConvergenceFailure("no candidate", best_residual=math.inf)

    monkeypatch.setattr(metrics, "geodesic_through", failing)
    code, out = run_cli(capsys, "sweep", "--a-min", "0.8", "--a-max", "0.8", "--a-steps", "1",
                        "--b-min", "0.8", "--b-max", "0.8", "--b-steps", "1", "--samples", "2")
    assert code == 1
    assert out == "index,a,b,status,samples,failures,worst_residual\n0,0.8,0.8,fail,2,2,\n"


@pytest.mark.parametrize("argv, usage", [
    (("ball", "cstar", "--z", "0.5,0", "0,0", "--w", "0,0", "0,0", "0,0"), "usage: geodisc ball cstar "),
    (("universal", "--a", "0.8", "--b", "0.8", "--z", "0.1,0", "0.1,0"), "usage: geodisc universal "),
    (("geodesic", "--a", "0.8", "--b", "0.8", "--z", "0.5,0"), "usage: geodisc geodesic "),
    # an unrecognized argument
    (("classify", "--alpha", "1,0", "1,0", "1,0", "extra"), "usage: geodisc classify "),
    (("ball", "cstar", "--z", "0.1,0", "0.1,0", "--w", "0,0", "0,0", "--a", "1"), "usage: geodisc ball cstar "),
], ids=["ball-cstar", "universal", "geodesic", "classify-extra", "ball-cstar-extra"])
def test_argument_problem_prints_the_command_usage(capsys, argv, usage):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert (out, err.startswith(usage)) == ("", True)


@pytest.mark.parametrize("argv", [
    ("universal", "--a", "20", "--b", "20", "--X", "2,20", "nan,0.5"),
    ("universal", "--a", "20", "--b", "20", "--X", "inf,inf", "-0,-0"),
    # finite, but a modulus or the value leaves the float range
    ("universal", "--a", "0.8", "--b", "0.8", "--X", "1.7e308,1.7e308", "0,0"),
    ("universal", "--a", "20", "--b", "20", "--X", "1e308,0", "1e308,0"),
    # b^2, or |a gamma + 1|^2, overflows
    ("plotdata", "arc", "--b", "1e300"),
    ("plotdata", "arc", "--a", "1e-300", "--b", "1e300"),
    ("plotdata", "arc", "--a", "1e300", "--b", "1e300", "--gamma", "0.5,0"),
])
def test_values_out_of_the_float_range_are_domain_errors(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    obj = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
    assert obj["error"]["type"] == "DomainError"


@pytest.mark.parametrize("argv", [
    ("ball", "ft", "--t", "-1", "--lam", "2,0"),
    ("ball", "ft", "--t", "1", "--lam", "nan,0"),
])
def test_ball_ft_outside_disc_is_computational_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


# no subcommand takes a tolerance: each check keeps the one value of the
# module that makes it
_TRANSPORT = ("transport", "--alpha", "3,0", "4,0", "5,0",
              "--nu", "0.3,0", "0,0.2", "-0.2108108108108108,-0.16486486486486487")


def test_transport_reads_tol_residual(capsys):
    # the base point lies on the surface to rounding, not exactly
    code, _ = run_cli(capsys, *_TRANSPORT)
    assert code == 0


def test_geodesic_tiny_target_is_computational_error(capsys):
    # the residual 1.3e-9 is 2.6 times the coordinates: off the surface at its scale
    code, out = run_cli(capsys, "geodesic", "--a", "0.8", "--b", "0.8", "--z", "5e-10,0", "5e-10,0", "5e-10,0")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NotOnVariety"


def test_verify_lempert_certifies_a_target_near_the_torus(capsys):
    # sample 1284 at seed 5 has |z3| = 0.99959
    code, out = run_cli(capsys, "verify-lempert", "--a", "0.02", "--b", "0.99", "--samples", "1285", "--seed", "5")
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_verify_lempert_report_states_no_tolerance(capsys):
    # MATCH_TOL bounds the certificate's miss at z inside geodesic_through:
    # no caller can set it, so the report does not repeat it
    code, out = run_cli(capsys, "verify-lempert", "--a", "0.8", "--b", "0.8", "--samples", "3")
    assert code == 0
    assert sorted(json.loads(out)) == ["a", "b", "failed", "failures", "samples", "seed", "worst_residual"]


def test_ball_reads_tol_boundary(capsys):
    # Im(z2 (1 - conj(z1))) = 0.32 at this sphere point
    args = ("ball", "locus", "--z", "0.6,0", "0,0.8")
    assert json.loads(run_cli(capsys, *args)[1])["on_locus"] is False


@pytest.mark.parametrize("argv", [
    ("transport", "--alpha", "3,0", "4,0", "5,0", "--nu", "0,0", "0,0", "0,0", "--tol-match", "1e-9"),
    ("geodesic", "--a", "0.8", "--b", "0.8", "--z", "0.5,0", "0,0", "--tol-residual", "1e-10"),
    ("verify-lempert", "--a", "0.8", "--b", "0.8", "--tol-boundary", "1e-9"),
    ("sweep", "--a-min", "0.8", "--a-max", "0.8", "--b-min", "0.8", "--b-max", "0.8",
     "--tol-residual", "1e-10"),
    ("ball", "cstar", "--z", "0.5,0", "0,0", "--w", "0,0", "0,0", "--tol-match", "1e-9"),
    ("plotdata", "lens", "--tol-residual", "1e-10"),
    # the flags these subcommands once took
    ("geodesic", "--a", "0.8", "--b", "0.8", "--z", "0.5,0", "0,0", "--tol-match", "1e-9"),
    ("verify-lempert", "--a", "0.8", "--b", "0.8", "--samples", "3", "--tol-match", "1e-9"),
    ("sweep", "--a-min", "0.8", "--a-max", "0.8", "--b-min", "0.8", "--b-max", "0.8",
     "--tol-match", "1e-9"),
    ("transport", "--alpha", "3,0", "4,0", "5,0", "--nu", "0,0", "0,0", "0,0", "--tol-residual", "1e-10"),
    ("ball", "locus", "--z", "0.6,0", "0,0.8", "--tol-boundary", "0.5"),
    ("plotdata", "locus", "--n", "2", "--tol-boundary", "10"),
])
def test_unread_tolerance_flag_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _parsers(parser, path=()):
    """(command path, parser) of the parser and of every sub-parser below it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sp in action.choices.items():
                yield from _parsers(sp, path + (name,))


def test_no_subcommand_takes_a_tolerance():
    flags = {(" ".join(path), opt) for path, sp in _parsers(build_parser())
             for action in sp._actions for opt in action.option_strings}
    assert len({name.split()[0] for name, _ in flags if name}) == 12
    # the walk reaches the options of each kind of ball, distance and plotdata
    assert len({name for name, opt in flags if opt not in ("-h", "--help")}) == 21
    assert [(name, opt) for name, opt in sorted(flags) if opt.startswith("--tol")] == []


# the pseudo-distance p rounds to 1, where arctanh(p) has no float value
@pytest.mark.parametrize("argv, key, x", [
    (("distance", "polydisc", "--z", "0.9999999999999999,0", "--w", "-0.9999999999999999,0"), "c",
     0.9999999999999999),
    # z lies in D(0.4, 0.4): f_ab stays in the disc, and the z1 member is far
    (("universal", "--a", "0.4", "--b", "0.4", "--z", "0.9999999999,0", "0,0", "--w", "-0.9999999999,0", "0,0"),
     "c", 0.9999999999),
    (("distance", "dab", "--a", "0.4", "--b", "0.4", "--z", "0.9999999999,0", "0,0", "--w", "-0.9999999999,0",
      "0,0"), "c", 0.9999999999),
    (("ball", "cstar", "--z", "0.99999999999,0", "0,0", "--w", "-0.99999999999,0", "0,0"), "distance",
     0.99999999999),
], ids=["polydisc", "universal", "dab", "ball"])
def test_a_distance_whose_pseudo_distance_rounds_to_one_is_finite(capsys, argv, key, x):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    obj = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
    # rho(x, -x) = log((1 + x) / (1 - x)); 1 - x is exact
    assert obj[key] == pytest.approx(math.log((1.0 + x) / (1.0 - x)), rel=1e-12)


def test_universal_distance_of_a_point_outside_the_domain_is_typed(capsys):
    # f_ab(0.9999999999, 0) = -4 on D(0.8, 0.8): z is not in the domain
    code, out = run_cli(capsys, "universal", "--a", "0.8", "--b", "0.8", "--z", "0.9999999999,0", "0,0",
                        "--w", "-0.9999999999,0", "0,0")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "EvaluationOutOfDisc"


def test_plotdata_arc_of_a_huge_nonempty_lens(capsys):
    # R and |w| are near 7.5e307 and differ by about a = 1e154, far below
    # their rounding; the arc's cosine is -0.8 and phase(v conj(w)) is pi
    code, out = run_cli(capsys, "plotdata", "arc", "--a", "1e154", "--b", "1e154", "--gamma", "0.5,0")
    assert code == 0
    header, *rows = out.strip().split("\n")
    assert header == "theta_lo,theta_hi"
    alpha = math.acos(-0.8)
    got = [[float(x) for x in row.split(",")] for row in rows]
    assert got == [[0.0, pytest.approx(math.pi - alpha, rel=1e-12)],
                   [pytest.approx(math.pi + alpha, rel=1e-12), 2.0 * math.pi]]


@pytest.mark.parametrize("argv, error", [
    # empty lenses: no boundary to trace
    (("plotdata", "lens", "--a", "5e-324", "--b", "1", "--n", "2"), "EmptyLens"),
    (("plotdata", "lens", "--a", "1e-300", "--b", "1", "--n", "2"), "EmptyLens"),
], ids=["lens-subnormal", "lens-tiny"])
def test_plotdata_without_a_finite_answer_is_a_typed_error(capsys, argv, error):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    obj = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
    assert obj["error"]["type"] == error


# |x + yi| overflows for finite parts x, y >= 1.3e308
@pytest.mark.parametrize("argv, error", [
    (("geodesic", "--a", "0.8", "--b", "0.8", "--z", "1.7e308,1.7e308", "0,0", "0,0"), "DomainError"),
    (("geodesic", "--a", "0.8", "--b", "0.8", "--z", "1.7e308,1.7e308", "0,0"), "NotInDomain"),
    (("distance", "dab", "--a", "0.8", "--b", "0.8", "--z", "1.7e308,1.7e308", "0,0", "--w", "0,0", "0,0"),
     "NotInDomain"),
    (("universal", "--a", "0.8", "--b", "0.8", "--z", "1.7e308,1.7e308", "0,0", "--w", "0,0", "0,0"), "DomainError"),
    (("ball", "ft", "--t", "1", "--lam", "1.7e308,1.7e308"), "DomainError"),
    (("transport", "--alpha", "0.8,0", "0.8,0", "1,0", "--nu", "0,0", "0,0", "0,0",
      "--rotation", "1.7e308,1.7e308", "1,0", "1,0"), "DomainError"),
    # |a z2 + b z1 - 1| of the sampler
    (("verify-lempert", "--a", "1.7e308", "--b", "1.7e308", "--samples", "1"), "DomainError"),
    # F = 0, and its bound 1e-12 max|Q| underflows to 0
    (("transport", "--alpha", "5e-324,0", "0,0", "0,0", "--nu", "0,0", "0,0", "0,0"), "DegenerateImage"),
], ids=["geodesic-triple", "geodesic-pair", "distance", "universal", "ball-ft", "transport-rotation",
        "verify-lempert", "transport-tiny"])
def test_a_modulus_beyond_the_float_range_is_a_typed_error(capsys, argv, error):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"]["type"] == error


def test_a_direction_whose_modulus_overflows_is_normalized(capsys):
    code, out = run_cli(capsys, "ball", "extremal", "--base", "0,0", "0,0", "--direction", "1.7e308,1.7e308", "0,0")
    assert code == 0
    assert json.loads(out)["direction"] == [pytest.approx([math.sqrt(0.5)] * 2, rel=1e-15), [0.0, 0.0]]


# The CLI contract on hostile values: the pool of the property test below,
# with 1.7e308, whose modulus with a second such part overflows
POOL = ["0", "1", "-1", "0.999999999", "1e300", "1e-300", "5e-324", "nan", "inf", "-inf", "-0",
        "0.9999999999999999", "-0.9999999999999999", "0.99999999999", "-0.99999999999", "1e154", "0.5", "1.7e308"]
# what each option type draws; a count above 3 would print n^3 rows or run as many samples
_VALUES = {
    float: st.sampled_from(POOL),
    _complex: st.builds("{},{}".format, st.sampled_from(POOL), st.sampled_from(POOL)),
    _count: st.sampled_from(POOL + ["2", "3"]),
    int: st.sampled_from(POOL + ["2", "3"]),
}
_LEAVES = [(path, sp) for path, sp in _parsers(build_parser())
           if not any(isinstance(a, argparse._SubParsersAction) for a in sp._actions)]


@st.composite
def _argvs(draw):
    """An invocation of one leaf parser: its required options and a draw of
    the others, each vector of nargs "+" with the same number of entries."""
    path, parser = draw(st.sampled_from(_LEAVES))
    n = draw(st.integers(1, 3))
    argv = list(path)
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction) or not (action.required or draw(st.booleans())):
            continue
        opt = action.option_strings[0]
        if action.nargs == 0:
            argv.append(opt)
        elif action.nargs is None:
            # --opt=value, so that a value such as -inf is not read as an option
            argv.append(f"{opt}={draw(_VALUES[action.type])}")
        else:
            argv += [opt] + [draw(_VALUES[action.type]) for _ in range(n if action.nargs == "+" else action.nargs)]
    return argv


def _finite_csv_field(field: str) -> bool:
    try:
        return math.isfinite(float(field))
    except ValueError:
        return True


@example(["distance", "polydisc", "--z", "0.9999999999999999,0", "--w", "-0.9999999999999999,0"])
@example(["universal", "--a", "0.8", "--b", "0.8", "--z", "0.9999999999,0", "0,0", "--w", "-0.9999999999,0", "0,0"])
@example(["ball", "cstar", "--z", "0.99999999999,0", "0,0", "--w", "-0.99999999999,0", "0,0"])
@example(["plotdata", "arc", "--a", "1e154", "--b", "1e154", "--gamma", "0.5,0"])
@example(["plotdata", "lens", "--a", "5e-324", "--b", "1", "--n", "2"])
@example(["plotdata", "lens", "--a", "1e-300", "--b", "1", "--n", "2"])
@settings(max_examples=400, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
def test_cli_contract_on_hostile_values(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out = out.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
    elif out.startswith("{"):
        json.loads(out, parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
    else:
        assert argv[0] in ("sweep", "plotdata")
        header, *rows = csv.reader(io.StringIO(out))
        assert all(len(row) == len(header) for row in rows)
        if code == 0:
            assert all(_finite_csv_field(field) for row in rows for field in row)
