import json
import math
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "npk", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_algebra_info_dual():
    out = run_cli("algebra", "--algebra", "R[x]/(x^2)")
    assert out.returncode == 0
    assert "dim      2" in out.stdout
    assert "height   1" in out.stdout
    assert "dim Der  1" in out.stdout


def test_algebra_info_plane():
    out = run_cli("algebra", "--algebra", "R[x,y]/(x^2,x*y,y^2)", "--json")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["schema"] == 1
    assert payload["dim"] == 3
    assert payload["der_dim"] == 4
    assert payload["basis"] == ["1", "x", "y"]


def test_algebra_dim_48_derivations():
    # the dense Leibniz system at dim 48 needed 91 GiB; Der(A) is now solved from d(x_i)
    out = run_cli("algebra", "--algebra", "R[x,y,z]/(x^4,y^4,z^3)")
    assert out.returncode == 0, out.stderr
    assert "dim      48" in out.stdout
    assert "dim Der  104" in out.stdout


def test_algebra_infinite_dimensional_exit_2():
    out = run_cli("algebra", "--algebra", "R[x,y]/(x^2)")
    assert out.returncode == 2
    assert "pure-power" in out.stderr


def test_lift_dual_square():
    out = run_cli("lift", "--algebra", "R[x]/(x^2)", "--fn", "x1^2", "--point", "[[1,1]]")
    assert out.returncode == 0
    assert out.stdout.strip() == "[1, 2]"


def test_lift_sin_jet():
    out = run_cli("lift", "--algebra", "R[t]/(t^3)", "--fn", "sin(x1)", "--point", "[[0,1,0]]")
    assert out.returncode == 0
    assert out.stdout.strip() == "[0, 1, 0]"


def test_lift_constant():
    out = run_cli("lift", "--algebra", "R[x]/(x^3)", "--fn", "2", "--point", "[[0,0,0]]")
    assert out.returncode == 0
    assert out.stdout.strip() == "[2, 0, 0]"


def test_lift_bad_expression_exit_2():
    out = run_cli("lift", "--algebra", "R[x]/(x^2)", "--fn", "x9", "--point", "[[0,1]]")
    assert out.returncode == 2


def test_check_suite_passes():
    out = run_cli(
        "check", "--suite", "lie", "--algebra", "R[x]/(x^2)", "--seed", "42", "--samples", "10"
    )
    assert out.returncode == 0
    assert "overall: PASS" in out.stdout


def test_check_tol_zero_fails_with_exit_1():
    out = run_cli(
        "check",
        "--suite",
        "lift",
        "--algebra",
        "R[x]/(x^2)",
        "--samples",
        "5",
        "--tol",
        "0",
    )
    assert out.returncode == 1
    assert "overall: FAIL" in out.stdout


def test_check_json_schema():
    out = run_cli(
        "check", "--suite", "lift", "--algebra", "R", "--samples", "5", "--json"
    )
    payload = json.loads(out.stdout)
    assert payload["schema"] == 1
    assert payload["pass"] is True
    record = payload["records"][0]
    assert set(record) == {"check", "algebra", "chart", "samples", "seed", "max_residual", "pass"}


def test_check_byte_identical_reports():
    args = (
        "check", "--suite", "lie", "--algebra", "R[x]/(x^3)",
        "--seed", "7", "--samples", "10", "--json",
    )
    first, second = run_cli(*args), run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_env_seed_fallback():
    by_flag = run_cli(
        "check", "--suite", "lift", "--algebra", "R", "--samples", "5", "--seed", "11", "--json"
    )
    by_env = run_cli(
        "check", "--suite", "lift", "--algebra", "R", "--samples", "5", "--json",
        env_extra={"NPK_SEED": "11"},
    )
    assert by_flag.stdout == by_env.stdout


def test_cohomology_circle():
    out = run_cli(
        "cohomology", "--model", "circle", "--algebra", "R[x]/(x^2)", "--samples", "3"
    )
    assert out.returncode == 0
    assert "circle-class-kills-exact" in out.stdout


def test_cohomology_poincare_json():
    out = run_cli(
        "cohomology", "--model", "poincare", "--algebra", "R[x]/(x^2)",
        "--chart", "box:[-1,1]^2", "--samples", "2", "--json",
    )
    payload = json.loads(out.stdout)
    assert payload["pass"] is True
    checks = [r["check"] for r in payload["records"]]
    assert checks == ["poincare-primitive-p1", "poincare-primitive-p2"]


def test_cohomology_h0():
    out = run_cli(
        "cohomology", "--model", "h0", "--algebra", "R[x,y]/(x^2,x*y,y^2)", "--samples", "3"
    )
    assert out.returncode == 0


def test_usage_error_exit_2():
    out = run_cli("check", "--suite", "nope", "--algebra", "R")
    assert out.returncode == 2


def test_bad_env_seed_exit_2():
    # exit 1 is reserved for a failed check
    out = run_cli("check", "--algebra", "R[x]/(x^2)", env_extra={"NPK_SEED": "abc"})
    assert out.returncode == 2
    assert out.stderr == "npk: bad NPK_SEED value 'abc'\n"


@pytest.mark.parametrize("model", ["poincare", "h0"])
def test_box_model_on_circle_exit_2(model):
    out = run_cli("cohomology", "--model", model, "--algebra", "R[x]/(x^2)", "--chart", "circle")
    assert out.returncode == 2
    assert out.stderr == f"npk: model {model!r} needs a box chart\n"


@pytest.mark.parametrize(
    "args",
    [
        ("algebra", "--algebra", "R[x]/(x^2)"),  # fits the buffer: the pipe breaks at the flush
        ("algebra", "--json", "--algebra", "R[x,y,z]/(x^4,y^4,z^3)"),  # breaks inside print
    ],
)
def test_closed_stdout_exits_141_silently(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "npk", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    proc.stdout.close()  # the reader quits before the first byte, like `npk ... | head -0`
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


def test_nan_residual_fails_check_with_exit_1(monkeypatch, capsys):
    # max(0.0, nan) is 0.0: a NaN must stick to the residual and fail the record
    from npk import checks, cli
    from npk.points import Chart
    from npk.weil import build_algebra, parse_presentation

    monkeypatch.setattr(checks, "_field_zero_residual", lambda x, points: float("nan"))
    dual = build_algebra(parse_presentation("R[x]/(x^2)"))
    record = checks.check_identity("jacobi", dual, Chart.cube(2), samples=1)
    assert math.isnan(record.max_residual)
    assert not record.passed
    code = cli.main(["check", "--suite", "lie", "--algebra", "R[x]/(x^2)", "--samples", "1"])
    assert code == cli.CHECK_FAILED == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_internal_error_exit_3(monkeypatch, capsys):
    # an unexpected exception is an internal error, not a failed check
    from npk import cli

    def boom(f, xi):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "lift", boom)
    code = cli.main(["lift", "--algebra", "R[x]/(x^2)", "--fn", "x1", "--point", "[[0,1]]"])
    err = capsys.readouterr().err
    assert code == cli.INTERNAL_ERROR == 3
    assert err.startswith("npk: internal error: RuntimeError: ")
    assert "Traceback" not in err


def test_lift_500_term_sum_exit_0():
    fn = "+".join(["x1"] * 500)
    out = run_cli("lift", "--algebra", "R[x]/(x^2)", "--fn", fn, "--point", "[[0,1]]")
    assert out.returncode == 0
    assert out.stdout.strip() == "[0, 500]"


@pytest.mark.parametrize("fn, base", [("x1^0.5", 0), ("log(x1)", -0.5), ("1/x1", 0)])
def test_lift_domain_error_exit_2(fn, base):
    out = run_cli("lift", "--algebra", "R[x]/(x^2)", "--fn", fn, "--point", f"[[{base},1]]")
    assert out.returncode == 2
    assert out.stderr.startswith("npk: ") and "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "fn, base, message",
    [
        ("x1^0.5", 0, "0.0^-0.5 undefined"),
        ("1/x1", 0, "division by zero"),
        ("log(x1)", -0.5, "log of non-positive value -0.5"),
        ("1/x1", 1e-200, "1e-200^-2.0 undefined"),  # 1e-200^2 underflows to 0, so -1e400 is out of range
    ],
)
def test_lift_domain_error_message(capsys, fn, base, message):
    # the rows lift-domain-error-fn0..3 of scripts/report_matrix.py
    from npk import cli

    code = cli.main(["lift", "--json", "--algebra", "R[x]/(x^2)", "--fn", fn, "--point", json.dumps([[base, 1]])])
    assert code == cli.USAGE_ERROR == 2
    assert capsys.readouterr().err == f"npk: {message}\n"


def test_nan_residual_json_is_valid(monkeypatch, capsys):
    # json.dumps writes the bare token NaN, which is not JSON; the record spells it "nan"
    from npk import checks, cli

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    monkeypatch.setattr(checks, "_field_zero_residual", lambda x, points: float("nan"))
    code = cli.main(
        ["check", "--suite", "lie", "--algebra", "R[x]/(x^2)", "--samples", "1", "--json"]
    )
    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    jacobi = next(r for r in payload["records"] if r["check"] == "jacobi")
    assert jacobi["max_residual"] == "nan"
    assert jacobi["pass"] is False
    assert payload["pass"] is False
    assert code == cli.CHECK_FAILED == 1


def test_non_finite_residual_encoding():
    from npk.checks import CheckRecord

    def encoded(value):
        return CheckRecord("c", "R", "box", 1, 0, value, False).to_dict()["max_residual"]

    assert [encoded(v) for v in (float("nan"), float("inf"), -float("inf"))] == ["nan", "inf", "-inf"]
    assert encoded(0.0) == 0.0 and encoded(1.5e-12) == 1.5e-12


@pytest.mark.parametrize(
    "point, message",
    [
        ("[[[0, 1], [2, 3]]]", "npk: expected 2 coefficients, got shape (2, 2)\n"),  # nested: a DimensionMismatch
        ("[[0, [1]]]", "npk: "),  # ragged: numpy's ValueError, in numpy's words
    ],
    ids=["nested", "ragged"],
)
def test_lift_nested_or_ragged_point_exit_2(capsys, point, message):
    from npk import cli

    code = cli.main(["lift", "--algebra", "R[x]/(x^2)", "--fn", "x1", "--point", point])
    captured = capsys.readouterr()
    assert code == cli.USAGE_ERROR == 2 and captured.out == ""
    assert captured.err.startswith(message) and "Traceback" not in captured.err
