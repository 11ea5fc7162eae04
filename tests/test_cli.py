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


def test_lift_variable_with_thousands_of_digits_exit_2():
    # int() refuses numerals of more than 4,300 digits; the parser reads such a name as unknown
    out = run_cli("lift", "--algebra", "R[x]/(x^2)", "--fn", "x" + "1" * 5000, "--point", "[[0,1]]")
    assert out.returncode == 2
    assert out.stderr.startswith("npk: unknown variable 'x111") and "4300" not in out.stderr


def test_check_on_a_box_outside_the_unit_box_exit_2():
    out = run_cli("check", "--suite", "lift", "--algebra", "R[x]/(x^2)", "--chart", "box:[2,3]^1", "--samples", "2")
    assert out.returncode == 2
    assert "box:[2,3]^1" in out.stderr and "unit box" in out.stderr and "outside chart" not in out.stderr
    assert out.stdout == ""


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


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_check_non_finite_tol_exits_2(tol):
    out = run_cli("check", "--suite", "lift", "--algebra", "R[x]/(x^2)", "--samples", "2", f"--tol={tol}")
    assert out.returncode == 2
    assert "--tol must be a finite number >= 0" in out.stderr
    assert out.stdout == ""


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

    residual = checks._field_residual  # jacobi compares its bracket sum with zero, rhs None
    monkeypatch.setattr(checks, "_field_residual", lambda x, y, block: float("nan") if y is None else residual(x, y, block))
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


def test_lift_300_deep_nesting_exit_0():
    # the parser keeps its own stacks; its recursive descent exhausted the recursion limit here (exit 3)
    fn = "sin(" * 300 + "x1" + ")" * 300
    out = run_cli("lift", "--algebra", "R[x]/(x^2)", "--fn", fn, "--point", "[[0,1]]")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 1]"


def test_lift_constant_power_out_of_range_exit_2(capsys):
    # 10^400 is not folded to a constant (math.pow overflows, which was exit 3); lifting it is a domain error
    from npk import cli

    code = cli.main(["lift", "--algebra", "R[x]/(x^2)", "--fn", "10^400", "--point", "[[0,1]]"])
    assert code == cli.USAGE_ERROR == 2
    assert capsys.readouterr().err == "npk: 10.0^400.0 undefined\n"


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
        # 1e-200^2 underflows to 0, so the coefficient -1e400 is out of range; the id names that power of the base
        pytest.param(
            "1/x1",
            1e-200,
            "1/x at 1e-200: the Taylor coefficient of order 1 is out of floating-point range",
            id="1/x1-1e-200-1e-200^-2.0 undefined",
        ),
    ],
)
def test_lift_domain_error_message(capsys, fn, base, message):
    # the rows lift-domain-error-fn0..3 of scripts/report_matrix.py
    from npk import cli

    code = cli.main(["lift", "--json", "--algebra", "R[x]/(x^2)", "--fn", fn, "--point", json.dumps([[base, 1]])])
    assert code == cli.USAGE_ERROR == 2
    assert capsys.readouterr().err == f"npk: {message}\n"


@pytest.mark.parametrize("fn, name, k", [("1/x1", "1/x", 236), ("log(x1)", "log", 239)])
def test_lift_coefficient_overflow_names_primitive_order_and_base(capsys, fn, name, k):
    # at 0.05 the coefficients grow like 20^k: order k is the first past 1.8e308, and the message names it
    from npk import cli

    point = json.dumps([[0.05, 1.0] + [0.0] * 398])
    code = cli.main(["lift", "--algebra", "R[x]/(x^400)", "--fn", fn, "--point", point])
    assert code == cli.USAGE_ERROR == 2
    message = f"{name} at 0.05: the Taylor coefficient of order {k} is out of floating-point range"
    assert capsys.readouterr().err == f"npk: {message}\n"


def test_nan_residual_json_is_valid(monkeypatch, capsys):
    # json.dumps writes the bare token NaN, which is not JSON; the record spells it "nan"
    from npk import checks, cli

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    residual = checks._field_residual  # jacobi compares its bracket sum with zero, rhs None
    monkeypatch.setattr(checks, "_field_residual", lambda x, y, block: float("nan") if y is None else residual(x, y, block))
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
        ("5", "npk: expected a near point as a list of coefficient lists, one per coordinate, got 5\n"),
        ("[5]", "npk: expected a near point as a list of coefficient lists, one per coordinate, got [5]\n"),
        ("[[1,2],5]", "npk: expected a near point as a list of coefficient lists, one per coordinate, got [[1,2],5]\n"),
    ],
    ids=["nested", "ragged", "number", "flat", "mixed"],
)
def test_lift_nested_or_ragged_point_exit_2(capsys, point, message):
    from npk import cli

    code = cli.main(["lift", "--algebra", "R[x]/(x^2)", "--fn", "x1", "--point", point])
    captured = capsys.readouterr()
    assert code == cli.USAGE_ERROR == 2 and captured.out == ""
    assert captured.err.startswith(message) and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "point, shown",
    [('[["0.5", 1]]', '"0.5"'), ("[[0.5, null]]", "null"), ("[[true, 1]]", "true"), ("[[0.5, false]]", "false"),
     ("[[0.5, {}]]", "{}"), ("[[0.5, NaN]]", '"NaN"'), ("[[0.5, Infinity]]", '"Infinity"'),
     ("[[-Infinity, 1]]", '"-Infinity"')],
    ids=["string", "null", "true", "false", "object", "nan", "infinity", "minus-infinity"],
)
@pytest.mark.parametrize("command", [["lift", "--fn", "x1"], ["field", "--field", 'prolong("1")']], ids=["lift", "field"])
def test_non_number_coefficient_exit_2(capsys, command, point, shown):
    from npk import cli

    code = cli.main([command[0], "--algebra", "R[x]/(x^2)", "--chart", "box:[-1,1]^1", *command[1:], "--point", point])
    captured = capsys.readouterr()
    assert code == cli.USAGE_ERROR and captured.out == ""
    assert captured.err == f"npk: expected numbers as coefficients, got {shown} in {point}\n"


def test_integer_and_float_coefficients_still_lift(capsys):
    from npk import cli

    assert cli.main(["lift", "--algebra", "R[x]/(x^2)", "--chart", "box:[-1,1]^1", "--fn", "x1", "--point", "[[0, 1.5]]"]) == 0
    assert capsys.readouterr().out == "[0, 1.5]\n"


@pytest.mark.parametrize("point", ["[[{}, 1]]", "[[0.5, {}]]"], ids=["base", "nilpotent"])
def test_integer_beyond_the_float_range_reads_as_its_float(capsys, point):
    # 10^400 as an int reads as 1e400 does, inf, instead of an internal OverflowError (exit 3)
    from npk import cli

    runs = []
    for big in ("1" + "0" * 400, "1e400"):
        code = cli.main(["lift", "--algebra", "R[x]/(x^2)", "--fn", "x1", "--point", point.format(big)])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1] and runs[0][0] != cli.INTERNAL_ERROR


def test_form_vanishing_literal_keeps_its_degree(capsys):
    from npk import cli

    fields = ["--field", 'prolong("1; 0")', "--field", 'prolong("0; 1")']
    args = ["form", "--algebra", "R[x]/(x^2)", "--form", "dx(1)^dx(1)", *fields, "--point", "[[0.1,1],[0.2,0]]"]
    assert cli.main(args) == 0
    assert capsys.readouterr().out == "[0, 0]\n"


@pytest.mark.parametrize("literal", ["sin( dx(1)^dx(1)", "[1,2,3] dx(1)^dx(1)", "x9 dx(1)^dx(1)"])
def test_form_vanishing_term_with_bad_coefficient_exit_2(capsys, literal):
    from npk import cli

    fields = ["--field", 'prolong("1; 0")', "--field", 'prolong("0; 1")']
    args = ["form", "--algebra", "R[x]/(x^2)", "--form", literal, *fields, "--point", "[[0.1,1],[0.2,0]]"]
    assert cli.main(args) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("npk: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "point",
    ["[[[0, 1], [2, 3]], [0, 1]]", "[[0, [1]], [0, 1]]", "5", "[5]", "[[1,2],5]"],
    ids=["nested", "ragged", "number", "flat", "mixed"],
)
@pytest.mark.parametrize(
    "command",
    [["field", "--field", 'prolong("1; 0")'], ["form", "--form", "dx(1)", "--field", 'prolong("1; 0")']],
    ids=["field", "form"],
)
def test_field_and_form_nested_or_ragged_point_exit_2(capsys, command, point):
    from npk import cli

    code = cli.main([command[0], "--algebra", "R[x]/(x^2)", *command[1:], "--point", point])
    captured = capsys.readouterr()
    assert code == cli.USAGE_ERROR and captured.out == ""
    assert captured.err.startswith("npk: ") and "Traceback" not in captured.err


# every subcommand's options as the parser declares them, in the order of its usage line:
# flag -> (default, required, choices, action class, type)
CLI_SURFACE = {
    "algebra": {
        "--algebra": (None, True, None, "_StoreAction", None),
        "--json": (False, False, None, "_StoreTrueAction", None),
    },
    "lift": {
        "--algebra": (None, True, None, "_StoreAction", None),
        "--fn": (None, True, None, "_StoreAction", None),
        "--point": (None, True, None, "_StoreAction", None),
        "--chart": (None, False, None, "_StoreAction", None),
        "--json": (False, False, None, "_StoreTrueAction", None),
    },
    "check": {
        "--suite": ("all", False, ["all", "forms", "lie", "lift"], "_StoreAction", None),
        "--algebra": (None, True, None, "_StoreAction", None),
        "--chart": ("box:[-1,1]^2", False, None, "_StoreAction", None),
        "--seed": (None, False, None, "_StoreAction", int),
        "--samples": (50, False, None, "_StoreAction", int),
        "--tol": (1e-08, False, None, "_StoreAction", float),
        "--json": (False, False, None, "_StoreTrueAction", None),
    },
    "cohomology": {
        "--model": (None, True, ["poincare", "circle", "h0"], "_StoreAction", None),
        "--algebra": (None, True, None, "_StoreAction", None),
        "--chart": ("box:[-1,1]^2", False, None, "_StoreAction", None),
        "--seed": (None, False, None, "_StoreAction", int),
        "--samples": (50, False, None, "_StoreAction", int),
        "--tol": (1e-08, False, None, "_StoreAction", float),
        "--json": (False, False, None, "_StoreTrueAction", None),
    },
    "field": {
        "--algebra": (None, True, None, "_StoreAction", None),
        "--chart": ("box:[-1,1]^2", False, None, "_StoreAction", None),
        "--field": (None, True, None, "_StoreAction", None),
        "--fn": (None, False, None, "_StoreAction", None),
        "--point": (None, True, None, "_StoreAction", None),
        "--json": (False, False, None, "_StoreTrueAction", None),
    },
    "form": {
        "--algebra": (None, True, None, "_StoreAction", None),
        "--chart": ("box:[-1,1]^2", False, None, "_StoreAction", None),
        "--form": (None, True, None, "_StoreAction", None),
        "--field": (None, False, None, "_AppendAction", None),
        "--point": (None, True, None, "_StoreAction", None),
        "--json": (False, False, None, "_StoreTrueAction", None),
    },
}


def test_cli_surface_is_pinned():
    # a usage error prints the usage line, so the order of the options is part of stderr
    import argparse

    from npk.cli import build_parser

    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(CLI_SURFACE)
    for name, parser in commands.choices.items():
        options = [
            (*a.option_strings, (a.default, a.required, a.choices, type(a).__name__, a.type))
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        ]
        assert options == [(flag, spec) for flag, spec in CLI_SURFACE[name].items()], name


@pytest.mark.parametrize("command", [["check"], ["cohomology", "--model", "h0"]], ids=["check", "cohomology"])
@pytest.mark.parametrize("bad", [["--samples", "0"], ["--tol", "nan"]], ids=["samples-0", "tol-nan"])
def test_check_options_out_of_range_exit_2(capsys, command, bad):
    from npk import cli

    with pytest.raises(SystemExit) as caught:
        cli.main([*command, "--algebra", "R[x]/(x^2)", *bad])
    assert caught.value.code == cli.USAGE_ERROR
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("presentation", ["R", "R[x]/(x^2)", "R[x,y]/(x^3,x^2*y,x*y^2,y^3)"])
def test_algebra_json_streamed_as_encoded_at_once(capsys, presentation):
    # the Der(A) matrices are written one at a time; the bytes are json.dumps of the whole report
    from npk import cli
    from npk.weil import build_algebra, derivation_basis, parse_presentation

    assert cli.main(["algebra", "--json", "--algebra", presentation]) == 0
    algebra = build_algebra(parse_presentation(presentation))
    derivations = derivation_basis(algebra)
    whole = {
        "schema": 1, "command": "algebra", "presentation": algebra.text, "dim": algebra.dim,
        "height": algebra.height, "basis": [algebra.monomial_text(i) for i in range(algebra.dim)],
        "der_dim": len(derivations), "derivations": [[list(row) for row in d.matrix] for d in derivations],
    }
    assert capsys.readouterr().out == json.dumps(whole, sort_keys=True, separators=(",", ":")) + "\n"
