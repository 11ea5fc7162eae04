"""Command-line front end: algebra inspection, lifts, identity suites, cohomology.

All randomness flows from one --seed (env NPK_SEED as fallback), so
reports are byte-identical across runs with the same configuration.
Exit codes: 0 all checks pass, 1 some check failed, 2 usage or data
error, 3 internal error, 141 stdout closed early (a pager or `head`
quit reading; 128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .checks import SUITES, SuiteReport, run_cohomology_model, run_suite
from .expr import DomainError, parse
from .literals import parse_field, parse_form
from .points import Chart, NearPoint, coefficient_lists, lift
from .weil import WeilAlgebra, build_algebra, derivation_basis, parse_presentation

USAGE_ERROR = 2
CHECK_FAILED = 1
INTERNAL_ERROR = 3
BROKEN_PIPE = 141


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _vector(coeffs) -> str:
    return "[" + ", ".join(_fmt(c) for c in coeffs) + "]"


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _default_seed() -> int:
    env = os.environ.get("NPK_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"bad NPK_SEED value {env!r}") from None
    return 0


def _algebra_from(args: argparse.Namespace) -> WeilAlgebra:
    return build_algebra(parse_presentation(args.algebra))


def _chart_from(args: argparse.Namespace) -> Chart:
    return Chart.parse(args.chart)


def _emit_report(report: SuiteReport, as_json: bool) -> int:
    if as_json:
        _print_json(report.to_dict())
    else:
        cfg = report.config
        header = ", ".join(f"{k}={v}" for k, v in cfg.items())
        print(f"{report.command}: {header}")
        for r in report.records:
            status = "pass" if r.passed else "FAIL"
            print(f"  {r.check:<28} residual {_fmt(r.max_residual):>14}  {status}")
        print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else CHECK_FAILED


def cmd_algebra(args: argparse.Namespace) -> int:
    algebra = _algebra_from(args)
    derivations = derivation_basis(algebra)
    if args.json:
        payload = {
            "schema": 1,
            "command": "algebra",
            "presentation": algebra.text,
            "dim": algebra.dim,
            "height": algebra.height,
            "basis": [algebra.monomial_text(i) for i in range(algebra.dim)],
            "der_dim": len(derivations),
            "derivations": [[list(row) for row in d.matrix] for d in derivations],
        }
        _print_json(payload)
    else:
        print(f"algebra {algebra.text}")
        print(f"  dim      {algebra.dim}")
        print(f"  height   {algebra.height}")
        print(f"  basis    {', '.join(algebra.monomial_text(i) for i in range(algebra.dim))}")
        print(f"  dim Der  {len(derivations)}")
        names = algebra.presentation.var_names
        for k, d in enumerate(derivations):
            images = []
            for i, name in enumerate(names):
                col = d.matrix[:, algebra._index[tuple(1 if j == i else 0 for j in range(len(names)))]]
                parts = [
                    f"{c:+.3g}*{algebra.monomial_text(alpha)}"
                    for alpha, c in enumerate(col)
                    if abs(c) > 1e-12
                ]
                images.append(f"{name} -> {' '.join(parts) if parts else '0'}")
            print(f"  d[{k}]     {'; '.join(images)}")
    return 0


def cmd_lift(args: argparse.Namespace) -> int:
    algebra = _algebra_from(args)
    n = len(coefficient_lists(args.point))
    chart = Chart.parse(args.chart) if args.chart else Chart.box([(-float("inf"), float("inf"))] * n)
    xi = NearPoint.from_json(args.point, algebra, chart)
    f = parse(args.fn, chart.n)
    value = lift(f, xi)
    if args.json:
        payload = {
            "schema": 1,
            "command": "lift",
            "algebra": algebra.text,
            "fn": args.fn,
            "result": list(value.coeffs),
        }
        _print_json(payload)
    else:
        print(_vector(value.coeffs))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    algebra = _algebra_from(args)
    chart = _chart_from(args)
    report = run_suite(args.suite, algebra, chart, args.seed, args.samples, args.tol)
    return _emit_report(report, args.json)


def cmd_field(args: argparse.Namespace) -> int:
    algebra = _algebra_from(args)
    chart = _chart_from(args)
    field = parse_field(args.field, algebra, chart)
    xi = NearPoint.from_json(args.point, algebra, chart)
    if args.fn is not None:
        values = [field.apply(parse(args.fn, chart.n)).evaluate(xi)]
        labels = [f"X({args.fn})"]
    else:
        values = field.evaluate(xi)
        labels = [f"X(x{i + 1})" for i in range(chart.n)]
    if args.json:
        payload = {
            "schema": 1,
            "command": "field",
            "algebra": algebra.text,
            "chart": chart.text(),
            "values": [list(v.coeffs) for v in values],
        }
        _print_json(payload)
    else:
        for label, v in zip(labels, values):
            print(f"{label} = {_vector(v.coeffs)}")
    return 0


def cmd_form(args: argparse.Namespace) -> int:
    algebra = _algebra_from(args)
    chart = _chart_from(args)
    eta = parse_form(args.form, algebra, chart)
    fields = [parse_field(f, algebra, chart) for f in args.field or []]
    xi = NearPoint.from_json(args.point, algebra, chart)
    value = eta.evaluate(fields, xi)
    if args.json:
        payload = {
            "schema": 1,
            "command": "form",
            "algebra": algebra.text,
            "chart": chart.text(),
            "degree": eta.degree,
            "value": list(value.coeffs),
        }
        _print_json(payload)
    else:
        print(_vector(value.coeffs))
    return 0


def cmd_cohomology(args: argparse.Namespace) -> int:
    algebra = _algebra_from(args)
    chart = _chart_from(args)
    if args.model != "circle" and chart.kind != "box":
        raise ValueError(f"model {args.model!r} needs a box chart")
    report = run_cohomology_model(args.model, algebra, chart, args.seed, args.samples, args.tol)
    return _emit_report(report, args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npk",
        description="Weil-algebra calculus on near-point manifolds: lifts, fields, forms, cohomology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, chart_default: str | None = "box:[-1,1]^2") -> None:
        p.add_argument("--algebra", required=True, help="presentation, e.g. R[x]/(x^2) or R")
        if chart_default is not None:
            p.add_argument("--chart", default=chart_default, help="box:[lo,hi]^n or circle")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default: NPK_SEED or 0)")
        p.add_argument("--samples", type=int, default=50, help="sample count per check")
        p.add_argument("--tol", type=float, default=1e-8, help="pass tolerance")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p_alg = sub.add_parser("algebra", help="print dimension, basis, height and derivations")
    p_alg.add_argument("--algebra", required=True)
    p_alg.add_argument("--json", action="store_true")
    p_alg.set_defaults(handler=cmd_algebra)

    p_lift = sub.add_parser("lift", help="lift an expression through a near point")
    p_lift.add_argument("--algebra", required=True)
    p_lift.add_argument("--fn", required=True, help="expression in x1..xn")
    p_lift.add_argument("--point", required=True, help="JSON: n arrays of dim(A) coefficients")
    p_lift.add_argument("--chart", default=None)
    p_lift.add_argument("--json", action="store_true")
    p_lift.set_defaults(handler=cmd_lift)

    p_check = sub.add_parser("check", help="run a named identity suite")
    p_check.add_argument("--suite", choices=sorted(SUITES), default="all")
    common(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_coh = sub.add_parser("cohomology", help="run a cohomology model")
    p_coh.add_argument("--model", choices=["poincare", "circle", "h0"], required=True)
    common(p_coh)
    p_coh.set_defaults(handler=cmd_cohomology)

    p_field = sub.add_parser("field", help="evaluate a vector-field literal at a near point")
    p_field.add_argument("--algebra", required=True)
    p_field.add_argument("--chart", default="box:[-1,1]^2")
    p_field.add_argument("--field", required=True, help='literal, e.g. prolong("x2; x1") or dstar(0)')
    p_field.add_argument("--fn", default=None, help="apply the field to this expression instead")
    p_field.add_argument("--point", required=True)
    p_field.add_argument("--json", action="store_true")
    p_field.set_defaults(handler=cmd_field)

    p_form = sub.add_parser("form", help="evaluate a form literal on field literals at a near point")
    p_form.add_argument("--algebra", required=True)
    p_form.add_argument("--chart", default="box:[-1,1]^2")
    p_form.add_argument("--form", required=True, help='literal, e.g. "x2 dx(1) + x1 dx(2)"')
    p_form.add_argument("--field", action="append", help="one field literal per form degree")
    p_form.add_argument("--point", required=True)
    p_form.add_argument("--json", action="store_true")
    p_form.set_defaults(handler=cmd_form)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "samples", 1) < 1:
        parser.error("--samples must be >= 1")
    if not 0.0 <= getattr(args, "tol", 1.0) < math.inf:  # False for NaN too
        parser.error("--tol must be a finite number >= 0")
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, inside the try
        return code
    except BrokenPipeError:
        # the reader quit early; silence the flush at interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except (ValueError, DomainError) as exc:
        # data and configuration problems (every npk input error is a ValueError); exit 1 is reserved for failed checks
        print(f"npk: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        # a bug or an exhausted resource (RecursionError, MemoryError), never a failed check
        print(f"npk: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
