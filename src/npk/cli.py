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
from collections.abc import Iterable, Iterator

from .checks import SUITES, SuiteReport, run_cohomology_model, run_suite
from .expr import DomainError, parse
from .literals import parse_field, parse_form
from .points import Chart, NearPoint, coefficient_lists, lift
from .weil import Derivation, WeilAlgebra, build_algebra, derivation_basis, parse_presentation

USAGE_ERROR = 2
CHECK_FAILED = 1
INTERNAL_ERROR = 3
BROKEN_PIPE = 141

# what a handler returns for main's one algebra: its --json fields and its text
# lines, the costly parts of either as iterators, so only the one written is built
Report = tuple[dict, Iterable[str]]


def _vector(coeffs) -> str:
    return "[" + ", ".join(f"{c:.12g}" for c in coeffs) + "]"


def _json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _write(command: str, as_json: bool, fields: dict, lines: Iterable[str]) -> None:
    """Print the text lines, or under --json one object: schema, command and the fields, keys sorted.

    A field given as an iterator is written as a list one item at a time, so a long
    list is never held whole; the bytes are those of encoding it at once.
    """
    if not as_json:
        for line in lines:
            print(line)
        return
    out = sys.stdout
    payload = {"schema": 1, "command": command, **fields}
    out.write("{")
    for n, key in enumerate(sorted(payload)):
        out.write(("," if n else "") + _json(key) + ":")
        value = payload[key]
        if isinstance(value, Iterator):
            out.write("[")
            for m, item in enumerate(value):
                out.write(("," if m else "") + _json(item))
            out.write("]")
        else:
            out.write(_json(value))
    out.write("}\n")


def _default_seed() -> int:
    env = os.environ.get("NPK_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"bad NPK_SEED value {env!r}") from None


def _suite_report(report: SuiteReport) -> Report:
    def lines() -> Iterator[str]:
        yield f"{report.command}: {', '.join(f'{k}={v}' for k, v in report.config.items())}"
        for r in report.records:
            yield f"  {r.check:<28} residual {r.max_residual:>14.12g}  {'pass' if r.passed else 'FAIL'}"
        yield f"overall: {'PASS' if report.passed else 'FAIL'}"

    return report.to_dict(), lines()


def _algebra_lines(algebra: WeilAlgebra, basis: list[str], derivations: list[Derivation]) -> Iterator[str]:
    yield f"algebra {algebra.text}"
    yield f"  dim      {algebra.dim}"
    yield f"  height   {algebra.height}"
    yield f"  basis    {', '.join(basis)}"
    yield f"  dim Der  {len(derivations)}"
    for k, d in enumerate(derivations):
        images = []
        for i, name in enumerate(algebra.presentation.var_names):
            # the basis starts 1, x_1, ..., x_k, so d(x_i) is column 1 + i
            parts = [f"{c:+.3g}*{basis[alpha]}" for alpha, c in enumerate(d.matrix[:, 1 + i]) if abs(c) > 1e-12]
            images.append(f"{name} -> {' '.join(parts) if parts else '0'}")
        yield f"  d[{k}]     {'; '.join(images)}"


def cmd_algebra(args: argparse.Namespace, algebra: WeilAlgebra) -> Report:
    derivations = derivation_basis(algebra)
    basis = [algebra.monomial_text(i) for i in range(algebra.dim)]
    fields = {"presentation": algebra.text, "dim": algebra.dim, "height": algebra.height, "basis": basis,
              "der_dim": len(derivations), "derivations": (d.matrix.tolist() for d in derivations)}
    return fields, _algebra_lines(algebra, basis, derivations)


def cmd_lift(args: argparse.Namespace, algebra: WeilAlgebra) -> Report:
    n = len(coefficient_lists(args.point))
    chart = Chart.parse(args.chart) if args.chart else Chart.box([(-float("inf"), float("inf"))] * n)
    xi = NearPoint.from_json(args.point, algebra, chart)
    value = lift(parse(args.fn, chart.n), xi)
    return {"algebra": algebra.text, "fn": args.fn, "result": value.coeffs.tolist()}, [_vector(value.coeffs)]


def cmd_check(args: argparse.Namespace, algebra: WeilAlgebra) -> Report:
    return _suite_report(run_suite(args.suite, algebra, Chart.parse(args.chart), args.seed, args.samples, args.tol))


def cmd_field(args: argparse.Namespace, algebra: WeilAlgebra) -> Report:
    chart = Chart.parse(args.chart)
    field = parse_field(args.field, algebra, chart)
    xi = NearPoint.from_json(args.point, algebra, chart)
    if args.fn is not None:
        values, labels = [field.apply(parse(args.fn, chart.n)).evaluate(xi)], [f"X({args.fn})"]
    else:
        values, labels = field.evaluate(xi), [f"X(x{i + 1})" for i in range(chart.n)]
    fields = {"algebra": algebra.text, "chart": chart.text(), "values": [v.coeffs.tolist() for v in values]}
    return fields, [f"{label} = {_vector(v.coeffs)}" for label, v in zip(labels, values)]


def cmd_form(args: argparse.Namespace, algebra: WeilAlgebra) -> Report:
    chart = Chart.parse(args.chart)
    eta = parse_form(args.form, algebra, chart)
    fields = [parse_field(f, algebra, chart) for f in args.field or []]
    value = eta.evaluate(fields, NearPoint.from_json(args.point, algebra, chart))
    payload = {"algebra": algebra.text, "chart": chart.text(), "degree": eta.degree, "value": value.coeffs.tolist()}
    return payload, [_vector(value.coeffs)]


def cmd_cohomology(args: argparse.Namespace, algebra: WeilAlgebra) -> Report:
    chart = Chart.parse(args.chart)
    if args.model != "circle" and chart.kind != "box":
        raise ValueError(f"model {args.model!r} needs a box chart")
    return _suite_report(run_cohomology_model(args.model, algebra, chart, args.seed, args.samples, args.tol))


def build_parser() -> argparse.ArgumentParser:
    description = "Weil-algebra calculus on near-point manifolds: lifts, fields, forms, cohomology."
    parser = argparse.ArgumentParser(prog="npk", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, handler, *options, selector=None):
        """One subcommand: --algebra, its options in order, then --json; check and cohomology pass
        the option that picks what to check as selector, first, with the check options."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if selector:
            p.add_argument(selector[0], **selector[1])
        p.add_argument("--algebra", required=True, help="presentation, e.g. R[x]/(x^2) or R")
        if selector:
            p.add_argument("--chart", default="box:[-1,1]^2", help="box:[lo,hi]^n or circle")
            p.add_argument("--seed", type=int, default=None, help="RNG seed (default: NPK_SEED or 0)")
            p.add_argument("--samples", type=int, default=50, help="sample count per check")
            p.add_argument("--tol", type=float, default=1e-8, help="pass tolerance")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    point = ("--point", {"required": True, "help": "JSON: n arrays of dim(A) coefficients"})
    box_chart = ("--chart", {"default": "box:[-1,1]^2"})
    command("algebra", "print dimension, basis, height and derivations", cmd_algebra)
    command("lift", "lift an expression through a near point", cmd_lift,
            ("--fn", {"required": True, "help": "expression in x1..xn"}),
            point, ("--chart", {"default": None}))
    command("check", "run a named identity suite", cmd_check,
            selector=("--suite", {"choices": sorted(SUITES), "default": "all"}))
    command("cohomology", "run a cohomology model", cmd_cohomology,
            selector=("--model", {"choices": ["poincare", "circle", "h0"], "required": True}))
    command("field", "evaluate a vector-field literal at a near point", cmd_field, box_chart,
            ("--field", {"required": True, "help": 'literal, e.g. prolong("x2; x1") or dstar(0)'}),
            ("--fn", {"default": None, "help": "apply the field to this expression instead"}), point)
    command("form", "evaluate a form literal on field literals at a near point", cmd_form, box_chart,
            ("--form", {"required": True, "help": 'literal, e.g. "x2 dx(1) + x1 dx(2)"'}),
            ("--field", {"action": "append", "help": "one field literal per form degree"}), point)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "samples", 1) < 1:
        parser.error("--samples must be >= 1")
    if not 0.0 <= getattr(args, "tol", 1.0) < math.inf:  # False for NaN too
        parser.error("--tol must be a finite number >= 0")
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        fields, lines = args.handler(args, build_algebra(parse_presentation(args.algebra)))
        _write(args.command, args.json, fields, lines)
        sys.stdout.flush()  # a closed pipe shows here, inside the try
        return CHECK_FAILED if fields.get("pass") is False else 0  # only a suite report has a verdict
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
