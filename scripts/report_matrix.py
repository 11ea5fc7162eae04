"""Write a fixed matrix of npk reports, one file per run, for byte-for-byte comparison.

Usage: python scripts/report_matrix.py OUTDIR

Runs `npk check --suite all --json --samples 10` for seeds 0 and 1 over
three algebras and three charts, `npk check --suite all --json --samples
23` (probe blocks of 10, 10 and 3 near points) on R[x]/(x^2) and on
R[x,y]/(x^3,x^2*y,x*y^2,y^3) over box:[-1,1]^3, `npk cohomology --json` for the three
models with seeds 0-2, and `npk lift --json` of four expressions (sin,
cos, exp, log, sqrt, constant and general powers, division) on three
algebras, plus five lifts outside the domain (exit 2): sqrt(x1 - 1) at
0.3, x1^0.5 and 1/x1 at 0, log(x1) at -0.5, and 1/x1 at 1e-200, where a
coefficient of the series is out of floating-point range.  Single-point
evaluation is covered by `npk field --json` and `npk form --json` on the
README's two examples, and by a field of generator literals over
R[x,y]/(x^3,x^2*y,x*y^2,y^3), evaluated and applied to an expression.
`npk algebra --json` prints the basis and the integer Der(A) matrices of six
presentations of dims 2 to 48.  Each run is a
fresh `python -m npk` process with the caller's environment, so
PYTHONPATH picks the checkout under test; without PYTHONPATH it is this
checkout's `src`.  Each file
holds the command, its exit code, stdout and stderr.  Two matrices
agree when `diff -r` between them prints nothing.
"""

import json
import os
import subprocess
import sys

ALGEBRAS = ("R[x]/(x^2)", "R[x,y]/(x^3,x^2*y,x*y^2,y^3)", "R[x]/(x^3)")
CHARTS = ("box:[-1,1]^3", "box:[-1,1]^2", "circle")
MODELS = (
    ("poincare", "R[x]/(x^2)", "box:[-1,1]^3"),
    ("circle", "R[x]/(x^2)", "circle"),
    ("h0", "R[x,y]/(x^2,x*y,y^2)", "box:[-1,1]^2"),
)
LIFT_ALGEBRAS = (("R[x]/(x^2)", 2), ("R[x]/(x^4)", 4), ("R[x,y,z]/(x^3,y^3,z^3)", 27))
LIFT_FNS = (
    "sin(x1)*cos(x2) + exp(x1*x2)",
    "log(x1 + 2) - sqrt(x2 + 3)",
    "(x1 + 2)^1.5/(x2 + 3)",
    "(x1 + 2)^(x2 + 1)",
)
DOMAIN_ERRORS = (("x1^0.5", 0), ("1/x1", 0), ("log(x1)", -0.5), ("1/x1", 1e-200))
DERIVATION_ALGEBRAS = (
    "R[x]/(x^2)",
    "R[x,y]/(x^3,x^2*y,x*y^2,y^3)",
    "R[x,y,z]/(x^2,y^2,z^2)",
    "R[x,y]/(x^4,y^4)",
    "R[x,y,z]/(x^3,y^3,z^3)",
    "R[x,y,z]/(x^4,y^4,z^3)",
)
README_POINT = "[[0.5,1],[0.25,2]]"
GENERATOR_FIELD = (
    '[1,0,0,0,0,0]*gen(1,"x1")*gen(2,"sin(x2)") + [0,0.5,0,-1,0,0]*gen(0,"x2")*gen(1,"x2") + [0,0,0,0,0,3]; '
    '[0,0,2,0,0,0]*gen(3,"exp(x1)") + [1,-1,0,0,0.25,0]*gen(0,"x1*x2")*gen(4,"cos(x1)")*gen(5,"x2")'
)


def _point(dim: int) -> str:
    """A near point over x1, x2 with base (0.3, -0.2) and fixed, exactly printable nilpotent parts."""
    coords = [[b] + [((k * (j + 3)) % 7 - 2) / 4 for k in range(1, dim)] for j, b in enumerate((0.3, -0.2))]
    return json.dumps(coords)


def runs():
    """(file name, npk arguments) for every report of the matrix."""
    for seed in (0, 1):
        for a, algebra in enumerate(ALGEBRAS):
            for c, chart in enumerate(CHARTS):
                args = ["check", "--suite", "all", "--json", "--samples", "10", "--seed", str(seed),
                        "--algebra", algebra, "--chart", chart]
                yield f"check-seed{seed}-algebra{a}-chart{c}.txt", args
    for a in (0, 1):  # 23 samples cross two block boundaries
        args = ["check", "--suite", "all", "--json", "--samples", "23",
                "--algebra", ALGEBRAS[a], "--chart", CHARTS[0]]
        yield f"check-blocks-algebra{a}.txt", args
    for model, algebra, chart in MODELS:
        for seed in (0, 1, 2):
            args = ["cohomology", "--model", model, "--json", "--seed", str(seed),
                    "--algebra", algebra, "--chart", chart]
            yield f"cohomology-{model}-seed{seed}.txt", args
    for a, (algebra, dim) in enumerate(LIFT_ALGEBRAS):
        for k, fn in enumerate(LIFT_FNS):
            args = ["lift", "--json", "--algebra", algebra, "--fn", fn, "--point", _point(dim)]
            yield f"lift-algebra{a}-fn{k}.txt", args
    args = ["lift", "--json", "--algebra", "R[x]/(x^2)", "--fn", "sqrt(x1 - 1)", "--point", _point(2)]
    yield "lift-domain-error.txt", args
    for k, (fn, base) in enumerate(DOMAIN_ERRORS):
        args = ["lift", "--json", "--algebra", "R[x]/(x^2)", "--fn", fn, "--point", json.dumps([[base, 1]])]
        yield f"lift-domain-error-fn{k}.txt", args
    yield "field-readme.txt", ["field", "--json", "--algebra", "R[x]/(x^2)", "--field", 'prolong("x2; x1")',
                               "--point", README_POINT]
    yield "form-readme.txt", ["form", "--json", "--algebra", "R[x]/(x^2)", "--form", "x2 dx(1) + x1 dx(2)",
                              "--field", 'prolong("1; 0")', "--point", README_POINT]
    args = ["field", "--json", "--algebra", ALGEBRAS[1], "--field", GENERATOR_FIELD, "--point", _point(6)]
    yield "field-generators.txt", args
    yield "field-generators-fn.txt", args + ["--fn", "sin(x1)*x2 + x1^2"]
    for a, algebra in enumerate(DERIVATION_ALGEBRAS):
        yield f"algebra{a}.txt", ["algebra", "--json", "--algebra", algebra]


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: python scripts/report_matrix.py OUTDIR", file=sys.stderr)
        return 2
    outdir = sys.argv[1]
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    for name, args in runs():
        proc = subprocess.run([sys.executable, "-m", "npk", *args], capture_output=True, text=True, env=env)
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(f"$ npk {' '.join(args)}\nexit {proc.returncode}\n")
            fh.write(f"--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
