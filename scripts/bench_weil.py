"""Time A-arithmetic and Der(A) validation; print one JSON object.

Usage: python scripts/bench_weil.py

Prints the per-call microseconds of WeilAlgebra.mul_coeffs,
WeilAlgebra.left_multiplication and AElement.invert at dims 2, 4, 6, 16, 27
and 100 (best of five timing rounds), and, at dims 27, 48 and 100, the
seconds of derivation_basis on a fresh algebra (exact solve, rebuild and the
validation of each element) and of validating that basis again with
is_derivation (best of three runs, or one run when a run takes over a second).
It also prints the OpenBLAS thread count, read from the library numpy loaded.
The script does not pin it, so it times what `npk algebra` sees.

npk is imported from PYTHONPATH when that is set, else from this checkout's
src, so the one script times any checkout:
PYTHONPATH=OTHER/src python scripts/bench_weil.py
"""

import ctypes
import json
import os
import platform
import sys
import time
import timeit

if not os.environ.get("PYTHONPATH"):
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from npk.weil import build_algebra, derivation_basis, is_derivation, parse_presentation  # noqa: E402

PRODUCT_ALGEBRAS = (
    "R[x]/(x^2)",
    "R[x]/(x^4)",
    "R[x,y]/(x^3,x^2*y,x*y^2,y^3)",
    "R[x,y]/(x^4,y^4)",
    "R[x,y,z]/(x^3,y^3,z^3)",
    "R[x,y,z]/(x^5,y^5,z^4)",
)
DERIVATION_ALGEBRAS = ("R[x,y,z]/(x^3,y^3,z^3)", "R[x,y,z]/(x^4,y^4,z^3)", "R[x,y,z]/(x^5,y^5,z^4)")


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None when it cannot be read."""
    # perfbench/run.py has the same reader, but importing it pins OpenBLAS to one thread
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def per_call_us(fn) -> float:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=5, number=number)) / number * 1e6


def best_seconds(fn) -> float:
    times = []
    while len(times) < 3 and sum(times) <= 1.0:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def products(text: str) -> dict:
    algebra = build_algebra(parse_presentation(text))
    rng = np.random.default_rng(0)
    x, y = rng.uniform(-1, 1, algebra.dim), rng.uniform(-1, 1, algebra.dim)
    u = algebra.element(x) + algebra.scalar(2.0)
    return {
        "algebra": text,
        "dim": algebra.dim,
        "mul_coeffs_us": per_call_us(lambda: algebra.mul_coeffs(x, y)),
        "left_multiplication_us": per_call_us(lambda: algebra.left_multiplication(x)),
        "invert_us": per_call_us(u.invert),
    }


def derivations(text: str) -> dict:
    presentation = parse_presentation(text)
    basis = []

    def solve():
        basis[:] = derivation_basis(build_algebra(presentation))

    solve_s = best_seconds(solve)
    algebra = basis[0].algebra
    return {
        "algebra": text,
        "dim": algebra.dim,
        "derivations": len(basis),
        "derivation_basis_s": solve_s,
        "validation_s": best_seconds(lambda: all(is_derivation(algebra, d.endo) for d in basis)),
    }


def main() -> int:
    out = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "products": [products(text) for text in PRODUCT_ALGEBRAS],
        "derivation_basis": [derivations(text) for text in DERIVATION_ALGEBRAS],
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
