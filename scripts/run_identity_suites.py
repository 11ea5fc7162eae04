"""Run every identity suite over the algebra catalog and print a summary table.

Usage: python scripts/run_identity_suites.py [seed] [samples]
"""

import os
import sys
import time
from functools import reduce

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from npk.checks import CATALOG, _worst, run_suite
from npk.points import Chart
from npk.weil import build_algebra, parse_presentation


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 42
    samples = int(sys.argv[2]) if len(sys.argv) > 2 else 50
    chart = Chart.cube(2)
    failures = 0
    print(f"seed={seed} samples={samples} chart={chart.text()}")
    print(f"{'algebra':<34} {'suite':<6} {'worst residual':>15} {'time':>7}  status")
    for text in CATALOG:
        algebra = build_algebra(parse_presentation(text))
        for suite in ("lie", "lift", "forms"):
            t0 = time.time()
            report = run_suite(suite, algebra, chart, seed=seed, samples=samples)
            # NaN-sticky, as in the records: a plain max would hide a NaN residual
            worst = reduce(_worst, (r.max_residual for r in report.records), 0.0)
            status = "pass" if report.passed else "FAIL"
            failures += 0 if report.passed else 1
            print(f"{text:<34} {suite:<6} {worst:>15.3e} {time.time() - t0:>6.1f}s  {status}")
    print("all suites passed" if failures == 0 else f"{failures} suite(s) FAILED")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
