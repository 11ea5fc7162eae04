"""One pass of one workload in a fresh process: set up, run the job, verify.

Started by run.py, once per pass.  Prints one JSON line with the pass's
set-up time, job wall time, per-unit times, peak memory and failures,
and, when traced, the per-layer split.  Times are raw; ``unit_scale``
holds the factor that turns each unit's time into its time at the
reference speed (reference.py).

    python3 perfbench/worker.py --workload suite --seed 1 --size full --trace 0 --spawned-at <epoch s>
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans-out", default=None, help="write the raw spans here (.npz)")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    import reference
    import workloads

    clock = time.perf_counter
    traced_from = clock()
    setup_span = tracer.span("bench.setup") if tracer else contextlib.nullcontext()
    unit_span = tracer.span("bench.unit") if tracer else contextlib.nullcontext()
    calibrate_span = tracer.span("bench.calibrate") if tracer else contextlib.nullcontext()
    with setup_span:
        units = workloads.WORKLOADS[args.workload](args.seed, args.size)
    unit_ms = []
    setup_s = time.time() - args.spawned_at
    with calibrate_span:
        calibrator = reference.Calibrator(args.workload)
    for unit in units:
        with calibrate_span:
            calibrator.before_unit()
        t0 = clock()
        with unit_span:
            unit.output, unit.error = _run(unit)
        unit_ms.append((clock() - t0) * 1e3)
    with calibrate_span:
        calibrator.sample()
    end = clock()
    wall_s = sum(unit_ms) / 1e3  # the kernel's runs between units are not part of the job
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024.0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "unit_ms": unit_ms,
        "unit_scale": calibrator.scales(),
        "kernel_samples": len(calibrator.samples),
        "peak_rss_mb": peak_rss_mb,
        "cpu_user_s": usage.ru_utime,
        "attempted": len(units),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["traced_s"] = end - traced_from
        if args.spans_out:
            tracer.save(args.spans_out)
    failures = workloads.verify(units)
    result["failed"] = len(failures)
    result["failures"] = failures[:20]
    print(json.dumps(result))
    return 0


def _run(unit):
    try:
        return unit.run(), None
    except Exception as exc:  # a unit that raises is a failed unit; the job goes on
        return None, f"raised {type(exc).__name__}: {exc}"


if __name__ == "__main__":
    sys.exit(main())
