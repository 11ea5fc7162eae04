"""npk benchmark: one workload, one seed, closed loop, one client.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 40 --trace 0

Each pass of the workload runs in a fresh process (worker.py), because a
CLI user pays the import and the cold expression caches on every
invocation; passes run one after another while the next one can still
end within --seconds.  Every time is scaled to the reference speed
measured during its pass (reference.py); memory is not.
With --trace 0 the last line of stdout is a JSON object with every
end-to-end metric of BENCHMARK.json; with --trace 1 untraced and traced
passes alternate and it carries every per-layer metric instead.  The
lines before it record the environment and the tail percentile used.
Exit code 0 with a result; 2 on a usage error or when npk's sources are
missing; 1 when a pass crashed or timed out.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".bench_out"
DEADLINE_S = 170.0          # every run must end within 180 s
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SPLIT_LIMIT = 0.10          # layer self times must account for the traced wall time

# One BLAS thread: with two threads on two shared vCPUs, the SVD's time
# depends on what the host's other tenants run on the second vCPU.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read from the library itself."""
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


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


def tail(values: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten units beyond it (nearest rank)."""
    pct = next((p for p in TAIL_LADDER if len(values) * (1 - p / 100) >= 10), 50.0)
    ordered = sorted(values)
    return pct, ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def unit_medians(passes: list[dict]) -> list[float]:
    """Every pass runs the same units; a unit's time is its median over the passes."""
    return [statistics.median(times) for times in zip(*(p["unit_ms"] for p in passes))]


def run_pass(args, trace: bool, index: int, started: float) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise TimeoutError("no time left for another pass")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--trace", str(int(trace)),
           "--spawned-at", repr(time.time())]
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(SPANS_DIR / f"spans-{args.workload}.npz")]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    if out.returncode != 0 or not out.stdout.strip():
        raise RuntimeError(f"pass {index} exited {out.returncode}: {out.stderr.strip()[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long job for the smoke test")
    args = parser.parse_args()
    if not (ROOT / "src" / "npk" / "__init__.py").is_file():
        print(f"run.py: npk sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    env = environment(args.workload, args.seed)
    passes: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    try:
        # closed loop: start another pass only while it can end within --seconds
        while not passes or time.monotonic() - started + longest <= args.seconds:
            begun = time.monotonic()
            passes.append(run_pass(args, False, len(passes) + len(traced), started))
            if args.trace:
                traced.append(run_pass(args, True, len(passes) + len(traced), started))
            longest = max(longest, time.monotonic() - begun)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    everything = passes + traced
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)
    for p in everything:
        p["setup_raw_s"] = p["setup_s"]
        p["setup_s"] *= p["unit_scale"][0]  # the kernel runs right after set-up
        p["wall_raw_s"] = p["wall_s"]
        p["unit_ms"] = [t * k for t, k in zip(p["unit_ms"], p["unit_scale"])]
        p["wall_s"] = sum(p["unit_ms"]) / 1e3
        p["scale"] = p["wall_s"] / p["wall_raw_s"]
    units = unit_medians(passes)
    pct, tail_ms = tail(units)
    env.update(passes=len(passes), traced_passes=len(traced), units=len(units),
               tail_percentile=pct, units_beyond_tail=sum(1 for u in units if u > tail_ms),
               cpu_user_s=statistics.median(p["cpu_user_s"] for p in passes),
               setup_raw_s_passes=[p["setup_raw_s"] for p in passes],
               wall_raw_s_passes=[p["wall_raw_s"] for p in passes],
               scale_passes=[p["scale"] for p in passes],
               kernel_samples=sum(p["kernel_samples"] for p in passes))
    correct = failed == 0
    for p in everything:
        for problem in p["failures"]:
            print(f"FAILED {problem}", file=sys.stderr)

    if args.trace:
        values, gap = _layer_metrics(passes, traced)
        env["layer_split_gap"] = gap
        if gap > SPLIT_LIMIT:
            print(f"run.py: layer split leaves {gap:.1%} of traced wall time unaccounted", file=sys.stderr)
            correct = False
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "wall_s": sum(units) / 1e3,
            "unit_ms_p50": statistics.median(units),
            "unit_ms_tail": tail_ms,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        wanted = spec["end_to_end"]
    print(json.dumps({"environment": env}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _layer_metrics(passes: list[dict], traced: list[dict]) -> tuple[dict, float]:
    """Median per-layer figures over the traced passes, the tracing overhead and the worst split gap."""
    values = {}
    for key in traced[0]["layers"]:
        figures = [p["layers"][key] * (p["scale"] if key.endswith(".self_s") else 1) for p in traced]
        # counts repeat exactly from pass to pass; keep them whole numbers
        whole = all(isinstance(v, int) for v in figures)
        values[key] = statistics.median_low(figures) if whole else statistics.median(figures)
    gaps = []
    for p in traced:
        layers = p["layers"]
        covered = sum(v for k, v in layers.items() if k.count(".") == 1 and k.endswith(".self_s"))
        gaps.append(abs(p["traced_s"] - covered) / p["traced_s"])
    gap = max(gaps)
    values["tracing_overhead_s"] = (sum(unit_medians(traced)) - sum(unit_medians(passes))) / 1e3
    values["layer_split_gap"] = gap
    return values, gap


if __name__ == "__main__":
    sys.exit(main())
