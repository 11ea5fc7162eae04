"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_wrong_oracle_is_a_failed_unit_not_a_crash():
    wrong = dict(workloads.DER_DIMS, **{"R[x]/(x^3)": 3})  # the true dim Der is 2
    units = workloads.build_algebra_workload(1, "tiny", der_dims=wrong)
    for unit in units:
        unit.output = unit.run()
    failures = workloads.verify(units)
    assert len(failures) == 1 and "R[x]/(x^3)" in failures[0]
    assert 0 < len(failures) / len(units) < 1


def test_exact_der_dims_match_the_known_values():
    known = dict(workloads.DER_DIMS, **{"R[x,y,z]/(x^3,y^3,z^2)": 33})
    for text, dim in known.items():
        assert workloads.exact_der_dim(text) == dim, text


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("suite", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_each_unit_is_scaled_by_the_kernel_runs_around_it():
    import reference

    cal = reference.Calibrator("suite")
    ref = cal.ref_ms
    cal.samples = [2.0, 2.0, 4.0, 4.0, 4.0]
    cal.before = [1, 1, 3]  # two units after the first kernel run, one after the third
    assert cal.scales() == [ref / 2.0, ref / 2.0, ref / 4.0]
