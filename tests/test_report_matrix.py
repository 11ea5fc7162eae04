import importlib.util
import json
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "report_matrix", os.path.join(os.path.dirname(__file__), "..", "scripts", "report_matrix.py"))
report_matrix = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_matrix)


def _report(records, code=0, stderr="", command="check --suite all --json"):
    body = json.dumps({"pass": all(r["pass"] for r in records), "records": records}, separators=(",", ":"))
    return f"$ npk {command}\nexit {code}\n--- stdout\n{body}\n--- stderr\n{stderr}"


def _records(first=1.5e-15, second="nan", passed=True):
    return [{"check": "jacobi", "max_residual": first, "pass": passed, "seed": 0},
            {"check": "prop12", "max_residual": second, "pass": passed, "seed": 0}]


def _write(directory, files):
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text)
    return str(directory)


LIFT = '$ npk lift --json\nexit 0\n--- stdout\n{"result":[0.5,1]}\n--- stderr\n'


def test_compare_lists_moved_residuals_only(tmp_path, capsys):
    old = _write(tmp_path / "old", {"a.txt": _report(_records()), "lift.txt": LIFT})
    new = _write(tmp_path / "new", {"a.txt": _report(_records(first=2.5e-15)), "lift.txt": LIFT})
    assert report_matrix.compare(old, new) == 0
    captured = capsys.readouterr()
    assert captured.out == "a.txt jacobi: 1.5e-15 -> 2.5e-15\n1 residuals moved; no other difference\n"
    assert captured.err == ""


def test_compare_of_equal_matrices_moves_nothing(tmp_path, capsys):
    files = {"a.txt": _report(_records()), "lift.txt": LIFT}
    assert report_matrix.compare(_write(tmp_path / "old", files), _write(tmp_path / "new", files)) == 0
    assert capsys.readouterr().out == "0 residuals moved; no other difference\n"


@pytest.mark.parametrize(
    "changed",
    [
        {"a.txt": _report(_records(passed=False))},  # pass/fail
        {"a.txt": _report(_records()[::-1])},  # record order
        {"a.txt": _report([{**r, "check": "other"} for r in _records()])},  # record name
        {"a.txt": _report([{**r, "seed": 1} for r in _records()])},  # seed
        {"a.txt": _report(_records(), code=1)},  # exit code
        {"a.txt": _report(_records(), stderr="npk: warning\n")},  # stderr
        {"a.txt": _report(_records(), command="check --suite all --json --seed 1")},  # command
        {"lift.txt": LIFT.replace("0.5", "0.25")},  # a value that is not a residual
        {"b.txt": LIFT},  # a file only on one side
    ],
    ids=["pass", "order", "name", "seed", "exit", "stderr", "command", "value", "extra-file"],
)
def test_compare_fails_on_any_other_difference(tmp_path, capsys, changed):
    files = {"a.txt": _report(_records()), "lift.txt": LIFT}
    old = _write(tmp_path / "old", files)
    new = _write(tmp_path / "new", {**files, **changed})
    assert report_matrix.compare(old, new) == 1
    captured = capsys.readouterr()
    assert captured.err and captured.out.endswith("other differences, see stderr\n")
