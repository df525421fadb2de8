"""The fresh-process timer runs each of its cases once, and rejects bad
arguments before it copies a tree or starts a process."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_oneshot_times_every_case_in_both_bytecode_modes(tmp_path):
    out = tmp_path / "oneshot.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "oneshot.py"), "--runs", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    cases = {(c["bytecode"], c["case"]): c for c in report["cases"]}
    assert len(cases) == len(report["cases"]) == 10
    assert {mode for mode, _case in cases} == {"written", "not written"}
    for case in cases.values():
        wall = case["wall_ms"]
        assert 0 < wall["q1"] == wall["median"] == wall["q3"]
    digests = report["outputs_sha256"]
    assert digests["gw24 invariant 13 0 0 0 3"] == digests[
        "gw24 invariant 13 0 0 0 3 --cache-path d9"] == hashlib.sha256(
            b"504\n").hexdigest()


@pytest.mark.parametrize("argv", [
    ["--runs", "0"],
    ["--tree", "a=src", "--tree", "a=src"],
    ["--tree", "a=tests"],
], ids=["no runs", "same name twice", "no gw24 folder"])
def test_oneshot_rejects_bad_arguments_before_running(tmp_path, argv):
    out = tmp_path / "oneshot.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "oneshot.py"), *argv,
         "--out", str(out)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
    assert not out.exists()
