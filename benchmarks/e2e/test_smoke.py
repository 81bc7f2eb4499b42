"""Run the benchmark at smoke size and check its documents against
``BENCHMARK.json``: every declared metric on every workload, matching
units, valid names, all correctness checks passing."""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e.report import ROOT, load_benchmark

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(tmp_path, *extra: str) -> tuple[dict, dict]:
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--smoke",
         "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text()), json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
def test_smoke_documents_match_benchmark(tmp_path, traced):
    bench = load_benchmark()
    doc, line = _run(tmp_path, *(["--traced"] if traced else []))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}

    declared = bench["per_layer"] if traced else bench["end_to_end"]
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
    assert {w["name"] for w in bench["workloads"]} == set(doc["workloads"])
    for name, wdoc in doc["workloads"].items():
        assert wdoc["correct"], wdoc["problems"]
        assert NAME.fullmatch(name)
        for m in bench["end_to_end"]:
            assert wdoc["end_to_end"][m["name"]]["value"] > 0, (name, m)
        if traced:
            assert set(wdoc["per_layer"]) == {m["name"] for m in declared}
            assert not wdoc["missing_hooks"]
        for m in declared:
            got = line["metrics"][f"{name}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
    assert doc["env"]["nproc"] >= 1


def test_compare_flags_a_regression(tmp_path):
    bench = load_benchmark()
    doc, _ = _run(tmp_path, "--workload", "r50-x86-b512")
    base = tmp_path / "base.json"
    base.write_text(json.dumps(doc))
    slow = doc["workloads"]["r50-x86-b512"]["end_to_end"]["slow_path_ms"]
    for key in ("value", "q1", "q3"):
        slow[key] *= 1 + 2 * next(m["bound"] for m in bench["end_to_end"]
                                  if m["name"] == "slow_path_ms")
    new = tmp_path / "new.json"
    new.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "compare", str(base), str(new)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert re.search(r"r50-x86-b512\s+slow_path_ms\s+worse", proc.stdout)
    same = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "compare", str(base), str(base)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert same.returncode == 0, same.stdout
