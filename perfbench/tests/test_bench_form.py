"""BENCHMARK.json has its fixed form and agrees with the benchmark's code."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from layers import PER_LAYER
from run import E2E_UNITS, WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
DOC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_command():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DOC["command"] == ["python3", "perfbench/run.py"]
    assert DOC["paths"] == ["perfbench"]
    assert isinstance(DOC["run_seconds"], int) and 1 <= DOC["run_seconds"] <= 60


def test_workloads():
    assert [w["name"] for w in DOC["workloads"]] == list(WORKLOADS)
    assert list(WORKLOADS) == ["train-two-stream", "train-baseline", "gen-eval"]
    for w in DOC["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == WORKLOADS[w["name"]].why
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]


def test_end_to_end_metrics():
    assert [(m["name"], m["unit"]) for m in DOC["end_to_end"]] == list(E2E_UNITS.items())
    for m in DOC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in DOC["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower", "bound": setup["bound"]}
    assert setup["bound"] == max(m["bound"] for m in DOC["end_to_end"])


def test_per_layer_metrics():
    assert [(m["name"], m["unit"]) for m in DOC["per_layer"]] == list(PER_LAYER)
    assert 1 <= len(DOC["per_layer"]) <= 128
    for m in DOC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert m["better"] in ("higher", "lower")


def test_names_and_units():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in DOC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in DOC[key])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gen-eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
