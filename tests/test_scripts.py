"""The programs outside the package that drive it still run against it.

``perfbench/child.py trace`` calls the library layer by layer and reads the
counters of its caches, so a change to those calls or counters shows here
before it breaks the benchmark.  The two scripts under ``scripts/`` get a
smoke run each, and the rank-5 gate of ``verify_small_ranks.py`` is checked.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_python(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *map(str, args)],
        cwd=ROOT,
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )


def request(kind, argv, **fields):
    return {"kind": kind, "argv": argv, "n": 3, "weight": [1, 3], **fields}


WEIGHT_ARGS = ["--a", "1", "--b", "3"]
SESSION_REQUESTS = [
    request("cells", ["cells", "--n", "3", "--method", "vogan", *WEIGHT_ARGS]),
    request("orbits-left", ["orbits", "--n", "3", "--side", "left", *WEIGHT_ARGS]),
    request("element", ["element", "--w", "2,-1,3", *WEIGHT_ARGS], window="2,-1,3"),
    request(
        "element-quick",
        ["element", "--w", "-3,1,2", *WEIGHT_ARGS, "--quick"],
        window="-3,1,2",
    ),
    {"kind": "area", "n": 3, "argv": ["area", "--n", "3"]},
    {"kind": "knuth", "n": 3},
]

TRACE_INPUTS = {
    "refine-r6": {"n": 3, "weight": [1, 3]},
    "oracle-r4": {"n": 3, "weight": [1, 7]},
    "session-r6": {"n": 3, "requests": SESSION_REQUESTS},
}

# ``vogan.cache_misses`` counts ψ once per rank, the refinement once per gate
# profile and the orbits once per side; the hits count every later lookup.
EXPECTED_COUNTS = {
    "refine-r6": {
        "descents.seed_classes": 18,
        "vogan.rounds": 1,
        "round_classes": [[18, 20]],
        "vogan.cache_hits": 2,
        "vogan.cache_misses": 2,
    },
    "oracle-r4": {
        "hecke.cells": 20,
        "hecke.mu_entries": 46,
        "round_classes": [],
        "vogan.cache_hits": 0,
        "vogan.cache_misses": 0,
    },
    "session-r6": {
        "descents.seed_classes": 18,
        "vogan.rounds": 1,
        "round_classes": [[18, 20]],
        "vogan.cache_hits": 8,
        "vogan.cache_misses": 4,
        "knuth.classes": 20,
    },
}


@pytest.mark.parametrize("workload", sorted(TRACE_INPUTS))
def test_benchmark_trace_runs_at_rank_three(workload, tmp_path):
    inputs = {**TRACE_INPUTS[workload], "workload": workload, "run_id": "test"}
    inputs_path = tmp_path / "inputs.json"
    inputs_path.write_text(json.dumps(inputs))
    result_path = tmp_path / "result.json"
    done = run_python(
        "perfbench/child.py", "trace", inputs_path, result_path, tmp_path / "spans"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(result_path.read_text())
    for key, value in EXPECTED_COUNTS[workload].items():
        assert result[key] == value, key
    assert all(r["code"] == 0 for r in result.get("records", ()))


@pytest.mark.parametrize(
    "argv",
    [
        ("scripts/verify_small_ranks.py", "--max-n", "3"),
        ("scripts/area_atlas.py", "--n", "3"),
    ],
    ids=lambda argv: Path(argv[0]).stem,
)
def test_script_runs(argv):
    done = run_python(*argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_verify_script_gates_rank_five_before_any_basis(monkeypatch, capsys):
    path = ROOT / "scripts" / "verify_small_ranks.py"
    spec = importlib.util.spec_from_file_location("verify_small_ranks", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    built = []
    monkeypatch.setattr(script, "kl_basis", lambda *args, **kwargs: built.append(args))
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--max-n", "5"])
    assert exit_info.value.code == 2
    assert "--allow-heavy" in capsys.readouterr().err
    assert built == []
