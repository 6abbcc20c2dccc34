"""The programs outside the package that drive it still run against it.

``perfbench/child.py trace`` calls the library layer by layer and reads the
counters of its caches, so a change to those calls or counters shows here
before it breaks the benchmark.  ``verify_small_ranks.py`` and
``area_atlas.py`` get a smoke run each, the rank-5 gate of
``verify_small_ranks.py`` is checked, and the README performance table must
be the one ``bench_record.py`` builds from the newest BENCH file (no
benchmark runs here); its heavy section is run on a rank-3 command with a
stand-in calibration job, and a record names the commit it measured.
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
# profile and the orbits once per side; the hits count every later lookup,
# including the ψ lookup of each run's rounds, which ``counts()`` rebuilds,
# the one of the rank's recording fibers, read once for every ``a <= b``
# weight, and the right orbits the left ones are relabelled from.
EXPECTED_COUNTS = {
    "refine-r6": {
        "descents.seed_classes": 18,
        "vogan.rounds": 1,
        "round_classes": [[18, 20]],
        "vogan.cache_hits": 4,
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
        "vogan.cache_hits": 10,
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


def load_script(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_verify_script_gates_rank_five_before_any_basis(monkeypatch, capsys):
    script = load_script("verify_small_ranks")
    built = []
    monkeypatch.setattr(script, "kl_basis", lambda *args, **kwargs: built.append(args))
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--max-n", "5"])
    assert exit_info.value.code == 2
    assert "--allow-heavy" in capsys.readouterr().err
    assert built == []


def test_readme_table_is_built_from_the_newest_bench_file():
    script = load_script("bench_record")
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert script.readme_table(readme) == script.render_table(script.newest_bench())


def test_heavy_runs_keep_medians_beside_the_runs_the_table_ignores(
    monkeypatch, tmp_path
):
    script = load_script("bench_record")
    monkeypatch.setattr(script, "HEAVY", {"cells-r3": ["cells", "--n", "3"]})
    # a cheap stand-in for the calibration job, still a cold process
    stand_in = tmp_path / "calibrate.py"
    stand_in.write_text("")
    monkeypatch.setattr(script, "CALIBRATE", stand_in)
    heavy = script.run_heavy(ROOT)
    entry = heavy["cells-r3"]
    assert entry["argv"] == ["cells", "--n", "3"]
    assert len(entry["runs"]) == script.HEAVY_RUNS
    for key in ("wall_s", "scaled_wall_s", "cpu_s", "peak_rss_mb"):
        values = sorted(run[key] for run in entry["runs"])
        assert values[0] > 0 and entry[key] == values[len(values) // 2]
    # each run is scaled by the calibrations on either side of it, to the
    # reference that perfbench/run.py holds
    from run import CALIBRATION_REF_S

    calibrations = entry["calibration_s"]
    assert len(calibrations) == script.HEAVY_RUNS + 1 and min(calibrations) > 0
    for i, run in enumerate(entry["runs"]):
        mean = (calibrations[i] + calibrations[i + 1]) / 2
        assert run["scaled_wall_s"] == pytest.approx(
            run["wall_s"] * CALIBRATION_REF_S / mean
        )
    # a BENCH file with a heavy section renders the same end-to-end table
    newest = script.newest_bench()
    bench = json.loads(newest.read_text(encoding="utf-8"))
    with_heavy = tmp_path / newest.name
    with_heavy.write_text(json.dumps({**bench, "heavy": heavy}), encoding="utf-8")
    assert script.render_table(with_heavy) == script.render_table(newest)


def test_a_failing_heavy_command_stops_the_record():
    script = load_script("bench_record")
    with pytest.raises(SystemExit, match="failed"):
        script.run_cold(ROOT, ["cells", "--n", "3", "--method", "nonsense"])


def test_a_record_keeps_the_heavy_runs_and_names_a_dirty_tree(monkeypatch, tmp_path):
    script = load_script("bench_record")
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    assert script.checkout_commit(checkout) is None

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=checkout,
            check=True,
            capture_output=True,
        )

    git("init", "-q")
    (checkout / "code.py").write_text("x = 1\n")
    git("add", "code.py")
    git("commit", "-q", "-m", "one")
    (checkout / "untracked.txt").write_text("")
    head = script.checkout_commit(checkout)
    assert head and "+" not in head
    (checkout / "code.py").write_text("x = 2\n")
    assert script.checkout_commit(checkout) == head + "+dirty"

    monkeypatch.setattr(script, "ROOT", tmp_path)
    monkeypatch.setattr(script, "run_benchmark", lambda *args: {"workload": args[1]})
    monkeypatch.setattr(script, "run_heavy", lambda checkout: {"cells-r3": {}})
    bench = json.loads(script.record("t", checkout).read_text(encoding="utf-8"))
    assert bench["commit"] == head + "+dirty"
    assert bench["heavy"] == {"cells-r3": {}}
