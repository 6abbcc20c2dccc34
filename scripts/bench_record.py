"""Record the benchmark in a BENCH file and rebuild the README performance table.

Run from the repository root:

    python3 scripts/bench_record.py record --label NAME [--checkout PATH]
    python3 scripts/bench_record.py table

``record`` runs the checkout's own ``perfbench/run.py`` (this checkout by
default) for every workload, with ``--trace 0`` and then ``--trace 1``, at
seed ``SEED`` and ``--seconds 40``.  It writes ``BENCH_<NAME>.json`` into
this checkout with each run's record line and result line exactly as the
benchmark printed them, and the checkout's commit, marked ``+dirty`` when
its tracked files differ from that commit.  It also runs each command of
``HEAVY`` cold from the checkout's ``src/``, ``HEAVY_RUNS`` times, and keeps
under the key ``heavy`` each run's wall and CPU seconds and peak RSS (from
``os.wait4``) and their medians.  A cold ``perfbench/calibrate.py`` runs
before each command's first run and after each run, and each run also keeps
``scaled_wall_s``: its wall time scaled to the benchmark's reference host
speed, as ``perfbench/run.py`` scales its own rounds.  Both commands then
rewrite the table between the ``bench-table`` markers of ``README.md`` from
the end-to-end runs of the newest BENCH file, the one with the latest
``recorded_at``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the benchmark's modules import each other by bare name
sys.path.insert(0, str(ROOT / "perfbench"))
from run import scaled  # noqa: E402

README = ROOT / "README.md"
CALIBRATE = ROOT / "perfbench" / "calibrate.py"
WORKLOADS = ("refine-r6", "oracle-r4", "session-r6")
SEED = 12
SECONDS = 40
BEGIN = "<!-- bench-table begin -->"
END = "<!-- bench-table end -->"
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
# rank-7 commands, above the benchmark's rank-6 workloads; the left orbits
# are the largest rank-7 dump and the largest rank-7 peak RSS.  The rank-5
# verifies run the Hecke oracle and its certificate at its largest rank,
# at three weights, above the benchmark's rank-4 oracle workload
HEAVY = {
    "cells-r7": ["cells", "--n", "7", "--a", "1", "--b", "8", "--method", "vogan"],
    "table-r7": ["table", "--exact", "--max-n", "7"],
    "orbits-left-r7": ["orbits", "--n", "7", "--a", "1", "--b", "8", "--side", "left"],
    "verify-r5": ["verify", "--n", "5", "--a", "1", "--b", "5", "--allow-heavy"],
    "verify-r5-1-4": ["verify", "--n", "5", "--a", "1", "--b", "4", "--allow-heavy"],
    "verify-r5-2-7": ["verify", "--n", "5", "--a", "2", "--b", "7", "--allow-heavy"],
}
HEAVY_RUNS = 3


def run_benchmark(checkout: Path, workload: str, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(argv)} failed ({done.returncode}):\n{done.stderr}")
    return {"workload": workload, "trace": trace, "record": lines[-2], "result": lines[-1]}


def run_cold(checkout: Path, argv: list[str]) -> dict:
    """One cold ``bncells`` process of the checkout, its output discarded."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    with open(os.devnull, "wb") as sink:
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "bncells", *argv], cwd=checkout, env=env, stdout=sink
        )
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if child.returncode != 0:
        sys.exit(f"bncells {' '.join(argv)} failed ({child.returncode})")
    cpu = usage.ru_utime + usage.ru_stime
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": usage.ru_maxrss / 1024}


def calibrate() -> float:
    """Wall seconds of one cold ``CALIBRATE`` process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(CALIBRATE)], check=True)
    return time.perf_counter() - start


def run_heavy(checkout: Path) -> dict:
    """Each ``HEAVY`` command's cold runs and calibrations, and each measure's median.

    Run ``i`` ran between calibrations ``i`` and ``i + 1``; its
    ``scaled_wall_s`` is ``perfbench/run.py``'s ``scaled`` of its ``wall_s``.
    """
    out = {}
    for name, argv in HEAVY.items():
        runs, calibrations = [], [calibrate()]
        for _ in range(HEAVY_RUNS):
            runs.append(run_cold(checkout, argv))
            calibrations.append(calibrate())
        walls = scaled([run["wall_s"] for run in runs], calibrations)
        for run, wall in zip(runs, walls):
            run["scaled_wall_s"] = wall
        medians = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
        out[name] = {
            "argv": argv, **medians, "calibration_s": calibrations, "runs": runs
        }
    return out


def checkout_commit(checkout: Path) -> str | None:
    """The checkout's short HEAD, ``+dirty`` if tracked files changed; None outside git."""

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return None
    changed = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("+dirty" if changed else "")


def record(label: str, checkout: Path) -> Path:
    commit = checkout_commit(checkout)
    runs = [
        run_benchmark(checkout, workload, trace)
        for trace in (0, 1)
        for workload in WORKLOADS
    ]
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    bench = {
        "label": label,
        "recorded_at": stamp,
        "commit": commit,
        "seed": SEED,
        "seconds": SECONDS,
        "runs": runs,
        "heavy": run_heavy(checkout),
    }
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    return path


def newest_bench() -> Path:
    paths = list(ROOT.glob("BENCH_*.json"))
    if not paths:
        sys.exit("no BENCH_*.json file to build the table from")
    return max(paths, key=lambda p: json.loads(p.read_text(encoding="utf-8"))["recorded_at"])


def _cell(metric: dict | None) -> str:
    if metric is None or not metric["value"]:
        return "–"
    value = metric["value"]
    return f"{value:.1f}" if metric["unit"] == "MB" else f"{value:.3f}"


def render_table(path: Path) -> str:
    """The README block: end-to-end medians, then per-layer seconds, per workload."""
    bench = json.loads(path.read_text(encoding="utf-8"))
    results = {
        (run["workload"], run["trace"]): json.loads(run["result"]) for run in bench["runs"]
    }
    header = "| metric | " + " | ".join(f"`{w}`" for w in WORKLOADS) + " |"
    rule = "|---" * (len(WORKLOADS) + 1) + "|"
    lines = [
        BEGIN,
        f"Generated by `scripts/bench_record.py` from `{path.name}` (commit "
        f"`{bench['commit'] or 'unknown'}`, seed {bench['seed']}, "
        f"`--seconds {bench['seconds']}`).",
        "",
        "End to end (`--trace 0`; times scaled to the reference host, RSS in MB):",
        "",
        header,
        rule,
    ]
    for name in END_TO_END:
        cells = [_cell(results[w, 0]["metrics"].get(name)) for w in WORKLOADS]
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    failed = [f"{results[w, 0]['failed']}/{results[w, 0]['attempted']}" for w in WORKLOADS]
    lines.append("| failed / attempted | " + " | ".join(failed) + " |")
    lines += ["", "Per layer (`--trace 1`; seconds of one traced run, – where unused):", "", header, rule]
    names = [
        name
        for name, metric in results[WORKLOADS[0], 1]["metrics"].items()
        if metric["unit"] == "s"
    ]
    for name in names:
        cells = [_cell(results[w, 1]["metrics"].get(name)) for w in WORKLOADS]
        if any(cell != "–" for cell in cells):
            lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    lines.append(END)
    return "\n".join(lines)


def readme_table(text: str) -> str:
    """The block between the markers, markers included."""
    start, end = text.index(BEGIN), text.index(END) + len(END)
    return text[start:end]


def write_table() -> None:
    text = README.read_text(encoding="utf-8")
    README.write_text(
        text.replace(readme_table(text), render_table(newest_bench())), encoding="utf-8"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_record = sub.add_parser("record", help="run the benchmark and write a BENCH file")
    p_record.add_argument("--label", required=True)
    p_record.add_argument(
        "--checkout", type=Path, default=ROOT, help="checkout whose benchmark runs"
    )
    sub.add_parser("table", help="rebuild the README table from the newest BENCH file")
    args = parser.parse_args(argv)
    if args.command == "record":
        print(record(args.label, args.checkout.resolve()))
    write_table()
    return 0


if __name__ == "__main__":
    sys.exit(main())
