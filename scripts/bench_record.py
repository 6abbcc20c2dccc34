"""Record the benchmark in a BENCH file and rebuild the README performance table.

Run from the repository root:

    python3 scripts/bench_record.py record --label NAME [--checkout PATH]
    python3 scripts/bench_record.py table

``record`` runs the checkout's own ``perfbench/run.py`` (this checkout by
default) for every workload, with ``--trace 0`` and then ``--trace 1``, at
seed ``SEED`` and ``--seconds 40``.  It writes ``BENCH_<NAME>.json`` into
this checkout with each run's record line and result line exactly as the
benchmark printed them.  Both commands then rewrite the table between the
``bench-table`` markers of ``README.md`` from the newest BENCH file, the one
with the latest ``recorded_at``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
WORKLOADS = ("refine-r6", "oracle-r4", "session-r6")
SEED = 12
SECONDS = 40
BEGIN = "<!-- bench-table begin -->"
END = "<!-- bench-table end -->"
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def run_benchmark(checkout: Path, workload: str, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    argv += ["--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(argv)} failed ({done.returncode}):\n{done.stderr}")
    return {"workload": workload, "trace": trace, "record": lines[-2], "result": lines[-1]}


def record(label: str, checkout: Path) -> Path:
    runs = [
        run_benchmark(checkout, workload, trace)
        for trace in (0, 1)
        for workload in WORKLOADS
    ]
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    bench = {"label": label, "recorded_at": stamp, "seed": SEED, "seconds": SECONDS, "runs": runs}
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
    commit = json.loads(bench["runs"][0]["record"])["perfbench"]["commit"]
    header = "| metric | " + " | ".join(f"`{w}`" for w in WORKLOADS) + " |"
    rule = "|---" * (len(WORKLOADS) + 1) + "|"
    lines = [
        BEGIN,
        f"Generated by `scripts/bench_record.py` from `{path.name}` (commit "
        f"`{(commit or 'unknown')[:7]}`, seed {bench['seed']}, "
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
