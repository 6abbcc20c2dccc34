"""The bncells benchmark: cold CLI runs, a warm session, a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload refine-r6 --seed 1 --seconds 40 --trace 0

Workloads (inputs drawn from ``--seed`` by ``workloads.py``):

``refine-r6``
    cold ``bncells cells --n 6 --method vogan`` at a dominant weight: the
    group-wide refinement, from enumeration to the TSV dump.
``oracle-r4``
    cold ``bncells cells --n 4 --method oracle-kl``: the Hecke-algebra
    oracle, its bar check and its left cells.
``session-r6``
    one warm process sending a seeded stream of rank-6 ``cells``, ``orbits``,
    ``element`` and ``area`` requests through ``bncells.cli.main``, plus one
    ``knuth_classes(6)`` call.

With ``--trace 0`` the run repeats rounds of three cold processes (a
set-up, the workload, ``calibrate.py``) for ``--seconds`` seconds, at least
one round, and reports the end-to-end metrics: medians over the run of the
times scaled to a reference host speed, and of the peak RSS.
With ``--trace 1`` it runs the workload once untraced and once traced
(``child.py trace``) and reports the per-layer metrics.  Every output is checked against
``fixtures.json``; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("refine-r6", "oracle-r4", "session-r6")
# about the median wall time of one cold ``calibrate.py`` on the 2-core VM
# where the bounds were set; timed runs report their times at this host speed
CALIBRATION_REF_S = 1.0
CHILD_TIMEOUT_S = 170
# each workload's shared index, built in a cold process that imports every layer
SETUP_CODE = {
    "refine-r6": "from bncells.group import group_elements; group_elements(6)",
    "oracle-r4": "from bncells.hecke import group_tables; group_tables(4)",
    "session-r6": "from bncells.group import group_elements; group_elements(6)",
}

# the fixture each cold workload's TSV dump is checked against
WORKLOAD_DUMPS = {"refine-r6": "cells n=6 dominant", "oracle-r4": "cells-oracle n=4 dominant"}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# spans the traced runs record, in dependency order
LAYERS = (
    "cli.import",
    "group.enumerate",
    "group.inverse_table",
    "descents.seed",
    "vogan.epsilon",
    "vogan.psi",
    "vogan.ext_J",
    "vogan.ext_K",
    "vogan.refine",
    "vogan.orbits",
    "vogan.tsv",
    "hecke.tables",
    "hecke.basis",
    "hecke.bar_check",
    "hecke.scc",
    "area.decomposition",
    "knuth.classes",
    "cli.cells",
    "cli.orbits",
    "cli.element",
)
ROUND_SLOTS = 7  # class counts after rounds 0-6; a rank-6 refinement is stable by then
EXACT_COUNTS = (
    "descents.seed_classes",
    "vogan.rounds",
    "hecke.cells",
    "hecke.mu_entries",
    "knuth.classes",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in LAYERS}
    units["vogan.refine_self_s"] = "s"
    units["trace.overhead_s"] = "s"
    units.update({"element_p50_ms": "ms", "element_p95_ms": "ms"})
    units.update({f"mem.{name}.rss_mb": "MB" for name in LAYERS})
    units.update({"vogan.cache_hits": "count", "vogan.cache_misses": "count"})
    units["vogan.cache_hit_ratio"] = "ratio"
    units.update({name: "count" for name in EXACT_COUNTS})
    units.update({f"vogan.round_classes.{k}": "count" for k in range(ROUND_SLOTS)})
    return units


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes


def run_child(argv: list[str], sink=None) -> Child:
    """Run one process to its end; wall time from spawn to exit.

    Standard output goes to ``sink`` chunk by chunk when one is given, and is
    kept in ``Child.stdout`` otherwise.  Peak RSS comes from this child's own
    rusage (``os.wait4``): ``RUSAGE_CHILDREN`` would keep the largest child
    reaped so far.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    chunks = []
    try:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            if sink is None:
                chunks.append(chunk)
            else:
                sink(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024, b"".join(chunks))


def cli_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "bncells", *argv]


def run_script(mode: str, payload: dict, *extra: Path) -> tuple[Child, dict | None]:
    """Run ``child.py MODE`` on ``payload``; return the process and its result."""
    tag = f"{os.getpid()}-{mode}"
    inputs, result = WORK / f"{tag}-inputs.json", WORK / f"{tag}-result.json"
    inputs.write_text(json.dumps(payload), encoding="utf-8")
    result.unlink(missing_ok=True)
    try:
        child = run_child(
            [sys.executable, str(BENCH / "child.py"), mode, str(inputs), str(result), *map(str, extra)]
        )
        data = json.loads(result.read_text(encoding="utf-8")) if result.exists() else None
    finally:
        inputs.unlink(missing_ok=True)
        result.unlink(missing_ok=True)
    return child, data


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


class Tally:
    """Operations attempted and failed; the first few failures are kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[: max(0, 10 - len(self.errors))])

    def process(self, child: Child, what: str) -> None:
        self.add([] if child.code == 0 else [f"{what}: exit {child.code}"])


def percentile(values: list[float], share: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def session_records(child: Child, result: dict | None, requests, fixtures, tally) -> list[float]:
    """Check a session's requests; return its element latencies in ms."""
    tally.process(child, "session process")
    records = result["records"] if result else []
    for errors in checks.check_requests(requests, records, fixtures):
        tally.add(errors)
    return [r["ms"] for r in records if r["kind"].startswith("element") and r["code"] == 0]


def run_rep(name: str, inputs: dict, fixtures: dict, tally: Tally) -> tuple[Child, list[float]]:
    """One cold run of the workload's own process, checked."""
    if name == "session-r6":
        child, result = run_script("session", {"requests": inputs["requests"]})
        return child, session_records(child, result, inputs["requests"], fixtures, tally)
    dump = checks.DumpReader()
    child = run_child(cli_argv(inputs["argv"]), sink=dump.feed)
    want = fixtures["dumps"][WORKLOAD_DUMPS[name]]
    tally.add(checks.check_dump(child.code, dump.sha256, dump.classes, want, inputs["argv"][0]))
    return child, []


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def element_percentiles(latencies: list[float], tally: Tally) -> dict:
    """Median and p95 of element latencies; p95 needs 10 samples above it."""
    if not latencies:
        return {"element_p50_ms": 0.0, "element_p95_ms": 0.0, "element_samples": 0}
    p95, beyond = percentile(latencies, 0.95)
    if beyond < 10:
        tally.add([f"only {beyond} element samples above p95; need 10"])
    return {
        "element_p50_ms": percentile(latencies, 0.50)[0],
        "element_p95_ms": p95,
        "element_samples": len(latencies),
    }


def calibrate(tally: Tally) -> float:
    """Wall time of one cold ``calibrate.py`` process."""
    child = run_child([sys.executable, str(BENCH / "calibrate.py")])
    tally.process(child, "calibration")
    return child.wall_s


def scaled(times: list[float], calibrations: list[float]) -> list[float]:
    """Each round's time at the reference speed.

    Round ``i`` ran between calibrations ``i`` and ``i + 1``; its time is
    multiplied by ``CALIBRATION_REF_S`` over their mean.
    """
    return [
        t * CALIBRATION_REF_S / statistics.fmean(calibrations[i : i + 2])
        for i, t in enumerate(times)
    ]


def timed(name: str, inputs: dict, seconds: float, fixtures: dict, tally: Tally) -> tuple[dict, dict]:
    """Rounds of three cold processes for ``seconds``: set-up, workload, calibration.

    The host's speed drifts by a fifth within a minute, and every cold
    process running at the same moment slows alike.  So each set-up and
    workload process is scaled by ``CALIBRATION_REF_S`` over the mean of the
    calibrations on either side of it, and each metric is a median of the
    scaled times.  The raw medians go in the run record.
    """
    calibrations = [calibrate(tally)]
    setups: list[Child] = []
    reps: list[Child] = []
    latencies: list[float] = []

    def round_s() -> float:
        return sum(statistics.median(times) for times in (
            calibrations, [c.wall_s for c in setups], [c.wall_s for c in reps]))

    start = time.perf_counter()
    # as many whole rounds as fit in ``seconds``, judged by the medians so
    # far, and at least one; a slower machine runs fewer, not longer
    while not reps or time.perf_counter() - start + round_s() <= seconds:
        setups.append(run_child([sys.executable, "-c", "import bncells.cli; " + SETUP_CODE[name]]))
        tally.process(setups[-1], "setup")
        child, element_ms = run_rep(name, inputs, fixtures, tally)
        reps.append(child)
        latencies += element_ms
        calibrations.append(calibrate(tally))
    metrics = {
        "wall_s": statistics.median(scaled([c.wall_s for c in reps], calibrations)),
        "setup_s": statistics.median(scaled([c.wall_s for c in setups], calibrations)),
        "peak_rss_mb": statistics.median(c.rss_mb for c in reps),
    }
    info = {
        "samples": {"wall_s": len(reps), "setup_s": len(setups)},
        "raw_wall_s": statistics.median(c.wall_s for c in reps),
        "raw_setup_s": statistics.median(c.wall_s for c in setups),
        "wall_s_each": [c.wall_s for c in reps],
        "setup_s_each": [c.wall_s for c in setups],
        "calibration_s_each": calibrations,
    }
    if name == "session-r6":
        info.update(element_percentiles(latencies, tally))
    return metrics, info


def traced_checks(name: str, inputs: dict, result: dict, fixtures: dict) -> list[str]:
    if name == "session-r6":
        return []
    want = fixtures["dumps"][WORKLOAD_DUMPS[name]]
    errors = []
    if result["tsv_sha256"] != want["sha256"]:
        errors.append(f"traced tsv sha256 {result['tsv_sha256']} != {want['sha256']}")
    if name == "oracle-r4" and result["hecke.cells"] != want["classes"]:
        errors.append(f"traced oracle: {result['hecke.cells']} cells != {want['classes']}")
    if name == "refine-r6":
        want_rounds = fixtures["round_classes"][f"n={inputs['n']} dominant"]
        if result["round_classes"] != [want_rounds]:
            errors.append(f"traced round classes {result['round_classes']} != {want_rounds}")
    return errors


def layer_metrics(span_list: list[dict], result: dict, overhead_s: float) -> dict:
    seconds, rss = spans.layer_totals(span_list)
    metrics: dict[str, float] = {}
    for name in LAYERS:
        metrics[f"{name}_s"] = seconds.get(name, 0.0)
        metrics[f"mem.{name}.rss_mb"] = rss.get(name, 0.0)
    # vogan_classes rebuilds its uncached seed inside its own call
    metrics["vogan.refine_self_s"] = metrics["vogan.refine_s"] - metrics["descents.seed_s"]
    metrics["trace.overhead_s"] = overhead_s
    hits, misses = result["vogan.cache_hits"], result["vogan.cache_misses"]
    metrics["vogan.cache_hits"] = hits
    metrics["vogan.cache_misses"] = misses
    metrics["vogan.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for name in EXACT_COUNTS:
        metrics[name] = result.get(name, 0)
    # class count after round k, summed over the refinement runs; a run that
    # is already stable keeps its final count
    for k in range(ROUND_SLOTS):
        metrics[f"vogan.round_classes.{k}"] = sum(
            counts[min(k, len(counts) - 1)] for counts in result["round_classes"]
        )
    return metrics


def traced(name: str, inputs: dict, seed: int, fixtures: dict, tally: Tally) -> tuple[dict, dict]:
    untraced, latencies = run_rep(name, inputs, fixtures, tally)
    elements = element_percentiles(latencies, tally)
    span_path = WORK / f"spans-{name}-seed{seed}.jsonl"
    span_path.unlink(missing_ok=True)
    payload = {**inputs, "workload": name, "run_id": f"{name}/seed{seed}/{os.getpid()}"}
    child, result = run_script("trace", payload, span_path)
    tally.process(child, "traced process")
    if result is None:
        tally.add(["traced process wrote no result"])
        return {name: 0.0 for name in per_layer_units()}, {}
    tally.add(traced_checks(name, inputs, result, fixtures))
    if name == "session-r6":
        for errors in checks.check_requests(inputs["requests"], result["records"], fixtures):
            tally.add(errors)
    metrics = layer_metrics(spans.read_spans(span_path), result, child.wall_s - untraced.wall_s)
    metrics["element_p50_ms"] = elements["element_p50_ms"]
    metrics["element_p95_ms"] = elements["element_p95_ms"]
    info = {
        "spans": str(span_path.relative_to(ROOT)),
        "traced_wall_s": child.wall_s,
        "untraced_wall_s": untraced.wall_s,
        "round_classes": result["round_classes"],
        "element_samples": elements["element_samples"],
    }
    return metrics, info


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bncells").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bncells" / "cli.py").is_file():
        print(f"perfbench: no bncells sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    fixtures = checks.load_fixtures()
    inputs = workloads.make_inputs(args.workload, args.seed)
    tally = Tally()
    # an untimed cold start first, so every timed one finds compiled bytecode
    tally.process(run_child([sys.executable, "-c", "import bncells.cli"]), "warm-up")
    if args.trace:
        metrics, info = traced(args.workload, inputs, args.seed, fixtures, tally)
        units = per_layer_units()
    else:
        metrics, info = timed(args.workload, inputs, args.seconds, fixtures, tally)
        units = END_TO_END_UNITS
    about = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "inputs": {k: v for k, v in inputs.items() if k in ("weight", "weights")},
        "error_rate": tally.failed / tally.attempted,
        "errors": tally.errors,
        **info,
    }
    print(json.dumps({"perfbench": about}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
