"""Spans the benchmark records around public ``bncells`` calls.

A span holds its name, start and end (``time.perf_counter`` seconds), the id
of the span that was open when it started (its parent), the run id shared by
every span of one traced process, and the process's peak RSS read when the
span ended.  Spans stay in memory and are written out as JSON lines once the
traced run ends, so writing them costs nothing inside any span.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux: KiB / 1024)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Collects nested spans for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["rss_mb"] = peak_rss_mb()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            for record in self.spans:
                sink.write(json.dumps(record, sort_keys=True) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as source:
        return [json.loads(line) for line in source if line.strip()]


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(
                (record["start"], record["end"])
            )
    return {
        record["id"]: (record["end"] - record["start"])
        - covered_length(
            children.get(record["id"], ()), record["start"], record["end"]
        )
        for record in spans
    }


def layer_totals(spans: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name: summed self time, and the highest peak RSS at a span end."""
    own = self_times(spans)
    seconds: dict[str, float] = {}
    rss: dict[str, float] = {}
    for record in spans:
        name = record["name"]
        seconds[name] = seconds.get(name, 0.0) + own[record["id"]]
        rss[name] = max(rss.get(name, 0.0), record["rss_mb"])
    return seconds, rss
