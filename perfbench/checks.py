"""Output checks against the benchmark's frozen fixtures.

Each check returns a list of error strings; an empty list means the output
matched.  Every operation with a non-empty list counts as failed.  The
fixtures in ``fixtures.json`` were frozen from ``bncells`` output; they live
here and never in the library.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures.json"

QUICK_KEYS = (
    "window", "n", "length", "length_t", "rdes", "rxi",
    "insertion", "recording", "shape", "in_area",
)
FULL_KEYS = QUICK_KEYS + ("orbit_id", "class_id", "class_label")


def load_fixtures(path=FIXTURES) -> dict:
    with open(path, encoding="utf-8") as source:
        return json.load(source)


class DumpReader:
    """sha256 and class count of a ``window<TAB>label`` dump, fed in chunks.

    A dump is read as it streams, because holding a rank-7 dump (15 MB)
    would raise the benchmark's own peak RSS, and a child started with
    ``vfork`` inherits its parent's peak as the floor of its own.
    """

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self._labels: set[bytes] = set()
        self._tail = b""

    def feed(self, chunk: bytes) -> None:
        self._sha.update(chunk)
        lines = (self._tail + chunk).split(b"\n")
        self._tail = lines.pop()
        self._labels.update(line.rsplit(b"\t", 1)[-1] for line in lines)

    @property
    def sha256(self) -> str:
        return self._sha.hexdigest()

    @property
    def classes(self) -> int:
        return len(self._labels | ({self._tail.rsplit(b"\t", 1)[-1]} if self._tail else set()))


def check_dump(code: int, sha256: str, classes: int, expected: dict, what: str) -> list[str]:
    """A ``cells`` or ``orbits`` TSV dump: exit 0, digest and class count."""
    if code != 0:
        return [f"{what}: exit {code}"]
    errors = []
    if sha256 != expected["sha256"]:
        errors.append(f"{what}: sha256 {sha256} != {expected['sha256']}")
    if classes != expected["classes"]:
        errors.append(f"{what}: {classes} classes != {expected['classes']}")
    return errors


def dump_key(request: dict) -> str:
    """``<kind> n=<rank>``, then the weight regime when the dump has a weight."""
    key = f"{request['kind']} n={request['n']}"
    return f"{key} {request['regime']}" if "regime" in request else key


def check_requests(requests: list[dict], records: list[dict], fixtures: dict) -> list[list[str]]:
    """Errors per request of a warm session, in request order.

    ``records`` are what the session process reported for each request:
    the exit code and digests of a dump, the parsed report of an element,
    the class count of a Knuth partition.  A full element report must name
    the class and orbit that the same weight's ``cells`` and
    ``orbits --side right`` dumps give its window.
    """
    if len(records) != len(requests):
        missing = [f"no record (session ended after {len(records)} requests)"]
        return [missing] * len(requests)
    labels: dict[tuple, dict[str, str]] = {}
    for request, record in zip(requests, records):
        if request["kind"] in ("cells", "orbits-right") and "lookup" in record:
            labels[(request["kind"], tuple(request["weight"]))] = record["lookup"]

    out = []
    for request, record in zip(requests, records):
        kind = request["kind"]
        if record["code"] != 0:
            out.append([f"{kind}: exit {record['code']} {record.get('error', '')}"])
        elif kind == "knuth":
            got = record["classes"]
            want = fixtures["knuth_classes"][str(request["n"])]
            out.append([] if got == want else [f"knuth: {got} classes != {want}"])
        elif kind.startswith("element"):
            out.append(_check_element(request, record["report"], labels))
        else:
            want = fixtures["dumps"][dump_key(request)]
            out.append(
                check_dump(0, record["sha256"], record["classes"], want, dump_key(request))
            )
    return out


def _check_element(request: dict, report: dict, labels: dict) -> list[str]:
    keys = QUICK_KEYS if request["kind"] == "element-quick" else FULL_KEYS
    what = f"element {request['window']}"
    if tuple(report) != keys:
        return [f"{what}: keys {tuple(report)} != {keys}"]
    errors = []
    if report["window"] != request["window"] or report["n"] != str(request["n"]):
        errors.append(f"{what}: reported window {report['window']}, n {report['n']}")
    if request["kind"] == "element":
        weight = tuple(request["weight"])
        for field, dump in (("class_label", "cells"), ("orbit_id", "orbits-right")):
            want = labels.get((dump, weight), {}).get(request["window"])
            if report[field] != want:
                errors.append(f"{what}: {field} {report[field]} != {dump} label {want}")
    return errors
