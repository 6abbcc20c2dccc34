"""Processes the benchmark starts: a warm request session and a traced run.

    python perfbench/child.py session INPUTS RESULT
    python perfbench/child.py trace INPUTS RESULT SPANS

``session`` sends ``INPUTS["requests"]`` one after another through
``bncells.cli.main`` in this one process (a closed loop with one client)
and writes, per request, its latency and what the checks need.

``trace`` runs the workload's layers one public call at a time, in
dependency order, each inside a span; a call therefore finds every input it
depends on already cached, and its span holds only its own work.  It writes
the spans to ``SPANS`` as JSON lines and the exact counts to ``RESULT``.
Both modes expect ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
import traceback

from spans import Tracer


def _lookup(text: str, windows) -> dict[str, str]:
    """TSV label of each window, found without parsing the whole dump."""
    text = "\n" + text
    out = {}
    for window in windows:
        at = text.find(f"\n{window}\t")
        if at >= 0:
            out[window] = text[at + 1 : text.find("\n", at + 1)].split("\t")[1]
    return out


def full_element_windows(requests) -> dict[tuple, set[str]]:
    """Windows of full element reports, per weight."""
    out: dict[tuple, set[str]] = {}
    for request in requests:
        if request["kind"] == "element":
            out.setdefault(tuple(request["weight"]), set()).add(request["window"])
    return out


def run_request(request: dict, windows: dict[tuple, set[str]]) -> dict:
    """Send one request; return its latency and what the checks need."""
    from bncells import cli, knuth

    kind = request["kind"]
    buffer = io.StringIO()
    record: dict = {"kind": kind}
    start = time.perf_counter()
    try:
        if kind == "knuth":
            record["classes"] = knuth.knuth_classes(request["n"]).num_classes
            code = 0
        else:
            code = cli.main(request["argv"], out=buffer)
    except SystemExit as exc:  # argparse rejected the request
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash fails this request; the session goes on
        code = -1
        record["error"] = traceback.format_exc(limit=3)
    record["ms"] = (time.perf_counter() - start) * 1000.0
    record["code"] = code
    if code != 0 or kind == "knuth":
        return record
    text = buffer.getvalue()
    if kind.startswith("element"):
        record["report"] = dict(line.split("\t", 1) for line in text.splitlines())
    else:
        record["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        record["classes"] = len({line.rsplit("\t", 1)[-1] for line in text.splitlines()})
        if kind in ("cells", "orbits-right"):
            record["lookup"] = _lookup(text, windows.get(tuple(request["weight"]), ()))
    return record


def session(inputs: dict) -> dict:
    requests = inputs["requests"]
    windows = full_element_windows(requests)
    return {"records": [run_request(request, windows) for request in requests]}


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------


class Layers:
    """Calls each layer once per distinct input, inside a span of its name."""

    def __init__(self, tracer: Tracer, n: int) -> None:
        from bncells import descents, group, vogan

        self.tracer = tracer
        self.n = n
        self.group, self.descents, self.vogan = group, descents, vogan
        self.runs: dict = {}
        self.seed_classes = 0
        self._done: set = set()

    def once(self, name: str, key, call):
        if (name, key) in self._done:
            return None
        self._done.add((name, key))
        with self.tracer.span(name):
            return call()

    def maps(self, weight) -> None:
        v, n = self.vogan, self.n
        self.once("vogan.epsilon", None, lambda: v.build_epsilon(n))
        self.once("vogan.psi", weight, lambda: v.build_psi(n, weight))
        self.once("vogan.ext_J", None, lambda: v.extended_image_table(v.build_epsilon(n)))
        self.once("vogan.ext_K", weight, lambda: v.extended_image_table(v.build_psi(n, weight)))

    def classes(self, weight):
        """The refinement run; its seed is timed on its own first."""
        seed = self.once("descents.seed", weight, lambda: self.descents.rxi_partition(self.n, weight))
        if seed is not None:
            self.seed_classes += seed.num_classes
        self.maps(weight)
        run = self.once("vogan.refine", weight, lambda: self.vogan.vogan_classes(self.n, weight))
        return self.runs.setdefault(weight, run)

    def orbits(self, weight, side: str) -> None:
        self.maps(weight)
        self.once("vogan.orbits", (weight, side), lambda: self.vogan.xi_orbits(self.n, weight, side=side))

    def counts(self) -> dict:
        from bncells import vogan

        caches = [vogan.vogan_classes, vogan.xi_orbits, vogan.build_psi]
        return {
            "descents.seed_classes": self.seed_classes,
            "vogan.rounds": sum(run.round_count for run in self.runs.values()),
            "round_classes": [[r.num_classes for r in run.rounds] for run in self.runs.values()],
            "vogan.cache_hits": sum(c.cache_info().hits for c in caches),
            "vogan.cache_misses": sum(c.cache_info().misses for c in caches),
        }


def trace_refine(tracer: Tracer, inputs: dict) -> dict:
    from bncells.group import WeightFunction

    layers = Layers(tracer, inputs["n"])
    weight = WeightFunction(*inputs["weight"])
    with tracer.span("group.enumerate"):
        layers.group.group_elements(layers.n)
    run = layers.classes(weight)
    with tracer.span("vogan.tsv"):
        data = ("\n".join(layers.vogan.classes_to_tsv(run.final)) + "\n").encode()
    return {**layers.counts(), "tsv_sha256": hashlib.sha256(data).hexdigest()}


def trace_oracle(tracer: Tracer, inputs: dict) -> dict:
    from bncells import hecke, vogan
    from bncells.group import WeightFunction, group_elements, inverse_index_table

    n = inputs["n"]
    weight = WeightFunction(*inputs["weight"])
    with tracer.span("group.enumerate"):
        group_elements(n)
    with tracer.span("group.inverse_table"):
        inverse_index_table(n)
    with tracer.span("hecke.tables"):
        hecke.group_tables(n)
    # ``cells --method oracle-kl`` builds the basis with its bar check, then
    # reads the left cells off it
    with tracer.span("hecke.basis"):
        basis = hecke.kl_basis(n, weight, check_bar=False)
    with tracer.span("hecke.bar_check"):
        hecke.verify_bar_invariance(basis)
    with tracer.span("hecke.scc"):
        cells = hecke.left_cells(basis)
    with tracer.span("vogan.tsv"):
        data = ("\n".join(vogan.classes_to_tsv(cells)) + "\n").encode()
    return {
        "vogan.cache_hits": 0,
        "vogan.cache_misses": 0,
        "round_classes": [],
        "hecke.cells": cells.num_classes,
        "hecke.mu_entries": sum(len(m) for m in basis.mu.values()),
        "tsv_sha256": hashlib.sha256(data).hexdigest(),
    }


def trace_session(tracer: Tracer, inputs: dict) -> dict:
    from bncells.group import WeightFunction

    layers = Layers(tracer, inputs["n"])
    requests = inputs["requests"]
    windows = full_element_windows(requests)
    with tracer.span("group.enumerate"):
        layers.group.group_elements(layers.n)
    with tracer.span("group.inverse_table"):
        layers.group.inverse_index_table(layers.n)
    records = []
    knuth_classes = 0
    for request in requests:
        kind = request["kind"]
        if kind == "knuth":
            with tracer.span("knuth.classes"):
                record = run_request(request, windows)
            knuth_classes = record.get("classes", 0)
            records.append(record)
            continue
        if kind == "area":
            with tracer.span("area.decomposition"):
                records.append(run_request(request, windows))
            continue
        weight = WeightFunction(*request["weight"])
        with tracer.span("cli." + kind.split("-")[0]):
            if kind in ("cells", "element"):
                layers.classes(weight)
            if kind.startswith("orbits") or kind == "element":
                layers.orbits(weight, "left" if kind == "orbits-left" else "right")
            records.append(run_request(request, windows))
    return {**layers.counts(), "knuth.classes": knuth_classes, "records": records}


TRACED = {"refine-r6": trace_refine, "oracle-r4": trace_oracle, "session-r6": trace_session}


def main(argv: list[str]) -> int:
    mode, inputs_path, result_path = argv[:3]
    with open(inputs_path, encoding="utf-8") as source:
        inputs = json.load(source)
    if mode == "session":
        result = session(inputs)
    else:
        tracer = Tracer(run_id=inputs["run_id"])
        with tracer.span("cli.import"):
            import bncells.cli  # noqa: F401  (imports every layer)
        result = TRACED[inputs["workload"]](tracer, inputs)
        tracer.write(argv[3])
    with open(result_path, "w", encoding="utf-8") as sink:
        json.dump(result, sink)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
