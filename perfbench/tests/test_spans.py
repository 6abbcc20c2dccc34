"""Self-time arithmetic and the span records."""

import pytest

from spans import Tracer, covered_length, layer_totals, read_spans, self_times


def span(i, name, start, end, parent=None, rss=10.0):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
            "run": "r", "rss_mb": rss}


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        span(0, "cli.cells", 0.0, 10.0),
        span(1, "descents.seed", 1.0, 3.0, parent=0),
        span(2, "vogan.refine", 2.0, 5.0, parent=0),  # overlaps its sibling
        span(3, "vogan.psi", 2.5, 4.0, parent=2),  # grandchild: not the root's child
        span(4, "vogan.orbits", 7.0, 8.0, parent=0),
        span(5, "knuth.classes", 11.0, 12.5),
    ]
    own = self_times(tree)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)  # [1, 5] and [7, 8] covered
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0 - 1.5)
    assert own[3] == pytest.approx(1.5)
    assert own[5] == pytest.approx(1.5)


def test_child_running_past_its_parent_is_clipped():
    assert covered_length([(8.0, 12.0), (-1.0, 1.0)], 0.0, 10.0) == pytest.approx(3.0)


def test_layer_totals_sum_self_time_and_keep_highest_rss():
    tree = [
        span(0, "cli.element", 0.0, 2.0, rss=50.0),
        span(1, "vogan.refine", 0.5, 1.5, parent=0, rss=80.0),
        span(2, "cli.element", 3.0, 3.5, rss=60.0),
    ]
    seconds, rss = layer_totals(tree)
    assert seconds == {"cli.element": pytest.approx(1.5), "vogan.refine": pytest.approx(1.0)}
    assert rss == {"cli.element": 60.0, "vogan.refine": 80.0}


def test_tracer_records_parents_run_id_and_json_lines(tmp_path):
    tracer = Tracer(run_id="w/seed1")
    with tracer.span("cli.cells"):
        with tracer.span("vogan.refine"):
            pass
    with tracer.span("knuth.classes"):
        pass
    path = tmp_path / "spans.jsonl"
    tracer.write(path)
    records = read_spans(path)
    assert [(r["name"], r["parent"]) for r in records] == [
        ("cli.cells", None), ("vogan.refine", 0), ("knuth.classes", None)
    ]
    assert {r["run"] for r in records} == {"w/seed1"}
    for r in records:
        assert r["end"] >= r["start"] and r["rss_mb"] > 0
    assert records[0]["start"] <= records[1]["start"] <= records[1]["end"] <= records[0]["end"]
