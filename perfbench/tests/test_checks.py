"""Every fixture check can fail, and a failed check is a failed operation."""

import hashlib

import pytest

import checks
import run


def test_wrong_digest_and_nonzero_exit_count_as_failed_operations():
    dump = checks.DumpReader()
    child = run.run_child(run.cli_argv(["area", "--n", "6"]), sink=dump.feed)
    fixture = checks.load_fixtures()["dumps"]["area n=6"]
    corrupted = {**fixture, "sha256": hashlib.sha256(b"other").hexdigest()}
    tally = run.Tally()
    tally.add(checks.check_dump(child.code, dump.sha256, dump.classes, fixture, "area"))
    assert (tally.attempted, tally.failed) == (1, 0)
    tally.add(checks.check_dump(child.code, dump.sha256, dump.classes, corrupted, "area"))
    tally.add(checks.check_dump(2, dump.sha256, dump.classes, fixture, "area"))
    tally.add(checks.check_dump(child.code, dump.sha256, 63, fixture, "area"))
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.errors[0].startswith("area: sha256 ")
    assert tally.errors[1:] == ["area: exit 2", "area: 63 classes != 64"]


def test_dump_reader_matches_whole_output_whatever_the_chunking():
    text = b"1,2\t0\n2,1\t1\n-1,2\t0\n-2,1\t7"
    for size in (1, 3, 64):
        reader = checks.DumpReader()
        for at in range(0, len(text), size):
            reader.feed(text[at : at + size])
        assert reader.sha256 == hashlib.sha256(text).hexdigest()
        assert reader.classes == 3


def test_failed_cli_process_is_counted():
    child = run.run_child(run.cli_argv(["cells", "--n", "0"]))
    tally = run.Tally()
    tally.process(child, "cells")
    assert child.code != 0 and tally.failed == 1


def element_request(window, quick, weight=(1, 7)):
    return {"kind": "element-quick" if quick else "element", "n": 3,
            "regime": "dominant", "weight": list(weight), "window": window}


def full_report(window, label, orbit):
    report = {key: "x" for key in checks.FULL_KEYS}
    report.update(window=window, n="3", class_label=label, orbit_id=orbit)
    return report


def test_session_checks_cross_check_elements_against_dumps():
    fixtures = {"dumps": {"cells n=3 dominant": {"sha256": "aa", "classes": 20},
                          "orbits-right n=3 dominant": {"sha256": "bb", "classes": 26},
                          "area n=3": {"sha256": "dd", "classes": 4}},
                "knuth_classes": {"3": 20}}
    requests = [
        {"kind": "cells", "n": 3, "regime": "dominant", "weight": [1, 7]},
        {"kind": "orbits-right", "n": 3, "regime": "dominant", "weight": [1, 7]},
        element_request("1,-2,3", quick=False),
        element_request("1,-2,3", quick=False),
        element_request("3,2,1", quick=True),
        {"kind": "knuth", "n": 3},
        {"kind": "knuth", "n": 3},
        element_request("3,2,1", quick=True),
        {"kind": "area", "n": 3},
        {"kind": "area", "n": 3},
    ]
    quick = {key: "x" for key in checks.QUICK_KEYS}
    quick.update(window="3,2,1", n="3")
    records = [
        {"kind": "cells", "code": 0, "sha256": "aa", "classes": 20, "lookup": {"1,-2,3": "4"}},
        {"kind": "orbits-right", "code": 0, "sha256": "bb", "classes": 26, "lookup": {"1,-2,3": "9"}},
        {"kind": "element", "code": 0, "report": full_report("1,-2,3", "4", "9")},
        {"kind": "element", "code": 0, "report": full_report("1,-2,3", "5", "9")},
        {"kind": "element-quick", "code": 0, "report": quick},
        {"kind": "knuth", "code": 0, "classes": 20},
        {"kind": "knuth", "code": 0, "classes": 19},
        {"kind": "element-quick", "code": 1},
        {"kind": "area", "code": 0, "sha256": "dd", "classes": 4},
        {"kind": "area", "code": 0, "sha256": "dd", "classes": 5},
    ]
    errors = checks.check_requests(requests, records, fixtures)
    assert [bool(e) for e in errors] == [False, False, False, True, False, False, True, True, False, True]
    assert errors[9] == ["area n=3: 5 classes != 4"]
    assert "class_label 5 != cells label 4" in errors[3][0]

    records[0] = {**records[0], "sha256": "cc"}
    assert checks.check_requests(requests, records, fixtures)[0]
    assert all(checks.check_requests(requests, records[:3], fixtures))


def test_percentile_reports_samples_above_it():
    values = [float(v) for v in range(1, 301)]
    assert run.percentile(values, 0.50) == (150.0, 150)
    assert run.percentile(values, 0.95) == (285.0, 15)


def test_each_round_is_scaled_by_the_calibrations_on_either_side():
    slow, fast = 2 * run.CALIBRATION_REF_S, run.CALIBRATION_REF_S / 2
    # round 0 ran at half the reference speed, round 1 between slow and fast
    assert run.scaled([10.0, 4.0], [slow, slow, fast]) == pytest.approx([5.0, 4.0 / 1.25])
    assert run.scaled([3.0], [run.CALIBRATION_REF_S] * 2) == [3.0]
