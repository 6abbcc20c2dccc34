"""Tests for the command-line interface."""

import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bncells import cli
from bncells.cli import METHODS, _class_diff, main
from bncells.group import WeightFunction, parse_window
from bncells.partition import GroupPartition, canonical_ids
from bncells.vogan import vogan_classes

from .oracles import rs_generalized, shape


# sha256 and class counts of the benchmark's rank-6 dumps, read, never written
FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures.json"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


# -- arguments -----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--max-n", "2", "--jobs", "2"),
        ("area", "--n", "3", "--jobs", "2"),
        ("orbits", "--n", "3", "--allow-heavy"),
        ("element", "--w", "1,-2", "--quick", "--allow-heavy"),
        *(
            ("cells", "--n", "3", "--method", method, "--allow-heavy")
            for method in METHODS
            if method != "oracle-kl"
        ),
        # these partitions do not depend on the weight; a weight equal to
        # the default is refused too, as it was given
        ("cells", "--n", "2", "--method", "area", "--a", "2", "--b", "1"),
        *(
            ("cells", "--n", "2", "--method", method, flag, "1")
            for method in ("rs-asymptotic", "area")
            for flag in ("--a", "--b")
        ),
        # ranks up to 4 are refined and cross-checked with or without --exact
        ("table", "--max-n", "4", "--exact"),
        ("table", "--max-n", "2", "--exact"),
    ],
)
def test_no_subcommand_accepts_a_flag_it_ignores(argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv), out=io.StringIO())
    assert err.value.code == 2


def test_a_refused_table_flag_prints_the_table_usage(capsys):
    with pytest.raises(SystemExit) as err:
        main(["table", "--max-n", "3", "--exact"], out=io.StringIO())
    assert err.value.code == 2
    text = capsys.readouterr().err
    assert text.startswith("usage: bncells table [-h]")
    assert "--exact changes nothing at --max-n 3" in text
    # from rank 5 on, --exact refines what would be the closed forms
    args = cli.build_parser().parse_args(["table", "--max-n", "5", "--exact"])
    cli._refuse_ignored_flags(args)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cells", "--n", "0"), "ranks 1..7, got 0"),
        (("orbits", "--n", "0"), "ranks 1..7, got 0"),
        (("verify", "--n", "0"), "ranks 1..7, got 0"),
        (("verify", "--n", "1"), "rank >= 2"),
        (("table", "--max-n", "9"), "--max-n must be in 2..7, got 9"),
        (("table", "--max-n", "1"), "--max-n must be in 2..7, got 1"),
        # a rank outside the table is reported as such, --exact or not
        (("table", "--max-n", "1", "--exact"), "--max-n must be in 2..7, got 1"),
    ],
)
def test_ranks_are_checked_at_the_boundary(capsys, argv, message):
    code, text = run_cli(*argv)
    assert code == 2
    assert text == ""
    assert message in capsys.readouterr().err


# -- table ----------------------------------------------------------------------


def test_table_small_ranks_tsv():
    code, text = run_cli("table", "--max-n", "3")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "n\tboundary\tdominant\torbits\tcells_source"
    assert lines[1] == "2\t4\t6\t8\trefined+oracle"
    assert lines[2] == "3\t16\t20\t26\trefined+oracle"
    assert text.endswith("\n")


def test_table_small_ranks_json():
    code, text = run_cli("table", "--max-n", "3", "--format", "json")
    assert code == 0
    rows = json.loads(text)["rows"]
    assert rows[0]["boundary"] == 4
    assert rows[0]["dominant"] == 6
    assert rows[0]["orbits"] == 8
    assert rows[1]["n"] == 3


# -- verify -----------------------------------------------------------------------


def test_verify_dominant_weight_rank_three():
    code, text = run_cli("verify", "--n", "3", "--a", "1", "--b", "3")
    assert code == 0
    assert "num_classes\t20" in text
    assert "regime\tasymptotic" in text
    assert "FAIL" not in text


def test_verify_boundary_weight_rank_three():
    code, text = run_cli(
        "verify", "--n", "3", "--a", "1", "--b", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["num_classes"] == 16
    assert payload["round_classes"] == [12, 16]
    assert payload["regime"] == "intermediate"
    assert all(check["ok"] for check in payload["checks"])
    names = {check["check"] for check in payload["checks"]}
    assert names == {
        "oracle-vs-classes",
        "region-cells-are-left-cells",
        "region-difference",
    }


# oracle left cells and refinement classes at weights with n-2 < b/a < n-1
INTERVAL_CELLS_AND_CLASSES = {(3, 2, 3): (20, 16), (4, 2, 5): (76, 68)}


def test_verify_interval_weight_is_conjectural():
    for (n, a, b), (cells, classes) in INTERVAL_CELLS_AND_CLASSES.items():
        code, text = run_cli(
            "verify", "--n", str(n), "--a", str(a), "--b", str(b), "--format", "json"
        )
        assert code == 0
        payload = json.loads(text)
        assert "conjectural regime" in payload["regime"]
        assert payload["num_classes"] == classes
        assert payload["checks"] == [
            {
                "check": "cells-refine-classes",
                "ok": True,
                "detail": f"cells refine classes ({cells} vs {classes})",
            }
        ]


def test_verify_interval_weight_reports_a_split_cell(monkeypatch):
    import bncells.hecke as hecke_module

    def coarse(kl):
        return GroupPartition(n=3, class_id=[0] * 48)

    monkeypatch.setattr(hecke_module, "left_cells", coarse)
    code, text = run_cli("verify", "--n", "3", "--a", "2", "--b", "3")
    assert code == 1
    assert (
        "check\tcells-refine-classes\tFAIL\t"
        "1 cells meet two or more classes (1 vs 16)"
    ) in text


def test_verify_low_regime_exits_two():
    code, _ = run_cli("verify", "--n", "3", "--a", "3", "--b", "1")
    assert code == 2


def test_verify_budget_guard_exits_two(capsys):
    code, _ = run_cli("verify", "--n", "5", "--a", "1", "--b", "5")
    assert code == 2
    assert "--allow-heavy" in capsys.readouterr().err


def test_cells_reads_allow_heavy_for_the_oracle():
    heavy = run_cli("cells", "--n", "2", "--method", "oracle-kl", "--allow-heavy")
    assert heavy == run_cli("cells", "--n", "2", "--method", "oracle-kl")
    assert heavy[0] == 0


@pytest.mark.parametrize("n", ["5", "6"])
def test_verify_checks_oracle_budget_before_refining(monkeypatch, n):
    import bncells.vogan as vogan_module

    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("refinement started before the budget check")

    monkeypatch.setattr(vogan_module, "vogan_classes", refuse)
    code, _ = run_cli("verify", "--n", n)
    assert code == 2
    assert calls == []


def test_verify_checks_oracle_budget_in_the_interval_regime(monkeypatch):
    import bncells.vogan as vogan_module

    def refuse(*args):
        raise AssertionError("refinement started before the budget check")

    monkeypatch.setattr(vogan_module, "vogan_classes", refuse)
    code, _ = run_cli("verify", "--n", "5", "--a", "3", "--b", "10")
    assert code == 2


def test_verify_reports_falsification(monkeypatch):
    import bncells.hecke as hecke_module

    def coarse(kl):
        return GroupPartition(n=2, class_id=[0] * 8)

    monkeypatch.setattr(hecke_module, "left_cells", coarse)
    code, text = run_cli("verify", "--n", "2", "--a", "1", "--b", "2")
    assert code == 1
    assert "FAIL" in text


def test_class_diff_names_a_cell_that_meets_two_classes():
    classes = vogan_classes(3, WeightFunction(1, 3)).final
    ids = list(classes.class_id)
    # move -2,1,3 (the second member of class 1) into the identity's class
    ids[ids.index(1, ids.index(1) + 1)] = 0
    oracle = GroupPartition(n=3, class_id=canonical_ids(ids))
    assert _class_diff(oracle, classes) == "oracle cell {1,2,3, -2,1,3} meets 2 classes"


def test_class_diff_names_a_cell_inside_a_larger_class():
    oracle = vogan_classes(3, WeightFunction(1, 3)).final
    merged = [1 if c == 2 else c for c in oracle.class_id]
    classes = GroupPartition(n=3, class_id=canonical_ids(merged))
    assert _class_diff(oracle, classes) == (
        "oracle cell {-1,2,3, -2,1,3, -3,1,2} sits inside a strictly larger "
        "class of size 5"
    )


def test_cli_decodes_windows_without_the_kept_tuples():
    assert not hasattr(cli, "group_elements")


# -- cells ------------------------------------------------------------------------


def test_cells_default_method_lists_every_element():
    code, text = run_cli("cells", "--n", "2")
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 8
    assert lines[0] == "1,2\t0"


def test_cells_oracle_json_summary():
    code, text = run_cli(
        "cells", "--n", "2", "--method", "oracle-kl", "--format", "json"
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["num_classes"] == 6
    assert payload["method"] == "oracle-kl"


def test_cells_insertion_method_labels_by_recording_side():
    code, text = run_cli("cells", "--n", "2", "--method", "rs-asymptotic")
    assert code == 0
    assert "1,2\t1 2 | -" in text


def test_rank_six_recording_fibers_dump_is_frozen():
    # sha256 of the rank-6 dump as one frozen insertion pair per window made it
    code, text = run_cli("cells", "--n", "6", "--method", "rs-asymptotic")
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "947f658749c40863f4314916d151a3c0740e0e586366b1272cfb334949f6b764"
    )


def test_cells_descent_method_labels_by_invariant():
    code, text = run_cli(
        "cells", "--n", "2", "--method", "rxi", "--a", "1", "--b", "2"
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "1,2\t-"
    assert lines[1] == "-1,2\tt"


def test_cells_region_method_lists_only_region_elements():
    code, text = run_cli("cells", "--n", "2", "--method", "area")
    assert code == 0
    assert len(text.splitlines()) == 6


def test_cells_vogan_json_reports_rounds():
    code, text = run_cli(
        "cells", "--n", "3", "--method", "vogan", "--format", "json"
    )
    assert code == 0
    payload = json.loads(text)
    assert payload["num_classes"] == 20
    assert "round_count" in payload


def test_cells_unknown_method_is_usage_error():
    for option in (("--method", "magic"), ("--format", "yaml")):
        with pytest.raises(SystemExit) as err:
            main(["cells", "--n", "2", *option], out=io.StringIO())
        assert err.value.code == 2


# -- orbits -----------------------------------------------------------------------


def test_orbits_json_summary():
    code, text = run_cli("orbits", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert payload["num_classes"] == 26
    assert payload["side"] == "right"


def test_orbits_left_side():
    code, text = run_cli(
        "orbits", "--n", "2", "--side", "left", "--format", "json"
    )
    assert code == 0
    assert json.loads(text)["num_classes"] == 8


def test_orbits_regime_gate():
    code, _ = run_cli("orbits", "--n", "4", "--a", "2", "--b", "4")
    assert code == 2


# -- element ----------------------------------------------------------------------


def test_element_worked_example_quick():
    code, text = run_cli("element", "--w", "-7,-5,6,4,3,-2,1", "--quick")
    assert code == 0
    assert "shape\t(1,1,1,1 | 1,1,1)" in text
    assert "in_area\ttrue" in text
    assert "length\t23" in text
    assert "length_t\t3" in text
    assert "rdes\tt,s3,s4,s5" in text


def test_element_identity_row():
    code, text = run_cli("element", "--w", "1,2,3", "--quick")
    assert code == 0
    assert "rdes\t-" in text
    assert "rxi\t-" in text
    assert "in_area\tfalse" in text
    assert "length\t0" in text


def test_element_full_report_has_orbit_and_class_ids():
    code, text = run_cli("element", "--w", "-2,1", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert {"orbit_id", "class_id", "class_label"} <= payload.keys()
    assert payload["n"] == 2


def test_element_report_matches_library(rng_seeded):
    for _ in range(5):
        n = rng_seeded.randint(1, 6)
        values = list(range(1, n + 1))
        rng_seeded.shuffle(values)
        w = tuple(v if rng_seeded.random() < 0.5 else -v for v in values)
        text_w = ",".join(str(x) for x in w)
        code, text = run_cli("element", "--w", text_w, "--quick", "--format", "json")
        assert code == 0
        payload = json.loads(text)
        a_tab, b_tab = rs_generalized(parse_window(text_w))
        assert payload["insertion"] == a_tab.to_text()
        assert payload["recording"] == b_tab.to_text()
        assert payload["shape"] == a_tab.shape.to_text()


def tsv_fields(*argv):
    code, text = run_cli(*argv)
    assert code == 0
    return dict(line.split("\t") for line in text.splitlines())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_element_descent_fields_match_the_rxi_dump(n):
    def dump(a, b):
        return tsv_fields("cells", "--n", f"{n}", "--method", "rxi", "--a", f"{a}", "--b", f"{b}")

    plain = dump(1, 1)
    for a, b in [(3, 2), (2, 2), (2, 3), (1, n + 1)]:
        for window, label in dump(a, b).items():
            report = tsv_fields("element", "--w", window, "--quick", "--a", f"{a}", "--b", f"{b}")
            assert report["rxi"] == label
            assert report["rdes"] == plain[window]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_element_tableau_fields_match_the_insertion_dump(n):
    dump = tsv_fields("cells", "--n", f"{n}", "--method", "rs-asymptotic")
    for window, label in dump.items():
        report = tsv_fields("element", "--w", window, "--quick")
        assert report["recording"] == label
        assert report["shape"] == shape(parse_window(window)).to_text()


def test_element_malformed_window_is_usage_error():
    code, _ = run_cli("element", "--w", "1,1")
    assert code == 2
    code, _ = run_cli("element", "--w", "apple")
    assert code == 2


# -- area -------------------------------------------------------------------------


def test_area_json_summary():
    code, text = run_cli("area", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert payload["num_classes"] == 4
    assert payload["region_size"] == 6
    assert payload["cell_sizes"] == [1, 1, 2, 2]


def test_area_tsv_labels_cells_by_minimal_element():
    code, text = run_cli("area", "--n", "2")
    assert code == 0
    lines = dict(line.split("\t") for line in text.splitlines())
    assert lines["2,1"] == "2,1"
    assert lines["-1,2"] == lines["-2,1"]


# -- one output path ---------------------------------------------------------------


def key_paths(payload):
    """A JSON payload's keys, with those of the dicts in a list as ``list[].key``."""
    paths = set(payload)
    for key, value in payload.items():
        if isinstance(value, list):
            dicts = [item for item in value if isinstance(item, dict)]
            paths |= {f"{key}[].{k}" for item in dicts for k in item}
    return paths


WEIGHTED = {"n", "a", "b", "num_classes"}
VERIFY_KEYS = WEIGHTED | {
    "round_count",
    "round_classes",
    "regime",
    "checks",
    "checks[].check",
    "checks[].ok",
    "checks[].detail",
}
TABLE_KEYS = {
    "rows",
    "rows[].n",
    "rows[].boundary",
    "rows[].dominant",
    "rows[].orbits",
    "rows[].cells_source",
}
ELEMENT_KEYS = {
    "window",
    "n",
    "length",
    "length_t",
    "rdes",
    "rxi",
    "insertion",
    "recording",
    "shape",
    "in_area",
}


@pytest.mark.parametrize(
    "argv, keys",
    [
        *(
            (("cells", "--n", "3", "--method", method), WEIGHTED | {"method"})
            for method in METHODS
            if method != "vogan"
        ),
        (
            ("cells", "--n", "3", "--method", "vogan"),
            WEIGHTED | {"method", "round_count"},
        ),
        (("orbits", "--n", "3", "--side", "left"), WEIGHTED | {"side"}),
        (("area", "--n", "3"), {"n", "num_classes", "region_size", "cell_sizes"}),
        (("table", "--max-n", "3"), TABLE_KEYS),
        # the asymptotic and intermediate theorem regimes, and a conjectural one
        (("verify", "--n", "3", "--a", "1", "--b", "3"), VERIFY_KEYS),
        (("verify", "--n", "3", "--a", "1", "--b", "2"), VERIFY_KEYS),
        (("verify", "--n", "3", "--a", "2", "--b", "3"), VERIFY_KEYS),
        (
            ("element", "--w", "-2,1,3"),
            ELEMENT_KEYS | {"orbit_id", "class_id", "class_label"},
        ),
        (("element", "--w", "-2,1,3", "--quick"), ELEMENT_KEYS),
    ],
)
def test_every_command_keeps_its_json_keys(argv, keys):
    code, text = run_cli(*argv, "--format", "json")
    assert code == 0
    assert key_paths(json.loads(text)) == keys


@pytest.mark.parametrize("n", range(1, 5))
def test_orbits_and_area_dump_like_their_cells_methods(n):
    rank = ("--n", str(n))
    orbits = run_cli("orbits", *rank, "--side", "right")
    assert orbits[0] == 0
    assert run_cli("cells", *rank, "--method", "orbits") == orbits
    area = run_cli("area", *rank)
    assert area[0] == 0
    assert run_cli("cells", *rank, "--method", "area") == area


# -- dump writes ------------------------------------------------------------------


class WriteCounter(io.StringIO):
    """A text sink that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "argv",
    [
        ("cells", "--n", "3", "--method", "vogan", "--allow-heavy"),
        ("cells", "--n", "3", "--method", "area", "--a", "2"),
        # argparse's own error for a cells flag, for comparison
        ("cells", "--n", "3", "--method", "magic"),
    ],
)
def test_a_refused_cells_flag_prints_the_cells_usage(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv), out=io.StringIO())
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[0] == "usage: bncells cells [-h]"


@pytest.mark.parametrize(
    "argv",
    [
        ("cells", "--n", "1"),
        ("cells", "--n", "4", "--method", "rs-asymptotic"),
        ("orbits", "--n", "5", "--side", "left"),
        ("area", "--n", "6"),
    ],
)
def test_a_dump_makes_one_write_per_coset_block(argv):
    # a write per line reaches a pipe reader in buffer-sized pieces
    out = WriteCounter()
    assert main(list(argv), out=out) == 0
    assert out.writes == 2 * int(argv[2])


# -- frozen rank-6 dumps ----------------------------------------------------------


@pytest.mark.parametrize(
    "key, argv",
    [
        ("cells n=6 dominant", ("cells", "--method", "vogan", "--b", "6")),
        ("cells n=6 intermediate", ("cells", "--method", "vogan", "--b", "5")),
        ("orbits-left n=6 dominant", ("orbits", "--side", "left", "--b", "6")),
        ("orbits-right n=6 dominant", ("orbits", "--side", "right", "--b", "6")),
        ("area n=6", ("area",)),
    ],
)
def test_rank_six_dumps_match_the_benchmark_fixtures(key, argv):
    expected = json.loads(FIXTURES.read_text(encoding="utf-8"))["dumps"][key]
    code, text = run_cli(*argv, "--n", "6")
    assert code == 0
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == expected["sha256"]
    labels = {line.rsplit("\t", 1)[-1] for line in text.splitlines()}
    assert len(labels) == expected["classes"]


# -- process-level behavior ---------------------------------------------------------


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bncells", "table", "--max-n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.endswith("\n")
    assert "refined+oracle" in proc.stdout


def test_missing_subcommand_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "bncells"], capture_output=True, text=True
    )
    assert proc.returncode == 2


def test_closed_output_pipe_exits_like_sigpipe():
    # a rank-6 dump is far larger than a pipe buffer, so the writer is still
    # writing when the reader stops after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "bncells", "cells", "--n", "6", "--method", "rxi"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline() == "1,2,3,4,5,6\t-\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr


def fresh_python(script, *args):
    """The stdout of ``script`` run by a fresh interpreter, which must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_layers(layers, *argvs):
    """Which of ``layers`` one fresh process has loaded after ``import
    bncells.cli``, and then after serving each argv in turn."""
    script = (
        "import io, sys\n"
        "import bncells.cli\n"
        f"def loaded(): print(*sorted(set({layers!r}) & set(sys.modules)), sep=',')\n"
        "loaded()\n"
        f"for argv in {list(argvs)!r}:\n"
        "    bncells.cli.main(argv, out=io.StringIO())\n"
        "    loaded()\n"
    )
    return fresh_python(script).splitlines()


def test_cli_import_leaves_the_oracle_and_region_layers_unloaded():
    # a cold refinement run compiles neither the oracle nor the region module
    late = ("bncells.hecke", "bncells.area", "bncells.knuth", "json")
    assert loaded_layers(late, ["cells", "--n", "3", "--method", "vogan"]) == ["", ""]


def test_oracle_cells_load_no_refinement_layer():
    # cells --method oracle-kl runs the oracle alone: neither the CLI import
    # nor the command loads the refinement, tableaux or descent layers
    layers = ("bncells.vogan", "bncells.tableaux", "bncells.descents")
    argv = ["cells", "--n", "3", "--method", "oracle-kl"]
    assert loaded_layers(layers, argv) == ["", ""]


def test_element_loads_no_region_or_oracle_layer():
    # the report reads region membership off its insertion rows, and --quick
    # computes nothing group-wide
    layers = ("bncells.area", "bncells.hecke", "bncells.vogan")
    argv = ["element", "--w", "-2,4,1,-3"]
    assert loaded_layers(layers, [*argv, "--quick"], argv) == ["", "", "bncells.vogan"]


def in_one_process(argvs):
    """``[code, stdout]`` of each argv, served in order by one fresh process."""
    script = (
        "import io, json, sys\n"
        "from bncells.cli import main\n"
        "served = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    served.append([main(argv, out=out), out.getvalue()])\n"
        "print(json.dumps(served))\n"
    )
    return json.loads(fresh_python(script, json.dumps(argvs)))


def alone(argv):
    """``[code, stdout]`` of ``argv`` in a process of its own."""
    proc = subprocess.run(
        [sys.executable, "-m", "bncells", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return [proc.returncode, proc.stdout]


def test_one_parser_serves_every_request_of_a_process():
    # the window has a negative last entry, so its descent data differ
    # between --b 2 and the default --b 3: a --b that outlived its request
    # would show in the second report
    argvs = [
        ["element", "--w", "-1,2,-3", "--b", "2"],
        ["element", "--w", "-1,2,-3"],
        ["cells", "--n", "3"],
        ["orbits", "--n", "3", "--side", "left"],
        ["verify", "--n", "3"],
        ["table", "--max-n", "3"],
    ]
    served = in_one_process(argvs)
    assert served[0] != served[1]
    assert served == [alone(argv) for argv in argvs]


def test_weights_of_one_regime_served_in_one_process_match_fresh_runs():
    # at rank 3, (1,2) sits on the gate b = 2a and (2,3) strictly inside it:
    # one refinement serves both, while verify takes a different path for each
    argvs = [
        [command, "--n", "3", "--a", str(a), "--b", str(b), "--format", fmt]
        for a, b in ((1, 2), (2, 3))
        for command, fmt in (
            ("cells", "tsv"),
            ("cells", "json"),
            ("orbits", "tsv"),
            ("orbits", "json"),
            ("verify", "json"),
        )
    ]
    served = in_one_process(argvs)
    assert served == [alone(argv) for argv in argvs]
    for argv, (code, text) in zip(argvs, served):
        assert code == 0
        if argv[-1] == "json":
            payload = json.loads(text)
            assert [str(payload["a"]), str(payload["b"])] == argv[4:7:2]


def test_served_requests_build_no_window_tuples():
    # a fresh process starts with every cache empty, so each request builds
    # what it reads; only the oracle and verify may enumerate window tuples
    argvs = [
        ["area", "--n", "5"],
        ["area", "--n", "5", "--format", "json"],
        *(["cells", "--n", "5", "--method", m] for m in ("area", "vogan", "rs-asymptotic", "rxi")),
        ["orbits", "--n", "5", "--side", "left"],
        ["orbits", "--n", "5", "--side", "right"],
        ["element", "--w", "-3,1,5,-2,4"],
        ["element", "--w", "2,-5,-1,4,3", "--quick"],
    ]
    script = (
        "import io, json, sys\n"
        "from bncells.cli import main\n"
        "from bncells.group import group_elements\n"
        "codes = [main(argv, out=io.StringIO()) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, group_elements.cache_info().currsize]))\n"
    )
    codes, cached = json.loads(fresh_python(script, json.dumps(argvs)))
    assert codes == [0] * len(argvs)
    assert cached == 0
