"""Command-line front door: tables, verification pipelines, reports.

Subcommands
-----------

``table``
    The three-column count table (boundary-weight cells, dominant-weight
    cells, orbits) for ranks 2..7.  The orbits are computed at every rank.
    The cell counts are refined, and checked against the closed forms and
    the oracle, at ranks up to 4; above that they are the closed forms,
    unless ``--exact`` refines them and checks them against the closed
    forms.  ``cells_source`` says which (``refined+oracle``, ``formula``,
    ``refined``).
``verify --n --a --b``
    Compare the Hecke-algebra left cells against the refinement classes
    element by element, check the staircase-region cell lists, and check
    which dominant-regime cells survive at the boundary weight; for
    ``n-2 < b/a < n-1``, check only that the cells refine the classes.
``cells --method``
    Dump a chosen partition of the group.
``orbits``
    Dump the orbit partition of the two extended cycling maps.
``element --w``
    One-element report: lengths, descent data, insertion pair, shape,
    region membership, orbit and class ids.
``area``
    Dump the staircase-shape region and its cell decomposition.

``cells``, ``orbits`` and ``area`` share one dump path: ``orbits`` dumps
the ``cells --method orbits`` partition on either side, ``area`` the
``cells --method area`` one, and only their JSON summaries differ.

All output is newline-terminated UTF-8; ``--format tsv|json`` selects the
encoding, and one emitter writes it for every command.  Exit codes: 0 = all
checks pass, 1 = a checked claim is false, 2 = usage, budget, or regime
error, 141 = the reader closed the output pipe (the status a shell reports
for SIGPIPE).

Every layer above :mod:`bncells.group` and :mod:`bncells.partition` (the
refinement, tableaux and descent layers, the Hecke oracle and the region
module) is imported by the commands that run it, and call sites go through
the module (``hecke.left_cells``, ``vogan.vogan_classes``).  So a process
that only refines classes never loads the oracle or the region module, and
``cells --method oracle-kl`` loads none of the refinement layers.
"""

from __future__ import annotations

import argparse
import os
import sys
from array import array
from functools import lru_cache

from .errors import BnCellsError, FalsificationError, RankError
from .group import (
    WeightFunction,
    check_enumeration_rank,
    element_index,
    group_order,
    iter_windows,
    length,
    length_t,
    parse_window,
    tsv_blocks,
    window_text,
)
from .partition import OUTSIDE, GroupPartition

METHODS = ("oracle-kl", "vogan", "rs-asymptotic", "rxi", "orbits", "area")
# the methods whose partition does not depend on the weight
WEIGHTLESS_METHODS = ("rs-asymptotic", "area")
FORMATS = ("tsv", "json")
TABLE_RANKS = range(2, 8)
TABLE_KEYS = ("n", "boundary", "dominant", "orbits", "cells_source")
ORACLE_CROSS_CHECK_MAX_RANK = 4


def _emit(args, out, payload: dict, text) -> None:
    """Write ``payload`` as JSON, or else ``text``: a partition or report lines.

    A report goes out in one write call, and a partition's dump one "K"-coset
    block to a write call.  Written a line at a time, a dump streamed into a
    pipe leaves in buffer-sized pieces, and waking the reader for each one
    made a cold rank-6 ``cells`` about 10% slower on a 2-core VM.
    """
    if args.format == "json":
        import json

        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif isinstance(text, GroupPartition):
        for block in tsv_blocks(text):
            out.write(block.decode())
    else:
        out.write("\n".join(text) + "\n")


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _table_row(n: int, exact: bool) -> dict:
    """Counts for one rank; cells refined exactly up to the oracle bound."""
    from . import tableaux, vogan

    dominant = tableaux.count_standard_bitableaux(n)
    row = {
        "n": n,
        "boundary": dominant - 2**n + 2 ** (n - 1),
        "dominant": dominant,
        "orbits": vogan.xi_orbits(n, WeightFunction(1, n)).num_classes,
        "cells_source": "refined+oracle"
        if n <= ORACLE_CROSS_CHECK_MAX_RANK
        else "refined" if exact else "formula",
    }
    if row["cells_source"] == "formula":
        return row
    for kind, weight in (
        ("dominant", WeightFunction(1, n)),
        ("boundary", WeightFunction(1, n - 1)),
    ):
        refined = vogan.vogan_classes(n, weight).final
        if refined.num_classes != row[kind]:
            raise FalsificationError(
                f"rank {n}: refined {kind}-weight count {refined.num_classes} "
                f"disagrees with the counting formula {row[kind]}"
            )
        if n <= ORACLE_CROSS_CHECK_MAX_RANK:
            from . import hecke

            if not hecke.left_cells(hecke.kl_basis(n, weight)).same_blocks(refined):
                raise FalsificationError(
                    f"rank {n}, weight ({weight.a},{weight.b}): oracle cells "
                    f"differ from refinement classes"
                )
    return row


def cmd_table(args, out) -> int:
    if args.max_n not in TABLE_RANKS:
        raise RankError(
            f"--max-n must be in {TABLE_RANKS.start}..{TABLE_RANKS.stop - 1}, "
            f"got {args.max_n}"
        )
    rows = [_table_row(n, args.exact) for n in range(TABLE_RANKS.start, args.max_n + 1)]
    lines = ["\t".join(TABLE_KEYS)]
    lines += ("\t".join(str(row[key]) for key in TABLE_KEYS) for row in rows)
    _emit(args, out, {"rows": rows}, lines)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cells_as_sets(partition: GroupPartition) -> set[frozenset]:
    n = partition.n
    return {frozenset(iter_windows(n, members)) for members in partition.classes()}


def _class_diff(oracle: GroupPartition, classes: GroupPartition) -> str:
    """First oracle cell that is split or merged by the class partition.

    Only the members of that cell are decoded.
    """
    sizes = classes.class_sizes()
    for members in oracle.classes():
        hit = {classes.class_of(i) for i in members}
        if len(hit) != 1:
            problem = f"meets {len(hit)} classes"
        elif (size := sizes[hit.pop()]) != len(members):
            problem = f"sits inside a strictly larger class of size {size}"
        else:
            continue
        windows = ", ".join(map(window_text, iter_windows(oracle.n, members)))
        return f"oracle cell {{{windows}}} {problem}"
    return "partitions agree"


def _verify_theorem_regime(n, weight, run, allow_heavy, checks) -> None:
    from . import area, hecke

    oracle = hecke.left_cells(hecke.kl_basis(n, weight, allow_heavy=allow_heavy))
    agree = oracle.same_blocks(run.final)
    checks.append(
        {
            "check": "oracle-vs-classes",
            "ok": agree,
            "detail": "partitions agree element by element"
            if agree
            else _class_diff(oracle, run.final),
        }
    )

    # the region and the other weight of the dominant/boundary pair
    asymptotic = weight.regime(n) == "asymptotic"
    if asymptotic:
        region_cells, label = area.area_decomposition(n), "region cells"
        companion = WeightFunction(1, n - 1)
    else:
        region_cells, label = area.upsilon_decomposition(n), "region cell pairs"
        companion = WeightFunction(1, n)
    oracle_sets = _cells_as_sets(oracle)
    bad = [cell for cell in region_cells if frozenset(cell) not in oracle_sets]
    checks.append(
        {
            "check": "region-cells-are-left-cells",
            "ok": not bad,
            "detail": f"all {len(region_cells)} {label} are oracle left cells"
            if not bad
            else f"{len(bad)} of {len(region_cells)} {label} are not left cells",
        }
    )

    companion_sets = _cells_as_sets(
        hecke.left_cells(hecke.kl_basis(n, companion, allow_heavy=allow_heavy))
    )
    pair = (oracle_sets, companion_sets)
    dominant_cells, boundary_cells = pair if asymptotic else pair[::-1]
    region = set(area.area_elements(n))
    offenders = [
        cell
        for cell in dominant_cells
        if (not (cell & region)) != (cell in boundary_cells)
    ]
    checks.append(
        {
            "check": "region-difference",
            "ok": not offenders,
            "detail": "dominant-weight cells survive at the boundary weight "
            "exactly when they avoid the region"
            if not offenders
            else f"{len(offenders)} cells violate the survival criterion",
        }
    )


def cmd_verify(args, out) -> int:
    from . import hecke, vogan

    n = args.n
    if n < 2:
        raise RankError(f"verify needs rank >= 2 for the weight (1,n-1), got {n}")
    weight = WeightFunction(args.a, args.b)
    regime = weight.regime(n)
    # every regime the refinement accepts ("low" raises a RegimeError in
    # vogan_classes) runs the oracle, so its budget is checked first
    if regime != "low":
        hecke.check_oracle_budget(n, args.allow_heavy)
    run = vogan.vogan_classes(n, weight)
    checks: list[dict] = []
    if regime in ("asymptotic", "intermediate"):
        regime_label = regime
        _verify_theorem_regime(n, weight, run, args.allow_heavy, checks)
    else:
        # equality is not claimed here, and the oracle shows more cells
        # than classes; what is checked is that each cell lies in one class
        regime_label = f"{regime} (conjectural regime)"
        kl = hecke.kl_basis(n, weight, allow_heavy=args.allow_heavy)
        oracle = hecke.left_cells(kl)
        split = sum(
            len({run.final.class_of(i) for i in members}) > 1
            for members in oracle.classes()
        )
        counts = f"({oracle.num_classes} vs {run.final.num_classes})"
        checks.append(
            {
                "check": "cells-refine-classes",
                "ok": not split,
                "detail": f"cells refine classes {counts}"
                if not split
                else f"{split} cells meet two or more classes {counts}",
            }
        )
    lines = [
        f"n\t{n}",
        f"weight\t{weight.a},{weight.b}",
        f"regime\t{regime_label}",
        f"num_classes\t{run.final.num_classes}",
        f"round_count\t{run.round_count}",
        *(
            f"check\t{c['check']}\t{'pass' if c['ok'] else 'FAIL'}\t{c['detail']}"
            for c in checks
        ),
    ]
    payload = {**vogan.run_summary(run), "regime": regime_label, "checks": checks}
    _emit(args, out, payload, lines)
    return 0 if all(c["ok"] for c in checks) else 1


# ---------------------------------------------------------------------------
# partition dumps
# ---------------------------------------------------------------------------


def _area_partition(n: int) -> GroupPartition:
    """The region's cells, each labelled by its shortest (then least) window.

    The class ids are numbered over the region members alone, in index
    order, and then placed at their indices.
    """
    from . import area

    labels = {}
    for cell in area.area_decomposition(n):
        label = window_text(min(cell, key=lambda w: (length(w), w)))
        labels.update(dict.fromkeys(cell, label))
    region = GroupPartition.from_keys(
        n, list(map(labels.__getitem__, area.area_elements(n))), label_fn=str
    )
    class_id = array("i", [OUTSIDE]) * group_order(n)
    for i, c in zip(area.area_indices(n), region.class_id):
        class_id[i] = c
    return GroupPartition(n, class_id, region.labels)


def cmd_dump(args, out) -> int:
    """``cells``, ``orbits`` or ``area``: dump one partition, or summarise it.

    ``orbits`` and ``area`` are the ``cells`` methods of their names, with
    ``orbits`` on either side.  The JSON summary gives the rank and the
    class count, with the weight and the method (``cells``), the weight and
    the side (``orbits``), or the region's size and cell sizes (``area``).
    """
    n, command = args.n, args.command
    method = args.method if command == "cells" else command
    payload: dict = {"n": n}
    if command == "area":
        from . import area

        payload["region_size"] = len(area.area_elements(n))
        payload["cell_sizes"] = sorted(len(cell) for cell in area.area_decomposition(n))
    else:
        weight = WeightFunction(args.a, args.b)
        payload.update(a=weight.a, b=weight.b)
        if command == "orbits":
            payload["side"] = args.side
        else:
            payload["method"] = method
    if method == "oracle-kl":
        from . import hecke

        part = hecke.left_cells(hecke.kl_basis(n, weight, allow_heavy=args.allow_heavy))
    elif method == "vogan":
        from . import vogan

        run = vogan.vogan_classes(n, weight)
        part = run.final
        payload["round_count"] = run.round_count
    elif method == "rs-asymptotic":
        from . import tableaux

        part = tableaux.recording_fibers(n)
    elif method == "rxi":
        from . import descents

        part = descents.rxi_partition(n, weight)
    elif method == "orbits":
        from . import vogan

        side = args.side if command == "orbits" else "right"
        part = vogan.xi_orbits(n, weight, side=side)
    else:
        part = _area_partition(n)
    payload["num_classes"] = part.num_classes
    _emit(args, out, payload, part)
    return 0


# ---------------------------------------------------------------------------
# element report
# ---------------------------------------------------------------------------


def cmd_element(args, out) -> int:
    from . import area, descents, tableaux

    w = parse_window(args.w)
    n = len(w)
    weight = WeightFunction(args.a, args.b if args.b is not None else n)
    plus, minus, plus_rec, minus_rec = tableaux.insertion_rows(w)
    mask = descents.rxi_mask(w, weight)
    report = {
        "window": window_text(w),
        "n": n,
        "length": length(w),
        "length_t": length_t(w),
        "rdes": descents.mask_text(n, mask & ((1 << n) - 1)),
        "rxi": descents.mask_text(n, mask),
        "insertion": tableaux.bitableau_text(plus, minus),
        "recording": tableaux.bitableau_text(plus_rec, minus_rec),
        "shape": tableaux.shape_text(plus, minus),
        "in_area": area.in_area(w),
    }
    if not args.quick:
        from . import vogan

        idx = element_index(w)
        orbits = vogan.xi_orbits(n, weight)
        run = vogan.vogan_classes(n, weight)
        report["orbit_id"] = orbits.class_of(idx)
        report["class_id"] = run.final.class_of(idx)
        report["class_label"] = run.final.label_of(run.final.class_of(idx))
    lines = (
        f"{key}\t{str(value).lower() if isinstance(value, bool) else value}"
        for key, value in report.items()
    )
    _emit(args, out, report, lines)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_common(parser, *, need_n=True, oracle=False) -> None:
    if need_n:
        parser.add_argument("--n", type=int, required=True, help="rank")
    # both weights are None until _resolve_defaults, so main can tell a
    # weight given on the command line from the default one
    parser.add_argument("--a", type=int, default=None, help="swap-generator weight")
    parser.add_argument("--b", type=int, default=None, help="sign-generator weight")
    parser.add_argument("--format", choices=FORMATS, default="tsv")
    if oracle:
        parser.add_argument(
            "--allow-heavy",
            action="store_true",
            help="permit the rank-5 Hecke oracle (about ten seconds per weight)",
        )


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Building it costs more than a warm request, and parsing reads it without
    changing it, so every request a process serves shares one.
    """
    parser = argparse.ArgumentParser(
        prog="bncells",
        description="Cells, orbits, and class refinements for signed permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="the three-column count table")
    p_table.add_argument("--max-n", type=int, default=7, dest="max_n")
    p_table.add_argument(
        "--exact",
        action="store_true",
        help="refine cell counts exactly at every rank (slower)",
    )
    p_table.add_argument("--format", choices=FORMATS, default="tsv")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="oracle-vs-classes comparison")
    _add_common(p_verify, oracle=True)
    p_verify.set_defaults(func=cmd_verify)

    p_cells = sub.add_parser("cells", help="dump a partition of the group")
    p_cells.add_argument("--method", choices=METHODS, default="vogan")
    _add_common(p_cells, oracle=True)
    # a refused flag prints the cells usage, as argparse's own cells errors do
    p_cells.set_defaults(func=cmd_dump, usage_error=p_cells.error)

    p_orbits = sub.add_parser("orbits", help="dump the orbit partition")
    p_orbits.add_argument("--side", choices=("right", "left"), default="right")
    _add_common(p_orbits)
    p_orbits.set_defaults(func=cmd_dump)

    p_element = sub.add_parser("element", help="single-element report")
    p_element.add_argument("--w", required=True, help="window, e.g. -2,1,3")
    p_element.add_argument(
        "--quick",
        action="store_true",
        help="skip the orbit/class ids (no group-wide computation)",
    )
    _add_common(p_element, need_n=False)
    p_element.set_defaults(func=cmd_element)

    p_area = sub.add_parser("area", help="dump the staircase-shape region")
    p_area.add_argument("--n", type=int, required=True)
    p_area.add_argument("--format", choices=FORMATS, default="tsv")
    p_area.set_defaults(func=cmd_dump)

    return parser


def _refuse_ignored_flags(args) -> None:
    """A usage error for a ``cells`` flag that its method would not read."""
    if args.command != "cells":
        return
    if args.allow_heavy and args.method != "oracle-kl":
        args.usage_error(
            f"cells --method {args.method} reads no --allow-heavy; only "
            "--method oracle-kl does"
        )
    if args.method in WEIGHTLESS_METHODS and (args.a, args.b) != (None, None):
        args.usage_error(
            f"cells --method {args.method} reads no --a or --b; its partition "
            "does not depend on the weight"
        )


def _resolve_defaults(args) -> None:
    # check --n before anything is built from it; the default weight is the
    # dominant one (1, n) for that rank, and the element command resolves
    # its own default b from the window's rank
    if getattr(args, "a", 1) is None:
        args.a = 1
    if getattr(args, "n", None) is not None:
        check_enumeration_rank(args.n)
        if getattr(args, "b", 0) is None:
            args.b = args.n


def _glue_window_values(argv: list[str]) -> list[str]:
    """Join ``--w -2,1`` into ``--w=-2,1`` so argparse accepts the dash."""
    glued = []
    i = 0
    while i < len(argv):
        if argv[i] == "--w" and i + 1 < len(argv):
            glued.append(f"--w={argv[i + 1]}")
            i += 2
        else:
            glued.append(argv[i])
            i += 1
    return glued


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(
        _glue_window_values(list(sys.argv[1:] if argv is None else argv))
    )
    _refuse_ignored_flags(args)
    try:
        _resolve_defaults(args)
        return args.func(args, out)
    except FalsificationError as exc:
        print(f"falsified: {exc}", file=sys.stderr)
        return 1
    except BnCellsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        if out is not sys.stdout:
            raise
        # The reader closed the pipe, as ``| head`` does.  Point stdout at
        # devnull so the flush at shutdown cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
