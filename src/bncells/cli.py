"""Command-line front door: tables, verification pipelines, reports.

Subcommands
-----------

``table``
    The three-column count table (boundary-weight cells, dominant-weight
    cells, orbits) for ranks 2..7, computed — never echoed from constants.
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

All output is newline-terminated UTF-8; ``--format tsv|json`` selects the
encoding.  Exit codes: 0 = all checks pass, 1 = a checked claim is false,
2 = usage, budget, or regime error, 141 = the reader closed the output pipe
(the status a shell reports for SIGPIPE).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from functools import lru_cache

from .area import area_decomposition, area_elements, in_area, upsilon_decomposition
from .descents import rxi, rxi_partition, XiDescentSet
from .errors import BnCellsError, FalsificationError, RankError
from .group import (
    WeightFunction,
    check_enumeration_rank,
    element_index,
    group_elements,
    length,
    length_t,
    parse_window,
    right_descents,
    window_text,
)
from .hecke import check_oracle_budget, kl_basis, left_cells
from .partition import GroupPartition
from .tableaux import count_standard_bitableaux, rs_generalized, shape
from .vogan import classes_to_tsv, run_summary, vogan_classes, xi_orbits

METHODS = ("oracle-kl", "vogan", "rs-asymptotic", "rxi", "orbits", "area")
FORMATS = ("tsv", "json")
TABLE_RANKS = range(2, 8)
ORACLE_CROSS_CHECK_MAX_RANK = 4
EMIT_BATCH = 4096


def _emit(lines, out) -> None:
    """Write ``lines`` as they come, ``EMIT_BATCH`` lines to a write call.

    Written a line at a time, a dump streamed into a pipe leaves in
    buffer-sized pieces, and waking the reader for each one made a cold
    rank-6 ``cells`` about 10% slower on a 2-core VM.
    """
    lines = iter(lines)
    while batch := list(itertools.islice(lines, EMIT_BATCH)):
        out.write("\n".join(batch) + "\n")


def _emit_json(payload, out) -> None:
    out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _boundary_count_formula(n: int) -> int:
    return count_standard_bitableaux(n) - 2**n + 2 ** (n - 1)


def _dominant_count_formula(n: int) -> int:
    return count_standard_bitableaux(n)


def _table_row(n: int, exact: bool) -> dict:
    """Counts for one rank; cells refined exactly up to the oracle bound."""
    orbit_count = xi_orbits(n, WeightFunction(1, n)).num_classes
    refine_cells = exact or n <= ORACLE_CROSS_CHECK_MAX_RANK
    if refine_cells:
        dominant = vogan_classes(n, WeightFunction(1, n)).final
        boundary = vogan_classes(n, WeightFunction(1, n - 1)).final
        dom_count, bnd_count = dominant.num_classes, boundary.num_classes
        source = "refined"
        if dom_count != _dominant_count_formula(n):
            raise FalsificationError(
                f"rank {n}: refined dominant-weight count {dom_count} "
                f"disagrees with the counting formula "
                f"{_dominant_count_formula(n)}"
            )
        if bnd_count != _boundary_count_formula(n):
            raise FalsificationError(
                f"rank {n}: refined boundary-weight count {bnd_count} "
                f"disagrees with the counting formula "
                f"{_boundary_count_formula(n)}"
            )
    else:
        dom_count = _dominant_count_formula(n)
        bnd_count = _boundary_count_formula(n)
        source = "formula"
    if n <= ORACLE_CROSS_CHECK_MAX_RANK:
        for weight, refined in (
            (WeightFunction(1, n), dominant),
            (WeightFunction(1, n - 1), boundary),
        ):
            oracle = left_cells(kl_basis(n, weight))
            if not oracle.same_blocks(refined):
                raise FalsificationError(
                    f"rank {n}, weight ({weight.a},{weight.b}): oracle cells "
                    f"differ from refinement classes"
                )
        source = "refined+oracle"
    return {
        "n": n,
        "boundary": bnd_count,
        "dominant": dom_count,
        "orbits": orbit_count,
        "cells_source": source,
    }


def cmd_table(args, out) -> int:
    if args.max_n not in TABLE_RANKS:
        raise RankError(
            f"--max-n must be in {TABLE_RANKS.start}..{TABLE_RANKS.stop - 1}, "
            f"got {args.max_n}"
        )
    rows = [_table_row(n, args.exact) for n in range(TABLE_RANKS.start, args.max_n + 1)]
    if args.format == "json":
        _emit_json({"rows": rows}, out)
        return 0
    _emit(["n\tboundary\tdominant\torbits\tcells_source"], out)
    _emit(
        (
            "\t".join(
                str(row[key])
                for key in ("n", "boundary", "dominant", "orbits", "cells_source")
            )
            for row in rows
        ),
        out,
    )
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cells_as_sets(partition: GroupPartition) -> set[frozenset]:
    elements = group_elements(partition.n)
    return {
        frozenset(elements[i] for i in members)
        for members in partition.classes()
    }


def _class_diff(oracle: GroupPartition, classes: GroupPartition) -> str:
    """First oracle cell that is split or merged by the class partition."""
    elements = group_elements(oracle.n)
    for members in oracle.classes():
        hit = {classes.class_of(i) for i in members}
        if len(hit) != 1:
            windows = ", ".join(window_text(elements[i]) for i in sorted(members))
            return f"oracle cell {{{windows}}} meets {len(hit)} classes"
        cid = next(iter(hit))
        size = classes.class_sizes()[cid]
        if size != len(members):
            windows = ", ".join(window_text(elements[i]) for i in sorted(members))
            return (
                f"oracle cell {{{windows}}} sits inside a strictly larger "
                f"class of size {size}"
            )
    return "partitions agree"


def _verify_theorem_regime(n, weight, run, allow_heavy, checks) -> None:
    oracle = left_cells(kl_basis(n, weight, allow_heavy=allow_heavy))
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

    oracle_sets = _cells_as_sets(oracle)
    if weight.regime(n) == "asymptotic":
        region_cells = area_decomposition(n)
        label = "region cells"
    else:
        region_cells = upsilon_decomposition(n)
        label = "region cell pairs"
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

    if weight.regime(n) == "asymptotic":
        companion = WeightFunction(1, n - 1)
        dominant_cells = oracle_sets
        boundary_cells = _cells_as_sets(
            left_cells(kl_basis(n, companion, allow_heavy=allow_heavy))
        )
    else:
        companion = WeightFunction(1, n)
        boundary_cells = oracle_sets
        dominant_cells = _cells_as_sets(
            left_cells(kl_basis(n, companion, allow_heavy=allow_heavy))
        )
    region = set(area_elements(n))
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
    n = args.n
    if n < 2:
        raise RankError(f"verify needs rank >= 2 for the weight (1,n-1), got {n}")
    weight = WeightFunction(args.a, args.b)
    regime = weight.regime(n)
    # every regime the refinement accepts ("low" raises a RegimeError in
    # vogan_classes) runs the oracle, so its budget is checked first
    if regime != "low":
        check_oracle_budget(n, args.allow_heavy)
    run = vogan_classes(n, weight)
    checks: list[dict] = []
    if regime in ("asymptotic", "intermediate"):
        regime_label = regime
        _verify_theorem_regime(n, weight, run, args.allow_heavy, checks)
    else:
        # equality is not claimed here, and the oracle shows more cells
        # than classes; what is checked is that each cell lies in one class
        regime_label = f"{regime} (conjectural regime)"
        oracle = left_cells(kl_basis(n, weight, allow_heavy=args.allow_heavy))
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
    payload = {**run_summary(run), "regime": regime_label, "checks": checks}
    if args.format == "json":
        _emit_json(payload, out)
    else:
        _emit(
            [
                f"n\t{n}",
                f"weight\t{weight.a},{weight.b}",
                f"regime\t{regime_label}",
                f"num_classes\t{run.final.num_classes}",
                f"round_count\t{run.round_count}",
            ],
            out,
        )
        _emit(
            (
                f"check\t{c['check']}\t{'pass' if c['ok'] else 'FAIL'}\t"
                f"{c['detail']}"
                for c in checks
            ),
            out,
        )
    return 0 if all(c["ok"] for c in checks) else 1


# ---------------------------------------------------------------------------
# partition dumps
# ---------------------------------------------------------------------------


def _area_partition(n: int) -> GroupPartition:
    lookup = {}
    for cell in area_decomposition(n):
        label = window_text(min(cell, key=lambda w: (length(w), w)))
        for w in cell:
            lookup[w] = label
    keys = [lookup.get(w) for w in group_elements(n)]
    return GroupPartition.from_keys(n, keys, label_fn=str)


def _partition_for(args) -> tuple[GroupPartition, dict]:
    """The selected partition plus its JSON summary payload."""
    n, weight = args.n, WeightFunction(args.a, args.b)
    extra: dict = {}
    if args.method == "oracle-kl":
        part = left_cells(kl_basis(n, weight, allow_heavy=args.allow_heavy))
    elif args.method == "vogan":
        run = vogan_classes(n, weight)
        part = run.final
        extra = {"round_count": run.round_count}
    elif args.method == "rs-asymptotic":
        part = GroupPartition.from_keys(
            n,
            [rs_generalized(w)[1] for w in group_elements(n)],
            label_fn=lambda b: b.to_text(),
        )
    elif args.method == "rxi":
        part = rxi_partition(n, weight)
    elif args.method == "orbits":
        part = xi_orbits(n, weight)
    else:
        part = _area_partition(n)
    payload = {
        "n": n,
        "a": weight.a,
        "b": weight.b,
        "method": args.method,
        "num_classes": part.num_classes,
        **extra,
    }
    return part, payload


def cmd_cells(args, out) -> int:
    part, payload = _partition_for(args)
    if args.format == "json":
        _emit_json(payload, out)
    else:
        _emit(classes_to_tsv(part), out)
    return 0


def cmd_orbits(args, out) -> int:
    weight = WeightFunction(args.a, args.b)
    part = xi_orbits(args.n, weight, side=args.side)
    if args.format == "json":
        _emit_json(
            {
                "n": args.n,
                "a": weight.a,
                "b": weight.b,
                "side": args.side,
                "num_classes": part.num_classes,
            },
            out,
        )
    else:
        _emit(classes_to_tsv(part), out)
    return 0


def cmd_area(args, out) -> int:
    part = _area_partition(args.n)
    if args.format == "json":
        cells = area_decomposition(args.n)
        _emit_json(
            {
                "n": args.n,
                "num_classes": part.num_classes,
                "region_size": len(area_elements(args.n)),
                "cell_sizes": sorted(len(c) for c in cells),
            },
            out,
        )
    else:
        _emit(classes_to_tsv(part), out)
    return 0


# ---------------------------------------------------------------------------
# element report
# ---------------------------------------------------------------------------


def cmd_element(args, out) -> int:
    w = parse_window(args.w)
    n = len(w)
    weight = WeightFunction(args.a, args.b if args.b is not None else n)
    a_tab, b_tab = rs_generalized(w)
    report = {
        "window": window_text(w),
        "n": n,
        "length": length(w),
        "length_t": length_t(w),
        "rdes": XiDescentSet(right_descents(w)).to_text(),
        "rxi": rxi(w, weight).to_text(),
        "insertion": a_tab.to_text(),
        "recording": b_tab.to_text(),
        "shape": shape(w).to_text(),
        "in_area": in_area(w),
    }
    if not args.quick:
        idx = element_index(w)
        orbits = xi_orbits(n, weight)
        run = vogan_classes(n, weight)
        report["orbit_id"] = orbits.class_of(idx)
        report["class_id"] = run.final.class_of(idx)
        report["class_label"] = run.final.label_of(run.final.class_of(idx))
    if args.format == "json":
        _emit_json(report, out)
    else:
        _emit(
            (
                f"{key}\t"
                f"{str(value).lower() if isinstance(value, bool) else value}"
                for key, value in report.items()
            ),
            out,
        )
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_common(parser, *, need_n=True, oracle=False) -> None:
    if need_n:
        parser.add_argument("--n", type=int, required=True, help="rank")
    parser.add_argument("--a", type=int, default=1, help="swap-generator weight")
    parser.add_argument("--b", type=int, default=None, help="sign-generator weight")
    parser.add_argument("--format", choices=FORMATS, default="tsv")
    if oracle:
        parser.add_argument(
            "--allow-heavy",
            action="store_true",
            help="permit the rank-5 Hecke oracle (minutes of runtime)",
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
    p_cells.set_defaults(func=cmd_cells)

    p_orbits = sub.add_parser("orbits", help="dump the orbit partition")
    p_orbits.add_argument("--side", choices=("right", "left"), default="right")
    _add_common(p_orbits)
    p_orbits.set_defaults(func=cmd_orbits)

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
    p_area.set_defaults(func=cmd_area)

    return parser


def _resolve_rank_defaults(args) -> None:
    # check --n before anything is built from it; the default weight is the
    # dominant one for that rank, and the element command resolves its own
    # default from the window's rank
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
    args = build_parser().parse_args(
        _glue_window_values(list(sys.argv[1:] if argv is None else argv))
    )
    try:
        _resolve_rank_defaults(args)
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
