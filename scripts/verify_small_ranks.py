#!/usr/bin/env python3
"""Sweep weights at oracle-tractable ranks and try to falsify the package.

For each rank and each weight in a bracket-covering sweep, this script
computes the exact cell partition from the structure constants and checks
it against the cheaper invariants:

- left cells always refine the enhanced-descent fibers;
- in the regimes where equality is claimed (slope at least ``n - 1``),
  the refinement classes equal the left cells class by class;
- below that, where equality is not claimed, every left cell lies inside
  one refinement class.

One line per (rank, weight) pair; exits 1 if any check is falsified.
Rank 5 needs ``--allow-heavy``: each of its weights takes about ten
seconds (the oracle with its certificate, 2-core VM), and the whole
``--max-n 5`` sweep stays under 100 MB of memory.

Example:
    python3 scripts/verify_small_ranks.py --max-n 3
"""

from __future__ import annotations

import argparse
import sys

from bncells.descents import rxi_partition
from bncells.errors import RegimeError
from bncells.group import WeightFunction
from bncells.hecke import kl_basis, left_cells
from bncells.vogan import vogan_classes


def weights_for(n: int) -> list[WeightFunction]:
    out = [WeightFunction(1, b) for b in range(1, n + 2)]
    out += [WeightFunction(2, 2 * k + 1) for k in range(1, n)]
    return out


def check_weight(
    n: int, weight: WeightFunction, allow_heavy: bool
) -> tuple[bool, str]:
    cells = left_cells(kl_basis(n, weight, allow_heavy=allow_heavy))
    fibers = rxi_partition(n, weight)
    if not cells.refines(fibers):
        return False, "left cells do not refine the descent fibers"

    regime = weight.regime(n)
    try:
        run = vogan_classes(n, weight)
    except RegimeError:
        return True, f"{regime}: refinement out of range, fiber check only"

    if regime in ("asymptotic", "intermediate"):
        if not cells.same_blocks(run.final):
            return False, f"{regime}: classes differ from left cells"
        return True, f"{regime}: classes equal left cells ({cells.num_classes})"

    if not cells.refines(run.final):
        return False, f"{regime}: left cells do not refine the classes"
    return True, (
        f"{regime}: cells refine classes "
        f"({cells.num_classes} vs {run.final.num_classes})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=3, help="largest rank")
    parser.add_argument(
        "--allow-heavy",
        action="store_true",
        help="permit rank 5 (about ten seconds per weight)",
    )
    args = parser.parse_args(argv)
    if not 2 <= args.max_n <= 5:
        parser.error("--max-n must be 2..5 (structure-constant oracle range)")
    if args.max_n == 5 and not args.allow_heavy:
        parser.error("--max-n 5 needs --allow-heavy")

    failed = False
    for n in range(2, args.max_n + 1):
        for weight in weights_for(n):
            ok, detail = check_weight(n, weight, args.allow_heavy)
            status = "ok " if ok else "FAIL"
            print(f"{status} n={n} weight=({weight.a},{weight.b}) {detail}")
            failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
