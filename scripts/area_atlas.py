#!/usr/bin/env python3
"""Print an atlas of the double-staircase region at one rank.

For each sign count ``q`` the atlas lists the minimal element and its
reduced word, then every asymptotic cell (with members), and finally the
right-descent fibers with the pair of cells each one fuses.

Example:
    python3 scripts/area_atlas.py --n 3
"""

from __future__ import annotations

import argparse
import sys

from bncells.area import (
    area_decomposition,
    build_words,
    sigma_word,
    upsilon_decomposition,
)
from bncells.descents import mask_text, rxi_mask
from bncells.group import (
    WeightFunction,
    length,
    length_t,
    window_text,
    word_to_text,
)


def sort_cell(cell):
    return sorted(cell, key=lambda w: (length(w), w))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=3, help="rank")
    args = parser.parse_args(argv)
    if args.n < 2:
        parser.error("--n must be at least 2")
    n = args.n

    words = build_words(n)
    cells = area_decomposition(n)
    print(f"rank {n}: {sum(len(c) for c in cells)} region elements, "
          f"{len(cells)} cells, {2 ** (n - 1)} descent fibers")

    for q in range(n + 1):
        sig = words.sigma[q]
        print(f"\nsign count q={q}")
        print(f"  minimal element {window_text(sig.window)}  "
              f"word {word_to_text(sigma_word(n, q)) or 'e'}")
        for cell in cells:
            members = sort_cell(cell)
            if length_t(members[0]) != q:
                continue
            print(f"  cell ({len(members)}): "
                  + "  ".join(window_text(w) for w in members))

    print("\ndescent fibers (each fuses two cells)")
    for fiber in upsilon_decomposition(n):
        members = sort_cell(fiber)
        # at equal weights the invariant is the right descent set alone
        label = mask_text(n, rxi_mask(members[0], WeightFunction(1, 1)))
        halves = [
            sort_cell(c)[0] for c in cells if c <= fiber
        ]
        print(f"  rdes {label} ({len(members)}): cells at "
              + " and ".join(window_text(w) for w in sorted(halves)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
