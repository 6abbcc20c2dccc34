"""Window rewriting moves that preserve the insertion bitableau.

Three involutive moves act on a window by a single right swap, each guarded
by a betweenness or sign condition (positions are 1-based, ``k`` is the
length of the window segment in play):

- kind I at ``i <= k-2``: if ``w(i)`` lies strictly between ``w(i+1)`` and
  ``w(i+2)``, swap positions ``i+1, i+2``;
- kind II at ``i <= k-2``: if ``w(i+2)`` lies strictly between ``w(i)`` and
  ``w(i+1)``, swap positions ``i, i+1``;
- kind III at ``i <= k-1``: if ``w(i)`` and ``w(i+1)`` have opposite signs,
  swap positions ``i, i+1``.

All three fix the insertion bitableau, so the classes they generate refine
its fibers; with all moves available the classes equal the fibers.  The
classes of any set of kinds and any prefix are computed for every element
of a rank at once, from the enumeration's columns; single moves on single
windows are not offered.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from typing import Sequence

from .errors import InvalidInputError
from .group import lanes_at_least, right_generator_tables, window_columns
from .partition import GroupPartition
from .vogan import orbits_of_image_tables

MOVE_KINDS = ("I", "II", "III")


def _scope(n: int, kinds: Sequence[str], prefix: int | None) -> int:
    """Check the move kinds and the prefix for rank ``n``; the prefix length."""
    k = n if prefix is None else prefix
    if not 0 <= k <= n:
        raise InvalidInputError(f"prefix {prefix} out of range for rank {n}")
    bad = set(kinds) - set(MOVE_KINDS)
    if bad:
        raise InvalidInputError(f"unknown move kinds {sorted(bad)}")
    return k


def _guard_masks(n: int, kinds: Sequence[str], k: int) -> dict[int, int]:
    """One lane per element for each generator a move uses: 1 where it moves.

    The guards of all elements are computed at once on the columns of
    :func:`~bncells.group.window_columns`, one 8-bit lane per element.
    :func:`~bncells.group.lanes_at_least` flags the lanes where ``x >= y``,
    which is ``x > y`` since the values of a window are distinct.  An entry
    lies between two others exactly when it is above one of them, the XOR
    of two such flags; the sign guard is the XOR of two negativity flags.
    The guards of moves that swap by the same generator are joined by OR.
    """
    columns = list(window_columns(n))
    guards: defaultdict[int, int] = defaultdict(int)
    for i in range(1, k - 1):
        x, y, z = columns[i - 1 : i + 2]
        if "I" in kinds:  # x between y and z
            guards[i + 1] |= lanes_at_least(x, y, n) ^ lanes_at_least(x, z, n)
        if "II" in kinds:  # z between x and y
            guards[i] |= lanes_at_least(z, x, n) ^ lanes_at_least(z, y, n)
    if "III" in kinds:
        negative = list(window_columns(n, lambda v: v < 0))
        for i in range(1, k):
            guards[i] |= negative[i - 1] ^ negative[i]
    return guards


def knuth_classes(
    n: int,
    kinds: Sequence[str] = MOVE_KINDS,
    prefix: int | None = None,
) -> GroupPartition:
    """Partition of the rank-``n`` group generated by the given moves.

    Every move is a guarded right swap, and each guard holds on ``w``
    exactly when it holds on the swapped window.  So a generator's table
    from :func:`~bncells.group.right_generator_tables`, with each element
    where none of its guards holds sent to itself, is still a permutation,
    and the classes are the orbits of these restricted tables, labelled by
    :func:`~bncells.vogan.orbits_of_image_tables`.  The guards come as one
    0/1 byte lane per element and generator from :func:`_guard_masks`; on
    ints with one table entry per lane, the mask picks the table's entry or
    the element's own index, lane by lane.  Nothing is cached: the partition reads every
    argument, and a warm process asks for it about once.

    It is not sized for rank 8: there it would hold the eight cached
    generator tables of about 41 MB each and seven restricted copies beside
    them, and label the orbits by a per-element Python search.
    """
    k = _scope(n, kinds, prefix)
    masks = _guard_masks(n, kinds, k)
    tables = right_generator_tables(n)
    total, order = len(tables[0]), sys.byteorder
    width = tables[0].itemsize
    fixed = int.from_bytes(array("i", range(total)), order)
    lanes = bytearray(width * total)
    low = 0 if order == "little" else width - 1  # the byte of a lane that holds 0 or 1
    steps = []
    for g, mask in masks.items():
        lanes[low::width] = mask.to_bytes(total, "little")
        chosen = int.from_bytes(lanes, order) * ((1 << 8 * width) - 1)
        moved = int.from_bytes(tables[g], order)
        step = fixed ^ ((moved ^ fixed) & chosen)
        steps.append(array("i", step.to_bytes(len(lanes), order)))
    return orbits_of_image_tables(n, steps)
