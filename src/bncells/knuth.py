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
its fibers; with all moves available the classes equal the fibers.
The bridge search connects an element to its top-swap image using only
moves that stay off the final position for kind III.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import FalsificationError, InvalidInputError
from .group import lanes_at_least, mul_gen_right, right_generator_tables, window_columns
from .partition import GroupPartition
from .area import in_area
from .vogan import orbits_of_image_tables

Window = tuple[int, ...]

MOVE_KINDS = ("I", "II", "III")


@dataclass(frozen=True, order=True)
class Move:
    """One applicable rewriting move, rendered as ``kind@position``."""

    position: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in MOVE_KINDS:
            raise InvalidInputError(f"unknown move kind {self.kind!r}")
        if self.position < 1:
            raise InvalidInputError(f"move position must be >= 1, got {self.position}")

    def to_text(self) -> str:
        return f"{self.kind}@{self.position}"


def _scope(n: int, kinds: Sequence[str], prefix: int | None) -> int:
    """Check the move kinds and the prefix for rank ``n``; the prefix length."""
    k = n if prefix is None else prefix
    if not 0 <= k <= n:
        raise InvalidInputError(f"prefix {prefix} out of range for rank {n}")
    bad = set(kinds) - set(MOVE_KINDS)
    if bad:
        raise InvalidInputError(f"unknown move kinds {sorted(bad)}")
    return k


def _move_sites(
    w: Sequence[int], kinds: Sequence[str], k: int
) -> Iterator[tuple[int, str, int]]:
    """``(position, kind, generator)`` of each move whose guard holds on ``w``.

    Only moves inside the first ``k`` positions are tried; ``generator`` is
    the right swap the move makes.  :func:`_guard_masks` evaluates the same
    guards for every window of a rank at once.
    """
    kind_i, kind_ii = "I" in kinds, "II" in kinds
    for i in range(1, k - 1):
        x, y, z = w[i - 1], w[i], w[i + 1]
        if kind_i and (y < x < z or z < x < y):
            yield i, "I", i + 1
        if kind_ii and (x < z < y or y < z < x):
            yield i, "II", i
    if "III" in kinds:
        for i in range(1, k):
            if (w[i - 1] > 0) != (w[i] > 0):
                yield i, "III", i


def applicable_moves(
    w: Sequence[int],
    kinds: Sequence[str] = MOVE_KINDS,
    prefix: int | None = None,
) -> tuple[Move, ...]:
    """All moves applicable to ``w`` within its first ``prefix`` positions.

    >>> [m.to_text() for m in applicable_moves((-1, 2))]
    ['III@1']
    >>> [m.to_text() for m in applicable_moves((2, 3, 1))]
    ['I@1']
    """
    k = _scope(len(w), kinds, prefix)
    return tuple(
        sorted(Move(position=i, kind=kind) for i, kind, _ in _move_sites(w, kinds, k))
    )


def apply_move(w: Sequence[int], move: Move) -> Window:
    """Apply one move; raises when its guard does not hold.

    >>> apply_move((-1, 2), Move(position=1, kind="III"))
    (2, -1)
    """
    w = tuple(w)
    for i, _, g in _move_sites(w, (move.kind,), len(w)):
        if i == move.position:
            return mul_gen_right(w, g)
    raise InvalidInputError(f"move {move.to_text()} does not apply to {w}")


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


# ---------------------------------------------------------------------------
# bridge search
# ---------------------------------------------------------------------------


def _bridge_moves(w: Sequence[int]) -> tuple[Move, ...]:
    n = len(w)
    return applicable_moves(w, kinds=("I", "II")) + applicable_moves(
        w, kinds=("III",), prefix=n - 1
    )


def welsh_bridge(w: Sequence[int]) -> tuple[Move, ...]:
    """A move path from ``w`` to its top-swap image avoiding the last position.

    Requires ``w`` outside the double-staircase region with opposite signs in
    its final two entries — there the path is claimed always to exist, so an
    exhausted search is a falsification, not a usage error.

    >>> [m.to_text() for m in welsh_bridge((2, -3, 1, -4))]
    ['I@2']
    >>> len(welsh_bridge((-2, 3, 1, -4))) > 1
    True
    """
    start = tuple(w)
    n = len(start)
    if n < 2:
        raise InvalidInputError("bridge search needs rank at least 2")
    if in_area(start):
        raise InvalidInputError(f"window {start} lies inside the region")
    if (start[-2] > 0) == (start[-1] > 0):
        raise InvalidInputError(
            f"final two entries of {start} do not have opposite signs"
        )
    target = mul_gen_right(start, n - 1)
    parents: dict[Window, tuple[Window, Move] | None] = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        if cur == target:
            path: list[Move] = []
            back = parents[cur]
            while back is not None:
                prev, move = back
                path.append(move)
                back = parents[prev]
            return tuple(reversed(path))
        for move in _bridge_moves(cur):
            nxt = apply_move(cur, move)
            if nxt not in parents:
                parents[nxt] = (cur, move)
                queue.append(nxt)
    raise FalsificationError(
        f"no restricted move path from {start} to its top-swap image"
    )


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
