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

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import FalsificationError, InvalidInputError
from .group import group_elements, group_index, mul_gen_right
from .partition import GroupPartition, UnionFind
from .area import in_area

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


def _between(x: int, lo: int, hi: int) -> bool:
    if lo > hi:
        lo, hi = hi, lo
    return lo < x < hi


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
    k = len(w) if prefix is None else prefix
    if not 0 <= k <= len(w):
        raise InvalidInputError(f"prefix {prefix} out of range for rank {len(w)}")
    bad = set(kinds) - set(MOVE_KINDS)
    if bad:
        raise InvalidInputError(f"unknown move kinds {sorted(bad)}")
    out = []
    for i in range(1, k - 1):
        if "I" in kinds and _between(w[i - 1], w[i], w[i + 1]):
            out.append(Move(position=i, kind="I"))
        if "II" in kinds and _between(w[i + 1], w[i - 1], w[i]):
            out.append(Move(position=i, kind="II"))
    if "III" in kinds:
        for i in range(1, k):
            if (w[i - 1] > 0) != (w[i] > 0):
                out.append(Move(position=i, kind="III"))
    out.sort()
    return tuple(out)


def apply_move(w: Sequence[int], move: Move) -> Window:
    """Apply one move; raises when its guard does not hold.

    >>> apply_move((-1, 2), Move(position=1, kind="III"))
    (2, -1)
    """
    w = tuple(w)
    i = move.position
    if move.kind == "I":
        if i + 2 > len(w) or not _between(w[i - 1], w[i], w[i + 1]):
            raise InvalidInputError(f"move {move.to_text()} does not apply to {w}")
        return mul_gen_right(w, i + 1)
    if move.kind == "II":
        if i + 2 > len(w) or not _between(w[i + 1], w[i - 1], w[i]):
            raise InvalidInputError(f"move {move.to_text()} does not apply to {w}")
        return mul_gen_right(w, i)
    if i + 1 > len(w) or (w[i - 1] > 0) == (w[i] > 0):
        raise InvalidInputError(f"move {move.to_text()} does not apply to {w}")
    return mul_gen_right(w, i)


def move_neighbors(
    w: Sequence[int],
    kinds: Sequence[str] = MOVE_KINDS,
    prefix: int | None = None,
) -> Iterator[Window]:
    for move in applicable_moves(w, kinds, prefix):
        yield apply_move(w, move)


def knuth_classes(
    n: int,
    kinds: Sequence[str] = MOVE_KINDS,
    prefix: int | None = None,
) -> GroupPartition:
    """Partition of the rank-``n`` group generated by the given moves."""
    index = group_index(n)
    uf = UnionFind(len(index))
    for i, w in enumerate(group_elements(n)):
        for z in move_neighbors(w, kinds, prefix):
            uf.union(i, index[z])
    return uf.to_partition(n)


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
