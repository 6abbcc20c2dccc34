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
    the right swap the move makes.  The guards are written here alone.
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


def knuth_classes(
    n: int,
    kinds: Sequence[str] = MOVE_KINDS,
    prefix: int | None = None,
) -> GroupPartition:
    """Partition of the rank-``n`` group generated by the given moves.

    Each window is joined straight to the window each guarded move sends it
    to, with no :class:`Move` built.  Nothing is cached: the partition reads
    every argument, and a warm process asks for it about once.
    """
    k = _scope(n, kinds, prefix)
    index = group_index(n)
    uf = UnionFind(len(index))
    for i, w in enumerate(group_elements(n)):
        for _, _, g in _move_sites(w, kinds, k):
            uf.union(i, index[mul_gen_right(w, g)])
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
