"""Weighted descent invariants refining the right descent set.

Beyond the generators, certain short reflections act as descent witnesses
once the sign-change weight ``b`` is large enough relative to the swap
weight ``a``:

- the two-sided sign reflection at position ``k`` (window ``k -> -k``)
  counts as a descent of ``w`` when ``b > (k-1) a`` and ``w(k) < 0``;
- when ``a > b`` the roles flip and the single extra witness is the
  negating swap of the first two positions (word ``t s1 t``), a descent
  exactly when ``w(1) + w(2) < 0``.

The full invariant — generators plus all gated sign reflections — is
constant on left cells in the regimes where cells are understood, and its
fibers start the class refinement in :mod:`bncells.vogan`.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InvalidInputError, RankError
from .group import WeightFunction, lanes_at_least, right_descents, window_bytes
from .partition import GroupPartition

# Width of the lane each element's descent mask is computed in; the masks
# are read back as ``array("H")``, so it is 16.
LANE_BITS = 16


@dataclass(frozen=True)
class XiDescentSet:
    """A weighted descent invariant.

    ``classical`` holds generator letter codes; ``extended`` holds positions
    ``k >= 2`` whose gated sign reflection is a descent; ``extra`` holds
    names of the flipped-regime witnesses (only ``"ts1t"`` exists).
    """

    classical: frozenset[int] = field(default_factory=frozenset)
    extended: frozenset[int] = field(default_factory=frozenset)
    extra: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "classical", frozenset(self.classical))
        object.__setattr__(self, "extended", frozenset(self.extended))
        object.__setattr__(self, "extra", frozenset(self.extra))
        if any(k < 2 for k in self.extended):
            raise InvalidInputError("extended positions start at 2")
        if not self.extra <= {"ts1t"}:
            raise InvalidInputError(f"unknown extra witnesses {sorted(self.extra)}")

    def sort_key(self) -> tuple:
        return (
            sorted(self.classical),
            sorted(self.extended),
            sorted(self.extra),
        )

    def sign_positions(self) -> frozenset[int]:
        """Positions whose sign reflection is a descent (1 means the generator)."""
        out = set(self.extended)
        if 0 in self.classical:
            out.add(1)
        return frozenset(out)

    def to_text(self) -> str:
        """Render as ``t,s2,t3`` (generator part, then gated part); ``-`` if empty.

        >>> XiDescentSet(frozenset({0, 2}), frozenset({3})).to_text()
        't,s2,t3'
        >>> XiDescentSet().to_text()
        '-'
        """
        parts = []
        if 0 in self.classical:
            parts.append("t")
        parts.extend(f"s{i}" for i in sorted(self.classical) if i != 0)
        parts.extend(f"t{k}" for k in sorted(self.extended))
        parts.extend(sorted(self.extra))
        return ",".join(parts) if parts else "-"


def ts1t_descent(w: Sequence[int]) -> bool:
    """Whether the negating swap ``t s1 t`` of the first two positions is a descent.

    The reflection sends ``(w(1), w(2))`` to ``(-w(2), -w(1))`` and shortens
    ``w`` exactly when ``w(1) + w(2) < 0``; rank 1 has no such reflection.

    >>> ts1t_descent((1, -2)), ts1t_descent((2, -1)), ts1t_descent((-1,))
    (True, False, False)
    """
    return len(w) >= 2 and w[0] + w[1] < 0


def rdes_enhanced(w: Sequence[int], weight: WeightFunction) -> XiDescentSet:
    """Right descents plus the single rank-2 witness for the given weight.

    >>> rdes_enhanced((-1, -2), WeightFunction(1, 2)).to_text()
    't,s1,t2'
    >>> rdes_enhanced((-1, -2), WeightFunction(1, 1)).to_text()
    't,s1'
    >>> rdes_enhanced((-1, -2), WeightFunction(2, 1)).to_text()
    't,s1,ts1t'
    """
    classical = right_descents(w)
    if weight.b > weight.a:
        extended = frozenset({2} if len(w) >= 2 and w[1] < 0 else ())
        return XiDescentSet(classical, extended, frozenset())
    if weight.a > weight.b:
        extra = frozenset({"ts1t"} if ts1t_descent(w) else ())
        return XiDescentSet(classical, frozenset(), extra)
    return XiDescentSet(classical, frozenset(), frozenset())


def rxi(w: Sequence[int], weight: WeightFunction) -> XiDescentSet:
    """The full gated descent invariant (all sign positions up to the rank).

    Defined for ``b >= a``; for ``a > b`` it falls back to the rank-2
    enhancement, the finest invariant available there.

    >>> rxi((-2, -1, 3), WeightFunction(1, 3)).to_text()
    't,t2'
    >>> rxi((-2, -1, 3), WeightFunction(1, 1)).to_text()
    't'
    """
    if weight.a > weight.b:
        return rdes_enhanced(w, weight)
    classical = right_descents(w)
    extended = frozenset(
        k
        for k in range(2, len(w) + 1)
        if w[k - 1] < 0 and weight.slope_exceeds(k - 1)
    )
    return XiDescentSet(classical, extended, frozenset())


def _from_mask(n: int, mask: int) -> XiDescentSet:
    """The invariant that :func:`rxi_partition` encodes as ``mask`` at rank ``n``."""
    return XiDescentSet(
        frozenset(g for g in range(n) if mask >> g & 1),
        frozenset(k for k in range(2, n + 1) if mask >> (n + k - 1) & 1),
        frozenset({"ts1t"} if mask >> (2 * n) & 1 else ()),
    )


def rxi_partition(n: int, weight: WeightFunction) -> GroupPartition:
    """Fibers of the gated descent invariant over the whole rank-``n`` group.

    Each window is reduced to an integer mask of its :func:`rxi` value: bit
    ``g`` for the generator descent ``g`` (``0`` is ``t``), bit ``n + k - 1``
    for the gated sign position ``k`` and bit ``2n`` for ``ts1t``.  Class ids
    number the masks in order of first appearance.  Labels are the rendered
    invariants, each rendered once per fiber from its mask.

    The masks of all elements are computed at once.  Each column of
    :func:`~bncells.group.window_bytes` is widened into one int, a
    ``LANE_BITS``-bit lane per element, and each bit of the mask is one
    lane-wise comparison, :func:`~bncells.group.lanes_at_least`, which
    keeps the top bit of a lane exactly where ``x >= y``.  The mask must fit
    below that top bit, so ranks with ``2n + 1 >= LANE_BITS`` are refused.
    """
    if 2 * n + 1 >= LANE_BITS:
        raise RankError(
            f"the descent masks of rank {n} need {2 * n + 1} bits; a "
            f"{LANE_BITS}-bit lane holds {LANE_BITS - 1}"
        )
    buf = window_bytes(n)
    total = len(buf) // n
    width = LANE_BITS // 8

    def every_lane(value: int) -> int:
        return int.from_bytes(value.to_bytes(width, "little") * total, "little")

    top = LANE_BITS - 1
    high = every_lane(1 << top)

    def at_least(x: int, y: int, bit: int) -> int:
        return lanes_at_least(x, y, high) >> (top - bit)

    wide = bytearray(width * total)
    columns = []
    for i in range(n):
        wide[::width] = buf[i::n]
        columns.append(int.from_bytes(wide, "little"))
    # a byte holds v + n, so v < 0 exactly when n - 1 >= byte
    negative = every_lane(n - 1)
    mask = at_least(negative, columns[0], 0)
    for i in range(1, n):
        mask |= at_least(columns[i - 1], columns[i], i)
    for k in range(2, n + 1):
        if weight.slope_exceeds(k - 1):
            mask |= at_least(negative, columns[k - 1], n + k - 1)
    if weight.a > weight.b and n >= 2:
        # w(1) + w(2) < 0 exactly when 2n - 1 >= the sum of the two bytes
        mask |= at_least(every_lane(2 * n - 1), columns[0] + columns[1], 2 * n)
    masks = array("H", mask.to_bytes(width * total, "little"))
    if sys.byteorder == "big":
        masks.byteswap()
    first = {m: i for i, m in enumerate(dict.fromkeys(masks))}
    ids = array("i", map(first.__getitem__, masks))
    labels = tuple(_from_mask(n, m).to_text() for m in first)
    return GroupPartition(n=n, class_id=ids, labels=labels)


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
