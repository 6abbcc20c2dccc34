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
from itertools import chain, islice, pairwise
from typing import Sequence

from .errors import InvalidInputError
from .group import (
    WeightFunction,
    group_order,
    lanes_at_least,
    right_descents,
    window_columns,
)
from .partition import GroupPartition


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
    """
    return GroupPartition.from_keys(
        n, rxi_masks(n, weight), label_fn=lambda mask: _from_mask(n, mask).to_text()
    )


def rxi_masks(n: int, weight: WeightFunction) -> array:
    """The :func:`rxi_partition` mask of every element, in canonical order.

    Each bit is a 0/1 flag in every 8-bit lane of the columns of
    :func:`~bncells.group.window_columns`: a sign read off a column, or one
    lane-wise comparison :func:`~bncells.group.lanes_at_least`.  Bits ``8p``
    to ``8p + 7`` are packed into byte plane ``p``, and the planes are
    interleaved into one ``array("I")``.
    """
    negative = list(window_columns(n, lambda v: v < 0))
    # the flag of bit b comes b-th, each made when it is packed; bit n
    # (position 1) stays 0, as that sign is the generator t, bit 0
    flags = chain(
        [negative[0]],
        (lanes_at_least(x, y, n) for x, y in pairwise(window_columns(n))),
        [0],
        (negative[k - 1] * weight.slope_exceeds(k - 1) for k in range(2, n + 1)),
    )
    if weight.a > weight.b and n >= 2:
        # w(1) + w(2) < 0 exactly when the entry of larger absolute value is
        # negative (the two absolute values differ)
        first, second = islice(window_columns(n, abs), 2)
        larger = lanes_at_least(first, second, n)
        flags = chain(flags, [negative[1] ^ ((negative[0] ^ negative[1]) & larger)])
    masks = array("I", [0]) * group_order(n)
    planes = [0] * masks.itemsize
    for bit, flag in enumerate(flags):
        planes[bit // 8] |= flag << bit % 8
    view = memoryview(masks).cast("B")
    for p, plane in enumerate(planes):
        view[p :: masks.itemsize] = plane.to_bytes(len(masks), "little")
    if sys.byteorder == "big":
        masks.byteswap()
    return masks


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
