"""Weighted descent invariants refining the right descent set.

Beyond the generators, certain short reflections act as descent witnesses
once the sign-change weight ``b`` is large enough relative to the swap
weight ``a``:

- the two-sided sign reflection at position ``k`` (window ``k -> -k``)
  counts as a descent of ``w`` when ``b > (k-1) a`` and ``w(k) < 0``;
- when ``a > b`` the roles flip and the single extra witness is the
  negating swap of the first two positions (word ``t s1 t``), judged by the
  length test.

The full invariant — generators plus all gated sign reflections — is
constant on left cells in the regimes where cells are understood, and its
fibers start the class refinement in :mod:`bncells.vogan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import InvalidInputError
from .group import (
    WeightFunction,
    from_word,
    group_elements,
    length,
    mul,
    right_descents,
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


def _negating_swap_descent(w: Sequence[int]) -> bool:
    """Length test for the reflection sending ``(w(1), w(2))`` to ``(-w(2), -w(1))``."""
    n = len(w)
    if n < 2:
        return False
    reflection = from_word(n, (0, 1, 0))
    return length(mul(w, reflection)) < length(w)


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
        extra = frozenset({"ts1t"} if _negating_swap_descent(w) else ())
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


def rxi_partition(n: int, weight: WeightFunction) -> GroupPartition:
    """Fibers of the gated descent invariant over the whole rank-``n`` group.

    Labels are the rendered invariants.
    """
    keys = [rxi(w, weight) for w in group_elements(n)]
    return GroupPartition.from_keys(n, keys, label_fn=lambda k: k.to_text())


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
