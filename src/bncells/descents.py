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
fibers start the class refinement in :mod:`bncells.vogan`.  It has one
form, an int mask: :func:`rxi_mask` for one window, :func:`rxi_masks` for
a whole rank in the same bit layout, and :func:`mask_text` renders every
label.
"""

from __future__ import annotations

import sys
from array import array
from functools import partial
from itertools import chain, islice, pairwise
from typing import Sequence

from .group import (
    WeightFunction,
    group_order,
    lanes_at_least,
    letter_to_text,
    right_descents,
    window_columns,
)
from .partition import GroupPartition


def rxi_mask(w: Sequence[int], weight: WeightFunction) -> int:
    """The gated descent invariant of one window, as an int mask.

    Bit ``g`` is the generator descent ``g`` (``0`` is ``t``), bit
    ``n + k - 1`` the gated sign position ``k`` and bit ``2n`` the ``ts1t``
    witness, which is a descent exactly when ``w(1) + w(2) < 0``.

    >>> mask_text(3, rxi_mask((-2, -1, 3), WeightFunction(1, 3)))
    't,t2'
    >>> mask_text(2, rxi_mask((-1, -2), WeightFunction(2, 1)))
    't,s1,ts1t'
    """
    n = len(w)
    mask = sum(1 << g for g in right_descents(w))
    mask += sum(
        1 << (n + k - 1)
        for k in range(2, n + 1)
        if w[k - 1] < 0 and weight.slope_exceeds(k - 1)
    )
    if weight.a > weight.b and n >= 2 and w[0] + w[1] < 0:
        mask += 1 << 2 * n
    return mask


def mask_text(n: int, mask: int) -> str:
    """Render a rank-``n`` mask as ``t,s2,t3``: generators, then gated positions.

    >>> mask_text(4, 0b10100101), mask_text(2, 1 << 4), mask_text(3, 0)
    ('t,s2,t2,t4', 'ts1t', '-')
    """
    parts = [letter_to_text(g) for g in range(n) if mask >> g & 1]
    parts += [f"t{k}" for k in range(2, n + 1) if mask >> (n + k - 1) & 1]
    if mask >> 2 * n & 1:
        parts.append("ts1t")
    return ",".join(parts) or "-"


def rxi_partition(n: int, weight: WeightFunction) -> GroupPartition:
    """Fibers of the gated descent invariant over the whole rank-``n`` group.

    Class ids number the :func:`rxi_masks` in order of first appearance;
    each fiber's label is its mask rendered by :func:`mask_text`.
    """
    return GroupPartition.from_keys(
        n, rxi_masks(n, weight), label_fn=partial(mask_text, n)
    )


def rxi_masks(n: int, weight: WeightFunction) -> array:
    """The :func:`rxi_mask` of every element, in canonical order.

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
