"""The double-staircase region: elements whose two insertion tableaux are columns.

A window lies in the region exactly when its positive entries decrease (in
window order) and its negative entries increase as integers — equivalently,
when its insertion shape is a column pair ``(1^{n-q} | 1^q)`` with ``q`` the
number of negative entries.  The region has ``sum_q C(n,q)^2`` elements and
is closed under inversion and under multiplication by the longest element.

Everything here is built from explicit words in the generators, with every
structural identity the construction relies on asserted at build time
(raising :class:`FalsificationError` on failure):

- ``sigma(n, q)``: the minimal-length element with ``q`` sign changes and
  reversed positive block, assembled from a sign-change staircase word and a
  commuting swap staircase word;
- ``block_word(n, q)``: a fully commutative element of the swap-only
  subgroup with two distinct reduced block expressions, ``q(n-q)`` letters
  and ``C(n, q)`` suffixes;
- ``fused_word(n, q)``: the longer element with the braid identity
  ``(s_{n-q-1}..s_1) t  x block = block' x t x (s_1..s_q)`` whose suffixes
  describe one descent fiber of the region.

``area_decomposition`` splits the region into the ``2^n`` asymptotic left
cells; ``upsilon_decomposition`` splits it into the ``2^{n-1}`` right-descent
fibers, each a union of exactly two cells.
"""

from __future__ import annotations

import functools
import math
import re
from array import array
from dataclasses import dataclass
from typing import Sequence

from .errors import FalsificationError, InvalidInputError
from .group import (
    SignedPerm,
    from_word,
    group_order,
    inverse,
    iter_windows,
    lanes_at_least,
    length,
    mul,
    right_descents,
    suffixes,
    window_columns,
)

Window = tuple[int, ...]


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def in_area(w: Sequence[int]) -> bool:
    """Window test: positives decrease, negatives increase (as integers).

    >>> in_area((-2, -1, 4, 3))
    True
    >>> in_area((-1, -2, 3, 4))
    False
    """
    prev_pos: int | None = None
    prev_neg: int | None = None
    for x in w:
        if x > 0:
            if prev_pos is not None and x > prev_pos:
                return False
            prev_pos = x
        else:
            if prev_neg is not None and x < prev_neg:
                return False
            prev_neg = x
    return True


@functools.lru_cache(maxsize=None)
def _region_flags(n: int) -> bytes:
    """One byte per element in canonical order: 1 in the region, else 0.

    In the region the absolute values of each sign decrease in window order
    (positives decrease, negatives increase).  The columns of
    :func:`~bncells.group.window_columns` are walked left to right, one
    8-bit lane per element holding the depth ``n + 1 - |v|``, which rises
    where ``|v|`` falls and is never 0; an entry stays in the region when
    its depth is above the last depth of its sign (0 before the first).
    """
    depths = window_columns(n, lambda v: n + 1 - abs(v))
    positive = window_columns(n, lambda v: 0xFF if v > 0 else 0)
    inside, last_positive, last_negative = -1, 0, 0
    for depth, take in zip(depths, positive):
        above = lanes_at_least(depth, last_positive, n) & take
        inside &= above | lanes_at_least(depth, last_negative, n) & ~take
        last_positive ^= (last_positive ^ depth) & take
        last_negative ^= (last_negative ^ depth) & ~take
    return inside.to_bytes(group_order(n), "little")


def area_indices(n: int) -> array:
    """The element indices of the region members, increasing.

    Membership of every element is decided at once on the enumeration's
    columns (:func:`_region_flags`, cached per rank).  The members are few,
    so their positions are found by a bytes search, not a walk over the
    whole group.
    """
    return array("i", map(re.Match.start, re.finditer(b"\x01", _region_flags(n))))


@functools.lru_cache(maxsize=None)
def area_elements(n: int) -> tuple[Window, ...]:
    """Region members in group enumeration order; count is ``sum C(n,q)^2``.

    Only the members (:func:`area_indices`) are decoded to windows.  The
    count is checked against the closed form.
    """
    out = tuple(iter_windows(n, area_indices(n)))
    expected = sum(math.comb(n, q) ** 2 for q in range(n + 1))
    if len(out) != expected:
        raise FalsificationError(
            f"region size {len(out)} differs from expected {expected} at rank {n}"
        )
    return out


# ---------------------------------------------------------------------------
# generator words
# ---------------------------------------------------------------------------


def sign_staircase_word(n: int, q: int) -> tuple[int, ...]:
    """The ``q``-fold sign-change staircase ``(t)(s1 t)(s2 s1 t)...``."""
    _check_q(n, q)
    out: list[int] = []
    for j in range(1, q + 1):
        out.extend(range(j - 1, -1, -1))
    return tuple(out)


def swap_staircase_word(n: int, q: int) -> tuple[int, ...]:
    """The swap staircase ``(s_{q+1})(s_{q+2} s_{q+1})...(s_{n-1}..s_{q+1})``."""
    _check_q(n, q)
    out: list[int] = []
    for m in range(q + 1, n):
        out.extend(range(m, q, -1))
    return tuple(out)


def sigma_word(n: int, q: int) -> tuple[int, ...]:
    return sign_staircase_word(n, q) + swap_staircase_word(n, q)


def block_word(n: int, q: int) -> tuple[int, ...]:
    """Descending-block expression, ``q`` blocks of ``n - q`` letters each."""
    _check_q(n, q)
    out: list[int] = []
    for i in range(1, q + 1):
        out.extend(range(n - q + i - 1, i - 1, -1))
    return tuple(out)


def block_word_alt(n: int, q: int) -> tuple[int, ...]:
    """Ascending-block expression of the same element, ``n - q`` blocks."""
    _check_q(n, q)
    out: list[int] = []
    for j in range(1, n - q + 1):
        out.extend(range(n - q - j + 1, n - j + 1))
    return tuple(out)


def tail_word(n: int, q: int) -> tuple[int, ...]:
    """The swap tail ``s_{n-1} s_{n-2} ... s_q`` (empty once ``q >= n``)."""
    if q < 1:
        raise InvalidInputError(f"tail word needs q >= 1, got {q}")
    return tuple(range(n - 1, q - 1, -1))


def fused_word(n: int, q: int) -> tuple[int, ...]:
    """``(s_{n-q-1}..s_1) t (block word)`` — one side of the braid identity."""
    if not 0 <= q <= n - 1:
        raise InvalidInputError(f"need 0 <= q <= n-1, got q={q}")
    return tuple(range(n - q - 1, 0, -1)) + (0,) + block_word(n, q)


def fused_word_alt(n: int, q: int) -> tuple[int, ...]:
    """``(block word for q+1) t (s_1..s_q)`` — the other side."""
    if not 0 <= q <= n - 1:
        raise InvalidInputError(f"need 0 <= q <= n-1, got q={q}")
    return block_word(n, q + 1) + (0,) + tuple(range(1, q + 1))


def _check_q(n: int, q: int) -> None:
    if not 0 <= q <= n:
        raise InvalidInputError(f"need 0 <= q <= n, got q={q}, n={n}")


# ---------------------------------------------------------------------------
# verified word tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AreaWords:
    """Evaluated word tables for one rank, indexed by sign count ``q``.

    Construction re-derives and checks every identity used downstream; see
    :func:`build_words`.
    """

    n: int
    sigma: tuple[SignedPerm, ...]
    block: tuple[SignedPerm, ...]
    fused: tuple[SignedPerm, ...]


def _assert_reduced(n: int, word: tuple[int, ...], what: str) -> SignedPerm:
    elt = from_word(n, word)
    if length(elt) != len(word):
        raise FalsificationError(f"{what} word of rank {n} is not reduced: {word}")
    return elt


@functools.lru_cache(maxsize=None)
def build_words(n: int) -> AreaWords:
    """Evaluate and cross-check all region words at rank ``n``.

    Checks, for each ``q``: the two staircases commute and concatenate
    reducedly; the minimal element's window is ``(-q..-1, n..q+1)``; the two
    block expressions are reduced words for one element of length
    ``q(n-q)`` with ``C(n,q)`` suffixes, consistent with the one-rank-down
    recursion through the swap tail; and the two fused expressions are
    reduced words for one element of length ``(q+1)(n-q)``.
    """
    if n < 1:
        raise InvalidInputError(f"rank must be positive, got {n}")
    sigma: list[SignedPerm] = []
    block: list[SignedPerm] = []
    fused: list[SignedPerm] = []
    for q in range(n + 1):
        sign_part = _assert_reduced(n, sign_staircase_word(n, q), "sign staircase")
        swap_part = _assert_reduced(n, swap_staircase_word(n, q), "swap staircase")
        sig = _assert_reduced(n, sigma_word(n, q), "minimal region element")
        if sig != sign_part * swap_part or sig != swap_part * sign_part:
            raise FalsificationError(
                f"staircase parts fail to commute at rank {n}, q={q}"
            )
        expected_window = tuple(range(-q, 0)) + tuple(range(n, q, -1))
        if sig.window != expected_window:
            raise FalsificationError(
                f"minimal region element has window {sig.window}, "
                f"expected {expected_window}"
            )
        sigma.append(sig)

        blk = _assert_reduced(n, block_word(n, q), "block")
        blk_alt = _assert_reduced(n, block_word_alt(n, q), "alternate block")
        if blk != blk_alt:
            raise FalsificationError(f"block expressions disagree at rank {n}, q={q}")
        if length(blk) != q * (n - q):
            raise FalsificationError(f"block length is not q(n-q) at rank {n}, q={q}")
        if len(suffixes(blk)) != math.comb(n, q):
            raise FalsificationError(
                f"block suffix count differs from C({n},{q})"
            )
        if 1 <= q <= n - 1:
            down = from_word(n, block_word(n - 1, q - 1))
            tail = from_word(n, tail_word(n, q))
            if mul(down, tail) != tuple(blk) or length(down) + length(tail) != length(blk):
                raise FalsificationError(
                    f"block recursion through the swap tail fails at rank {n}, q={q}"
                )
        block.append(blk)

        if q <= n - 1:
            fus = _assert_reduced(n, fused_word(n, q), "fused")
            fus_alt = _assert_reduced(n, fused_word_alt(n, q), "alternate fused")
            if fus != fus_alt:
                raise FalsificationError(
                    f"fused expressions disagree at rank {n}, q={q}"
                )
            if length(fus) != (q + 1) * (n - q):
                raise FalsificationError(
                    f"fused length is not (q+1)(n-q) at rank {n}, q={q}"
                )
            fused.append(fus)
    return AreaWords(n=n, sigma=tuple(sigma), block=tuple(block), fused=tuple(fused))


# ---------------------------------------------------------------------------
# cell decomposition
# ---------------------------------------------------------------------------


def _suffixes_sorted(w: Sequence[int]) -> list[Window]:
    return sorted(suffixes(w), key=lambda u: (length(u), u))


def _reduced_product(*factors: Sequence[int]) -> Window:
    out: Window = tuple(factors[0])
    total = length(out)
    for f in factors[1:]:
        out = mul(out, f)
        total += length(f)
    if length(out) != total:
        raise FalsificationError(
            f"product of region factors is not reduced: {factors}"
        )
    return out


@functools.lru_cache(maxsize=None)
def area_decomposition(n: int) -> tuple[frozenset[Window], ...]:
    """The ``2^n`` asymptotic left cells inside the region.

    Cell ``(q, tau)`` is ``{pi x sigma(n,q) x tau^{-1}}`` with ``pi`` and
    ``tau`` ranging over suffixes of the block element; all products are
    checked reduced, the cells are checked pairwise disjoint with sizes
    ``C(n,q)``, and their union is checked to be the whole region.
    """
    words = build_words(n)
    cells: list[frozenset[Window]] = []
    seen: set[Window] = set()
    for q in range(n + 1):
        sig = words.sigma[q]
        pis = _suffixes_sorted(words.block[q])
        for tau in pis:
            tau_inv = inverse(tau)
            cell = frozenset(_reduced_product(pi, sig, tau_inv) for pi in pis)
            if len(cell) != math.comb(n, q):
                raise FalsificationError(
                    f"cell size {len(cell)} is not C({n},{q}) at q={q}"
                )
            if seen & cell:
                raise FalsificationError(f"cells overlap at rank {n}, q={q}")
            seen.update(cell)
            cells.append(cell)
    if seen != set(area_elements(n)):
        raise FalsificationError(f"cells fail to cover the region at rank {n}")
    if len(cells) != 2**n:
        raise FalsificationError(f"expected {2**n} cells, got {len(cells)}")
    return tuple(cells)


@functools.lru_cache(maxsize=None)
def _cell_lookup(n: int) -> dict[Window, frozenset[Window]]:
    out: dict[Window, frozenset[Window]] = {}
    for cell in area_decomposition(n):
        for w in cell:
            out[w] = cell
    return out


def asymptotic_cell(w: Sequence[int]) -> frozenset[Window]:
    """The asymptotic left cell of a region member.

    >>> sorted(asymptotic_cell((-1, 2)))
    [(-2, 1), (-1, 2)]
    """
    w = tuple(w)
    cell = _cell_lookup(len(w)).get(w)
    if cell is None:
        raise InvalidInputError(f"window {w} is outside the region")
    return cell


# ---------------------------------------------------------------------------
# descent fibers
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def upsilon_decomposition(n: int) -> tuple[frozenset[Window], ...]:
    """The ``2^{n-1}`` right-descent fibers of the region.

    Fiber ``(q, tau)`` — with ``tau`` over suffixes of the one-rank-down
    block element — is the disjoint union of the cells of
    ``sigma(n,q) tau^{-1}`` and ``sigma(n,q+1) tail^{-1} tau^{-1}``, and
    simultaneously the suffix set ``{pi x sigma(n,q) x tau^{-1} : pi <=
    fused element}``.  Both descriptions are computed and checked equal;
    fibers are checked disjoint, covering, of size ``C(n,q) + C(n,q+1)``,
    with constant right descents and pairwise distinct descent sets.
    """
    if n < 2:
        raise InvalidInputError(
            "descent fibers pair distinct sign counts; rank must be at least 2"
        )
    words = build_words(n)
    fibers: list[frozenset[Window]] = []
    descent_values: set[frozenset[int]] = set()
    seen: set[Window] = set()
    for q in range(n):
        sig = words.sigma[q]
        sig_up = words.sigma[q + 1]
        tail_inv = inverse(from_word(n, tail_word(n, q + 1)))
        fused_suffixes = _suffixes_sorted(words.fused[q])
        down_block = from_word(n, block_word(n - 1, q))
        for tau in _suffixes_sorted(down_block):
            tau_inv = inverse(tau)
            try:
                first = asymptotic_cell(_reduced_product(sig, tau_inv))
                second = asymptotic_cell(mul(mul(sig_up, tail_inv), tau_inv))
            except InvalidInputError as exc:
                raise FalsificationError(
                    f"paired representative left the region at rank {n}, q={q}"
                ) from exc
            if first & second:
                raise FalsificationError(
                    f"paired cells overlap at rank {n}, q={q}"
                )
            fiber = first | second
            via_suffixes = frozenset(
                _reduced_product(pi, sig, tau_inv) for pi in fused_suffixes
            )
            if fiber != via_suffixes:
                raise FalsificationError(
                    f"fiber descriptions disagree at rank {n}, q={q}"
                )
            if len(fiber) != math.comb(n, q) + math.comb(n, q + 1):
                raise FalsificationError(
                    f"fiber size is not C({n},{q}) + C({n},{q+1})"
                )
            descents = {right_descents(z) for z in fiber}
            if len(descents) != 1:
                raise FalsificationError(
                    f"right descents vary inside a fiber at rank {n}, q={q}"
                )
            if descents & descent_values:
                raise FalsificationError(
                    f"two fibers share a descent set at rank {n}, q={q}"
                )
            descent_values.update(descents)
            if seen & fiber:
                raise FalsificationError(f"fibers overlap at rank {n}, q={q}")
            seen.update(fiber)
            fibers.append(fiber)
    if seen != set(area_elements(n)):
        raise FalsificationError(f"fibers fail to cover the region at rank {n}")
    if len(fibers) != 2 ** (n - 1):
        raise FalsificationError(
            f"expected {2 ** (n - 1)} fibers, got {len(fibers)}"
        )
    return tuple(fibers)


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
