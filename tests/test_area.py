"""Region membership, word identities, and the cell/fiber decompositions."""

import math
from typing import Iterable, Sequence

import pytest

from bncells import area
from bncells.area import (
    Window,
    area_decomposition,
    area_elements,
    block_word,
    block_word_alt,
    build_words,
    fused_word,
    fused_word_alt,
    sigma_word,
    tail_word,
    upsilon_decomposition,
)
from bncells.errors import FalsificationError, InvalidInputError
from bncells.group import (
    element_index,
    from_word,
    group_elements,
    inverse,
    iter_windows,
    length,
    length_t,
    mul,
    right_descents,
    suffixes,
)
from bncells.hecke import left_cells
from bncells.tableaux import insertion_rows, is_column_pair

from .oracles import (
    canonical_word,
    coset_product_elements,
    extreme_windows,
    in_area,
    in_area_reduced,
)
from .test_hecke import cached_kl


# Statements on the region that no command runs: the definitional descent
# fiber of one member, and the split of a cell into its weight-stable halves.


def upsilon(w: Sequence[int]) -> frozenset[Window]:
    """Region members sharing the right descent set of ``w`` (definitional)."""
    w = tuple(w)
    n = len(w)
    if not in_area(w):
        raise InvalidInputError(f"window {w} is outside the region")
    target = right_descents(w)
    return frozenset(z for z in area_elements(n) if right_descents(z) == target)


def _letters_used(w: Sequence[int]) -> frozenset[int]:
    return frozenset(canonical_word(w))


def subcell_split(cell: Iterable[Sequence[int]]) -> tuple[frozenset[Window], frozenset[Window]]:
    """Split an asymptotic cell into its two weight-stable halves.

    The first half collects the products whose prefix avoids the top swap
    generator; the second is its complement.  Both halves are re-derived
    from the one-rank-down block elements and checked to agree; the second
    half is empty exactly for singleton cells.
    """
    members = frozenset(tuple(w) for w in cell)
    if not members:
        raise InvalidInputError("cannot split an empty cell")
    n = len(next(iter(members)))
    sig = min(members, key=lambda w: (length(w), w))
    if members not in area_decomposition(n):
        raise InvalidInputError("input is not an asymptotic cell of the region")
    q = length_t(sig)
    words = build_words(n)
    top = n - 1

    first: set[Window] = set()
    second: set[Window] = set()
    for pi in suffixes(words.block[q]):
        product = area._reduced_product(pi, sig)
        if top in _letters_used(pi):
            second.add(product)
        else:
            first.add(product)

    if len(members) == 1:
        if second:
            raise FalsificationError("singleton cell produced a second subcell")
    else:
        # non-singleton cells have 1 <= q <= n-1, so the one-rank-down block
        # elements on both sides of the split are defined
        via_down = frozenset(
            area._reduced_product(pi, sig)
            for pi in suffixes(from_word(n, block_word(n - 1, q)))
        )
        if frozenset(first) != via_down:
            raise FalsificationError(
                f"first subcell disagrees with its one-rank-down description at q={q}"
            )
        tail = from_word(n, tail_word(n, q))
        via_tail = frozenset(
            area._reduced_product(pi, mul(tail, sig))
            for pi in suffixes(from_word(n, block_word(n - 1, q - 1)))
        )
        if frozenset(second) != via_tail:
            raise FalsificationError(
                f"second subcell disagrees with its tail description at q={q}"
            )
    return frozenset(first), frozenset(second)


class TestMembership:
    def test_frozen_examples(self):
        assert in_area((-2, -1, 4, 3))
        assert in_area((3, -1, 2))
        assert not in_area((-1, -2, 3, 4))
        assert not in_area((1, 3, 2))
        assert in_area((1,)) and in_area((-1,))

    def test_window_test_matches_shape_test(self):
        # membership iff both insertion tableaux are single columns: the
        # element report's rule, read off the insertion rows
        for n in range(1, 7):
            for w in iter_windows(n):
                assert is_column_pair(*insertion_rows(w)[:2]) == in_area(w)

    def test_region_size(self):
        for n in range(1, 7):
            assert len(area_elements(n)) == sum(
                math.comb(n, q) ** 2 for q in range(n + 1)
            )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_region_filter_matches_the_window_test(self, n):
        # the lane filter against the per-window test over the reference order
        expected = tuple(w for w in coset_product_elements(n) if in_area(w))
        assert area_elements(n) == expected

    def test_count_check_fails_when_the_filter_drops_a_member(self, monkeypatch):
        flags = bytearray(area._region_flags(4))
        flags[flags.rindex(1)] = 0
        monkeypatch.setattr(area, "_region_flags", lambda n: bytes(flags))
        with pytest.raises(FalsificationError, match="region size 69 differs"):
            area_elements.__wrapped__(4)

    def test_reduced_region_removes_the_two_extremes(self):
        assert (in_area_reduced((2, 1)), in_area_reduced((-1, 2))) == (False, True)
        for n in range(1, 6):
            lo, hi = extreme_windows(n)
            assert in_area(lo) and in_area(hi)
            assert not in_area_reduced(lo) and not in_area_reduced(hi)
            reduced = [w for w in area_elements(n) if in_area_reduced(w)]
            assert len(reduced) == len(area_elements(n)) - 2

    def test_longest_element_not_in_region_beyond_rank1(self):
        for n in range(2, 6):
            assert not in_area(tuple(range(-1, -n - 1, -1)))

    def test_closed_under_inversion(self):
        for n in range(1, 6):
            members = set(area_elements(n))
            assert {inverse(w) for w in members} == members

    def test_closed_under_longest_element_translation(self):
        for n in range(1, 6):
            w0 = tuple(range(-1, -n - 1, -1))
            members = set(area_elements(n))
            assert {mul(w0, w) for w in members} == members

    def test_swap_vs_sign_descent_dichotomy(self):
        # inside the region a swap generator descends iff the corresponding
        # two-sided sign reflection ascends
        for n in range(2, 7):
            for w in area_elements(n):
                for i in range(1, n):
                    assert (i in right_descents(w)) != (w[i - 1] < 0)


class TestWords:
    def test_minimal_element_windows(self):
        for n in range(1, 7):
            words = build_words(n)
            for q in range(n + 1):
                expected = tuple(range(-q, 0)) + tuple(range(n, q, -1))
                assert words.sigma[q].window == expected

    def test_minimal_element_descents(self):
        for n in range(2, 7):
            words = build_words(n)
            for q in range(n + 1):
                expected = set(range(q + 1, n))
                if q >= 1:
                    expected.add(0)
                elif q == 0:
                    expected = set(range(1, n))
                assert right_descents(words.sigma[q]) == frozenset(expected)

    def test_block_element_properties(self):
        for n in range(2, 7):
            words = build_words(n)
            for q in range(n + 1):
                blk = words.block[q]
                assert length(blk) == q * (n - q)
                assert from_word(n, block_word_alt(n, q)) == blk
                assert 0 not in set(block_word(n, q))

    def test_fused_identity_holds_to_rank7(self):
        # the two fused expressions land on the same element, reduced
        for n in range(2, 8):
            words = build_words(n)
            for q in range(n):
                left = from_word(n, fused_word(n, q))
                right = from_word(n, fused_word_alt(n, q))
                assert left == right == words.fused[q]
                assert length(left) == (q + 1) * (n - q)

    def test_tail_is_block_suffix(self):
        for n in range(2, 6):
            for q in range(1, n):
                tail = from_word(n, tail_word(n, q))
                assert tail in suffixes(from_word(n, block_word(n, q)))

    def test_word_bounds_rejected(self):
        with pytest.raises(InvalidInputError):
            sigma_word(3, 4)
        with pytest.raises(InvalidInputError):
            fused_word(3, 3)
        with pytest.raises(InvalidInputError):
            tail_word(3, 0)


class TestCellDecomposition:
    def test_counts_and_sizes(self):
        for n in range(1, 7):
            cells = area_decomposition(n)
            assert len(cells) == 2**n
            sizes = sorted(len(c) for c in cells)
            expected = sorted(
                math.comb(n, q) for q in range(n + 1) for _ in range(math.comb(n, q))
            )
            assert sizes == expected

    def test_cells_are_sign_vector_fibers(self):
        # within the region, two elements share a cell iff their windows
        # have the same sign in every position
        for n in range(1, 6):
            for cell in area_decomposition(n):
                vectors = {tuple(x > 0 for x in w) for w in cell}
                assert len(vectors) == 1
            vector_count = len(
                {tuple(x > 0 for x in w) for w in area_elements(n)}
            )
            assert vector_count == 2**n

    def test_constant_sign_count_per_cell(self):
        for n in range(1, 6):
            for cell in area_decomposition(n):
                assert len({length_t(w) for w in cell}) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_cells_match_oracle_above_threshold(self, n):
        kl = cached_kl(n, 1, n)
        oracle = {
            frozenset(group_elements(n)[i] for i in cls)
            for cls in left_cells(kl).classes()
        }
        for cell in area_decomposition(n):
            assert cell in oracle


class TestDescentFibers:
    def test_counts_and_sizes(self):
        for n in range(2, 7):
            fibers = upsilon_decomposition(n)
            assert len(fibers) == 2 ** (n - 1)
            sizes = sorted(len(f) for f in fibers)
            expected = sorted(
                math.comb(n, q) + math.comb(n, q + 1)
                for q in range(n)
                for _ in range(math.comb(n - 1, q))
            )
            assert sizes == expected

    def test_definitional_fiber_matches(self):
        assert sorted(upsilon((-1, 2))) == [(-2, -1), (-2, 1), (-1, 2)]
        for n in range(2, 6):
            by_member = {}
            for fiber in upsilon_decomposition(n):
                for w in fiber:
                    by_member[w] = fiber
            for w in area_elements(n):
                assert upsilon(w) == by_member[w]

    def test_fiber_is_union_of_two_cells(self):
        for n in range(2, 6):
            cells = area_decomposition(n)
            for fiber in upsilon_decomposition(n):
                parts = [cell for cell in cells if cell & fiber]
                assert len(parts) == 2
                assert parts[0] | parts[1] == fiber

    def test_a_representative_outside_every_region_cell_is_falsified(self, monkeypatch):
        # without the cell of the rank-3 minimal element sigma(3, 0), the
        # first pairing at q = 0 finds no cell for its representative
        kept = tuple(cell for cell in area_decomposition(3) if (3, 2, 1) not in cell)
        monkeypatch.setattr(area, "area_decomposition", lambda n: kept)
        upsilon_decomposition.cache_clear()
        try:
            with pytest.raises(FalsificationError, match="left the region at rank 3, q=0"):
                upsilon_decomposition(3)
        finally:
            upsilon_decomposition.cache_clear()

    def test_rank1_rejected(self):
        with pytest.raises(InvalidInputError):
            upsilon_decomposition(1)

    def test_upsilon_rejects_outside_region(self):
        with pytest.raises(InvalidInputError):
            upsilon((1, 3, 2))


class TestSubcells:
    def test_partition_of_each_cell(self):
        for n in range(1, 6):
            for cell in area_decomposition(n):
                first, second = subcell_split(cell)
                assert first | second == cell
                assert not (first & second)
                assert (len(second) == 0) == (len(cell) == 1)
                assert min(cell, key=length) in first

    def test_halves_fit_inside_left_cells_at_every_weight(self):
        # each half must stay inside a single left cell at any weight
        for n in (2, 3):
            for a, b in [(1, 1), (1, n), (2, 1)]:
                kl = cached_kl(n, a, b)
                part = left_cells(kl)
                for cell in area_decomposition(n):
                    for half in subcell_split(cell):
                        ids = {part.class_of(element_index(w)) for w in half}
                        assert len(ids) <= 1

    def test_rejects_non_cell_input(self):
        with pytest.raises(InvalidInputError):
            subcell_split([(1, 2), (2, 1)])
        with pytest.raises(InvalidInputError):
            subcell_split([])
