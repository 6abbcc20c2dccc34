"""Insertion correspondences, shape counting, canonical shape representatives."""

import math

import pytest
from hypothesis import given

from bncells import group, tableaux
from bncells.errors import InvalidInputError
from bncells.group import (
    SignedPerm,
    element_index,
    group_elements,
    group_order,
    inverse,
)
from bncells.tableaux import (
    conjugate_partition,
    count_standard_bitableaux,
    count_standard_tableaux,
    partitions,
    recording_fiber_ids,
    recording_fibers,
)

from bncells.vogan import classes_to_tsv

from .conftest import signed_perms
from .oracles import (
    Bipartition,
    Bitableau,
    StandardTableau,
    bipartitions,
    canonical_element,
    conjugate,
    reference_recording_fibers,
    rs_classic_inverse,
    rs_generalized,
    rs_generalized_inverse,
    shape,
    standard_bitableaux,
    standard_tableaux,
)


def all_positive_perms(n):
    import itertools

    return [p for p in itertools.permutations(range(1, n + 1))]


class TestPartitions:
    def test_partition_counts(self):
        # 1, 2, 3, 5, 7, 11, 15 partitions of 1..7
        assert [len(list(partitions(n))) for n in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]

    def test_conjugate_involution(self):
        for n in range(8):
            for p in partitions(n):
                assert conjugate_partition(conjugate_partition(p)) == p

    def test_conjugate_example(self):
        assert conjugate_partition((3, 1)) == (2, 1, 1)

    def test_bipartition_conjugate_swaps_sides(self):
        bp = Bipartition((3, 1), (2,))
        assert conjugate(bp) == Bipartition((1, 1), (2, 1, 1))
        for bp in bipartitions(4):
            assert conjugate(conjugate(bp)) == bp

    def test_bipartition_counts(self):
        # sum over k of p(k) * p(n - k)
        assert [len(list(bipartitions(n))) for n in range(1, 6)] == [2, 5, 10, 20, 36]


class TestCounting:
    def test_hook_count_small(self):
        assert count_standard_tableaux(()) == 1
        assert count_standard_tableaux((2, 1)) == 2
        assert count_standard_tableaux((3, 2)) == 5
        assert count_standard_tableaux((2, 2, 1)) == 5

    def test_hook_count_matches_enumeration(self):
        for n in range(7):
            for p in partitions(n):
                assert count_standard_tableaux(p) == len(standard_tableaux(p))

    def test_square_sum_identity(self):
        # sum over partitions of n of f^2 = n!
        for n in range(1, 7):
            assert sum(count_standard_tableaux(p) ** 2 for p in partitions(n)) == math.factorial(n)

    def test_bitableau_count_frozen(self):
        assert [count_standard_bitableaux(n) for n in range(1, 8)] == [
            2, 6, 20, 76, 312, 1384, 6512,
        ]

    def test_bitableau_square_sum_is_group_order(self):
        # the correspondence is a bijection W_n -> pairs of equal-shape bitableaux
        for n in range(1, 6):
            total = sum(len(standard_bitableaux(bp)) ** 2 for bp in bipartitions(n))
            assert total == group_order(n)

    def test_bitableau_count_matches_enumeration(self):
        for n in range(1, 5):
            assert count_standard_bitableaux(n) == sum(
                len(standard_bitableaux(bp)) for bp in bipartitions(n)
            )


class TestStandardTableaux:
    def test_frozen_listing(self):
        assert [t.to_text() for t in standard_tableaux((2, 1))] == ["1 2;3", "1 3;2"]

    def test_custom_entries(self):
        ts = standard_tableaux((1, 1), (4, 9))
        assert [t.to_text() for t in ts] == ["4;9"]

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            StandardTableau(((2, 1),))
        with pytest.raises(InvalidInputError):
            StandardTableau(((1, 2), (1,)))
        with pytest.raises(InvalidInputError):
            StandardTableau(((2,), (1,)))
        with pytest.raises(InvalidInputError):
            StandardTableau(((1,), (2, 3)))

    def test_bitableau_entries_must_partition(self):
        one = StandardTableau(((1,),))
        with pytest.raises(InvalidInputError):
            Bitableau(one, one)
        with pytest.raises(InvalidInputError):
            Bitableau(one, StandardTableau(((3,),)))


class TestClassicInsertion:
    # on an all-positive window the signed insertion is the classic one, with
    # empty minus tableaux
    def test_identity_word(self):
        A, B = rs_generalized((1, 2, 3))
        assert A.to_text() == "1 2 3 | -"
        assert A == B

    def test_reversal_word(self):
        A, B = rs_generalized((3, 2, 1))
        assert A.to_text() == "1;2;3 | -"
        assert A == B

    def test_frozen_example(self):
        A, B = rs_generalized((3, 1, 2))
        assert (A.to_text(), B.to_text()) == ("1 2;3 | -", "1 3;2 | -")

    def test_roundtrip_exhaustive(self):
        for n in range(1, 5):
            seen = set()
            for u in all_positive_perms(n):
                A, B = rs_generalized(u)
                assert A.minus.size == B.minus.size == 0
                assert A.shape == B.shape
                assert rs_classic_inverse(A.plus, B.plus) == u
                seen.add((A, B))
            assert len(seen) == math.factorial(n)

    def test_inverse_swaps_tableaux(self):
        for u in all_positive_perms(4):
            inv = tuple(u.index(j) + 1 for j in range(1, 5))
            A, B = rs_generalized(u)
            Ai, Bi = rs_generalized(inv)
            assert (Ai, Bi) == (B, A)

    def test_shape_mismatch_rejected(self):
        P = rs_generalized((1, 2))[0].plus
        Q = rs_generalized((2, 1))[0].plus
        with pytest.raises(InvalidInputError):
            rs_classic_inverse(P, Q)


class TestGeneralizedInsertion:
    def test_worked_example(self):
        A, B = rs_generalized(SignedPerm((-7, -5, 6, 4, 3, -2, 1)))
        assert A.to_text() == "1;3;4;6 | 2;5;7"
        assert B.to_text() == "3;4;5;7 | 1;2;6"

    def test_identity_and_negated_identity(self):
        A, B = rs_generalized((1, 2, 3))
        assert A.to_text() == "1 2 3 | -"
        assert A == B
        A, B = rs_generalized((-1, -2, -3))
        assert A.to_text() == "- | 1 2 3"
        assert A == B

    def test_inverse_swaps_bitableaux(self):
        for n in range(1, 5):
            for w in group_elements(n):
                A, B = rs_generalized(w)
                Ai, Bi = rs_generalized(inverse(w))
                assert (Ai, Bi) == (B, A)

    def test_roundtrip_exhaustive(self):
        for n in range(1, 5):
            seen = set()
            for w in group_elements(n):
                A, B = rs_generalized(w)
                assert A.shape == B.shape
                assert rs_generalized_inverse(A, B) == w
                seen.add((A, B))
            assert len(seen) == group_order(n)

    @given(signed_perms(max_rank=6))
    def test_roundtrip_property(self, w):
        A, B = rs_generalized(w)
        assert rs_generalized_inverse(A, B) == w

    def test_all_samesshape_pairs_realized(self):
        # every pair of equal-shape bitableaux arises from exactly one element
        n = 3
        pairs = set()
        for w in group_elements(n):
            pairs.add(rs_generalized(w))
        expected = set()
        for bp in bipartitions(n):
            bts = standard_bitableaux(bp)
            expected.update((a, b) for a in bts for b in bts)
        assert pairs == expected

    def test_shape_function(self):
        assert shape((-7, -5, 6, 4, 3, -2, 1)) == Bipartition((1,) * 4, (1,) * 3)
        assert shape((1, 2)) == Bipartition((2,), ())

    def test_recording_from_reconstruction(self):
        # the recording bitableau determines, with the insertion bitableau,
        # the original window; spot-check by rebuilding a scrambled pair
        w = SignedPerm((3, -1, 2, -4))
        A, B = rs_generalized(w)
        assert rs_generalized_inverse(A, B) == w
        # swapping the roles produces the inverse element
        assert rs_generalized_inverse(B, A) == inverse(w)


class TestRecordingFibers:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_per_element_reference(self, n):
        got = recording_fibers(n)
        expected = reference_recording_fibers(n)
        assert list(got.class_id) == list(expected.class_id)
        assert got.labels == expected.labels
        assert list(classes_to_tsv(got)) == list(classes_to_tsv(expected))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_least_indices_are_each_fibers_first_element(self, n):
        ids, firsts, codes = recording_fiber_ids(n)
        seen = {}
        for i, cid in enumerate(ids):
            seen.setdefault(cid, i)
        assert firsts == [seen[c] for c in range(len(seen))]
        assert len(codes) == len(firsts) == count_standard_bitableaux(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_fibers_decode_no_window_and_insert_once_per_p_and_entry(
        self, n, monkeypatch
    ):
        def no_windows(*args):
            raise AssertionError("a window was decoded")

        calls = []

        def counted(rows, x):
            calls.append(x)
            return insert(rows, x)

        insert = tableaux._insert
        for module in (group, tableaux):
            monkeypatch.setattr(module, "iter_windows", no_windows, raising=False)
        monkeypatch.setattr(tableaux, "_insert", counted)
        recording_fibers.cache_clear()
        assert recording_fibers(n).num_classes == count_standard_bitableaux(n)
        # one insertion per rank-(n-1) P bitableau and last entry at most
        assert len(calls) <= count_standard_bitableaux(n - 1) * 2 * n

    def test_keys_mark_where_rows_end(self):
        # both recording words read 1 2 3; the tableaux are 1 2 3 and 1 2;3
        part = recording_fibers(3)
        one_row, two_rows = (
            part.class_of(element_index(w)) for w in ((1, 2, 3), (2, 3, 1))
        )
        assert one_row != two_rows
        assert part.label_of(one_row) == "1 2 3 | -"
        assert part.label_of(two_rows) == "1 2;3 | -"

    def test_label_with_an_empty_plus_side(self):
        part = recording_fibers(2)
        assert part.label_of(part.class_of(element_index((-1, -2)))) == "- | 1 2"

    def test_fibers_build_no_window_tuples(self):
        group_elements.cache_clear()
        recording_fibers.cache_clear()
        assert recording_fibers(5).num_classes == count_standard_bitableaux(5)
        assert group_elements.cache_info().currsize == 0

    def test_a_second_call_does_not_rebuild_the_fibers(self, monkeypatch):
        recording_fibers.cache_clear()
        first = recording_fibers(4)
        monkeypatch.setattr(tableaux, "recording_fiber_ids", None)  # a rebuild raises
        assert recording_fibers(4) is first


class TestCanonicalElement:
    def test_single_negative_row_gives_block_reversal(self):
        n = 4
        w = canonical_element(Bipartition((), (n,)), n)
        assert w.window == (4, 3, 2, 1)

    def test_negative_column_gives_identity(self):
        n = 4
        w = canonical_element(Bipartition((), (1,) * n), n)
        assert w.window == (1, 2, 3, 4)

    def test_single_row_splits(self):
        # shape (q | n-q): first block sign-reversed, second block reversed
        for n in range(2, 6):
            for q in range(n + 1):
                w = canonical_element(Bipartition((q,) if q else (), (n - q,) if n - q else ()), n)
                expected = tuple(range(-q, 0)) + tuple(range(n, q, -1))
                assert w.window == expected

    def test_shape_is_conjugate_for_all_shapes(self):
        for n in range(1, 5):
            for bp in bipartitions(n):
                w = canonical_element(bp, n)
                assert shape(w) == conjugate(bp)

    def test_rank_mismatch(self):
        with pytest.raises(InvalidInputError):
            canonical_element(Bipartition((2,), ()), 3)
