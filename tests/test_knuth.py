"""Rewriting moves: invariants, generated classes, and the bridge search."""

import itertools

import pytest
from hypothesis import given

from bncells.errors import InvalidInputError, RankError
from bncells.group import (
    MAX_ENUMERATION_RANK,
    element_index,
    fix_last_projection,
    group_elements,
    length_t,
    mul_gen_right,
    right_generator_tables,
    window_bytes,
)
from bncells.knuth import MOVE_KINDS, _guard_masks, knuth_classes
from bncells.partition import GroupPartition
from bncells.tableaux import count_standard_bitableaux

from .conftest import signed_perms
from .oracles import (
    Move,
    _move_sites,
    applicable_moves,
    apply_move,
    coset_decompose,
    in_area,
    oracle_knuth_closure,
    rs_generalized,
    welsh_bridge,
)


def move_neighbors(w, kinds=MOVE_KINDS, prefix=None):
    """Reference neighbours: each applicable move, applied with its guard checked."""
    return [apply_move(w, move) for move in applicable_moves(w, kinds, prefix)]


class TestMoves:
    def test_frozen_sign_move(self):
        moves = applicable_moves((-1, 2))
        assert [m.to_text() for m in moves] == ["III@1"]
        assert apply_move((-1, 2), moves[0]) == (2, -1)

    def test_frozen_betweenness_moves(self):
        # 2 lies between 3 and 1 -> kind I swaps the later pair
        assert [m.to_text() for m in applicable_moves((2, 3, 1))] == ["I@1"]
        assert apply_move((2, 3, 1), Move(1, "I")) == (2, 1, 3)
        # 2 lies between 3 and 1 as the later entry -> kind II swaps the earlier pair
        assert [m.to_text() for m in applicable_moves((3, 1, 2))] == ["II@1"]
        assert apply_move((3, 1, 2), Move(1, "II")) == (1, 3, 2)

    def test_identity_has_no_moves(self):
        for n in range(1, 6):
            assert applicable_moves(tuple(range(1, n + 1))) == ()

    @given(signed_perms(max_rank=6))
    def test_involutive(self, w):
        for move in applicable_moves(w):
            z = apply_move(w, move)
            assert move in applicable_moves(z)
            assert apply_move(z, move) == tuple(w)

    @given(signed_perms(max_rank=6))
    def test_moves_preserve_insertion_bitableau(self, w):
        A, _ = rs_generalized(w)
        for z in move_neighbors(w):
            assert rs_generalized(z)[0] == A

    @given(signed_perms(max_rank=6))
    def test_moves_preserve_sign_count(self, w):
        for z in move_neighbors(w):
            assert length_t(z) == length_t(w)

    def test_guard_violations_rejected(self):
        with pytest.raises(InvalidInputError):
            apply_move((1, 2), Move(1, "III"))
        with pytest.raises(InvalidInputError):
            apply_move((1, 2, 3), Move(1, "I"))
        with pytest.raises(InvalidInputError):
            apply_move((2, 3, 1), Move(2, "I"))
        with pytest.raises(InvalidInputError):
            Move(1, "IV")
        with pytest.raises(InvalidInputError):
            Move(0, "I")

    def test_prefix_restricts_positions(self):
        w = (1, -2, 3, -4)
        full = {m.to_text() for m in applicable_moves(w, kinds=("III",))}
        cut = {m.to_text() for m in applicable_moves(w, kinds=("III",), prefix=3)}
        assert full == {"III@1", "III@2", "III@3"}
        assert cut == {"III@1", "III@2"}


class TestClasses:
    def test_full_classes_are_insertion_fibers(self):
        for n in range(1, 6):
            part = knuth_classes(n)
            fibers = GroupPartition.from_keys(
                n, (rs_generalized(w)[0] for w in group_elements(n))
            )
            assert part.same_blocks(fibers)

    def test_swap_only_classes_are_coset_and_tableau_fibers(self):
        # moves I and II alone preserve the sorted coset representative and
        # the classic insertion tableau of the positive part
        for n in range(1, 5):
            part = knuth_classes(n, kinds=("I", "II"))

            def key(w):
                d = coset_decompose(w, "J")
                return (d.rep, rs_generalized(d.part)[0])

            fibers = GroupPartition.from_keys(
                n, (key(w) for w in group_elements(n))
            )
            assert part.same_blocks(fibers)

    def test_prefix_classes_refine_projection_fibers(self):
        for n in range(2, 5):
            part = knuth_classes(n, prefix=n - 1)
            fibers = GroupPartition.from_keys(
                n,
                (
                    (w[-1], rs_generalized(fix_last_projection(w))[0])
                    for w in group_elements(n)
                ),
            )
            assert part.refines(fibers)

    def test_knuth_classes_match_bfs_closure(self):
        # every set of kinds and every prefix, against a breadth-first search
        # over the Move objects; both number classes by first appearance
        all_kinds = [
            kinds
            for size in range(len(MOVE_KINDS) + 1)
            for kinds in itertools.combinations(MOVE_KINDS, size)
        ]
        for n in range(2, 6):
            windows = group_elements(n)
            for kinds in all_kinds:
                for prefix in (None, *range(n + 1)):
                    part = knuth_classes(n, kinds, prefix)
                    comp = oracle_knuth_closure(
                        windows, lambda w: move_neighbors(w, kinds, prefix)
                    )
                    expected = [comp[w] for w in windows]
                    assert list(part.class_id) == expected, (n, kinds, prefix)

    def test_guard_masks_match_the_per_window_guards(self):
        # a generator's mask is 1 exactly where some listed move swaps by it
        subsets = [
            kinds
            for size in range(len(MOVE_KINDS) + 1)
            for kinds in itertools.combinations(MOVE_KINDS, size)
        ]
        for n, kinds in itertools.product(range(1, 6), subsets):
            windows = group_elements(n)
            for k in range(n + 1):
                expected = {}
                for i, w in enumerate(windows):
                    for _, _, g in _move_sites(w, kinds, k):
                        expected.setdefault(g, set()).add(i)
                masks = {
                    g: guard.to_bytes(len(windows), "little")
                    for g, guard in _guard_masks(n, kinds, k).items()
                }
                assert all(set(m) <= {0, 1} for m in masks.values())
                got = {g: {i for i, bit in enumerate(m) if bit} for g, m in masks.items()}
                assert {g: s for g, s in got.items() if s} == expected, (n, kinds, k)

    def test_classes_build_no_window_tuples(self):
        group_elements.cache_clear()
        assert knuth_classes(5).num_classes == count_standard_bitableaux(5)
        assert group_elements.cache_info().currsize == 0

    def test_rank_is_checked_before_any_buffer(self):
        window_bytes.cache_clear()
        right_generator_tables.cache_clear()
        with pytest.raises(RankError):
            knuth_classes(MAX_ENUMERATION_RANK + 1)
        assert window_bytes.cache_info().currsize == 0
        assert right_generator_tables.cache_info().currsize == 0

    def test_embedded_positive_classes(self):
        # positive windows only move by kinds I/II and reproduce the classic
        # insertion-tableau fibers of the symmetric group
        n = 3
        part = knuth_classes(n)
        by_tableau = {}
        for u in itertools.permutations(range(1, n + 1)):
            by_tableau.setdefault(rs_generalized(u)[0], set()).add(
                part.class_of(element_index(u))
            )
        for ids in by_tableau.values():
            assert len(ids) == 1
        assert len(by_tableau) == 4  # tableau count for rank 3


class TestBridge:
    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            welsh_bridge((-1, 2))  # inside the region
        with pytest.raises(InvalidInputError):
            welsh_bridge((1, 3, 2))  # same signs at the end
        with pytest.raises(InvalidInputError):
            welsh_bridge((1,))

    def test_exhaustive_small_rank(self):
        for n in (2, 3):
            for w in group_elements(n):
                if in_area(w) or (w[-2] > 0) == (w[-1] > 0):
                    continue
                path = welsh_bridge(w)
                cur = w
                seen_last_pos = False
                for move in path:
                    assert move in applicable_moves(cur)
                    if move.kind == "III" and move.position == n - 1:
                        seen_last_pos = True
                    cur = apply_move(cur, move)
                assert cur == mul_gen_right(w, n - 1)
                assert not seen_last_pos

    def test_spot_checks_rank4(self):
        assert [m.to_text() for m in welsh_bridge((2, -3, 1, -4))] == ["I@2"]
        assert len(welsh_bridge((-2, 3, 1, -4))) > 1
        for w in [(2, -3, 1, -4), (-2, 3, 1, -4), (1, -3, 2, -4), (-4, 2, -1, 3)]:
            path = welsh_bridge(w)
            cur = w
            for move in path:
                cur = apply_move(cur, move)
            assert cur == mul_gen_right(w, 3)
