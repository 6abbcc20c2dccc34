"""Canonical-basis construction, its self-checks, and cell extraction."""

import copy
import dataclasses
import functools
import io
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bncells import hecke
from bncells.cli import main
from bncells.errors import BudgetError, FalsificationError, InvalidInputError
from bncells.group import (
    WeightFunction,
    canonical_word,
    group_elements,
    group_index,
    inverse,
    right_descents,
)
from bncells.hecke import (
    c_gen_mul,
    group_tables,
    h_add_scaled,
    h_equal,
    intern_element,
    kl_basis,
    left_cells,
    right_cells,
    t_basis,
    two_sided_cells,
    verify_bar_invariance,
    verify_degenerate_products,
)
from .oracles import oracle_t_mul_gen as t_mul_gen


@functools.lru_cache(maxsize=None)
def cached_kl(n, a, b):
    return kl_basis(n, WeightFunction(a, b))


def terms(h):
    """The ``(index, pairs)`` terms of a ``{index: {exp: coeff}}`` element."""
    return [(i, tuple(poly.items())) for i, poly in h.items()]


def element(kl, iw):
    """``C_w`` (``w`` of index ``iw``) read back as ``{index: {exp: coeff}}``."""
    return {y: dict(poly) for y, poly in kl.terms(iw)}


def with_stored(kl, iw, stored, polys=None):
    """``kl`` with ``C_w`` (``w`` of index ``iw``) stored as ``(ys, ids)``."""
    cw = kl.cw[:iw] + (stored,) + kl.cw[iw + 1 :]
    return dataclasses.replace(kl, cw=cw, polys=kl.polys if polys is None else polys)


def add_to_element(kl, iw, extra):
    """``kl`` with the element ``extra`` added to ``C_w`` (``w`` of index ``iw``)."""
    elt = element(kl, iw)
    h_add_scaled(elt, terms(extra), {0: 1})
    polys = list(kl.polys)
    stored = intern_element(elt, {poly: k for k, poly in enumerate(polys)}, polys)
    return with_stored(kl, iw, stored, tuple(polys))


def change_lowest_coefficient(kl, iw, delta):
    """``kl`` with ``delta`` added to the lowest term of ``T_e`` in ``C_w``."""
    return add_to_element(kl, iw, {0: {min(element(kl, iw)[0]): delta}})


def cells_as_windows(kl, partition):
    return {
        frozenset(kl.tables.elements[i] for i in cls) for cls in partition.classes()
    }


@given(st.dictionaries(st.integers(-6, 6), st.integers(-9, 9).filter(bool), max_size=6))
def test_symmetrized_nonneg(p):
    # the unique bar-invariant polynomial that agrees with p in degrees >= 0
    m = hecke._symmetrized_nonneg(p)
    assert hecke._bar(m) == m
    assert {k: c for k, c in m.items() if k >= 0} == {
        k: c for k, c in p.items() if k >= 0
    }


class TestGenerators:
    def test_identity_element(self):
        kl = cached_kl(1, 1, 1)
        assert element(kl, 0) == {0: {0: 1}}

    def test_generator_elements(self):
        # C_g = T_g + v^-weight(g) T_e
        kl = cached_kl(2, 1, 2)
        idx = group_index(2)
        i_t = idx[(-1, 2)]
        i_s = idx[(2, 1)]
        assert element(kl, i_t) == {i_t: {0: 1}, 0: {-2: 1}}
        assert element(kl, i_s) == {i_s: {0: 1}, 0: {-1: 1}}

    def test_quadratic_relation(self):
        # T_g^2 = T_e + (v^c - v^-c) T_g
        tables = group_tables(2)
        weight = WeightFunction(1, 3)
        idx = group_index(2)
        for g, c in [(0, 3), (1, 1)]:
            sq = t_mul_gen(tables, weight, t_basis(idx[(-1, 2) if g == 0 else (2, 1)]), g)
            i_g = idx[(-1, 2) if g == 0 else (2, 1)]
            assert sq == {0: {0: 1}, i_g: {c: 1, -c: -1}}

    def test_word_products_match_group(self):
        # folding generator multiplications reproduces T_w on both sides
        tables = group_tables(3)
        weight = WeightFunction(2, 3)
        idx = group_index(3)
        for w in group_elements(3):
            word = canonical_word(w)
            right = t_basis(0)
            for g in word:
                right = t_mul_gen(tables, weight, right, g, side="right")
            left = t_basis(0)
            for g in reversed(word):
                left = t_mul_gen(tables, weight, left, g, side="left")
            assert right == {idx[w]: {0: 1}}
            assert left == {idx[w]: {0: 1}}

    def test_left_right_multiplications_commute(self):
        tables = group_tables(3)
        weight = WeightFunction(1, 2)
        h = {5: {0: 1, -2: 3}, 17: {1: -1}, 40: {0: 2}}
        for g in range(3):
            for k in range(3):
                a = t_mul_gen(tables, weight, t_mul_gen(tables, weight, h, g, "left"), k, "right")
                b = t_mul_gen(tables, weight, t_mul_gen(tables, weight, h, k, "right"), g, "left")
                assert a == b

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_c_gen_mul_is_t_gen_plus_scaled_element(self, side):
        # C_g h = T_g h + v^-c h (and mirrored), on every C_w and a mixed element
        kl = cached_kl(3, 1, 2)
        mixed = {5: {0: 1, -2: 3}, 17: {1: -1}, 40: {0: 2}}
        for h in [element(kl, iw) for iw in range(kl.tables.order)] + [mixed]:
            for g in range(3):
                expected = t_mul_gen(kl.tables, kl.weight, h, g, side)
                h_add_scaled(expected, terms(h), {-kl.weight.letter_weight(g): 1})
                got = c_gen_mul(kl.tables, kl.weight, g, terms(h), side)
                assert h_equal(got, expected)

    def test_bad_side_rejected(self):
        with pytest.raises(InvalidInputError):
            c_gen_mul(group_tables(2), WeightFunction(1, 1), 0, terms(t_basis(0)), "up")


class TestBasisInvariants:
    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1), (2, 3), (5, 1)])
    def test_all_weights_rank2_pass_self_checks(self, a, b):
        kl = cached_kl(2, a, b)  # bar + degenerate checks run internally
        verify_bar_invariance(kl)
        verify_degenerate_products(kl)

    def test_unitriangular_with_negative_tail(self):
        kl = cached_kl(3, 1, 2)
        for iw in range(kl.tables.order):
            elt = element(kl, iw)
            assert elt[iw] == {0: 1}
            for iy, coeff in elt.items():
                if iy != iw:
                    assert max(coeff) < 0

    def test_support_within_bruhat_length(self):
        kl = cached_kl(3, 1, 3)
        for iw, (ys, _) in enumerate(kl.cw):
            for iy in ys:
                assert kl.tables.length[iy] <= kl.tables.length[iw]

    def test_inverse_symmetry_of_polynomials(self):
        # the T_w -> T_{w^-1} anti-automorphism preserves the canonical basis
        for n in (2, 3):
            kl = cached_kl(n, 1, n)
            index, elements = kl.tables.index, kl.tables.elements
            for w in group_elements(n):
                mirrored = {
                    index[inverse(elements[y])]: poly
                    for y, poly in kl.terms(index[w])
                }
                assert mirrored == dict(kl.terms(index[inverse(w)]))

    def test_frozen_polynomials(self):
        kl = cached_kl(2, 1, 2)
        index = kl.tables.index

        def p(y, w):
            return dict(dict(kl.terms(index[w])).get(index[y], ()))

        assert p((1, 2), (1, 2)) == {0: 1}
        assert p((1, 2), (-1, 2)) == {-2: 1}
        assert p((1, 2), (-2, 1)) == {-3: 1}
        assert p((2, 1), (-2, 1)) == {-2: 1}
        assert p((-2, 1), (1, 2)) == {}

    @pytest.mark.parametrize("n", [3, 4])
    def test_interning_table_holds_each_used_polynomial_once(self, n):
        kl = cached_kl(n, 3, 2)
        for poly in kl.polys:
            assert poly and poly == tuple(sorted(dict(poly).items()))
            assert all(c for _, c in poly)
        assert len(set(kl.polys)) == len(kl.polys)
        used = set().union(*(ids for _, ids in kl.cw))
        assert used == set(range(len(kl.polys)))

    def test_mu_covers_every_ascent_pair(self):
        kl = cached_kl(3, 1, 2)
        tables = kl.tables
        for g in range(3):
            for i in range(tables.order):
                if tables.length[tables.lmul[g][i]] > tables.length[i]:
                    assert (g, i) in kl.mu
                else:
                    assert (g, i) not in kl.mu

    def test_mu_matches_product_expansion(self):
        # C_g * C_w == C_{gw} + sum of stored coefficients times C_y
        kl = cached_kl(2, 1, 2)
        tables = kl.tables
        for (g, i), interference in kl.mu.items():
            got = c_gen_mul(tables, kl.weight, g, kl.terms(i))
            expected = {}
            h_add_scaled(expected, kl.terms(tables.lmul[g][i]), {0: 1})
            for j, m in interference.items():
                h_add_scaled(expected, kl.terms(j), m)
            assert h_equal(got, expected)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("a,b", [(1, 1), (3, 2), (2, 55)])
    @pytest.mark.parametrize("where", ["middle", "top"])
    def test_bar_check_catches_one_changed_coefficient(self, n, a, b, where):
        kl = cached_kl(n, a, b)
        by_length = kl.tables.by_length()
        iw = by_length[len(by_length) // 2] if where == "middle" else by_length[-1]
        with pytest.raises(FalsificationError, match=f"element {iw} "):
            verify_bar_invariance(change_lowest_coefficient(kl, iw, 1))

    def test_bar_check_catches_a_coefficient_wider_than_any_fixed_slot(self):
        kl = cached_kl(3, 2, 55)
        iw = kl.tables.by_length()[-1]
        with pytest.raises(FalsificationError, match=f"element {iw} "):
            verify_bar_invariance(change_lowest_coefficient(kl, iw, 2**40))

    def test_bar_check_slot_width_is_read_off_the_data(self):
        # For generators x, y of equal weight in slots i, j (length order),
        # X = (v - v^-1) (T_x - T_y - (2^(F i) - 2^(F j)) T_e) satisfies
        # bar(X) = -X, so C_w + X is not bar-invariant; yet with F bits per
        # slot X packs to zero and C_w + X packs like C_w.  Only a width
        # read off the data tells them apart, whatever fixed F is tried.
        kl = cached_kl(3, 2, 55)
        by_length = kl.tables.by_length()
        x, y = (kl.tables.lmul[g][0] for g in (1, 2))
        i, j = by_length.index(x), by_length.index(y)
        iw = by_length[-1]
        for fixed_bits in range(1, 65):
            spread = 2 ** (fixed_bits * i) - 2 ** (fixed_bits * j)
            extra = {x: {1: 1, -1: -1}, y: {1: -1, -1: 1}, 0: {1: -spread, -1: spread}}
            with pytest.raises(FalsificationError, match=f"element {iw} "):
                verify_bar_invariance(add_to_element(kl, iw, extra))

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("extra", ["T_e", "(v+v^-1) T_ws", "(v+v^-1) C_t"])
    def test_bar_check_enforces_the_degree_conditions(self, n, extra):
        # each mutant is bar-invariant; C_w0 + (v+v^-1) C_t also passes the
        # right-descent step by t, which shortens t, so only the degree
        # conditions (p_{y,w} in v^-1 Z[v^-1] for y < w) tell it from C_w0
        kl = cached_kl(n, 3, 2)
        iw = kl.tables.by_length()[-1]
        it, c = kl.tables.rmul[0][0], kl.weight.letter_weight(0)
        added = {
            "T_e": t_basis(0),
            "(v+v^-1) T_ws": {kl.tables.rmul[0][iw]: {1: 1, -1: 1}},
            "(v+v^-1) C_t": {it: {1: 1, -1: 1}, 0: {1 - c: 1, -1 - c: 1}},
        }[extra]
        with pytest.raises(FalsificationError, match=f"element {iw} fails the degree"):
            verify_bar_invariance(add_to_element(kl, iw, added))

    def test_bar_check_catches_a_term_the_peel_never_visits(self):
        # adding to C_w the coefficient r_x of T_x in C_{ws} C_s - C_w keeps
        # the degree conditions but removes x from the terms to peel; the
        # peel then leaves x behind as a residue
        kl = cached_kl(3, 1, 1)
        tables = kl.tables
        iw = tables.by_length()[-1]
        iu = tables.rmul[0][iw]
        residue = c_gen_mul(tables, kl.weight, 0, kl.terms(iu), side="right")
        h_add_scaled(residue, kl.terms(iw), {0: -1})
        ix = next(x for x, p in residue.items() if max(p) < 0)
        with pytest.raises(FalsificationError, match=f"element {iw} .*residue"):
            verify_bar_invariance(add_to_element(kl, iw, {ix: residue[ix]}))

    @pytest.mark.parametrize("n", [3, 4])
    def test_bar_check_catches_a_coefficient_that_is_not_bar_invariant(self, n):
        # v^-1 more on T_t in C_w0 keeps the degree conditions, and t is
        # shortened by the right descent t of w0, so only the bar-invariance
        # of the peeled coefficient at t can fail
        kl = cached_kl(n, 3, 2)
        iw, it = kl.tables.by_length()[-1], kl.tables.rmul[0][0]
        with pytest.raises(FalsificationError, match=f"element {iw} .*bar-invariant"):
            verify_bar_invariance(add_to_element(kl, iw, {it: {-1: 1}}))

    @pytest.mark.parametrize("n", [3, 4])
    def test_bar_check_catches_an_id_pointing_at_another_polynomial(self, n):
        kl = cached_kl(n, 3, 2)
        iw = kl.tables.by_length()[-1]
        ys, ids = kl.cw[iw]
        k = len(ids) // 2
        moved = array("i", ids)
        moved[k] = (ids[k] + 1) % len(kl.polys)
        with pytest.raises(FalsificationError, match=f"element {iw} "):
            verify_bar_invariance(with_stored(kl, iw, (ys, moved)))

    def test_bar_check_rejects_terms_out_of_index_order(self):
        # the same terms with two swapped: the layout promises increasing indices
        kl = cached_kl(3, 3, 2)
        iw = kl.tables.by_length()[-1]
        ys, ids = (array("i", part) for part in kl.cw[iw])
        ys[0], ys[1], ids[0], ids[1] = ys[1], ys[0], ids[1], ids[0]
        with pytest.raises(FalsificationError, match=f"element {iw} is not stored"):
            verify_bar_invariance(with_stored(kl, iw, (ys, ids)))

    def test_peel_rejects_interference_the_generator_does_not_shorten(self):
        # {0: 1} is bar-invariant, but generator 0 lengthens e (index 0)
        kl = cached_kl(2, 1, 2)
        with pytest.raises(FalsificationError, match="index 0 not shortened"):
            hecke._extract_interference(
                kl.tables, {0: {0: 1}}, kl.cw, kl.polys, kl.tables.lmul[0], -1,
                known_tops=True,
            )

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize(
        "broken,message",
        [
            ("braid", "braid relation"),
            ("commute", "do not commute"),
            ("involution", "not an involution"),
            ("length of e", "not the group's"),
            ("image of e", "differ at e"),
        ],
    )
    def test_bar_check_rejects_tables_that_are_not_the_groups(self, n, broken, message):
        kl = cached_kl(n, 3, 2)
        lmul, rmul = kl.tables.lmul, kl.tables.rmul
        tables = copy.copy(kl.tables)
        a, b = rmul[1][0], rmul[2][0]
        table = array("i", rmul[0])
        if broken == "braid":
            # re-pair two ascents in the right table of t: still an
            # involution that changes length by 1, but not B_n's table
            table[a], table[rmul[0][b]] = rmul[0][b], a
            table[b], table[rmul[0][a]] = rmul[0][a], b
            tables.rmul = (table, *rmul[1:])
        elif broken == "commute":
            tables.lmul = rmul
        elif broken == "involution":
            table[a], table[b] = table[b], table[a]
            tables.rmul = (table, *rmul[1:])
        elif broken == "length of e":
            tables.length = array("i", [1]) + kl.tables.length[1:]
        else:
            tables.lmul = (lmul[1], lmul[0], *lmul[2:])
        with pytest.raises(FalsificationError, match=message):
            verify_bar_invariance(dataclasses.replace(kl, tables=tables))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_kl_basis_runs_the_bar_check_by_default(self, monkeypatch, n):
        calls = []
        monkeypatch.setattr(hecke, "verify_bar_invariance", calls.append)
        kl = kl_basis(n, WeightFunction(1, n))
        assert len(calls) == 1 and calls[0] is kl
        kl_basis(n, WeightFunction(1, n), check_bar=False)
        assert len(calls) == 1

    def test_oracle_cells_command_runs_the_bar_check(self, monkeypatch):
        calls = []
        check = hecke.verify_bar_invariance

        def spy(kl):
            calls.append(kl.n)
            check(kl)

        monkeypatch.setattr(hecke, "verify_bar_invariance", spy)
        argv = ["cells", "--n", "3", "--method", "oracle-kl"]
        assert main(argv, out=io.StringIO()) == 0
        assert calls == [3]

    def test_budget_guards(self):
        with pytest.raises(BudgetError):
            kl_basis(6, WeightFunction(1, 5))
        with pytest.raises(BudgetError):
            kl_basis(5, WeightFunction(1, 4))


class TestCells:
    def test_rank1_cells(self):
        kl = cached_kl(1, 1, 1)
        assert left_cells(kl).num_classes == 2

    def test_rank2_cells_above_threshold_frozen(self):
        kl = cached_kl(2, 1, 2)
        expected = {
            frozenset({(1, 2)}),
            frozenset({(2, 1)}),
            frozenset({(-1, 2), (-2, 1)}),
            frozenset({(2, -1), (1, -2)}),
            frozenset({(-2, -1)}),
            frozenset({(-1, -2)}),
        }
        assert cells_as_windows(kl, left_cells(kl)) == expected

    def test_rank2_cells_at_threshold_frozen(self):
        kl = cached_kl(2, 1, 1)
        expected = {
            frozenset({(1, 2)}),
            frozenset({(-1, -2)}),
            frozenset({(-1, 2), (-2, 1), (-2, -1)}),
            frozenset({(2, 1), (2, -1), (1, -2)}),
        }
        assert cells_as_windows(kl, left_cells(kl)) == expected

    def test_rank2_weight_only_matters_through_regime(self):
        assert left_cells(cached_kl(2, 1, 2)).same_blocks(
            left_cells(cached_kl(2, 2, 5))
        )
        assert left_cells(cached_kl(2, 1, 1)).same_blocks(
            left_cells(cached_kl(2, 3, 3))
        )

    def test_weights_of_one_regime_keep_their_own_polynomials(self):
        # the refinement shares one run across a regime; the oracle must
        # not, because the regime claim is what it checks
        low, high = cached_kl(3, 1, 3), cached_kl(3, 1, 4)
        assert (low.weight, high.weight) == (WeightFunction(1, 3), WeightFunction(1, 4))
        assert left_cells(low).same_blocks(left_cells(high))
        pairs = [
            (list(low.terms(i)), list(high.terms(i))) for i in range(len(low.cw))
        ]
        assert any(mine != theirs for mine, theirs in pairs)

    def test_rank3_cell_counts(self):
        assert left_cells(cached_kl(3, 1, 3)).num_classes == 20
        assert left_cells(cached_kl(3, 1, 2)).num_classes == 16
        assert two_sided_cells(cached_kl(3, 1, 3)).num_classes == 10

    def test_right_cells_are_inverted_left_cells(self):
        kl = cached_kl(3, 1, 2)
        left = cells_as_windows(kl, left_cells(kl))
        right = cells_as_windows(kl, right_cells(kl))
        assert {frozenset(inverse(w) for w in cls) for cls in left} == right

    def test_two_sided_coarsens_both(self):
        for n, a, b in [(2, 1, 1), (3, 1, 3)]:
            kl = cached_kl(n, a, b)
            two = two_sided_cells(kl)
            assert left_cells(kl).refines(two)
            assert right_cells(kl).refines(two)

    @pytest.mark.parametrize("n,a,b", [(2, 1, 2), (2, 2, 1), (3, 1, 2), (3, 1, 3), (3, 2, 1)])
    def test_identity_and_longest_are_singletons(self, n, a, b):
        kl = cached_kl(n, a, b)
        part = left_cells(kl)
        idx = group_index(n)
        w0 = idx[tuple(range(-1, -n - 1, -1))]
        sizes = dict(zip(range(part.num_classes), map(len, part.classes())))
        assert sizes[part.class_of(0)] == 1
        assert sizes[part.class_of(w0)] == 1

    @pytest.mark.parametrize("n,a,b", [(2, 1, 1), (2, 1, 2), (3, 1, 2), (3, 1, 3)])
    def test_right_descents_constant_on_left_cells(self, n, a, b):
        kl = cached_kl(n, a, b)
        for cls in left_cells(kl).classes():
            descents = {right_descents(kl.tables.elements[i]) for i in cls}
            assert len(descents) == 1
