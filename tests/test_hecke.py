"""Canonical-basis construction, its self-checks, and cell extraction."""

import copy
import dataclasses
import functools
import hashlib
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
    element_index,
    group_elements,
    inverse,
    length,
    mul_gen_left,
    right_descents,
)
from bncells.vogan import vogan_classes
from bncells.hecke import (
    LANE_BITS,
    c_gen_mul,
    decode,
    encode,
    group_tables,
    intern_element,
    kl_basis,
    lane_top,
    left_cells,
    verify_bar_invariance,
)
from .oracles import (
    canonical_word,
    h_add_scaled,
    reference_symmetrized_nonneg,
    right_cells,
    t_basis,
    two_sided_cells,
)
from .oracles import oracle_t_mul_gen as t_mul_gen


@functools.lru_cache(maxsize=None)
def cached_kl(n, a, b):
    return kl_basis(n, WeightFunction(a, b))


def h_equal(x, y):
    """Equal Hecke elements, ignoring zero coefficients."""
    return {i: c for i, c in x.items() if c} == {i: c for i, c in y.items() if c}


def terms(h):
    """The ``(index, pairs)`` terms of a ``{index: {exp: coeff}}`` element."""
    return [(i, tuple(poly.items())) for i, poly in h.items()]


def element(kl, iw):
    """``C_w`` (``w`` of index ``iw``) read back as ``{index: {exp: coeff}}``."""
    return {y: dict(poly) for y, poly in kl.terms(iw)}


def packed(h, top):
    """A ``{index: {exp: coeff}}`` element as ``{index: packed}``."""
    return {i: encode(poly, top) for i, poly in h.items()}


def unpacked(h, top):
    """A dense list of packed coefficients as ``{index: {exp: coeff}}``."""
    return {i: decode(p, top) for i, p in enumerate(h) if p}


def dense(h, order):
    """A ``{index: packed}`` element as a dense list of ``order`` entries."""
    out = [0] * order
    for i, p in h.items():
        out[i] = p
    return out


def packed_terms(kl, iw):
    """The ``(y, packed p_{y,w})`` terms of ``C_w`` as stored."""
    ys, ids = kl.cw[iw]
    return [(y, kl.polys[k]) for y, k in zip(ys, ids)]


def with_stored(kl, iw, stored, polys=None):
    """``kl`` with ``C_w`` (``w`` of index ``iw``) stored as ``(ys, ids)``."""
    cw = kl.cw[:iw] + (stored,) + kl.cw[iw + 1 :]
    return dataclasses.replace(kl, cw=cw, polys=kl.polys if polys is None else polys)


def add_to_element(kl, iw, extra):
    """``kl`` with the element ``extra`` added to ``C_w`` (``w`` of index ``iw``)."""
    elt = element(kl, iw)
    h_add_scaled(elt, terms(extra), {0: 1})
    polys = list(kl.polys)
    ids = {poly: k for k, poly in enumerate(polys)}
    h = dense(packed(elt, lane_top(kl.weight)), kl.tables.order)
    stored = intern_element(h, ids, polys)
    return with_stored(kl, iw, stored, tuple(polys))


def change_lowest_coefficient(kl, iw, delta):
    """``kl`` with ``delta`` added to the lowest term of ``T_e`` in ``C_w``."""
    return add_to_element(kl, iw, {0: {min(element(kl, iw)[0]): delta}})


def assert_mu_matches_product_expansion(kl):
    """``C_g * C_w == C_{gw} +`` the stored coefficients times ``C_y``, for every mu."""
    tables = kl.tables
    for (g, i), interference in kl.mu.items():
        got = c_gen_mul(tables, kl.weight, g, packed_terms(kl, i))
        got = unpacked(got, lane_top(kl.weight))
        expected = {}
        h_add_scaled(expected, kl.terms(tables.lmul[g][i]), {0: 1})
        for j, m in interference.items():
            h_add_scaled(expected, kl.terms(j), m)
        assert h_equal(got, expected), (g, i)


DESCENT_KINDS = ["several-descents", "one-descent"]


def left_descent_count(tables, i):
    return sum(tables.length[table[i]] < tables.length[i] for table in tables.lmul)


def middle_element(kl, single):
    """The median-length index with one left descent, or with two or more,
    among those whose construction peels at least one ``C_z``."""
    tables = kl.tables

    def peels(i):
        g = tables.min_left_descent(i)
        return bool(kl.mu[g, tables.lmul[g][i]])

    chosen = [
        i
        for i in tables.by_length()[1:]
        if (left_descent_count(tables, i) == 1) == single and peels(i)
    ]
    return chosen[len(chosen) // 2]


def building(monkeypatch, target):
    """A flag list, ``[True]`` while ``kl_basis`` builds ``C_w`` for ``w = target``.

    The construction reads each element's least left descent once, first.
    """
    now = [False]
    least = hecke.GroupTables.min_left_descent

    def spy(tables, i):
        now[0] = i == target
        return least(tables, i)

    monkeypatch.setattr(hecke.GroupTables, "min_left_descent", spy)
    return now


def cells_as_windows(kl, partition):
    return {
        frozenset(group_elements(kl.n)[i] for i in cls) for cls in partition.classes()
    }


# sha256 of every decoded (w, y, p_{y,w}) and every mu entry of the basis at
# (n, a, b), taken from the dict-of-dicts construction before polynomials
# were packed into ints (see test_basis_and_mu_are_frozen)
FROZEN_DIGESTS = {
    (3, 1, 1): "e8d57635723b711e1b9934d37bf82f2b496aef14457846a41f3bab04225f7668",
    (3, 1, 2): "8a434b4ae2a8a0b366502fc6d0f625010711fa64bf591bec482ff3ae55a1a35a",
    (3, 3, 2): "fa7713ca38eb007a0a6c30c8043c7a070de4b2d1e7ac11d1d8cf69966b36935b",
    (3, 2, 55): "d9bb753fea2b8b14be3bddf45e0b8098693e7013326256ba63d92b7f380b21bd",
    (4, 1, 1): "642fb146cc709d9444455b506d26c8883ea64086a581dbfb7f98cbb57b947f55",
    (4, 1, 2): "8516f622823f4c42baedbbfb7adb556b2802c6db925cc4e66a678f89ce170510",
    (4, 3, 2): "81f3c318d352056a043d2a81b919d66e65f2b9e066bd2eb2fe668082a7247f2d",
    (4, 2, 55): "3e3a7fb107a5c063f08ad6d30bdd4be79b1dcf350cb8697f0ae02c4610f5bc31",
}

LANE = 2 ** (LANE_BITS - 1)
COEFFICIENTS = st.integers(1 - LANE, LANE - 1).filter(bool)


@given(st.dictionaries(st.integers(-6, 6), COEFFICIENTS, max_size=6))
def test_symmetrized_nonneg(p):
    # the unique bar-invariant polynomial that agrees with p in degrees >= 0,
    # read off the packed lanes 0..6 whatever the signs of the coefficients
    m = hecke._symmetrized_nonneg(encode(p, 6), 6)
    assert m == reference_symmetrized_nonneg(p)
    assert {-k: c for k, c in m.items()} == m


@given(
    st.integers(0, 40).flatmap(
        lambda top: st.tuples(
            st.just(top),
            st.dictionaries(st.integers(-60, top), COEFFICIENTS, max_size=8),
            st.integers(0, top),
        )
    )
)
def test_lanes_round_trip_and_shift_exactly(case):
    top, p, c = case
    x = encode(p, top)
    assert decode(x, top) == p
    # v^-c is a left shift, always exact
    assert x << LANE_BITS * c == encode({e - c: k for e, k in p.items()}, top)
    # v^c is a right shift, exact while no exponent passes the top
    if all(e + c <= top for e in p):
        assert x >> LANE_BITS * c == encode({e + c: k for e, k in p.items()}, top)


def test_encode_refuses_what_a_lane_cannot_hold():
    extremes = {-1: 1 - LANE, 0: LANE - 1}
    assert decode(encode(extremes, 0), 0) == extremes
    for c in (LANE, -LANE, 2**40):
        with pytest.raises(BudgetError, match=f"{LANE_BITS}-bit lanes"):
            encode({0: c}, 3)
    with pytest.raises(InvalidInputError, match="above lane 0"):
        encode({4: 1}, 3)


class TestGenerators:
    def test_identity_element(self):
        kl = cached_kl(1, 1, 1)
        assert element(kl, 0) == {0: {0: 1}}

    def test_generator_elements(self):
        # C_g = T_g + v^-weight(g) T_e
        kl = cached_kl(2, 1, 2)
        i_t = element_index((-1, 2))
        i_s = element_index((2, 1))
        assert element(kl, i_t) == {i_t: {0: 1}, 0: {-2: 1}}
        assert element(kl, i_s) == {i_s: {0: 1}, 0: {-1: 1}}

    def test_quadratic_relation(self):
        # T_g^2 = T_e + (v^c - v^-c) T_g
        tables = group_tables(2)
        weight = WeightFunction(1, 3)
        for g, c in [(0, 3), (1, 1)]:
            i_g = element_index((-1, 2) if g == 0 else (2, 1))
            sq = t_mul_gen(tables, weight, t_basis(i_g), g)
            assert sq == {0: {0: 1}, i_g: {c: 1, -c: -1}}

    def test_word_products_match_group(self):
        # folding generator multiplications reproduces T_w on both sides
        tables = group_tables(3)
        weight = WeightFunction(2, 3)
        for w in group_elements(3):
            word = canonical_word(w)
            right = t_basis(0)
            for g in word:
                right = t_mul_gen(tables, weight, right, g, side="right")
            left = t_basis(0)
            for g in reversed(word):
                left = t_mul_gen(tables, weight, left, g, side="left")
            assert right == {element_index(w): {0: 1}}
            assert left == {element_index(w): {0: 1}}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_left_tables_match_window_products(self, n):
        lmul = group_tables(n).lmul
        assert len(lmul) == n
        for g, table in enumerate(lmul):
            expected = [element_index(mul_gen_left(g, w)) for w in group_elements(n)]
            assert list(table) == expected

    def test_tables_build_no_window_tuples(self):
        group_tables.cache_clear()
        group_elements.cache_clear()
        tables = group_tables(4)
        assert group_elements.cache_info().currsize == 0
        assert list(tables.length) == [length(w) for w in group_elements(4)]

    def test_left_right_multiplications_commute(self):
        tables = group_tables(3)
        weight = WeightFunction(1, 2)
        h = {5: {0: 1, -2: 3}, 17: {1: -1}, 40: {0: 2}}
        for g in range(3):
            for k in range(3):
                a = t_mul_gen(tables, weight, t_mul_gen(tables, weight, h, g, "left"), k, "right")
                b = t_mul_gen(tables, weight, t_mul_gen(tables, weight, h, k, "right"), g, "left")
                assert a == b

    def test_c_gen_mul_is_t_gen_plus_scaled_element(self):
        # C_g h = T_g h + v^-c h, on every C_w and a mixed element
        # (the lane top is one above the weight's: ``mixed`` has an exponent 1)
        kl = cached_kl(3, 1, 2)
        top = lane_top(kl.weight) + 1
        mixed = {5: {0: 1, -2: 3}, 17: {1: -1}, 40: {0: 2}}
        for h in [element(kl, iw) for iw in range(kl.tables.order)] + [mixed]:
            for g in range(3):
                expected = t_mul_gen(kl.tables, kl.weight, h, g)
                h_add_scaled(expected, terms(h), {-kl.weight.letter_weight(g): 1})
                got = c_gen_mul(kl.tables, kl.weight, g, packed(h, top).items())
                assert h_equal(unpacked(got, top), expected)

    @pytest.mark.parametrize(
        "n,a,b",
        [(2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 3), (2, 5, 1)]
        + [(3, 1, 2), (3, 1, 3), (3, 2, 1), (3, 3, 2)]
        + [(4, 1, 1), (4, 3, 2), (4, 2, 55)],
    )
    def test_c_gen_mul_degenerate_products(self, n, a, b):
        # C_g C_w = (v^c + v^-c) C_w whenever g shortens w
        kl = cached_kl(n, a, b)
        tables, weight = kl.tables, kl.weight
        for g in range(n):
            c = weight.letter_weight(g)
            for iw in range(tables.order):
                if tables.length[tables.lmul[g][iw]] < tables.length[iw]:
                    expected = {}
                    h_add_scaled(expected, kl.terms(iw), {c: 1, -c: 1})
                    got = c_gen_mul(tables, weight, g, packed_terms(kl, iw))
                    assert h_equal(unpacked(got, lane_top(weight)), expected), (g, iw)


class TestBasisInvariants:
    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1), (2, 3), (5, 1)])
    def test_all_weights_rank2_pass_self_checks(self, a, b):
        kl = cached_kl(2, a, b)  # the bar check runs internally
        verify_bar_invariance(kl)

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
            elements = group_elements(n)
            for w in group_elements(n):
                mirrored = {
                    element_index(inverse(elements[y])): poly
                    for y, poly in kl.terms(element_index(w))
                }
                assert mirrored == dict(kl.terms(element_index(inverse(w))))

    def test_frozen_polynomials(self):
        kl = cached_kl(2, 1, 2)

        def p(y, w):
            return dict(dict(kl.terms(element_index(w))).get(element_index(y), ()))

        assert p((1, 2), (1, 2)) == {0: 1}
        assert p((1, 2), (-1, 2)) == {-2: 1}
        assert p((1, 2), (-2, 1)) == {-3: 1}
        assert p((2, 1), (-2, 1)) == {-2: 1}
        assert p((-2, 1), (1, 2)) == {}

    @pytest.mark.parametrize("n", [3, 4])
    def test_interning_table_holds_each_used_polynomial_once(self, n):
        kl = cached_kl(n, 3, 2)
        top = lane_top(kl.weight)
        for poly in kl.polys:
            assert poly and encode(decode(poly, top), top) == poly
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
        assert_mu_matches_product_expansion(cached_kl(2, 1, 2))

    @pytest.mark.parametrize("n,a,b", [(3, 1, 2), (3, 3, 2), (4, 1, 1), (4, 2, 55)])
    def test_mu_matches_product_expansion_at_ranks_3_and_4(self, n, a, b):
        # the construction's mu (least left descents, read on descent halves)
        # and the ascent steps' mu (full products) against the same reference
        assert_mu_matches_product_expansion(cached_kl(n, a, b))

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
        # 2^40 more on the lowest term of T_e in C_w does not fit a lane: it
        # is refused when packed, and added to the packed int it carries into
        # the lane two above, which reads as another polynomial
        kl = cached_kl(3, 2, 55)
        iw = kl.tables.by_length()[-1]
        with pytest.raises(BudgetError, match=f"{LANE_BITS}-bit lanes"):
            change_lowest_coefficient(kl, iw, 2**40)
        (ys, ids), top = kl.cw[iw], lane_top(kl.weight)
        lowest = min(element(kl, iw)[0])
        polys = kl.polys + (kl.polys[ids[0]] + (2**40 << LANE_BITS * (top - lowest)),)
        moved = array("i", ids)
        moved[0] = len(polys) - 1
        assert decode(polys[-1], top) != element(kl, iw)[0]
        with pytest.raises(FalsificationError, match=f"element {iw} "):
            verify_bar_invariance(with_stored(kl, iw, (ys, moved), polys))

    def test_bar_check_slot_width_is_read_off_the_data(self):
        # q = 2^F v^e - v^(e-1) packs to zero in lanes of F bits, so with a
        # fixed F the mutant C_w + q T_e would pack like C_w.  A q that
        # does not fit the lanes is refused when it is packed; one that fits
        # is caught, or raises the largest stored coefficient, which the
        # check reads off the data, beyond what the lanes can carry
        kl = cached_kl(3, 2, 55)
        iw = kl.tables.by_length()[-1]
        e = min(element(kl, iw)[0])
        refusal = f"element {iw} |{LANE_BITS}-bit lanes"
        for fixed_bits in range(1, 65):
            with pytest.raises((FalsificationError, BudgetError), match=refusal):
                mutant = add_to_element(kl, iw, {0: {e: 2**fixed_bits, e - 1: -1}})
                verify_bar_invariance(mutant)
        mutant = add_to_element(kl, iw, {0: {e: LANE // 2, e - 1: -1}})
        with pytest.raises(BudgetError, match=f"{LANE_BITS}-bit lanes"):
            verify_bar_invariance(mutant)

    def test_kl_basis_refuses_lanes_its_bound_does_not_fit(self, monkeypatch):
        # the rank-3 bound reaches 20 at (1,2); 5-bit lanes hold up to 15
        monkeypatch.setattr(hecke, "LANE_BITS", 5)
        with pytest.raises(BudgetError, match="5-bit lanes"):
            kl_basis(3, WeightFunction(1, 2))

    def test_the_lane_width_is_one_constant(self, monkeypatch):
        # 6-bit lanes hold the rank-3 bound (20 < 32): same basis, same mu
        expected = cached_kl(3, 1, 2)
        want = [list(expected.terms(i)) for i in range(expected.tables.order)]
        monkeypatch.setattr(hecke, "LANE_BITS", 6)
        kl = kl_basis(3, WeightFunction(1, 2))
        assert [list(kl.terms(i)) for i in range(kl.tables.order)] == want
        assert kl.mu == expected.mu

    @pytest.mark.parametrize("n,a,b", FROZEN_DIGESTS)
    def test_basis_and_mu_are_frozen(self, n, a, b):
        kl = cached_kl(n, a, b)
        h = hashlib.sha256()
        for w in range(kl.tables.order):
            for y, poly in kl.terms(w):
                h.update(f"C {w} {y} {sorted(dict(poly).items())}\n".encode())
        for (g, i), interference in sorted(kl.mu.items()):
            for j, m in sorted(interference.items()):
                h.update(f"mu {g} {i} {j} {sorted(m.items())}\n".encode())
        assert h.hexdigest() == FROZEN_DIGESTS[n, a, b]

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("extra", ["T_e", "(v+v^-1) T_ws", "(v+v^-1) C_t"])
    def test_bar_check_enforces_the_degree_conditions(self, n, extra):
        # each mutant is bar-invariant; C_w0 + (v+v^-1) C_t also passes the
        # left-descent step by t, which shortens t, so only the degree
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
        # adding to C_w the coefficient r_x of T_x in C_g C_{gw} - C_w keeps
        # the degree conditions but zeroes x before the peel; once the
        # longer terms are peeled, x holds a residue that no bar-invariant
        # multiple removes
        kl = cached_kl(3, 1, 1)
        tables = kl.tables
        iw = tables.by_length()[-1]
        g = tables.min_left_descent(iw)
        residue = c_gen_mul(tables, kl.weight, g, packed_terms(kl, tables.lmul[g][iw]))
        residue = unpacked(residue, lane_top(kl.weight))
        h_add_scaled(residue, kl.terms(iw), {0: -1})
        ix = next(x for x, p in residue.items() if max(p) < 0)
        with pytest.raises(FalsificationError, match=f"element {iw} .*residue"):
            verify_bar_invariance(add_to_element(kl, iw, {ix: residue[ix]}))

    @pytest.mark.parametrize("n", [3, 4])
    def test_bar_check_catches_a_coefficient_that_is_not_bar_invariant(self, n):
        # v^-1 more on T_t in C_w0 keeps the degree conditions, and t is
        # shortened by the left descent t of w0, so only the bar-invariance
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
        top = lane_top(kl.weight)
        with pytest.raises(FalsificationError, match="index 0 not shortened"):
            hecke._extract_interference(
                kl.tables, dense({0: encode({0: 1}, top)}, kl.tables.order), kl.cw,
                kl.polys, kl.tables.lmul[0], kl.tables.levels()[::-1], top,
                known_tops=True, bound=2, scale=1,
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
        # kl_basis runs the certificate's private routine, with the elements
        # its ascent steps already certified
        calls = []
        monkeypatch.setattr(hecke, "_certify", lambda kl, stepped: calls.append(kl))
        kl = kl_basis(n, WeightFunction(1, n))
        assert len(calls) == 1 and calls[0] is kl
        kl_basis(n, WeightFunction(1, n), check_bar=False)
        assert len(calls) == 1

    def test_oracle_cells_command_runs_the_bar_check(self, monkeypatch):
        calls = []
        check = hecke._certify

        def spy(kl, stepped):
            calls.append(kl.n)
            check(kl, stepped)

        monkeypatch.setattr(hecke, "_certify", spy)
        argv = ["cells", "--n", "3", "--method", "oracle-kl"]
        assert main(argv, out=io.StringIO()) == 0
        assert calls == [3]

    def test_ascent_steps_certify_elements_with_two_left_descents(self, monkeypatch):
        # the certificate steps only the elements that had no ascent step:
        # those with a single left descent
        seen = []
        monkeypatch.setattr(hecke, "_certify", lambda kl, stepped: seen.append(stepped))
        tables = kl_basis(4, WeightFunction(1, 26)).tables
        several = {i for i in range(tables.order) if left_descent_count(tables, i) >= 2}
        assert seen == [several]
        assert (len(several), tables.order - 1 - len(several)) == (307, 76)

    def test_the_uncertified_basis_keeps_every_mu(self):
        kl = kl_basis(4, WeightFunction(1, 26), check_bar=False)
        assert sum(len(m) for m in kl.mu.values()) == 782
        assert left_cells(kl).num_classes == 76

    @pytest.mark.parametrize("single", [False, True], ids=DESCENT_KINDS)
    def test_kl_basis_catches_a_wrong_construction_mu(self, monkeypatch, single):
        # one more C_z peeled (1 is bar-invariant) while C_w is built
        now = building(monkeypatch, middle_element(cached_kl(4, 3, 2), single))
        symmetrized = hecke._symmetrized_nonneg
        changed = []

        def mutant(packed, top):
            m = symmetrized(packed, top)
            if now[0] and not changed:
                changed.append(m)
                m = {**m, 0: m.get(0, 0) + 1}
            return m

        monkeypatch.setattr(hecke, "_symmetrized_nonneg", mutant)
        with pytest.raises(FalsificationError):
            kl_basis(4, WeightFunction(3, 2))
        assert changed

    @pytest.mark.parametrize("single", [False, True], ids=DESCENT_KINDS)
    def test_a_wrong_filled_half_fails_a_certificate_step(self, monkeypatch, single):
        # v^-1 more at T_{gw} in C_w keeps the degree conditions and the
        # construction's own checks; only a full-product left step can see
        # it: in kl_basis an ascent step that reads C_w may see it first,
        # and verify_bar_invariance sees it in w's own step
        kl = cached_kl(4, 3, 2)
        tables = kl.tables
        iw = middle_element(kl, single)
        g = tables.min_left_descent(iw)
        iu = tables.lmul[g][iw]
        own_step = f"canonical element {iw} fails its left-descent step by {g}"
        with pytest.raises(FalsificationError, match=own_step):
            verify_bar_invariance(add_to_element(kl, iw, {iu: {-1: 1}}))
        now = building(monkeypatch, iw)
        intern = hecke.intern_element

        def mutant(h, ids, polys):
            if now[0]:
                h[iu] += 1 << LANE_BITS * (lane_top(WeightFunction(3, 2)) + 1)
            return intern(h, ids, polys)

        monkeypatch.setattr(hecke, "intern_element", mutant)
        with pytest.raises(FalsificationError, match="left-descent step"):
            kl_basis(4, WeightFunction(3, 2))

    def test_an_element_without_a_left_descent_is_a_falsified_table(self, monkeypatch):
        # t (length 1) sent up by its own left table: no generator shortens it
        kl = cached_kl(3, 1, 2)
        tables = copy.copy(kl.tables)
        it = tables.lmul[0][0]
        forged = array("i", tables.lmul[0])
        forged[it] = tables.lmul[1][it]
        tables.lmul = (forged, *tables.lmul[1:])
        missing = f"element {it} has no left descent"
        monkeypatch.setattr(hecke, "group_tables", lambda n: tables)
        with pytest.raises(FalsificationError, match=missing):
            kl_basis(3, WeightFunction(1, 2))
        # part (i) catches the forged table first, so pass it over to reach
        # the descent lookup of part (ii)
        monkeypatch.setattr(hecke, "_verify_generator_tables", lambda tables: None)
        with pytest.raises(FalsificationError, match=missing):
            verify_bar_invariance(dataclasses.replace(kl, tables=tables))

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

    def test_rank5_certified_cells_equal_the_refinement_classes(self):
        # the rank-5 oracle with its certificate, at the dominant weight
        weight = WeightFunction(1, 5)
        cells = left_cells(kl_basis(5, weight, allow_heavy=True))
        assert cells.num_classes == 312
        assert cells.same_blocks(vogan_classes(5, weight).final)

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
        w0 = element_index(tuple(range(-1, -n - 1, -1)))
        sizes = dict(zip(range(part.num_classes), map(len, part.classes())))
        assert sizes[part.class_of(0)] == 1
        assert sizes[part.class_of(w0)] == 1

    @pytest.mark.parametrize("n,a,b", [(2, 1, 1), (2, 1, 2), (3, 1, 2), (3, 1, 3)])
    def test_right_descents_constant_on_left_cells(self, n, a, b):
        kl = cached_kl(n, a, b)
        for cls in left_cells(kl).classes():
            descents = {right_descents(group_elements(n)[i]) for i in cls}
            assert len(descents) == 1
