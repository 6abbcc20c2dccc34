import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bncells.errors import InvalidInputError, RankError
from bncells.group import (
    MAX_ENUMERATION_RANK,
    T_LETTER,
    SignedPerm,
    WeightFunction,
    element_index,
    fix_last_projection,
    from_word,
    group_elements,
    group_order,
    inverse,
    inverse_index_table,
    iter_windows,
    left_descents,
    length,
    length_t,
    mul,
    mul_gen_left,
    mul_gen_right,
    parse_window,
    render_tsv,
    right_descents,
    right_generator_tables,
    suffixes,
    window_bytes,
    window_columns,
    word_to_text,
)

from .conftest import signed_perms
from .oracles import (
    bfs_lengths,
    canonical_word,
    coset_decompose,
    coset_product_elements,
    longest_parabolic,
    oracle_eval_word,
    oracle_is_suffix,
    parabolic_elements,
    reference_window_texts,
    rep_fix_last,
)


# ---------------------------------------------------------------------------
# construction and multiplication
# ---------------------------------------------------------------------------


class TestSignedPerm:
    def test_validation_rejects_bad_windows(self):
        for bad in [(), (0,), (1, 1), (2, 2), (3, 1), (1, -1)]:
            with pytest.raises(InvalidInputError):
                SignedPerm(bad)

    def test_call_convention(self):
        w = SignedPerm((-2, 1))
        assert w(1) == -2 and w(2) == 1
        assert w(-1) == 2 and w(-2) == -1

    @given(signed_perms(max_rank=5))
    def test_inverse_roundtrip(self, w):
        identity, w_inv = tuple(range(1, len(w) + 1)), SignedPerm(inverse(w))
        assert (w * w_inv).window == identity
        assert (w_inv * w).window == identity

    @given(signed_perms(min_rank=3, max_rank=3), signed_perms(min_rank=3, max_rank=3))
    def test_mul_matches_value_map_oracle(self, w, u):
        from .oracles import oracle_compose, oracle_from_window, oracle_window

        expected = oracle_window(
            oracle_compose(oracle_from_window(w.window), oracle_from_window(u.window))
        )
        assert (w * u).window == expected

    def test_generator_multiplication_shortcuts(self):
        for n in (2, 3, 4):
            for w in group_elements(n):
                for g in range(n):
                    gen = from_word(n, (g,))
                    assert mul_gen_right(w, g) == mul(w, gen)
                    assert mul_gen_left(g, w) == mul(gen, w)


class TestFromWord:
    def test_sign_change_generator(self):
        assert from_word(2, (T_LETTER,)).window == (-1, 2)

    def test_empty_word_is_identity(self):
        assert from_word(3, ()).window == (1, 2, 3)

    def test_length_four_word_in_rank_two(self):
        # Frozen value, independently certified by the BFS/value-map oracle.
        word = (T_LETTER, 1, T_LETTER, 1)
        assert oracle_eval_word(2, word) == (-1, -2)
        assert from_word(2, word).window == (-1, -2)

    def test_invalid_letter_raises(self):
        with pytest.raises(RankError):
            from_word(2, (2,))
        with pytest.raises(RankError):
            from_word(3, (0, 3))

    @given(st.integers(2, 4), st.data())
    def test_agrees_with_oracle_on_random_words(self, n, data):
        word = tuple(
            data.draw(st.lists(st.integers(0, n - 1), max_size=10), label="word")
        )
        assert from_word(n, word).window == oracle_eval_word(n, word)


# ---------------------------------------------------------------------------
# length
# ---------------------------------------------------------------------------


class TestLength:
    def test_identity(self):
        assert length((1, 2, 3)) == 0
        assert length_t((1, 2, 3)) == 0

    def test_longest_element_rank_two(self):
        assert length((-1, -2)) == 4
        assert length_t((-1, -2)) == 2

    def test_positive_reversal(self):
        for n in range(2, 6):
            w_rev = tuple(range(n, 0, -1))
            assert length(w_rev) == n * (n - 1) // 2
            assert length_t(w_rev) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_length_matches_cayley_distance_exhaustively(self, n):
        dist = bfs_lengths(n)
        for w in group_elements(n):
            assert length(w) == dist[w]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_length_t_counts_negative_entries(self, n):
        for w in group_elements(n):
            assert length_t(w) == sum(1 for x in w if x < 0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_length_t_counts_t_letters_in_reduced_word(self, n):
        for w in group_elements(n):
            word = canonical_word(w)
            assert from_word(n, word).window == w
            assert len(word) == length(w)
            assert sum(1 for g in word if g == T_LETTER) == length_t(w)

    @given(signed_perms(max_rank=6), st.data())
    def test_generator_changes_length_by_one(self, w, data):
        g = data.draw(st.integers(0, len(w) - 1), label="generator")
        lw, lwg = length(w), length(mul_gen_right(w, g))
        assert abs(lw - lwg) == 1
        assert (lwg < lw) == (g in right_descents(w))


# ---------------------------------------------------------------------------
# descents
# ---------------------------------------------------------------------------


class TestDescents:
    def test_identity_has_none(self):
        assert right_descents((1, 2, 3)) == frozenset()
        assert left_descents((1, 2, 3)) == frozenset()

    def test_window_example_rank_seven(self):
        # Frozen value derived by brute force (each letter tested by the
        # length drop of the product); note t at code 0, s_i at code i.
        y = (-7, -5, 6, 4, 3, -2, 1)
        derived = frozenset(
            g for g in range(7) if length(mul_gen_right(y, g)) < length(y)
        )
        assert derived == frozenset({0, 3, 4, 5})
        assert right_descents(y) == derived

    def test_block_word_descents(self):
        # sigma-type windows (-q..-1, n..q+1) have descents {t, s_{q+1}..s_{n-1}}
        # for q >= 1 and {s_1..s_{n-1}} for q = 0.
        for n in range(2, 7):
            for q in range(0, n + 1):
                sigma = tuple(range(-q, 0)) + tuple(range(n, q, -1))
                expected = set(range(q + 1, n))
                if q >= 1:
                    expected.add(T_LETTER)
                assert right_descents(sigma) == frozenset(expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_descents_match_bfs_exhaustively(self, n):
        dist = bfs_lengths(n)
        for w in group_elements(n):
            for g in range(n):
                drop = dist[mul_gen_right(w, g)] < dist[w]
                assert (g in right_descents(w)) == drop
            # the sign-change reflection at j (the window negating j)
            # shortens w exactly when w(j) < 0
            for j in range(1, n + 1):
                tj = tuple(-i if i == j else i for i in range(1, n + 1))
                assert (w[j - 1] < 0) == (dist[mul(w, tj)] < dist[w])

    @given(signed_perms(max_rank=5))
    def test_left_descents_are_right_descents_of_inverse(self, w):
        assert left_descents(w) == right_descents(inverse(w))


# ---------------------------------------------------------------------------
# suffixes
# ---------------------------------------------------------------------------


class TestSuffix:
    def test_identity_is_suffix_of_everything(self):
        e = (1, 2, 3)
        for w in group_elements(3):
            assert e in suffixes(w)

    def test_frozen_small_example(self):
        assert suffixes((-2, 1)) == frozenset({(1, 2), (-1, 2), (-2, 1)})
        assert (2, 1) not in suffixes((-1, 2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_trailing_segment_oracle(self, n):
        for w in group_elements(n):
            suf = suffixes(w)
            for y in group_elements(n):
                assert (y in suf) == oracle_is_suffix(n, y, w)

    @given(signed_perms(max_rank=4))
    def test_suffix_set_agrees_with_length_criterion(self, w):
        # y is a suffix of w exactly when length(w) = length(w y^-1) + length(y)
        suf = suffixes(w)
        for y in group_elements(len(w)):
            assert (y in suf) == (length(mul(w, inverse(y))) == length(w) - length(y))


# ---------------------------------------------------------------------------
# parabolic cosets
# ---------------------------------------------------------------------------


class TestCosets:
    @pytest.mark.parametrize("subset_id", ["J", "K"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_roundtrip_and_length_additivity(self, n, subset_id):
        for w in group_elements(n):
            d = coset_decompose(w, subset_id)
            assert (d.rep * d.part).window == w
            assert length(w) == length(d.rep) + length(d.part)
            if subset_id == "J":
                assert all(x > 0 for x in d.part)
            else:
                assert d.part[-1] == n

    @pytest.mark.parametrize("subset_id", ["J", "K"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_rep_is_minimal_for_whole_parabolic(self, n, subset_id):
        # the "K" elements are listed at rank n - 1: each is extended by n
        tail = (n,) if subset_id == "K" else ()
        reps = {coset_decompose(w, subset_id).rep for w in group_elements(n)}
        for rep in reps:
            for u in parabolic_elements(subset_id, n):
                u += tail
                assert length(mul(rep, u)) == length(rep) + length(u)

    @pytest.mark.parametrize("subset_id", ["J", "K"])
    def test_parabolic_member_decomposes_trivially(self, subset_id):
        n = 3
        tail = (n,) if subset_id == "K" else ()
        for u in parabolic_elements(subset_id, n):
            u += tail
            d = coset_decompose(u, subset_id)
            assert d.rep.window == (1, 2, 3)
            assert d.part == u

    def test_last_reflection_commutes_into_rep(self):
        for n in (2, 3, 4):
            tn = SignedPerm(tuple(range(1, n)) + (-n,))
            for u in parabolic_elements("K", n):
                u = SignedPerm(u + (n,))
                w = tn * u
                d = coset_decompose(w, "K")
                assert d.rep == tn
                assert d.part == u
                assert (u * tn).window == w.window  # the two factors commute

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fix_last_projection_matches_decomposition(self, n):
        for w in group_elements(n):
            d = coset_decompose(w, "K")
            assert fix_last_projection(w) == d.part.window[:-1]
            # the representative times the projection, padded back to rank n,
            # is w itself
            assert mul(rep_fix_last(n, w[-1]), fix_last_projection(w) + (n,)) == w

    def test_unsupported_subset_raises(self):
        with pytest.raises(InvalidInputError):
            coset_decompose((1, 2), "Z")

    def test_frozen_decompositions(self):
        d = coset_decompose((3, -1, 2), "J")
        assert (d.rep.window, d.part.window) == ((-1, 2, 3), (3, 1, 2))
        d = coset_decompose((-2, 3, -1), "K")
        assert (d.rep.window, d.part.window) == ((2, 3, -1), (-1, 2, 3))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


class TestEnumeration:
    def test_rank_one(self):
        assert group_elements(1) == ((1,), (-1,))

    def test_rank_two_starts_at_identity(self):
        els = group_elements(2)
        assert len(els) == 8
        assert els[0] == (1, 2)

    def test_rank_four_size_and_distinctness(self):
        els = group_elements(4)
        assert len(els) == 384
        assert len(set(els)) == 384

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_identity_first(self, n):
        assert group_elements(n)[0] == tuple(range(1, n + 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_index_arithmetic_matches_table(self, n):
        for i, w in enumerate(group_elements(n)):
            assert element_index(w) == i

    def test_inverse_table_is_involution(self):
        for n in range(1, 7):
            inv = inverse_index_table(n)
            assert list(inv) == [element_index(inverse(w)) for w in group_elements(n)]
            assert all(inv[j] == i for i, j in enumerate(inv))

    def test_inverse_table_builds_no_window_tuples(self):
        group_elements.cache_clear()
        inverse_index_table.cache_clear()
        assert len(inverse_index_table(5)) == group_order(5)
        assert group_elements.cache_info().currsize == 0

    @pytest.mark.parametrize("n", [0, MAX_ENUMERATION_RANK + 1])
    def test_inverse_table_checks_the_rank_before_building(self, n):
        right_generator_tables.cache_clear()
        with pytest.raises(RankError):
            inverse_index_table(n)
        assert right_generator_tables.cache_info().currsize == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_right_generator_tables_match_window_products(self, n):
        tables = right_generator_tables(n)
        assert len(tables) == n
        for g, table in enumerate(tables):
            expected = [element_index(mul_gen_right(w, g)) for w in group_elements(n)]
            assert list(table) == expected
            # a fixed-point-free involution
            assert all(table[j] == i != j for i, j in enumerate(table))

    def test_rank_cap(self):
        with pytest.raises(RankError):
            group_elements(8)
        with pytest.raises(RankError):
            group_elements(0)
        with pytest.raises(RankError):
            next(render_tsv(8, [], []))
        with pytest.raises(RankError):
            right_generator_tables(8)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_blocks_match_coset_products(self, n):
        # each block multiplies its representative into the rank-(n-1) windows
        assert group_elements(n) == coset_product_elements(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_window_bytes_store_every_window_shifted_by_n(self, n):
        expected = bytes(v + n for w in coset_product_elements(n) for v in w)
        assert window_bytes(n) == expected

    @pytest.mark.parametrize("n", [0, 8])
    def test_window_bytes_check_the_rank_before_building(self, n):
        window_bytes.cache_clear()
        with pytest.raises(RankError):
            window_bytes(n)
        assert window_bytes.cache_info().currsize == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_window_columns_hold_each_entry_in_one_lane(self, n):
        reference = coset_product_elements(n)
        total = len(reference)

        def lanes(column):
            return list(column.to_bytes(total, "little"))

        stored = window_columns(n)
        negative = window_columns(n, lambda v: v < 0)
        for i, column, flags in zip(range(n), stored, negative, strict=True):
            entries = [w[i] for w in reference]
            assert lanes(column) == [v + n for v in entries]
            assert lanes(flags) == [int(v < 0) for v in entries]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_iter_windows_decodes_only_the_given_indices(self, n):
        reference = coset_product_elements(n)
        picked = range(len(reference) - 1, -1, -3)
        assert list(iter_windows(n, picked)) == [reference[i] for i in picked]
        assert tuple(iter_windows(n)) == reference

    def test_a_column_lane_holds_every_enumerable_rank(self):
        # raising the rank cap past what a lane holds must fail here, not
        # mix neighbouring lanes (the seed and "J" lanes are checked in
        # test_descents and test_vogan)
        n = MAX_ENUMERATION_RANK
        # lanes_at_least reads values below the top bit of an 8-bit lane:
        # stored bytes (at most 2n), absolute values and the region's
        # depths n + 1 - |v| (at most n)
        assert 2 * n < 0x80

    @pytest.mark.parametrize("n", range(1, 7))
    def test_window_texts_render_every_element(self, n):
        # labels of different widths, one of them empty, and one with a space
        labels = ["12345", "", "a b"]
        class_id = [i % 3 for i in range(group_order(n))]
        expected = "".join(
            f"{text}\t{labels[i % 3]}\n"
            for i, text in enumerate(reference_window_texts(n))
        )
        blocks = list(render_tsv(n, class_id, labels))
        assert len(blocks) == 2 * n
        assert b"".join(blocks).decode() == expected

    def test_window_texts_check_the_rank_before_building(self):
        window_bytes.cache_clear()
        with pytest.raises(RankError):
            next(render_tsv(8, [], []))
        assert window_bytes.cache_info().currsize == 0

    @pytest.mark.parametrize("label", ["caf\u00e9", "a\0b", "a\tb", "a\nb", "\r"])
    def test_render_tsv_refuses_a_label_it_would_mangle(self, label):
        window_bytes.cache_clear()
        with pytest.raises(InvalidInputError):
            next(render_tsv(2, [0, 1] * 4, ["ok", label]))
        assert window_bytes.cache_info().currsize == 0

    def test_group_order(self):
        for n in range(1, 8):
            assert group_order(n) == 2**n * math.factorial(n)


# ---------------------------------------------------------------------------
# longest parabolic elements
# ---------------------------------------------------------------------------


class TestLongestParabolic:
    def test_full_group_rank_two(self):
        assert longest_parabolic(2, (0, 1)).window == (-1, -2)

    def test_positive_block(self):
        assert longest_parabolic(4, (1, 2, 3)).window == (4, 3, 2, 1)
        assert longest_parabolic(4, (2, 3)).window == (1, 4, 3, 2)

    def test_empty_generators(self):
        assert longest_parabolic(3, ()).window == (1, 2, 3)

    @pytest.mark.parametrize("n", [2, 3])
    def test_is_maximum_of_parabolic_by_brute_force(self, n):
        for r in range(n + 1):
            for gens in itertools.combinations(range(n), r):
                w0 = longest_parabolic(n, gens)
                members = {
                    w
                    for w in group_elements(n)
                    if all(
                        g in gens for g in canonical_word(w)
                    )
                }
                assert w0.window in members
                assert all(length(w0) >= length(u) for u in members)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


class TestTextFormats:
    def test_window_roundtrip(self):
        text = "-7,-5,6,4,3,-2,1"
        w = parse_window(text)
        assert w.window == (-7, -5, 6, 4, 3, -2, 1)
        assert w.to_text() == text

    def test_window_rank_check(self):
        # the rank is the number of entries, and each must lie in 1..rank
        with pytest.raises(InvalidInputError):
            parse_window("1,3")
        with pytest.raises(InvalidInputError):
            parse_window("1,x")

    def test_word_roundtrip(self):
        assert canonical_word((-1, 2)) == (0,)
        assert from_word(2, canonical_word((-1, -2))).window == (-1, -2)
        word = canonical_word(from_word(3, (0, 1, 2)))
        assert word == (0, 1, 2)
        assert word_to_text(word) == "t s1 s2"
        assert word_to_text(()) == ""

    @given(signed_perms(max_rank=6))
    def test_window_text_roundtrip_property(self, w):
        assert parse_window(w.to_text()) == w


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------


class TestWeightFunction:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            WeightFunction(0, 1)
        with pytest.raises(InvalidInputError):
            WeightFunction(1, -2)

    def test_regimes(self):
        assert WeightFunction(1, 4).regime(4) == "asymptotic"
        assert WeightFunction(1, 3).regime(4) == "intermediate"
        assert WeightFunction(2, 5).regime(4) == "subasymptotic"
        assert WeightFunction(1, 1).regime(4) == "low"
        assert WeightFunction(1, 2).regime(2) == "asymptotic"

    def test_gate_profile_constant_on_regime(self):
        assert WeightFunction(1, 4).gate_profile(4) == WeightFunction(2, 9).gate_profile(4)
        assert WeightFunction(1, 3).gate_profile(4) != WeightFunction(1, 4).gate_profile(4)

    def test_total_weight_additive_over_reduced_words(self):
        L = WeightFunction(2, 5)
        for w in group_elements(3):
            word = canonical_word(w)
            total = L.a * (length(w) - length_t(w)) + L.b * length_t(w)
            assert total == sum(L.letter_weight(g) for g in word)
