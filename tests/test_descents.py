"""Tests for the weighted descent invariants."""

from array import array

import pytest
from hypothesis import given

from bncells.area import in_area, sigma_word
from bncells.descents import (
    XiDescentSet,
    rdes_enhanced,
    rxi,
    rxi_partition,
    ts1t_descent,
)
from bncells.errors import InvalidInputError
from bncells.group import (
    MAX_ENUMERATION_RANK,
    WeightFunction,
    from_word,
    group_elements,
    length,
    mul,
    right_descents,
)
from bncells.hecke import left_cells
from bncells.partition import OUTSIDE, GroupPartition

from .conftest import signed_perms
from .test_hecke import cached_kl


# -- the dataclass -----------------------------------------------------------


def test_text_rendering_orders_generators_then_gated_positions():
    ds = XiDescentSet(frozenset({2, 0, 1}), frozenset({4, 2}))
    assert ds.to_text() == "t,s1,s2,t2,t4"
    assert XiDescentSet().to_text() == "-"
    assert XiDescentSet(extra=frozenset({"ts1t"})).to_text() == "ts1t"


def test_sign_positions_merges_generator_and_gated_witnesses():
    ds = XiDescentSet(frozenset({0, 1}), frozenset({3}))
    assert ds.sign_positions() == frozenset({1, 3})
    assert XiDescentSet(frozenset({1})).sign_positions() == frozenset()


def test_validation_rejects_bad_payloads():
    with pytest.raises(InvalidInputError):
        XiDescentSet(extended=frozenset({1}))
    with pytest.raises(InvalidInputError):
        XiDescentSet(extra=frozenset({"ts2t"}))


def test_sort_key_is_deterministic():
    values = {rxi(w, WeightFunction(1, 3)) for w in group_elements(3)}
    ordered = sorted(values, key=XiDescentSet.sort_key)
    assert ordered == sorted(ordered, key=XiDescentSet.sort_key)
    assert len({v.to_text() for v in values}) == len(values)


# -- pointwise semantics -----------------------------------------------------


@given(signed_perms(max_rank=6))
def test_classical_part_is_the_right_descent_set(w):
    for weight in (WeightFunction(1, 9), WeightFunction(1, 1), WeightFunction(3, 1)):
        assert rxi(w, weight).classical == right_descents(w)
        assert rdes_enhanced(w, weight).classical == right_descents(w)


@given(signed_perms(max_rank=6))
def test_gated_positions_require_negative_window_entries(w):
    ds = rxi(w, WeightFunction(1, 9))
    assert all(w[k - 1] < 0 for k in ds.extended)
    assert ds.extra == frozenset()


@given(signed_perms(max_rank=6))
def test_flipped_weights_never_use_gated_positions(w):
    ds = rxi(w, WeightFunction(3, 1))
    assert ds.extended == frozenset()
    assert ds.extra <= frozenset({"ts1t"})


def test_equal_weights_reduce_to_plain_descents():
    weight = WeightFunction(2, 2)
    for w in group_elements(3):
        ds = rxi(w, weight)
        assert ds == XiDescentSet(right_descents(w))
        assert rdes_enhanced(w, weight) == ds


def test_enhanced_invariant_agrees_with_full_one_at_rank_two():
    for a, b in [(1, 2), (1, 1), (1, 5)]:
        weight = WeightFunction(a, b)
        for w in group_elements(2):
            assert rdes_enhanced(w, weight) == rxi(w, weight)


def test_gate_profile_alone_determines_the_partition():
    for n in (2, 3):
        sharp = rxi_partition(n, WeightFunction(1, n))
        scaled = rxi_partition(n, WeightFunction(2, 2 * n + 1))
        assert sharp.same_blocks(scaled)
        assert sharp.labels == scaled.labels


# -- frozen rank-two facts ----------------------------------------------------


def test_rank_two_separating_values_are_frozen():
    part = rxi_partition(2, WeightFunction(1, 2))
    assert part.num_classes == 6
    assert set(part.labels) == {"-", "t", "s1", "s1,t2", "t,t2", "t,s1,t2"}
    # these two candidate values never occur
    assert "t,s1" not in part.labels
    assert "t2" not in part.labels


@pytest.mark.parametrize("a,b", [(1, 2), (1, 3), (2, 1)])
def test_rank_two_fibers_equal_left_cells(a, b):
    kl = cached_kl(2, a, b)
    part = rxi_partition(2, WeightFunction(a, b))
    assert left_cells(kl).same_blocks(part)


def test_rank_two_equal_weights_fibers_equal_left_cells():
    kl = cached_kl(2, 1, 1)
    part = rxi_partition(2, WeightFunction(1, 1))
    assert left_cells(kl).same_blocks(part)
    assert part.num_classes == 4


# -- fiber counts (criterion: count per weight bracket) -----------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_fiber_count_at_dominant_weights(n):
    part = rxi_partition(n, WeightFunction(1, max(n, 1)))
    assert part.num_classes == 2 * 3 ** (n - 1)


@pytest.mark.parametrize("n", range(2, 7))
def test_fiber_count_per_weight_bracket(n):
    for k in range(1, n):
        # b/a = k + 1/2 sits strictly inside bracket (k, k+1)
        inside = rxi_partition(n, WeightFunction(2, 2 * k + 1))
        assert inside.num_classes == 2 ** (n - k) * 3**k
        # b/a = k + 1 sits on the closed upper end of the same bracket
        end = rxi_partition(n, WeightFunction(1, k + 1))
        assert end.num_classes == 2 ** (n - k) * 3**k
    floor = rxi_partition(n, WeightFunction(1, 1))
    assert floor.num_classes == 2**n


# -- staircase elements -------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 7))
def test_staircase_sign_positions_fill_the_negative_prefix(n):
    for q in range(n + 1):
        sigma = from_word(n, sigma_word(n, q))
        if q >= 2:
            # b/a = q - 1/2 is the smallest bracket where the claim applies
            barely = WeightFunction(2, 2 * q - 1)
            assert rxi(sigma, barely).sign_positions() == frozenset(range(1, q + 1))
        dominant = WeightFunction(1, n)
        assert rxi(sigma, dominant).sign_positions() == frozenset(range(1, q + 1))


# -- restriction to the staircase-shape region --------------------------------


@pytest.mark.parametrize("n", range(2, 6))
def test_region_fibers_match_plain_descent_fibers_in_window_regimes(n):
    weights = [WeightFunction(1, 1), WeightFunction(1, n - 1)]
    if n >= 3:
        weights.append(WeightFunction(2, 2 * n - 3))
    for weight in weights:
        assert weight.a <= weight.b <= (n - 1) * weight.a
        by_rxi = {}
        by_rdes = {}
        for w in group_elements(n):
            if not in_area(w):
                continue
            kx = rxi(w, weight)
            kr = right_descents(w)
            assert by_rxi.setdefault(kx, kr) == kr
            assert by_rdes.setdefault(kr, kx) == kx


# -- constancy on computed left cells -----------------------------------------


@pytest.mark.parametrize("n,a,b", [(2, 1, 2), (2, 2, 1), (3, 1, 3), (3, 1, 2), (3, 1, 1)])
def test_left_cells_refine_fibers(n, a, b):
    kl = cached_kl(n, a, b)
    part = rxi_partition(n, WeightFunction(a, b))
    assert left_cells(kl).refines(part)


@pytest.mark.parametrize("n", range(2, 7))
def test_ts1t_window_rule_matches_the_length_test(n):
    reflection = from_word(n, (0, 1, 0))
    for w in group_elements(n):
        assert ts1t_descent(w) == (length(mul(w, reflection)) < length(w))


@pytest.mark.parametrize("n", range(1, 7))
def test_mask_seed_matches_per_element_invariants(n):
    # a > b, a == b, then one weight inside each gate bracket k < b/a < k + 1
    weights = [WeightFunction(3, 2), WeightFunction(2, 2)]
    weights += [WeightFunction(2, 2 * k + 1) for k in range(1, max(n, 2))]
    for weight in weights:
        seed = rxi_partition(n, weight)
        reference = GroupPartition.from_keys(
            n,
            [rxi(w, weight) for w in group_elements(n)],
            label_fn=XiDescentSet.to_text,
        )
        assert list(seed.class_id) == list(reference.class_id)
        assert seed.labels == reference.labels


def test_a_lane_holds_the_mask_of_every_enumerable_rank():
    # the seed's 2n + 1 mask bits are byte planes of an array("I") entry;
    # raising the rank cap past what an entry holds must fail here, not
    # drop the top planes
    assert 2 * MAX_ENUMERATION_RANK + 1 <= 8 * array("I").itemsize


def test_partition_is_total_and_label_count_matches():
    part = rxi_partition(3, WeightFunction(1, 3))
    assert OUTSIDE not in part.class_id
    assert part.size == len(group_elements(3))
    assert len(part.labels) == part.num_classes
