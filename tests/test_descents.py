"""Tests for the weighted descent invariants."""

from array import array

import pytest
from hypothesis import given

from bncells.area import sigma_word
from bncells.descents import mask_text, rxi_mask, rxi_masks, rxi_partition
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
from bncells.partition import OUTSIDE

from .conftest import signed_perms
from .oracles import in_area
from .test_hecke import cached_kl


def descent_bits(w) -> int:
    """The generator part of a mask, read off :func:`right_descents`."""
    return sum(1 << g for g in right_descents(w))


def sign_positions(n: int, mask: int) -> frozenset[int]:
    """Positions whose sign reflection is a descent: ``t`` (bit 0) is position 1."""
    bits = {1: 0, **{k: n + k - 1 for k in range(2, n + 1)}}
    return frozenset(k for k, bit in bits.items() if mask >> bit & 1)


# -- the rendering -------------------------------------------------------------


def test_text_rendering_orders_generators_then_gated_positions():
    # generators t, s1, s2, then the gated positions 2 and 4 (bits 5 and 7)
    assert mask_text(4, 0b10100111) == "t,s1,s2,t2,t4"
    assert mask_text(4, 0) == "-"
    assert mask_text(2, 1 << 4) == "ts1t"


# -- pointwise semantics -----------------------------------------------------


@given(signed_perms(max_rank=6))
def test_classical_part_is_the_right_descent_set(w):
    n = len(w)
    for weight in (WeightFunction(1, 9), WeightFunction(1, 1), WeightFunction(3, 1)):
        assert rxi_mask(w, weight) & ((1 << n) - 1) == descent_bits(w)


@given(signed_perms(max_rank=6))
def test_gated_positions_require_negative_window_entries(w):
    n = len(w)
    mask = rxi_mask(w, WeightFunction(1, 9))
    assert all(w[k - 1] < 0 for k in range(2, n + 1) if mask >> (n + k - 1) & 1)
    assert mask >> 2 * n == 0


@given(signed_perms(max_rank=6))
def test_flipped_weights_never_use_gated_positions(w):
    n = len(w)
    mask = rxi_mask(w, WeightFunction(3, 1))
    assert mask >> n & ((1 << n) - 1) == 0
    assert mask >> 2 * n <= 1


def test_equal_weights_reduce_to_plain_descents():
    weight = WeightFunction(2, 2)
    for w in group_elements(3):
        assert rxi_mask(w, weight) == descent_bits(w)


def test_enhanced_invariant_agrees_with_full_one_at_rank_two():
    # at rank 2 the one gated position is 2 (bit 3) and ts1t is bit 4
    for a, b in [(1, 2), (1, 1), (1, 5), (2, 1)]:
        weight = WeightFunction(a, b)
        for w in group_elements(2):
            t2 = b > a and w[1] < 0
            ts1t = a > b and w[0] + w[1] < 0
            assert rxi_mask(w, weight) == descent_bits(w) | t2 << 3 | ts1t << 4


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
            mask = rxi_mask(sigma, barely)
            assert sign_positions(n, mask) == frozenset(range(1, q + 1))
        mask = rxi_mask(sigma, WeightFunction(1, n))
        assert sign_positions(n, mask) == frozenset(range(1, q + 1))


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
            kx = rxi_mask(w, weight)
            kr = descent_bits(w)
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
        ts1t = rxi_mask(w, WeightFunction(2, 1)) >> 2 * n
        assert ts1t == (length(mul(w, reflection)) < length(w))


@pytest.mark.parametrize("n", range(1, 7))
def test_mask_seed_matches_per_element_invariants(n):
    # a > b, a == b, then one weight inside each gate bracket k < b/a < k + 1
    weights = [WeightFunction(3, 2), WeightFunction(2, 2)]
    weights += [WeightFunction(2, 2 * k + 1) for k in range(1, max(n, 2))]
    for weight in weights:
        per_element = array("I", (rxi_mask(w, weight) for w in group_elements(n)))
        assert rxi_masks(n, weight) == per_element


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
