from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bncells.errors import InvalidInputError
from bncells.partition import OUTSIDE, GroupPartition, canonical_ids

from .oracles import reference_canonical_ids, reference_class_count

# keys of mixed types, ``None`` (outside the domain) among them
KEYS = st.lists(
    st.one_of(st.none(), st.integers(-2, 4), st.sampled_from(["a", "b", ""])),
    max_size=30,
)


def random_partitions(size):
    return st.lists(
        st.integers(0, 3), min_size=size, max_size=size
    ).map(lambda keys: GroupPartition.from_keys(0, keys))


class TestGroupPartition:
    def test_from_keys_canonical_order(self):
        p = GroupPartition.from_keys(2, ["b", "a", "b", "c", "a"])
        assert list(p.class_id) == [0, 1, 0, 2, 1]
        assert p.num_classes == 3
        assert p.classes() == [[0, 2], [1, 4], [3]]
        assert p.class_sizes() == [2, 2, 1]

    def test_labels(self):
        p = GroupPartition.from_keys(2, ["b", "a", "b"], label_fn=str.upper)
        assert p.labels == ("B", "A")
        assert p.label_of(0) == "B"

    def test_partial_domain(self):
        p = GroupPartition.from_keys(2, ["x", None, "x", "y"])
        assert list(p.class_id) == [0, OUTSIDE, 0, 1]
        assert p.num_classes == 2
        assert p.classes() == [[0, 2], [3]]

    def test_non_canonical_ids_rejected(self):
        with pytest.raises(InvalidInputError):
            GroupPartition(n=1, class_id=[1, 0])
        with pytest.raises(InvalidInputError):
            GroupPartition(n=1, class_id=[0, 2])
        with pytest.raises(InvalidInputError):
            GroupPartition(n=1, class_id=[0, 1], labels=("only-one",))
        with pytest.raises(InvalidInputError):
            GroupPartition(n=1, class_id=[0, -2])

    def test_from_keys_checks_its_dense_ids_once(self, monkeypatch):
        keys = ["b", None, "a", "b"]
        checked = GroupPartition(n=1, class_id=canonical_ids(keys), labels=("b", "a"))

        def second_pass(self):
            raise AssertionError("the ids were checked again")

        monkeypatch.setattr(GroupPartition, "__post_init__", second_pass)
        assert GroupPartition.from_keys(1, keys, label_fn=str) == checked
        assert GroupPartition.from_keys(1, keys).num_classes == checked.num_classes
        # direct construction still runs the check
        with pytest.raises(AssertionError, match="checked again"):
            GroupPartition(n=1, class_id=[0, 1])

    @given(st.lists(st.integers(-3, 5), max_size=20))
    def test_density_check_matches_the_per_element_loop(self, ids):
        count = reference_class_count(ids)
        for class_id in (ids, array("i", ids)):
            if count is None:
                with pytest.raises(InvalidInputError):
                    GroupPartition(n=1, class_id=class_id)
            else:
                assert GroupPartition(n=1, class_id=class_id).num_classes == count

    @given(KEYS)
    def test_from_keys_matches_the_per_element_loop(self, keys):
        ids = reference_canonical_ids(keys)
        first = {}
        for key, cid in zip(keys, ids):
            first.setdefault(cid, key)
        first.pop(OUTSIDE, None)
        p = GroupPartition.from_keys(0, keys, label_fn=repr)
        assert list(p.class_id) == ids
        assert p.labels == tuple(repr(first[c]) for c in range(len(first)))
        assert p.num_classes == len(first)

    def test_empty_partition_has_no_classes(self):
        assert GroupPartition(n=0, class_id=array("i")).num_classes == 0
        assert GroupPartition.from_keys(0, []).num_classes == 0
        assert GroupPartition(n=0, class_id=[OUTSIDE] * 3).num_classes == 0

    def test_refines(self):
        fine = GroupPartition.from_keys(1, [0, 1, 2, 3])
        coarse = GroupPartition.from_keys(1, [0, 0, 1, 1])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)
        assert coarse.refines(coarse)

    @given(random_partitions(6))
    def test_same_blocks_reflexive(self, p):
        assert p.same_blocks(GroupPartition.from_keys(0, list(p.class_id)))


class TestCanonicalIds:
    def test_canonical_ids_none(self):
        assert list(canonical_ids(["a", None, "a"])) == [0, -1, 0]

    @given(KEYS)
    def test_canonical_ids_match_the_per_element_loop(self, keys):
        assert list(canonical_ids(iter(keys))) == reference_canonical_ids(keys)
