"""Labeled partitions of an indexed element set, plus a small union-find.

A :class:`GroupPartition` assigns a dense class id to every element index of
a canonical enumeration.  Ids are canonical: class ``0`` is the class of the
first element, and ids increase in order of first appearance, so two
partitions are equal as partitions iff their id arrays are equal.  A partial
partition (defined only on a subset, e.g. a distinguished region) marks
elements outside its domain with ``-1``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import eq
from typing import Hashable, Iterable, Sequence

from .errors import InvalidInputError

OUTSIDE = -1


def canonical_ids(keys: Iterable[Hashable]) -> array:
    """Dense ids in order of first appearance; ``None`` keys map to ``-1``."""
    ids = array("i")
    seen: dict[Hashable, int] = {}
    for key in keys:
        if key is None:
            ids.append(OUTSIDE)
            continue
        if key not in seen:
            seen[key] = len(seen)
        ids.append(seen[key])
    return ids


@dataclass(frozen=True)
class GroupPartition:
    """A partition of ``{0, ..., size-1}`` element indices with dense class ids.

    ``n`` records the rank context of the enumeration the indices refer to;
    ``labels`` optionally names each class (indexed by class id).
    """

    n: int
    class_id: Sequence[int]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        next_expected = 0
        for cid in self.class_id:
            if cid == OUTSIDE:
                continue
            if cid > next_expected:
                raise InvalidInputError(
                    "class ids must be dense in order of first appearance"
                )
            if cid == next_expected:
                next_expected += 1
        if self.labels is not None and len(self.labels) != next_expected:
            raise InvalidInputError("label registry size must match class count")

    @classmethod
    def from_keys(
        cls,
        n: int,
        keys: Iterable[Hashable],
        label_fn=None,
    ) -> "GroupPartition":
        """Group element indices by key (``None`` = outside the domain).

        ``label_fn`` maps a key to the class label; by default labels are
        omitted.
        """
        keys = list(keys)
        ids = canonical_ids(keys)
        labels = None
        if label_fn is not None:
            labels_by_id: dict[int, str] = {}
            for key, cid in zip(keys, ids):
                if cid != OUTSIDE and cid not in labels_by_id:
                    labels_by_id[cid] = label_fn(key)
            labels = tuple(labels_by_id[i] for i in range(len(labels_by_id)))
        return cls(n=n, class_id=ids, labels=labels)

    # -- inspection -----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.class_id)

    @property
    def num_classes(self) -> int:
        return max((cid for cid in self.class_id if cid != OUTSIDE), default=-1) + 1

    def class_of(self, index: int) -> int:
        return self.class_id[index]

    def in_domain(self, index: int) -> bool:
        return self.class_id[index] != OUTSIDE

    def classes(self) -> list[list[int]]:
        """Element indices grouped by class id (ascending within each class)."""
        out: list[list[int]] = [[] for _ in range(self.num_classes)]
        for i, cid in enumerate(self.class_id):
            if cid != OUTSIDE:
                out[cid].append(i)
        return out

    def class_sizes(self) -> list[int]:
        sizes = [0] * self.num_classes
        for cid in self.class_id:
            if cid != OUTSIDE:
                sizes[cid] += 1
        return sizes

    def label_of(self, class_index: int) -> str:
        if self.labels is None:
            return str(class_index)
        return self.labels[class_index]

    # -- comparisons -----------------------------------------------------------

    def same_blocks(self, other: "GroupPartition") -> bool:
        """Equality as partitions (canonical ids make this an array compare)."""
        mine, theirs = self.class_id, other.class_id
        if type(mine) is type(theirs):  # two arrays or two lists compare in C
            return mine == theirs
        return len(mine) == len(theirs) and all(map(eq, mine, theirs))

    def refines(self, other: "GroupPartition") -> bool:
        """True iff every class of ``self`` lies inside a class of ``other``.

        Domains must agree; outside-domain positions must match exactly.
        """
        if self.size != other.size:
            raise InvalidInputError("cannot compare partitions of different sizes")
        image: dict[int, int] = {}
        for mine, theirs in zip(self.class_id, other.class_id):
            if (mine == OUTSIDE) != (theirs == OUTSIDE):
                return False
            if mine == OUTSIDE:
                continue
            if mine in image:
                if image[mine] != theirs:
                    return False
            else:
                image[mine] = theirs
        return True


class UnionFind:
    """Union-find over ``0..size-1`` with path halving and union by size."""

    __slots__ = ("parent", "weight")

    def __init__(self, size: int):
        self.parent = array("l", range(size))
        self.weight = array("l", [1]) * size

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if self.weight[rx] < self.weight[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.weight[rx] += self.weight[ry]

    def to_partition(self, n: int, labels=None) -> GroupPartition:
        roots = [self.find(x) for x in range(len(self.parent))]
        return GroupPartition(n=n, class_id=canonical_ids(roots), labels=labels)
