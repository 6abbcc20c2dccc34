"""Labeled partitions of an indexed element set.

A :class:`GroupPartition` assigns a dense class id to every element index of
a canonical enumeration.  Ids are canonical: class ``0`` is the class of the
first element, and ids increase in order of first appearance, so two
partitions are equal as partitions iff their id arrays are equal.  A partial
partition (defined only on a subset, e.g. a distinguished region) marks
elements outside its domain with ``-1``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import repeat
from operator import eq
from typing import Hashable, Iterable, Sequence

from .errors import InvalidInputError

OUTSIDE = -1


def _canonical(keys: Iterable[Hashable]) -> tuple[array, dict[Hashable, int]]:
    """Dense ids by first appearance, and each distinct non-``None`` key's id.

    The keys are read twice, so an iterable other than a list or an array
    is copied into a list first; a list or an array is read as it is.
    """
    if not isinstance(keys, (list, array)):
        keys = list(keys)
    first = dict.fromkeys(keys)
    first.pop(None, None)
    first = dict(zip(first, range(len(first))))
    return array("i", map(first.get, keys, repeat(OUTSIDE))), first


def canonical_ids(keys: Iterable[Hashable]) -> array:
    """Dense ids in order of first appearance; ``None`` keys map to ``-1``."""
    return _canonical(keys)[0]


@dataclass(frozen=True)
class GroupPartition:
    """A partition of ``{0, ..., size-1}`` element indices with dense class ids.

    ``n`` records the rank context of the enumeration the indices refer to;
    ``labels`` optionally names each class (indexed by class id).
    ``num_classes`` is counted once, in the pass that checks the ids.
    """

    n: int
    class_id: Sequence[int]
    labels: tuple[str, ...] | None = None
    num_classes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        first = dict.fromkeys(self.class_id)
        first.pop(OUTSIDE, None)
        count = len(first)
        if list(first) != list(range(count)):
            raise InvalidInputError(
                "class ids must be dense in order of first appearance"
            )
        if self.labels is not None and len(self.labels) != count:
            raise InvalidInputError("label registry size must match class count")
        object.__setattr__(self, "num_classes", count)

    @classmethod
    def from_keys(
        cls,
        n: int,
        keys: Iterable[Hashable],
        label_fn=None,
    ) -> "GroupPartition":
        """Group element indices by key (``None`` = outside the domain).

        ``label_fn`` maps a key to the class label; by default labels are
        omitted.  The ids are dense by construction, so they are not checked
        a second time.
        """
        ids, first = _canonical(keys)
        labels = None if label_fn is None else tuple(map(label_fn, first))
        part = object.__new__(cls)
        fields = {"n": n, "class_id": ids, "labels": labels, "num_classes": len(first)}
        for name, value in fields.items():
            object.__setattr__(part, name, value)
        return part

    # -- inspection -----------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.class_id)

    def class_of(self, index: int) -> int:
        return self.class_id[index]

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
