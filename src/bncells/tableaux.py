"""Signed Robinson-Schensted insertion of windows, and the tableaux it makes.

The correspondence sends a window to a pair of *bitableaux* — pairs of
standard Young tableaux whose entry sets partition ``{1, ..., n}``:

- the insertion pair ``A = (plus | minus)`` row-inserts the positive window
  values (in window order) into ``plus`` and the absolute values of the
  negative entries into ``minus``;
- the recording pair ``B`` stores the window *positions* at which the
  corresponding boxes were created.

Both maps are bijections, and ``B(w) = A(w^{-1})``.  On an all-positive
window the minus tableaux are empty and this is classic Robinson-Schensted.
One loop, :func:`insertion_rows`, inserts a single window and gives the
four tableaux as row lists; :func:`insertion_codes` builds every element's
insertion and recording bitableau by induction on rank, one insertion per
tableau side and value, and the recording fibers and both cycling maps read
it.  :func:`count_standard_bitableaux` counts the bitableaux of one rank
from the involution numbers, and :func:`is_column_pair` says whether a
window's insertion pair is the region's column pair.

Text formats, rendered from row lists: rows of a tableau are
``";"``-separated with space-separated entries; the two tableaux of a
bitableau are joined by ``" | "``; an empty tableau renders as ``"-"``
(:func:`bitableau_text`).  A shape lists each side's row lengths, as in
``"(2,1 | -)"`` (:func:`shape_text`).

>>> plus, minus, plus_rec, minus_rec = insertion_rows((-7, -5, 6, 4, 3, -2, 1))
>>> bitableau_text(plus, minus)
'1;3;4;6 | 2;5;7'
>>> bitableau_text(plus_rec, minus_rec)
'3;4;5;7 | 1;2;6'
>>> shape_text(plus, minus)
'(1,1,1,1 | 1,1,1)'
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from bisect import bisect_left
from operator import add
from typing import Iterable, Sequence

from .group import coset_entry, rep_rank
from .partition import GroupPartition

Rows = Sequence[Sequence[int]]


# ---------------------------------------------------------------------------
# the count
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def count_standard_bitableaux(n: int) -> int:
    """Number of standard bitableaux with ``n`` boxes.

    A bitableau puts ``k`` of the entries on its plus side and the rest on
    its minus side, each side a standard tableau.  By Robinson-Schensted
    the standard tableaux with ``k`` boxes are as many as the involutions
    of ``k`` letters, ``t_k = t_{k-1} + (k-1) t_{k-2}``.

    >>> [count_standard_bitableaux(n) for n in range(1, 8)]
    [2, 6, 20, 76, 312, 1384, 6512]
    """
    involutions = [1, 1]
    for k in range(2, n + 1):
        involutions.append(involutions[-1] + (k - 1) * involutions[-2])
    return sum(
        math.comb(n, k) * involutions[k] * involutions[n - k] for k in range(n + 1)
    )


# ---------------------------------------------------------------------------
# text
# ---------------------------------------------------------------------------


def bitableau_text(plus: Rows, minus: Rows) -> str:
    """The text of the bitableau with row lists ``plus`` and ``minus``.

    >>> bitableau_text([[1, 3], [2]], [])
    '1 3;2 | -'
    """
    return " | ".join(
        ";".join(" ".join(map(str, row)) for row in rows) or "-"
        for rows in (plus, minus)
    )


def shape_text(plus: Rows, minus: Rows) -> str:
    """The text of the shape of the bitableau with row lists ``plus`` and ``minus``.

    >>> shape_text([[1, 3], [2]], [])
    '(2,1 | -)'
    """
    left, right = (
        ",".join(str(len(row)) for row in rows) or "-" for rows in (plus, minus)
    )
    return f"({left} | {right})"


def is_column_pair(plus: Rows, minus: Rows) -> bool:
    """Whether every row of both tableaux has one box.

    An inserted sequence decreases exactly when its tableau is one column
    (Schensted), so a window's insertion pair is a column pair exactly when
    it lies in the region of :mod:`bncells.area`.

    >>> is_column_pair([[2], [3]], [[1]]), is_column_pair([[1, 3], [2]], [])
    (True, False)
    """
    return all(len(row) == 1 for rows in (plus, minus) for row in rows)


# ---------------------------------------------------------------------------
# insertion
# ---------------------------------------------------------------------------


def _insert(rows: list[list[int]], x: int) -> int:
    """Row-insert ``x``; return the row of the newly created box."""
    r = 0
    while True:
        if r == len(rows):
            rows.append([x])
            return r
        row = rows[r]
        c = bisect_left(row, x)
        if c == len(row):
            row.append(x)
            return r
        x, row[c] = row[c], x
        r += 1


def insertion_rows(w: Iterable[int]) -> tuple[list[list[int]], ...]:
    """Row lists ``(plus, minus, plus_rec, minus_rec)`` of one signed insertion.

    Every window the package inserts goes through this loop.

    >>> insertion_rows((3, -1, 2))
    ([[2], [3]], [[1]], [[1], [3]], [[2]])
    """
    plus, minus, plus_rec, minus_rec = [], [], [], []
    for position, x in enumerate(w, start=1):
        if x > 0:
            r = _insert(plus, x)
            rows = plus_rec
        else:
            r = _insert(minus, -x)
            rows = minus_rec
        if r == len(rows):
            rows.append([position])
        else:
            rows[r].append(position)
    return plus, minus, plus_rec, minus_rec


def _insert_packed(side: bytes, x: int) -> tuple[int, bytes]:
    """Row-insert ``x`` into a packed tableau; return the new box's row and the result.

    A packed tableau is its rows, each ending in a zero byte.
    """
    rows = list(map(bytearray, side.split(b"\0")[:-1]))
    row = _insert(rows, x)
    return row, b"".join(bytes(r) + b"\0" for r in rows)


def _grow(pairs: list, m: int, keep: bool, positive: bool) -> tuple[list, list, list]:
    """Insert each "K"-coset block's last entry into every rank-``(m-1)`` P.

    ``pairs`` are the rank-``(m-1)`` insertion bitableaux as pairs of
    packed tableaux, listed by P id.  For block ``b`` with last entry ``k``,
    ``rows[b][p]`` is ``m`` times the sign bit of ``k`` plus the row of the
    box that inserting ``|k|`` into one side of the relabelled P ``p``
    creates, and, when ``keep``, ``ids[b][p]`` is the id of the resulting
    rank-``m`` P among the returned pairs.  With ``positive`` only the
    blocks ``b < m`` of the positive last entries are made.  Many P share a
    side, so each relabelled side and value is inserted once.
    """
    relabel = {
        a: bytes(coset_entry(v, a) for v in range(m)).ljust(256, b"\0")
        for a in range(1, m + 1)
    }
    signs = (0,) if positive else (0, 1)
    grown: dict[tuple[bytes, int], tuple[int, bytes]] = {}
    rows: list[list[int]] = [[] for _ in range(len(signs) * m)]
    ids: list[list[int]] = [[] for _ in range(len(signs) * m)]
    seen: dict[tuple[bytes, bytes], int] = {}
    for pair in pairs:
        for a in range(1, m + 1):
            relabelled = [side.translate(relabel[a]) for side in pair]
            # k = a inserts into the plus side, k = -a into the minus side
            for sign in signs:
                b = rep_rank(m, -a if sign else a)
                key = (relabelled[sign], a)
                if key not in grown:
                    grown[key] = _insert_packed(*key)
                row, side = grown[key]
                rows[b].append(m * sign + row)
                if keep:
                    new = (side, relabelled[1]) if sign == 0 else (relabelled[0], side)
                    ids[b].append(seen.setdefault(new, len(seen)))
    return rows, ids, list(seen)


def insertion_codes(n: int, positive: bool = False) -> tuple[list, list, list]:
    """The rank-``n`` P as packed pairs by id, and each element's P id and Q code.

    Built by induction on rank, with no window decoded.  In canonical order
    ``index(w) = rank(k) * order(n-1) + index(part)`` for the last entry
    ``k`` and the "K"-part, and ``w[:n-1]`` is the part relabelled
    monotonically in ``|v|`` (:func:`~bncells.group.coset_entry`).  So
    ``P(w)`` is ``|k|`` inserted into ``P(part)`` relabelled, which per
    block is one table (:func:`_grow`) over the rank-``(n-1)`` P ids, and
    ``Q(w)`` is ``Q(part)`` and the new box's sign and row.  ``Q`` is kept
    as its *code*: box ``i`` at sign ``s`` and row ``r`` is the digit
    ``s * i + r`` in base ``2i``.  With ``positive`` only the all-positive
    windows are kept, in canonical order.
    """
    # rank 0: the empty window, with empty P and Q
    pairs, pids, codes = [(b"", b"")], [0], [0]
    for m in range(1, n + 1):
        rows, ids, pairs = _grow(pairs, m, True, positive)
        scaled = [2 * m * code for code in codes]
        parts, codes, pids = pids, [], []
        for row, table in zip(rows, ids):
            codes += map(add, scaled, map(row.__getitem__, parts))
            pids += map(table.__getitem__, parts)
    return pairs, pids, codes


def recording_fiber_ids(n: int) -> tuple[array, list[int], list[int]]:
    """Each element's recording fiber id, each fiber's least index, each fiber's code.

    :func:`insertion_codes` to rank ``n-1``, then only the new boxes' rows.
    Fibers are numbered by first appearance, block by block, and each
    fiber's least index is read off the block where it first appears.
    """
    pairs, pids, codes = insertion_codes(n - 1)
    rows = _grow(pairs, n, keep=False, positive=False)[0]
    scaled = [2 * n * code for code in codes]
    number: dict[int, int] = {}
    firsts: list[int] = []
    out = array("i")
    start = 0
    for row in rows:
        block = list(map(add, scaled, map(row.__getitem__, pids)))
        # read backwards, each code's entry is overwritten last by its least index
        least = dict(zip(reversed(block), range(start + len(block) - 1, start - 1, -1)))
        for code in sorted(least.keys() - number.keys(), key=least.__getitem__):
            number[code] = len(firsts)
            firsts.append(least[code])
        out.fromlist(list(map(number.__getitem__, block)))
        start += len(block)
    return out, firsts, list(number)


def _code_rows(n: int, code: int) -> tuple[list[list[int]], list[list[int]]]:
    """The plus and minus row lists of the recording bitableau with code ``code``."""
    boxes = []
    for i in range(n, 0, -1):
        code, digit = divmod(code, 2 * i)
        boxes.append((i, *divmod(digit, i)))
    sides: tuple[list[list[int]], list[list[int]]] = ([], [])
    for i, sign, row in reversed(boxes):
        rows = sides[sign]
        if row == len(rows):
            rows.append([i])
        else:
            rows[row].append(i)
    return sides


def next_codes(n: int, codes: Iterable[int]) -> dict[int, int]:
    """Each code's successor among the codes of its shape, cyclically.

    Codes of one shape come in the order of their row reading words; each
    code's rows are rendered once.
    """
    keyed = []
    for code in set(codes):
        plus, minus = _code_rows(n, code)
        lengths = (list(map(len, plus)), list(map(len, minus)))
        keyed.append((lengths, sum(plus + minus, []), code))
    step = {}
    for _, run in itertools.groupby(sorted(keyed), key=lambda entry: entry[0]):
        cycle = [code for _, _, code in run]
        step.update(zip(cycle, cycle[1:] + cycle[:1]))
    return step


@functools.lru_cache(maxsize=None)
def recording_fibers(n: int) -> GroupPartition:
    """Recording-bitableau fibers of the rank-``n`` group, labelled by their text.

    The fibers of :func:`recording_fiber_ids`; each label is rendered once,
    from its fiber's code.  For ``b > (n-1) a`` these are the left cells
    (Bonnafé-Iancu, Represent. Theory 7, 2003).  The partition is cached
    and shared, so callers must not change it.

    >>> recording_fibers(2).labels
    ('1 2 | -', '2 | 1', '1;2 | -', '1 | 2', '- | 1;2', '- | 1 2')
    """
    ids, _, codes = recording_fiber_ids(n)
    labels = tuple(bitableau_text(*_code_rows(n, code)) for code in codes)
    return GroupPartition(n=n, class_id=ids, labels=labels)


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
