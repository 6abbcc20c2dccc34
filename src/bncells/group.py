"""Signed permutations: the hyperoctahedral Coxeter group in window notation.

An element ``w`` of the rank-``n`` group is stored by its *window*
``(w(1), ..., w(n))`` where the absolute values form a permutation of
``{1, ..., n}`` and each entry carries a sign.  The generating set consists of
the sign change ``t`` acting on the first window position and the adjacent
transpositions ``s_1, ..., s_{n-1}``.  Generators are encoded by integers:
``0`` for ``t`` and ``i`` for ``s_i``.

Conventions (fixed once, used everywhere):

- composition ``(w * u)(i) = w(u(i))`` and ``w(-i) = -w(i)``;
- right multiplication by ``s_i`` swaps window positions ``i, i+1``; right
  multiplication by ``t`` negates the first window entry;
- left multiplication by ``s_i`` swaps the *values* ``±i`` and ``±(i+1)``;
  left multiplication by ``t`` negates the value of absolute value 1;
- ``length(w)`` equals the number of letters of any reduced word, and
  ``length_t(w)`` counts the occurrences of ``t`` in such a word, which is
  the number of negative window entries.

>>> w = from_word(2, (0, 1, 0, 1))   # t s1 t s1
>>> w.window
(-1, -2)
>>> length(w), length_t(w)
(4, 2)
"""

from __future__ import annotations

import functools
import re
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .errors import InvalidInputError, RankError

if TYPE_CHECKING:
    from .partition import GroupPartition

# Generator letter code for the sign-change generator t; s_i is the code i.
T_LETTER = 0

# Full enumeration is supported up to this rank (645,120 elements at rank 7).
MAX_ENUMERATION_RANK = 7


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class SignedPerm(tuple):
    """A signed permutation, stored as its window ``(w(1), ..., w(n))``.

    Instances are tuples, so they hash, compare, and unpack like tuples; the
    class only adds validation and group operations.

    >>> w = SignedPerm((-2, 1))
    >>> w(1), w(2), w(-1)
    (-2, 1, 2)
    >>> w * w
    SignedPerm('-1,-2')
    """

    __slots__ = ()

    def __new__(cls, window: Iterable[int]) -> "SignedPerm":
        w = tuple(window)
        n = len(w)
        if n == 0:
            raise InvalidInputError("empty window")
        seen = 0
        for x in w:
            if not isinstance(x, int) or x == 0 or not -n <= x <= n:
                raise InvalidInputError(f"window entry {x!r} invalid for rank {n}")
            bit = 1 << (abs(x) - 1)
            if seen & bit:
                raise InvalidInputError(f"window {w} repeats absolute value {abs(x)}")
            seen |= bit
        return super().__new__(cls, w)

    # -- basic structure ----------------------------------------------------

    @property
    def window(self) -> tuple[int, ...]:
        return tuple(self)

    def __call__(self, i: int) -> int:
        """Evaluate ``w(i)`` for ``i`` in ``±1..±n``; ``w(-i) = -w(i)``."""
        if i > 0:
            return self[i - 1]
        return -self[-i - 1]

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: Sequence[int]) -> "SignedPerm":
        if len(other) != len(self):
            raise RankError("cannot multiply windows of different ranks")
        return SignedPerm(mul(self, other))

    # -- text ------------------------------------------------------------------

    def to_text(self) -> str:
        return window_text(self)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_text()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SignedPerm({self.to_text()!r})"


def window_text(w: Sequence[int]) -> str:
    """Comma-separated window text, the inverse of :func:`parse_window`.

    >>> window_text((-2, 1, 3))
    '-2,1,3'
    """
    return ",".join(str(x) for x in w)


def mul(w: Sequence[int], u: Sequence[int]) -> tuple[int, ...]:
    """Raw window product ``(w*u)(i) = w(u(i))`` on plain sequences."""
    return tuple(w[j - 1] if j > 0 else -w[-j - 1] for j in u)


def inverse(w: Sequence[int]) -> tuple[int, ...]:
    """Raw window inverse on a plain sequence."""
    out = [0] * len(w)
    for i, x in enumerate(w, start=1):
        if x > 0:
            out[x - 1] = i
        else:
            out[-x - 1] = -i
    return tuple(out)


def mul_gen_right(w: Sequence[int], g: int) -> tuple[int, ...]:
    """Compute ``w * g`` for a generator letter ``g`` (window form)."""
    if g == T_LETTER:
        return (-w[0],) + tuple(w[1:])
    out = list(w)
    out[g - 1], out[g] = out[g], out[g - 1]
    return tuple(out)


def mul_gen_left(g: int, w: Sequence[int]) -> tuple[int, ...]:
    """Compute ``g * w`` for a generator letter ``g`` (window form)."""
    if g == T_LETTER:
        return tuple(-x if abs(x) == 1 else x for x in w)
    a, b = g, g + 1
    out = []
    for x in w:
        ax = abs(x)
        if ax == a:
            out.append(b if x > 0 else -b)
        elif ax == b:
            out.append(a if x > 0 else -a)
        else:
            out.append(x)
    return tuple(out)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------


def check_letters(n: int, word: Iterable[int]) -> tuple[int, ...]:
    """Validate a letter sequence against rank ``n`` and return it as a tuple."""
    letters = tuple(word)
    for g in letters:
        if not isinstance(g, int) or g < 0 or g >= n:
            raise RankError(f"letter {g!r} is not a generator of rank {n}")
    return letters

def from_word(n: int, word: Iterable[int]) -> SignedPerm:
    """Evaluate a generator word (letter codes) to an element of rank ``n``.

    >>> from_word(2, (T_LETTER,)).window
    (-1, 2)
    >>> from_word(3, ()).window
    (1, 2, 3)
    """
    if n < 1:
        raise RankError(f"rank must be >= 1, got {n}")
    w: Sequence[int] = tuple(range(1, n + 1))
    for g in check_letters(n, word):
        w = mul_gen_right(w, g)
    return SignedPerm(w)


def letter_to_text(g: int) -> str:
    return "t" if g == T_LETTER else f"s{g}"


def word_to_text(word: Iterable[int]) -> str:
    """Render a letter sequence as whitespace-separated text, e.g. ``"t s1 s2"``."""
    return " ".join(letter_to_text(g) for g in word)


def parse_window(text: str) -> SignedPerm:
    """Parse comma-separated window text, e.g. ``"-7,-5,6,4,3,-2,1"``."""
    try:
        entries = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"malformed window text {text!r}") from exc
    return SignedPerm(entries)


# ---------------------------------------------------------------------------
# length and descents
# ---------------------------------------------------------------------------


def length(w: Sequence[int]) -> int:
    """Coxeter length: inversions plus the absolute values of negative entries.

    >>> length((-1, -2))
    4
    >>> length((2, 1))
    1
    """
    n = len(w)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
    neg = sum(-x for x in w if x < 0)
    return inv + neg


def length_t(w: Sequence[int]) -> int:
    """Number of sign-change letters in any reduced word: the negative entries."""
    return sum(1 for x in w if x < 0)


def right_descents(w: Sequence[int]) -> frozenset[int]:
    """Letters ``g`` with ``length(w*g) < length(w)``, by the window rule.

    ``t`` is a descent iff ``w(1) < 0``; ``s_i`` is a descent iff
    ``w(i+1) < w(i)``.

    >>> sorted(right_descents((-1, 2)))
    [0]
    >>> sorted(right_descents((3, 1, 2)))
    [1]
    """
    out = set()
    if w[0] < 0:
        out.add(T_LETTER)
    for i in range(1, len(w)):
        if w[i] < w[i - 1]:
            out.add(i)
    return frozenset(out)


def left_descents(w: Sequence[int]) -> frozenset[int]:
    """Letters ``g`` with ``length(g*w) < length(w)``."""
    return right_descents(inverse(w))


# ---------------------------------------------------------------------------
# suffixes
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _suffixes_cached(w: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    out = {w}
    for g in left_descents(w):
        out.update(_suffixes_cached(mul_gen_left(g, w)))
    return frozenset(out)


def suffixes(w: Sequence[int]) -> frozenset[tuple[int, ...]]:
    """All elements that occur as a trailing segment of a reduced word of ``w``.

    Computed by the recursion ``Suf(w) = {w} ∪ ⋃_{g left descent} Suf(g*w)``:
    dropping a leftmost letter of a reduced word preserves the suffix set of
    the remainder, and every proper suffix arises this way.

    >>> sorted(suffixes((-2, 1)))
    [(-2, 1), (-1, 2), (1, 2)]
    """
    return _suffixes_cached(tuple(w))


# ---------------------------------------------------------------------------
# parabolic coset decomposition
# ---------------------------------------------------------------------------

# "K" names the parabolic subgroup fixing the last window position, a copy of
# the rank-(n-1) group; its minimal coset representatives key the canonical
# order.


def fix_last_projection(w: Sequence[int]) -> tuple[int, ...]:
    """The "K"-part of ``w`` as a rank-``(n-1)`` window, via the shift formula.

    ``w = r * p`` with ``r`` the minimal "K"-coset representative and ``p``
    fixing ``n``; this is ``p`` with the fixed last entry dropped:
    entries of absolute value below ``|w(n)|`` are kept, larger ones are
    shifted one step toward zero.
    """
    k = abs(w[-1])
    return tuple(x if abs(x) < k else (x - 1 if x > 0 else x + 1) for x in w[:-1])


def coset_entry(v: int, k: int) -> int:
    """The window entry where the "K"-part holds ``v``, for the last entry ``k``.

    The inverse of :func:`fix_last_projection`, entry by entry: values of
    absolute value at least ``|k|`` step one away from zero, the rest (and
    ``0``) stay.  So the relabelling keeps signs and the order of absolute
    values.

    >>> [coset_entry(v, -2) for v in (-2, -1, 0, 1, 2)]
    [-3, -1, 0, 1, 3]
    """
    if abs(v) < abs(k):
        return v
    return v + 1 if v > 0 else v - 1


# ---------------------------------------------------------------------------
# canonical enumeration
# ---------------------------------------------------------------------------


def group_order(n: int) -> int:
    """Order of the rank-``n`` group: ``2^n * n!``."""
    out = 1
    for i in range(1, n + 1):
        out *= 2 * i
    return out


def _rep_targets(n: int) -> tuple[int, ...]:
    """Last-entry values in canonical representative order: n..1, -1..-n."""
    return tuple(range(n, 0, -1)) + tuple(range(-1, -n - 1, -1))


def check_enumeration_rank(n: int) -> None:
    if not 1 <= n <= MAX_ENUMERATION_RANK:
        raise RankError(
            f"full enumeration supports ranks 1..{MAX_ENUMERATION_RANK}, got {n}"
        )


@functools.lru_cache(maxsize=None)
def window_bytes(n: int) -> bytes:
    """Every window in canonical order, ``n`` bytes per element.

    The one construction of the canonical order: every other view of the
    enumerated group is read off this buffer.  Value ``v`` is stored as the
    byte ``v + n``, which keeps order, so byte comparisons are value
    comparisons.  Other modules read its columns through :func:`window_columns`.

    An element is keyed by its "K"-coset representative (canonical
    representative order), then by the index of its rank-``(n-1)`` part:
    ``index(w) = rep_rank * order(n-1) + index(part)``.  So each block is
    the rank-``(n-1)`` buffer translated through the representative's
    relabelling (:func:`coset_entry`), spread into place by strided slice
    assignment and extended by ``k``.

    >>> list(window_bytes(1)), list(window_bytes(2)[:4])
    ([2, 0], [3, 4, 1, 4])
    """
    check_enumeration_rank(n)
    if n == 1:
        return bytes((2, 0))
    base = window_bytes(n - 1)
    span = len(base) // (n - 1) * n
    out = bytearray(span * 2 * n)
    for block, k in enumerate(_rep_targets(n)):
        table = bytearray(range(256))
        for v in range(1, n):
            table[n - 1 + v] = n + coset_entry(v, k)
            table[n - 1 - v] = n + coset_entry(-v, k)
        part = base.translate(table)
        start = block * span
        for i in range(n - 1):
            out[start + i : start + span : n] = part[i :: n - 1]
        out[start + n - 1 : start + span : n] = bytes((n + k,)) * (span // n)
    return bytes(out)


def window_columns(n: int, value: Callable[[int], int] | None = None) -> Iterator[int]:
    """The ``n`` window columns in order, as ints with one 8-bit lane per element.

    Lane ``j`` (byte ``j`` from the low end) of column ``i`` holds entry
    ``v = w_j(i + 1)`` of element ``j``: its stored byte, which keeps the
    order of the values, or the byte ``value(v)``, made by one
    ``bytes.translate`` per column (``value`` is read on ``-n..n``).  Each
    column is made when it is read, so a pass that walks them holds one.

    >>> [list(c.to_bytes(8, "little")) for c in window_columns(2)]
    [[3, 1, 4, 0, 4, 0, 3, 1], [4, 4, 3, 3, 1, 1, 0, 0]]
    """
    buf = window_bytes(n)
    table = None
    if value is not None:
        table = bytes(map(value, range(-n, n + 1))).ljust(256, b"\0")
    return (int.from_bytes(buf[i::n].translate(table), "little") for i in range(n))


@functools.lru_cache(maxsize=None)
def _lane_tops(n: int) -> int:
    """The top bit of every lane of a rank-``n`` column."""
    return int.from_bytes(b"\x80" * group_order(n), "little")


def lanes_at_least(x: int, y: int, n: int) -> int:
    """1 in each lane where ``x >= y`` and 0 elsewhere, for every lane at once.

    ``x`` and ``y`` hold one value below ``0x80`` per lane of a rank-``n``
    column (:func:`window_columns`).  With the top bit of every lane set in
    ``x``, ``x - y`` borrows that bit exactly where ``x < y``, and never
    from the next lane.

    >>> lanes_at_least(0x0503, 0x0305, 1) == 0x0100
    True
    """
    high = _lane_tops(n)
    return (((x | high) - y) & high) >> 7


def iter_windows(
    n: int, indices: Iterable[int] | None = None
) -> Iterator[tuple[int, ...]]:
    """Every window in canonical order, or those at ``indices``, decoded.

    ``bytes.translate`` turns each stored byte into the signed byte of its
    value, and ``struct`` reads the windows off the result ``n`` bytes at a
    time: the whole buffer in one pass, or only the windows at ``indices``.
    Values from ``-5`` up are CPython's shared small ints; ``-6`` and ``-7``
    are made per entry.
    """
    buf = window_bytes(n)
    signed = bytes((b - n) & 0xFF for b in range(256))
    if indices is None:
        return struct.iter_unpack(f"{n}b", buf.translate(signed))
    unpack = struct.Struct(f"{n}b").unpack
    return (unpack(buf[n * i : n * i + n].translate(signed)) for i in indices)


@functools.lru_cache(maxsize=None)
def group_elements(n: int) -> tuple[tuple[int, ...], ...]:
    """All ``2^n n!`` windows in canonical order (identity first), kept.

    The tuples of :func:`iter_windows`; ``tuple()`` reads the iterator's
    length hint, so it sizes the result once.

    >>> group_elements(1)
    ((1,), (-1,))
    >>> len(group_elements(3))
    48
    """
    return tuple(iter_windows(n))


def render_tsv(n: int, class_id: Sequence[int], labels: Sequence[str]) -> Iterator[bytes]:
    """The ``window<TAB>label`` lines of a dump, one "K"-coset block of bytes at a time.

    Element ``i`` gets ``labels[class_id[i]]``, or no line if its class is
    ``-1``.  A block's lines share one stride: each is gathered from its
    label padded with filler bytes, the window's signs and digits are placed
    by strided slice assignment of ``bytes.translate``, the runs of lines in
    the domain are kept, and one ``translate`` deletes the filler.

    >>> [b.decode() for b in render_tsv(2, [0, 1, -1, 1, 0, -1, 0, 0], ["a", "bc"])]
    ['1,2\\ta\\n-1,2\\tbc\\n', '-2,1\\tbc\\n', '2,-1\\ta\\n', '1,-2\\ta\\n-1,-2\\ta\\n']
    """
    text = "".join(labels)
    if not (text.isascii() and text.isprintable()):
        raise InvalidInputError("a TSV label must be printable ASCII")
    buf, count = window_bytes(n), group_order(n - 1)  # window_bytes checks the rank
    width = max(map(len, labels), default=0)
    stride = 3 * n + width + 1
    lead = b"\0\0," * (n - 1) + b"\0\0\t"  # the filler is byte 0
    lines = [lead + label.encode().ljust(width, b"\0") + b"\n" for label in labels]
    lines.append(bytes(stride))  # class -1: no newline, so in no kept run
    signs = (b"-" * n).ljust(256, b"\0")  # byte v + n stores the value v
    digits = "".join(str(abs(v)) for v in range(-n, n + 1)).encode().ljust(256, b"\0")
    for first in range(0, 2 * n * count, count):
        block = bytearray().join(map(lines.__getitem__, class_id[first : first + count]))
        for at, table in enumerate((signs, digits)):
            column = buf[first * n : (first + count) * n].translate(table)
            for i in range(n):
                block[3 * i + at :: stride] = column[i::n]
        runs = re.finditer(b"\n+", block[stride - 1 :: stride])
        block = b"".join(block[m.start() * stride : m.end() * stride] for m in runs)
        yield block.translate(None, b"\0")


def tsv_blocks(partition: GroupPartition) -> Iterator[bytes]:
    """The dump of ``partition`` as bytes, one "K"-coset block at a time.

    One ``window<TAB>label`` line per in-domain element, in canonical order
    (:func:`render_tsv`); classes without labels are named by their ids.
    """
    labels = partition.labels or [str(c) for c in range(partition.num_classes)]
    return render_tsv(partition.n, partition.class_id, labels)


def rep_rank(n: int, k: int) -> int:
    """Position of the last entry ``k`` in canonical representative order.

    The elements with last entry ``k`` are the "K"-coset block
    ``rep_rank(n, k)`` of the canonical order.
    """
    return n - k if k > 0 else n - 1 - k


def element_index(w: Sequence[int]) -> int:
    """Canonical index of ``w`` by pure index arithmetic (no table needed)."""
    n = len(w)
    check_enumeration_rank(n)
    idx = 0
    order = group_order(n)
    cur = tuple(w)
    while n > 1:
        order //= 2 * n
        idx += rep_rank(n, cur[-1]) * order
        cur = fix_last_projection(cur)
        n -= 1
    return idx + (0 if cur[0] == 1 else 1)


def repeat_by_block(bases: Sequence[array], blocks: int) -> list[array]:
    """Each base repeated ``blocks`` times, copy ``b`` offset by ``b * size``.

    This extends tables of ``size`` rank-``(n-1)`` parts over the ``2n``
    "K"-coset blocks.  The offsets are added to the repeated bytes as one big
    int, one lane per entry; each sum fits its lane, so nothing carries over.

    >>> [list(t) for t in repeat_by_block([array("i", (1, 0))], 3)]
    [[1, 0, 3, 2, 5, 4]]
    """
    size, width, order = len(bases[0]), array("i").itemsize, sys.byteorder
    offsets = b"".join(
        o.to_bytes(width, order) * size for o in range(0, blocks * size, size)
    )
    shift = int.from_bytes(offsets, order)
    tables = []
    for base in bases:
        lanes = int.from_bytes(base.tobytes() * blocks, order) + shift
        tables.append(array("i", lanes.to_bytes(len(offsets), order)))
    return tables


@functools.lru_cache(maxsize=None)
def right_generator_tables(n: int) -> tuple[array, ...]:
    """Table ``g`` maps ``index(w)`` to ``index(w * g)``, for ``g = 0..n-1``.

    Built by index arithmetic alone, on the digits
    ``index(w) = rank(k) * order(n-1) + index(part)`` of the last entry
    ``k`` and the rank-``(n-1)`` part.  A generator ``g <= n-2`` keeps ``k``:
    its table is the rank-``(n-1)`` table repeated once per block, offset by
    the block (:func:`repeat_by_block`).  ``s_{n-1}`` changes only ``k`` and
    the part's last entry, so its table is one run of ``order(n-2)``
    consecutive indices per pair of those two digits.  The tables are cached
    and shared, so callers must not change them.

    >>> [list(t) for t in right_generator_tables(2)]
    [[1, 0, 3, 2, 5, 4, 7, 6], [2, 4, 0, 6, 1, 7, 3, 5]]
    """
    check_enumeration_rank(n)
    if n == 1:
        return (array("i", (1, 0)),)
    low = group_order(n - 2)
    tables = repeat_by_block(right_generator_tables(n - 1), 2 * n)
    top = array("i")
    for k in _rep_targets(n):
        for y in _rep_targets(n - 1):
            # the part's last entry y is the window entry coset_entry(y, k);
            # after the swap k is the last entry of the new part, one step
            # nearer zero when |k| > |entry|
            entry = coset_entry(y, k)
            below = k - (1 if k > 0 else -1) if abs(k) > abs(entry) else k
            start = (rep_rank(n, entry) * 2 * (n - 1) + rep_rank(n - 1, below)) * low
            top.extend(range(start, start + low))
    tables.append(top)
    return tuple(tables)


@functools.lru_cache(maxsize=None)
def inverse_index_table(n: int) -> array:
    """Table mapping ``index(w)`` to ``index(w^-1)``, built from rank ``n - 1``.

    Block ``b`` holds ``r_b * p`` (``p`` fixing ``n``), whose inverses are
    ``p^-1 * r_b^-1``.  Block 0 is the rank-``(n-1)`` table.  Left-multiplying
    ``r_{b-1}`` by ``s_{n-1}, ..., s_1, t, s_1, ..., s_{n-1}`` in turn gives
    ``r_b``, so block ``b`` is block ``b - 1`` through that generator's right
    table.  The table is cached and shared, so callers must not change it.

    >>> list(inverse_index_table(2))
    [0, 1, 2, 4, 3, 5, 6, 7]
    """
    check_enumeration_rank(n)
    tables = right_generator_tables(n)
    block = inverse_index_table(n - 1) if n > 1 else array("i", (0,))
    out = array("i", block)
    for g in (*range(n - 1, 0, -1), T_LETTER, *range(1, n)):
        block = array("i", map(tables[g].__getitem__, block))
        out.extend(block)
    return out


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class WeightFunction:
    """Positive integer weights: ``a`` on every swap generator, ``b`` on ``t``.

    All slope conditions are evaluated exactly on integers; e.g. the test
    ``b/a > k`` is implemented as ``b > k*a``.

    >>> WeightFunction(1, 3).slope_exceeds(2)
    True
    >>> WeightFunction(2, 5).regime(4)
    'subasymptotic'
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise InvalidInputError("weights must be integers")
        if self.a <= 0 or self.b <= 0:
            raise InvalidInputError("weights must be positive")

    def letter_weight(self, g: int) -> int:
        return self.b if g == T_LETTER else self.a

    def slope_exceeds(self, k: int) -> bool:
        """Exact test of ``b/a > k``."""
        return self.b > k * self.a

    def gate_profile(self, n: int) -> tuple[bool, ...]:
        """Outcomes of the threshold tests ``b/a > k-1`` for ``k = 2..n``.

        Two weights in the same regime produce identical profiles, hence
        identical downstream partitions.
        """
        return tuple(self.slope_exceeds(k - 1) for k in range(2, n + 1))

    def representative(self, n: int) -> "WeightFunction":
        """The weight standing for this one's gate profile at rank ``n``.

        ``(2, 1)`` when ``a > b``, otherwise ``(1, 1 + p)`` with ``p`` the
        number of gates ``b > (k-1) a`` passed.  It has the same gate profile
        and the same truth of ``a > b``, which is all the refinement reads.

        >>> WeightFunction(3, 14).representative(6), WeightFunction(1, 5).representative(6)
        (WeightFunction(a=1, b=5), WeightFunction(a=1, b=5))
        >>> WeightFunction(4, 3).representative(6), WeightFunction(2, 2).representative(6)
        (WeightFunction(a=2, b=1), WeightFunction(a=1, b=1))
        """
        if self.a > self.b:
            return WeightFunction(2, 1)
        return WeightFunction(1, 1 + sum(self.gate_profile(n)))

    def regime(self, n: int) -> str:
        """Classify the slope relative to rank ``n``.

        Returns one of ``"asymptotic"`` (``b/a > n-1``), ``"intermediate"``
        (``b/a = n-1``), ``"subasymptotic"`` (``n-2 < b/a < n-1``), or
        ``"low"`` (``b/a <= n-2``).
        """
        if self.slope_exceeds(n - 1):
            return "asymptotic"
        if self.b == (n - 1) * self.a:
            return "intermediate"
        if self.slope_exceeds(n - 2):
            return "subasymptotic"
        return "low"


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
