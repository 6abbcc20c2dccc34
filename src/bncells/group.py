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
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidInputError, RankError

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
    >>> (w * w.inverse()).is_identity()
    True
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
    def rank(self) -> int:
        return len(self)

    @property
    def window(self) -> tuple[int, ...]:
        return tuple(self)

    def __call__(self, i: int) -> int:
        """Evaluate ``w(i)`` for ``i`` in ``±1..±n``; ``w(-i) = -w(i)``."""
        if i > 0:
            return self[i - 1]
        return -self[-i - 1]

    def is_identity(self) -> bool:
        return all(self[i] == i + 1 for i in range(len(self)))

    # -- group operations ----------------------------------------------------

    def __mul__(self, other: Sequence[int]) -> "SignedPerm":
        if len(other) != len(self):
            raise RankError("cannot multiply windows of different ranks")
        return SignedPerm(mul(self, other))

    def inverse(self) -> "SignedPerm":
        return SignedPerm(inverse(self))

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


def parse_window(text: str, n: int | None = None) -> SignedPerm:
    """Parse comma-separated window text, e.g. ``"-7,-5,6,4,3,-2,1"``."""
    try:
        entries = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"malformed window text {text!r}") from exc
    w = SignedPerm(entries)
    if n is not None and w.rank != n:
        raise RankError(f"window {text!r} has rank {w.rank}, expected {n}")
    return w


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


def is_descent(w: Sequence[int], g: int) -> bool:
    """O(1) test of whether letter ``g`` is a right descent of ``w``."""
    if g == T_LETTER:
        return w[0] < 0
    return w[g] < w[g - 1]


# ---------------------------------------------------------------------------
# reduced words and suffixes
# ---------------------------------------------------------------------------


def canonical_word(w: Sequence[int]) -> tuple[int, ...]:
    """A deterministic reduced word for ``w`` (smallest right descent stripped last).

    >>> canonical_word((-1, 2))
    (0,)
    >>> from_word(2, canonical_word((-1, -2))).window
    (-1, -2)
    """
    cur = tuple(w)
    rev: list[int] = []
    while True:
        des = right_descents(cur)
        if not des:
            break
        g = min(des)
        cur = mul_gen_right(cur, g)
        rev.append(g)
    return tuple(reversed(rev))


def is_suffix(y: Sequence[int], w: Sequence[int]) -> bool:
    """True iff some reduced word of ``w`` ends with a reduced word of ``y``.

    Exact criterion: ``length(w) == length(w * y^{-1}) + length(y)``.

    >>> is_suffix((1, 2), (-2, 1))
    True
    >>> is_suffix((2, 1), (-1, 2))
    False
    """
    if len(y) != len(w):
        raise RankError("suffix test requires equal ranks")
    return length(mul(w, inverse(y))) == length(w) - length(y)


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
# longest parabolic elements
# ---------------------------------------------------------------------------


def longest_parabolic(n: int, gens: Iterable[int]) -> SignedPerm:
    """Longest element of the standard parabolic subgroup generated by ``gens``.

    Built by greedy ascent: repeatedly right-multiply by any generator that
    increases length, until every generator is a descent.

    >>> longest_parabolic(3, (1, 2)).window      # reversal of the positive block
    (3, 2, 1)
    >>> longest_parabolic(2, (0, 1)).window      # longest element of the full group
    (-1, -2)
    """
    gens = tuple(sorted(check_letters(n, gens)))
    w: Sequence[int] = tuple(range(1, n + 1))
    progressed = True
    while progressed:
        progressed = False
        for g in gens:
            if not is_descent(w, g):
                w = mul_gen_right(w, g)
                progressed = True
    return SignedPerm(w)


# ---------------------------------------------------------------------------
# parabolic coset decomposition
# ---------------------------------------------------------------------------

# Identifiers for the two parabolic subsets used throughout: "J" drops the
# sign change (all index-swapping generators: the subgroup of all-positive
# windows, a copy of the symmetric group); "K" drops the last swap (the
# subgroup fixing the last position, a copy of the rank-(n-1) group).
SUBSET_J = "J"
SUBSET_K = "K"


@dataclass(frozen=True)
class CosetDecomposition:
    """``w = rep * part`` with ``rep`` a minimal coset representative.

    ``part`` lies in the parabolic subgroup (all entries positive for "J";
    fixing the last position for "K") and lengths add:
    ``length(w) == length(rep) + length(part)``.
    """

    rep: SignedPerm
    part: SignedPerm
    subset_id: str


def rep_fix_last(n: int, k: int) -> SignedPerm:
    """The minimal coset representative (for subset "K") sending ``n`` to ``k``.

    Window: ``(1, ..., |k|-1, |k|+1, ..., n, k)``.
    """
    a = abs(k)
    body = list(range(1, a)) + list(range(a + 1, n + 1))
    return SignedPerm(tuple(body) + (k,))


def coset_decompose(w: Sequence[int], subset_id: str) -> CosetDecomposition:
    """Factor ``w = rep * part`` over the named parabolic subset.

    For "J" the representative sorts the window ascending (negatives in
    increasing order, then positives in increasing order); for "K" it is the
    unique minimal representative with ``rep(n) = w(n)``.

    >>> d = coset_decompose((3, -1, 2), "J")
    >>> d.rep.window, d.part.window
    ((-1, 2, 3), (3, 1, 2))
    >>> d = coset_decompose((-2, 3, -1), "K")
    >>> d.rep.window, d.part.window
    ((2, 3, -1), (-1, 2, 3))
    """
    w = SignedPerm(w)
    n = w.rank
    if subset_id == SUBSET_J:
        rep = SignedPerm(sorted(w))
    elif subset_id == SUBSET_K:
        rep = rep_fix_last(n, w[-1])
    else:
        raise InvalidInputError(f"unsupported parabolic subset id {subset_id!r}")
    part = rep.inverse() * w
    return CosetDecomposition(rep=rep, part=part, subset_id=subset_id)


def fix_last_projection(w: Sequence[int]) -> tuple[int, ...]:
    """The "K"-part of ``w`` as a rank-``(n-1)`` window, via the shift formula.

    Equals ``coset_decompose(w, "K").part`` with the fixed last entry dropped:
    entries of absolute value below ``|w(n)|`` are kept, larger ones are
    shifted one step toward zero.
    """
    k = abs(w[-1])
    return tuple(x if abs(x) < k else (x - 1 if x > 0 else x + 1) for x in w[:-1])


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
def group_elements(n: int) -> tuple[tuple[int, ...], ...]:
    """All ``2^n n!`` windows in canonical tower order (identity first).

    The order is defined recursively: an element is keyed by its "K"-coset
    representative (canonical representative order) and then by the canonical
    index of its rank-``(n-1)`` part, so that
    ``index(w) = rep_rank * order(n-1) + index(part)``.

    >>> group_elements(1)
    ((1,), (-1,))
    >>> len(group_elements(3))
    48
    """
    check_enumeration_rank(n)
    if n == 1:
        return ((1,), (-1,))
    base = group_elements(n - 1)
    out: list[tuple[int, ...]] = []
    for k in _rep_targets(n):
        rep = rep_fix_last(n, k)
        for u in base:
            out.append(mul(rep, u + (n,)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def group_index(n: int) -> dict[tuple[int, ...], int]:
    """Window -> canonical index lookup table for rank ``n``."""
    return {w: i for i, w in enumerate(group_elements(n))}


def element_index(w: Sequence[int]) -> int:
    """Canonical index of ``w`` by pure index arithmetic (no table needed)."""
    n = len(w)
    check_enumeration_rank(n)
    idx = 0
    order = group_order(n)
    cur = tuple(w)
    while n > 1:
        k = cur[-1]
        r = n - k if k > 0 else n - 1 - k
        order //= 2 * n
        idx += r * order
        cur = fix_last_projection(cur)
        n -= 1
    return idx + (0 if cur[0] == 1 else 1)


@functools.lru_cache(maxsize=None)
def inverse_index_table(n: int) -> tuple[int, ...]:
    """Table mapping each element index to the index of its inverse."""
    index = group_index(n)
    return tuple(index[inverse(w)] for w in group_elements(n))


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

    def of(self, w: Sequence[int]) -> int:
        """Total weight of ``w``: additive over any reduced word."""
        return self.a * (length(w) - length_t(w)) + self.b * length_t(w)

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
