"""
Classical and signed permutation patterns: containment, occurrence listing,
and the induced-occurrence test.

An occurrence of a pattern p in a host permutation is a position subsequence
whose values are order-isomorphic to p.  Signed patterns additionally require
the signs to match slot by slot while the absolute values realize the
unsigned pattern.

Searches read plain words.  One dispatch finds a first occurrence: the
three classical forbidden patterns, 321 and 12 by passes over the host in
about linear time, any other pattern by a depth-first search in which each
slot's value is bounded by the values already chosen for its neighbouring
pattern values, one direct-sum block of the host at a time when the
pattern is sum-indecomposable.  A signed host is split by sign once for all
its windows: a one-sign window goes to the dispatch on the host's entries
of that sign, a window of both signs to the depth-first search.

The module also carries the two fixed forbidden-pattern lists that
characterize involutions with Boolean principal order ideals:
`FORBIDDEN_PATTERNS` for the symmetric group and `SIGNED_FORBIDDEN_PATTERNS`
for signed permutations.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .permutations import (
    InvariantViolationError, Permutation, check_word, parse_int_tokens, parse_permutation,
    sum_blocks)

if TYPE_CHECKING:
    from .signed import SignedPermutation


@dataclass(frozen=True)
class Occurrence:
    """
    Positions i_1 < ... < i_m in the host and the values found there.  The
    searches build their results unchecked (`_occurrence`), as
    `_trusted_involution` builds words; this constructor still validates.
    """

    positions: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        if list(self.positions) != sorted(set(self.positions)):
            raise ValueError(f"positions not strictly increasing: {self.positions}")
        if len(self.positions) != len(self.values):
            raise ValueError("positions and values differ in length")


@dataclass(frozen=True)
class SignedPattern:
    """A pattern over {-m..-1, 1..m}; absolute values form a permutation."""

    window: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "window", check_word(self.window, signed=True))

    @property
    def n(self) -> int:
        return len(self.window)

    def __repr__(self) -> str:
        return f"SignedPattern({format_signed(self)!r})"


def parse_signed_pattern(text: str) -> SignedPattern:
    """Comma-separated signed integers, e.g. "-1,-2"."""
    return SignedPattern(tuple(parse_int_tokens(text)))


def format_signed(w: SignedPermutation | SignedPattern) -> str:
    """A signed window as comma-separated integers, as the parsers read it."""
    return ",".join(map(str, w.window))


@functools.lru_cache(maxsize=256)
def _slot_plan(pattern: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """
    The depth-first search's plan for a permutation word: for each slot k,
    the earlier slot holding the next smaller pattern value (below[k]) and
    the next larger one (above[k]), or the sentinel slot m / m + 1 (values
    0 and n + 1); and whether the pattern is sum-indecomposable.
    """
    m = len(pattern)
    below, above = [], []
    slot_value = pattern.__getitem__
    for k, q in enumerate(pattern):
        below.append(max((t for t in range(k) if pattern[t] < q), key=slot_value, default=m))
        above.append(min((t for t in range(k) if pattern[t] > q), key=slot_value, default=m + 1))
    return tuple(below), tuple(above), len(sum_blocks(pattern)) == 1


def _occurrences_iter(
    host: Sequence[int],
    pattern: tuple[int, ...],
    slot_hosts: Sequence[Sequence[int]] | None = None,
) -> Iterator[tuple[int, ...]]:
    """
    Yield position tuples (1-based, increasing) whose host values are
    order-isomorphic to the pattern, in lexicographic order of positions.
    Host and pattern are permutation words.  `slot_hosts[k]`, when given,
    is the host as slot k sees it, with 0 at each position the slot may
    not take (a signed search keeps the values of one sign per slot).

    An occurrence of a sum-indecomposable pattern cannot straddle two
    direct-sum blocks of the host, so such a pattern is searched block by
    block, left to right, skipping blocks shorter than it; a decomposable
    pattern is searched over the whole host.  Within a span the search is
    depth-first over positions.  Slot k's value must lie strictly between
    the values chosen for the earlier slots holding the next smaller and
    the next larger pattern value, which keeps a partial selection
    order-isomorphic to the pattern prefix with two comparisons.
    """
    n, m = len(host), len(pattern)
    if m > n:
        return
    if m == 0:
        yield ()
        return
    below, above, indecomposable = _slot_plan(pattern)
    if indecomposable:
        spans = [(lo, hi) for lo, hi in sum_blocks(host) if hi - lo + 1 >= m]
    else:
        spans = [(1, n)]
    seen = slot_hosts or [host] * m
    chosen = [0] * m
    values = [0] * m + [0, n + 1]
    for lo, hi in spans:
        k, i = 0, lo
        while True:
            last = hi - m + k + 1
            low, high, slot_host = values[below[k]], values[above[k]], seen[k]
            while i <= last and not low < slot_host[i - 1] < high:
                i += 1
            if i <= last:
                chosen[k], values[k] = i, slot_host[i - 1]
                i += 1
                if k == m - 1:
                    yield tuple(chosen)
                else:
                    k += 1
            elif k:
                k -= 1
                i = chosen[k] + 1
            else:
                break


# The three forbidden patterns are skew sums of increasing runs (4321 =
# 1-1-1-1, 45312 = 12-1-12, 456123 = 123-123), so their first occurrence
# comes from tables filled right to left: for each suffix, whether the
# runs still to place can be completed below a given value.  A forward
# greedy then takes, slot by slot, the first position whose value fits the
# slots chosen so far and whose table entry says the rest can follow; that
# is the lexicographically first occurrence.  Each takes a permutation
# word and returns 1-based positions, or None.  The same holds for 321 and
# 12, which the one-sign signed windows -3,-2,-1 and -1,-2 reduce to: 12
# at positions (i, j) of w is 21 at the same positions of n + 1 - w.


def _first_decreasing(word: Sequence[int], slots: int = 4, top: int = 0) -> tuple[int, ...] | None:
    """
    First occurrence of the decreasing pattern of `slots` <= 4 entries
    (4321, 321, 21) in a word of positive values below `top` (by default
    len(word) + 1), from the length of the longest decreasing subsequence
    that starts at each position, capped at 4.  One right-to-left pass
    keeps the least value seen that starts a decreasing run of length 1, 2
    and 3.

    >>> _first_decreasing((5, 1, 4, 6, 3, 2))  # 5 4 3 2
    (1, 3, 5, 6)
    >>> _first_decreasing((5, 1, 4, 6, 3, 2), 3)  # 5 4 3
    (1, 3, 5)
    """
    n = len(word)
    run = bytearray(n)
    low1 = low2 = low3 = top = top or n + 1
    for i in range(n - 1, -1, -1):
        v = word[i]
        if v > low3:
            run[i] = 4
        elif v > low2:
            run[i], low3 = 3, v
        elif v > low1:
            run[i], low2 = 2, v
        else:
            run[i], low1 = 1, v
    if slots not in run:  # a run of length k holds one of each length below k
        return None
    positions = []
    i, high = 0, top
    for need in range(slots, 0, -1):
        while not (word[i] < high and run[i] >= need):
            i += 1
        positions.append(i + 1)
        high = word[i]
        i += 1
    return tuple(positions)


def _rising_tail(word: Sequence[int], start: int, cap: int, slots: int) -> tuple[int, ...]:
    """
    Positions of the first increasing run of `slots` values below cap in
    word[start:], read as the first decreasing run of cap - v.

    >>> _rising_tail((4, 1, 5, 2, 3), 1, 4, 3)  # 1 2 3
    (2, 4, 5)
    """
    kept = [j for j in range(start, len(word)) if word[j] < cap]
    found = _first_decreasing([cap - word[j] for j in kept], slots, cap)
    if found is None:
        raise InvariantViolationError(f"no increasing run of {slots} below {cap} from {start + 1}")
    return tuple(kept[k - 1] + 1 for k in found)


def _least_larger_right(word: Sequence[int]) -> list[int]:
    """
    For each position, the least value to its right that is larger than
    the value there, or len(word) + 1 when there is none.  One
    left-to-right pass over the values still to come, kept as a doubly
    linked list in value order: each position reads its value's successor
    there, then unlinks the value.

    >>> _least_larger_right((2, 5, 1, 4, 3))
    [3, 6, 3, 6, 6]
    """
    n = len(word)
    up = list(range(1, n + 3))  # value v links to v + 1 and v - 1; 0 and
    down = list(range(-1, n + 1))  # n + 1 are the ends of the list
    larger = []
    for v in word:
        above, below = up[v], down[v]
        larger.append(above)
        up[below], down[above] = above, below
    return larger


def _first_45312(word: Sequence[int]) -> tuple[int, ...] | None:
    """
    First occurrence of 45312 = 12-1-12.  Right to left, one pass keeps:
    the least top of a 12 in the suffix (the least of the least larger
    values to the right of its positions); the least "3" in the suffix (a
    value above the least top of a 12 to its right); and the next greater
    element, from a stack.  A "4" is feasible when a "3" below it follows
    its next greater element.  `_rising_tail` places the "12" below the "3".

    >>> _first_45312((2, 6, 7, 5, 8, 3, 4, 1))  # 6 7 5 3 4
    (2, 3, 4, 6, 7)
    """
    n = len(word)
    larger = _least_larger_right(word)
    is_three = bytearray(n)
    low_three = [n + 1] * (n + 1)
    stack: list[int] = []
    low, top12, first = n + 1, n + 1, -1
    for i in range(n - 1, -1, -1):
        v = word[i]
        while stack and word[stack[-1]] < v:
            stack.pop()
        if stack and low_three[stack[-1] + 1] < v:
            first = i
        stack.append(i)
        if v > top12:
            is_three[i] = 1
            if v < low:
                low = v
        low_three[i] = low
        if larger[i] < top12:
            top12 = larger[i]
    if first < 0:
        return None
    four = word[first]
    five = next(j for j in range(first + 1, n) if word[j] > four)
    three = next(k for k in range(five + 1, n) if is_three[k] and word[k] < four)
    return (first + 1, five + 1, three + 1) + _rising_tail(word, three + 1, word[three], 2)


def _first_456123(word: Sequence[int]) -> tuple[int, ...] | None:
    """
    First occurrence of 456123 = 123-123.  Right to left, one pass keeps:
    the least top of a 123 in each suffix (a 123 with middle j has least
    top the least larger value right of j, and it fits in a suffix that
    holds the previous smaller element of j, so a previous-smaller stack
    buckets that top at its position); the next greater element; and, in a
    Fenwick tree over values, the earliest end of a rising pair above each
    value.  The "4" is the first position whose value exceeds the least
    123 top after the earliest end of a rising pair above it.
    `_rising_tail` places the "123" below the "4", after the "6".

    >>> _first_456123((7, 4, 5, 8, 6, 1, 2, 3))  # 4 5 8 1 2 3
    (2, 3, 4, 6, 7, 8)
    """
    n = len(word)
    larger = _least_larger_right(word)
    top123 = [n + 1] * (n + 1)
    greater = [n] * n
    tree = [n] * (n + 1)  # by n + 1 - value: least next-greater position
    rising: list[int] = []  # next greater element stack
    unmatched: list[int] = []  # positions whose previous smaller is unknown
    top, first = n + 1, -1
    for i in range(n - 1, -1, -1):
        v = word[i]
        while unmatched and word[unmatched[-1]] > v:
            j = unmatched.pop()
            if larger[j] < top:
                top = larger[j]
        unmatched.append(i)
        top123[i] = top
        end, k = n, n - v
        while k:
            if tree[k] < end:
                end = tree[k]
            k &= k - 1
        if end < n and top123[end + 1] < v:
            first = i
        while rising and word[rising[-1]] < v:
            rising.pop()
        if rising:
            end = greater[i] = rising[-1]
            k = n + 1 - v
            while k <= n:
                if end < tree[k]:
                    tree[k] = end
                k += k & -k
        rising.append(i)
    if first < 0:
        return None
    cap = word[first]
    five = next(
        j for j in range(first + 1, n)
        if word[j] > cap and greater[j] < n and top123[greater[j] + 1] < cap
    )
    six = greater[five]
    return (first + 1, five + 1, six + 1) + _rising_tail(word, six + 1, cap, 3)


_TABLE_SEARCHES = {
    (1, 2): lambda word: _first_decreasing([len(word) + 1 - v for v in word], 2),
    (3, 2, 1): lambda word: _first_decreasing(word, 3),
    (4, 3, 2, 1): _first_decreasing,
    (4, 5, 3, 1, 2): _first_45312,
    (4, 5, 6, 1, 2, 3): _first_456123,
}


def _first_positions(word: Sequence[int], pattern: tuple[int, ...]) -> tuple[int, ...] | None:
    """
    Positions of the first occurrence of the pattern word in the host word,
    or None: by the pattern's table search when it has one, else depth first.
    """
    search = _TABLE_SEARCHES.get(pattern)
    if search is not None:
        return search(word)
    return next(_occurrences_iter(word, pattern), None)


def _occurrence(host: Sequence[int], positions: tuple[int, ...] | None) -> Occurrence | None:
    """
    The occurrence at `positions` with the host's values there, or None for
    None.  Built without `Occurrence`'s checks: a search's positions only
    need one pass to confirm that they increase strictly from 1.
    """
    if positions is None:
        return None
    last = 0
    for i in positions:
        if i <= last:
            raise InvariantViolationError(f"search positions not increasing from 1: {positions}")
        last = i
    occ = object.__new__(Occurrence)
    occ.__dict__.update(positions=positions, values=tuple(host[i - 1] for i in positions))
    return occ


def contains(pi: Permutation, p: Permutation) -> Occurrence | None:
    """
    The lexicographically first occurrence (by positions) of p in pi, or
    None when pi avoids p.  The three forbidden patterns, 321 and 12 are
    found from their tables, every other pattern by the depth-first search.

    >>> contains(parse_permutation("84725631"), parse_permutation("4231")) is not None
    True
    >>> contains(parse_permutation("12345"), parse_permutation("21")) is None
    True
    """
    return _occurrence(pi.word, _first_positions(pi.word, p.word))


def occurrences(pi: Permutation, p: Permutation) -> list[Occurrence]:
    """All occurrences of p in pi, lexicographic by positions."""
    return [_occurrence(pi.word, positions) for positions in _occurrences_iter(pi.word, p.word)]


def is_induced(pi: Permutation, occ: Occurrence) -> bool:
    """
    Whether the occurrence's value set is permuted by pi exactly as the
    pattern permutes its slots.

    With values (v_1, ..., v_m) realizing the pattern p, the test is
    v_j = pi(v_{p^{-1}(j)}) for every j: the host must map the value
    playing slot j of the pattern to the value playing slot p(j).
    """
    m = len(occ.positions)
    for i, v in zip(occ.positions, occ.values):
        if not 1 <= i <= pi.n or pi.word[i - 1] != v:
            raise ValueError(f"not an occurrence in the host: {occ}")
    ranked = sorted(occ.values)
    p = [ranked.index(v) + 1 for v in occ.values]  # pattern word realized
    slot_of = {p[k]: k for k in range(m)}
    return all(occ.values[j] == pi.word[occ.values[slot_of[j + 1]] - 1] for j in range(m))


def _split_signs(window: Sequence[int]) -> tuple:
    """
    A signed window as the searches read it, built once per host: its
    absolute word; for each sign (0 positive, 1 negative), the absolute
    word with 0 at each entry of the other sign; and for each sign, the
    positions of its entries with their absolute values ranked among them.
    """
    hosts = ([v if v > 0 else 0 for v in window], [-v if v < 0 else 0 for v in window])
    sides = []
    for host in hosts:
        positions = [i for i, a in enumerate(host, start=1) if a]
        rank = {a: r for r, a in enumerate(sorted(filter(None, host)), start=1)}
        sides.append((positions, [rank[host[i - 1]] for i in positions]))
    return tuple(map(abs, window)), hosts, sides


@functools.lru_cache(maxsize=256)
def _window_shape(window: tuple[int, ...]) -> tuple[int, tuple[int, ...], tuple[bool, ...]]:
    """A signed pattern window's number of negative slots, its absolute
    word, and for each slot whether it is negative."""
    negative = tuple(q < 0 for q in window)
    return sum(negative), tuple(map(abs, window)), negative


def _signed_positions(split: tuple, window: tuple[int, ...]) -> tuple[int, ...] | None:
    """
    The positions of the first occurrence of the signed pattern `window`
    in the split host, or None.  A host with fewer entries of a sign than
    the pattern has slots of it avoids it.  A one-sign pattern is its
    absolute word in the ranked entries of that sign; otherwise each
    depth-first slot sees only the host values of its own sign.
    """
    absolute, hosts, sides = split
    minus, pattern, negative = _window_shape(window)
    if len(sides[0][0]) < len(window) - minus or len(sides[1][0]) < minus:
        return None
    if 0 < minus < len(window):
        return next(_occurrences_iter(absolute, pattern, [hosts[q] for q in negative]), None)
    positions, ranked = sides[minus > 0]
    found = _first_positions(ranked, pattern)
    return None if found is None else tuple(positions[k - 1] for k in found)


def contains_signed(pi: SignedPermutation | SignedPattern, p: SignedPattern) -> Occurrence | None:
    """
    First occurrence of the signed pattern p in the signed window of pi:
    absolute values order-isomorphic to |p| with signs equal slot by slot.
    The reported values keep their signs.
    """
    return _occurrence(pi.window, _signed_positions(_split_signs(pi.window), p.window))


def first_occurrence(
    pi, patterns: Iterable[Permutation | SignedPattern]
) -> tuple[Permutation | SignedPattern, Occurrence] | None:
    """
    The first listed pattern that pi contains, with its first occurrence, or
    None.  Classical hosts take classical patterns, searched as `contains`
    searches them; signed hosts take signed patterns, searched in the host
    split by sign once.
    """
    split = None
    for p in patterns:
        if isinstance(p, SignedPattern):
            if split is None:
                split = _split_signs(pi.window)
            occ = _occurrence(pi.window, _signed_positions(split, p.window))
        else:
            occ = _occurrence(pi.word, _first_positions(pi.word, p.word))
        if occ is not None:
            return p, occ
    return None


def avoids_all(pi, patterns: Iterable[Permutation | SignedPattern]) -> bool:
    """True iff pi contains none of the listed patterns."""
    return first_occurrence(pi, patterns) is None


# An involution of S_n has a Boolean principal order ideal iff it avoids
# all three of these patterns.
FORBIDDEN_PATTERNS: tuple[Permutation, ...] = (
    parse_permutation("4321"),
    parse_permutation("45312"),
    parse_permutation("456123"),
)

# Signed analogue: a signed involution is Boolean iff it avoids all of
# these.  Unbarred entries are all-positive signed patterns.
_SIGNED_FORBIDDEN_WINDOWS = (
    "4,3,2,1",
    "-1,-2",
    "2,1,-3",
    "3,-4,1,-2",
    "-4,3,2,-1",
    "4,5,3,1,2",
    "1,-3,-2",
    "4,2,-3,1",
    "-4,5,3,-1,2",
    "5,-4,3,-2,1",
    "4,5,6,1,2,3",
    "-3,-2,-1",
    "4,-3,-2,1",
    "4,5,-3,1,2",
    "-4,5,6,-1,2,3",
    "5,-4,6,-2,1,3",
)

SIGNED_FORBIDDEN_PATTERNS: tuple[SignedPattern, ...] = tuple(
    parse_signed_pattern(text) for text in _SIGNED_FORBIDDEN_WINDOWS
)
