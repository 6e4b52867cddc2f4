"""
Classical and signed permutation patterns: containment, occurrence listing,
and the induced-occurrence test.

An occurrence of a pattern p in a host permutation is a position subsequence
whose values are order-isomorphic to p.  Signed patterns additionally require
the signs to match slot by slot while the absolute values realize the
unsigned pattern.

Occurrences are found by a depth-first search in which each slot's value is
bounded by the values already chosen for its neighbouring pattern values.
A sum-indecomposable pattern, such as each forbidden pattern below, is
searched one direct-sum block of the host at a time.

The module also carries the two fixed forbidden-pattern lists that
characterize involutions with Boolean principal order ideals:
`FORBIDDEN_PATTERNS` for the symmetric group and `SIGNED_FORBIDDEN_PATTERNS`
for signed permutations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .permutations import Permutation, check_word, parse_int_tokens, parse_permutation, sum_blocks

if TYPE_CHECKING:
    from .signed import SignedPermutation


@dataclass(frozen=True)
class Occurrence:
    """Positions i_1 < ... < i_m in the host and the values found there."""

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
        return f"SignedPattern({','.join(str(v) for v in self.window)!r})"


def parse_signed_pattern(text: str) -> SignedPattern:
    """Comma-separated signed integers, e.g. "-1,-2"."""
    return SignedPattern(tuple(parse_int_tokens(text)))


def _occurrences_iter(host: Sequence[int], pattern: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """
    Yield position tuples (1-based, increasing) whose host values are
    order-isomorphic to the pattern, in lexicographic order of positions.
    Host and pattern are permutation words.

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
    # below[k] / above[k]: the earlier slot with the next smaller / larger
    # pattern value, or the sentinel slot m / m + 1 (values 0 and n + 1).
    below, above = [], []
    slot_value = pattern.__getitem__
    for k, q in enumerate(pattern):
        below.append(max((t for t in range(k) if pattern[t] < q), key=slot_value, default=m))
        above.append(min((t for t in range(k) if pattern[t] > q), key=slot_value, default=m + 1))
    if len(sum_blocks(pattern)) == 1:
        spans = [(lo, hi) for lo, hi in sum_blocks(host) if hi - lo + 1 >= m]
    else:
        spans = [(1, n)]
    chosen = [0] * m
    values = [0] * m + [0, n + 1]
    for lo, hi in spans:
        k, i = 0, lo
        while True:
            last = hi - m + k + 1
            low, high = values[below[k]], values[above[k]]
            while i <= last and not low < host[i - 1] < high:
                i += 1
            if i <= last:
                chosen[k], values[k] = i, host[i - 1]
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


def contains(pi: Permutation, p: Permutation) -> Occurrence | None:
    """
    The lexicographically first occurrence (by positions) of p in pi, or
    None when pi avoids p.

    >>> contains(parse_permutation("84725631"), parse_permutation("4231")) is not None
    True
    >>> contains(parse_permutation("12345"), parse_permutation("21")) is None
    True
    """
    for positions in _occurrences_iter(pi.word, p.word):
        return Occurrence(positions, tuple(pi.word[i - 1] for i in positions))
    return None


def occurrences(pi: Permutation, p: Permutation) -> list[Occurrence]:
    """All occurrences of p in pi, lexicographic by positions."""
    return [
        Occurrence(positions, tuple(pi.word[i - 1] for i in positions))
        for positions in _occurrences_iter(pi.word, p.word)
    ]


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


def contains_signed(
    pi: "SignedPermutation | SignedPattern", p: SignedPattern
) -> Occurrence | None:
    """
    First occurrence of the signed pattern p in the signed window of pi:
    absolute values order-isomorphic to |p| with signs equal slot by slot.
    The reported values keep their signs.
    """
    window = tuple(pi.window)
    abs_host = tuple(abs(v) for v in window)
    abs_pat = tuple(abs(v) for v in p.window)
    for positions in _occurrences_iter(abs_host, abs_pat):
        if all(
            (window[i - 1] > 0) == (q > 0)
            for i, q in zip(positions, p.window)
        ):
            return Occurrence(positions, tuple(window[i - 1] for i in positions))
    return None


def first_occurrence(
    pi, patterns: Iterable[Permutation | SignedPattern]
) -> tuple[Permutation | SignedPattern, Occurrence] | None:
    """
    The first listed pattern that pi contains, with its first occurrence, or
    None.  Classical hosts take classical patterns (`contains`); signed
    hosts take signed patterns (`contains_signed`).
    """
    for p in patterns:
        occ = contains_signed(pi, p) if isinstance(p, SignedPattern) else contains(pi, p)
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
