"""
Permutations and involutions of [n] = {1, ..., n} in one-line notation.

A permutation w is stored as the tuple (w(1), ..., w(n)); all indices and
values are 1-based, matching the usual combinatorial conventions.  The empty
permutation (n = 0) is legal and acts as the identity of S_0.

Text form: a digit string like "5764132" when n <= 9, otherwise
comma-separated values like "10,2,3,4,5,6,7,8,9,1".  `parse_permutation` and
`format_permutation` round-trip.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence


class ParseError(ValueError):
    """Raised when a textual permutation/path/window cannot be parsed, or
    when a word or signed window is not a permutation of [n]."""


class InvariantViolationError(RuntimeError):
    """An internal check failed (criteria that disagree, a missing witness, a
    construction that does not rebuild its input): a bug, CLI exit 3."""


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection of [n], held as the one-line word (w(1), ..., w(n))."""

    word: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", check_word(self.word))

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        """Apply the permutation to i, 1-based."""
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range [1, {self.n}]")
        return self.word[i - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_permutation(self)!r})"

    def is_involution(self) -> bool:
        return all(self.word[v - 1] == i + 1 for i, v in enumerate(self.word))


@dataclass(frozen=True, eq=False, repr=False)
class Involution(Permutation):
    """A self-inverse permutation: every cycle is a 2-cycle or a fixed point."""

    def __post_init__(self):
        super().__post_init__()
        if not self.is_involution():
            raise ValueError(f"not self-inverse: {self.word}")


class CycleDecomposition(NamedTuple):
    """2-cycles and fixed points of an involution; together they cover [n]."""

    two_cycles: frozenset[frozenset[int]]
    fixed_points: frozenset[int]


class ExcedanceProfile(NamedTuple):
    """The partition of [n] into excedances, deficiencies and fixed points."""

    excedances: frozenset[int]
    deficiencies: frozenset[int]
    fixed: frozenset[int]


def check_word(values: Sequence[int], signed: bool = False) -> tuple[int, ...]:
    """The values as a tuple, checked in one pass to be a permutation word of
    [n] (with `signed`, in absolute value); ParseError names the first
    value that is not an int, out of range or repeated."""
    word = tuple(values)
    n = len(word)
    seen = bytearray(n + 1)
    for v in word:
        if type(v) is not int:
            raise ParseError(f"value {v!r} is not an int")
        a = abs(v) if signed else v
        if not 0 < a <= n:
            span = f"[+-{n}]" if signed else f"[1, {n}]"
            raise ParseError(f"value {v} out of range {span}")
        if seen[a]:
            raise ParseError(f"duplicate {'absolute ' if signed else ''}value {a}")
        seen[a] = 1
    return word


def check_size(n: int) -> int:
    """n, checked to be a size: ValueError if it is not an int or is negative."""
    if type(n) is not int or n < 0:
        raise ValueError(f"negative size {n}" if type(n) is int else f"size {n!r} is not an int")
    return n


def _trusted_involution(word: tuple[int, ...]) -> Involution:
    """
    An Involution on a tuple the caller has built as one, without the
    word and self-inverse checks of the validating constructor.
    """
    w = object.__new__(Involution)
    w.__dict__["word"] = word
    return w


def _tag_involution(word: tuple[int, ...]) -> Permutation:
    """A word the caller has checked or built as a permutation, unchecked:
    an Involution when it is self-inverse, else a Permutation."""
    w = object.__new__(Permutation)
    object.__setattr__(w, "word", word)
    return _trusted_involution(word) if w.is_involution() else w


def _as_involution(w: Permutation) -> Involution:
    """w, validated as an Involution unless typed one: ValueError if not."""
    return w if isinstance(w, Involution) else Involution(w.word)


def identity(n: int) -> Involution:
    return _trusted_involution(tuple(range(1, check_size(n) + 1)))


def transposition(n: int, i: int, j: int) -> Involution:
    """The transposition (i, j) in S_n, 1-based."""
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise ValueError(f"bad transposition ({i},{j}) in S_{n}")
    word = list(range(1, n + 1))
    word[i - 1], word[j - 1] = j, i
    return Involution(tuple(word))


def parse_permutation(text: str) -> Permutation:
    """
    Parse one-line notation: either a digit string (n <= 9 only) or
    comma-separated integers.

    >>> parse_permutation("5764132").word
    (5, 7, 6, 4, 1, 3, 2)
    >>> parse_permutation("10,2,3,4,5,6,7,8,9,1")(1)
    10
    """
    text = text.strip()
    if text == "":
        raise ParseError("empty permutation text")
    if "," in text:
        values = parse_int_tokens(text)
    else:
        values = []
        for ch in text:
            if ch not in "123456789":
                raise ParseError(f"bad character {ch!r} in digit string {text!r}")
            values.append(int(ch))
    return _tag_involution(check_word(values))


def parse_int_tokens(text: str) -> list[int]:
    """Comma-separated integers, each token stripped of whitespace."""
    values = []
    for pos, token in enumerate(text.split(","), start=1):
        token = token.strip()
        if token == "":
            raise ParseError(f"empty token at position {pos}")
        try:
            values.append(int(token))
        except ValueError:
            raise ParseError(f"bad token {token!r} at position {pos}") from None
    return values


@functools.lru_cache(maxsize=64)
def _format(n: int, separator: str) -> str:
    """The %-format of n ints (check_word) joined by `separator`; %d reads as str."""
    return separator.join(["%d"] * n)


@functools.lru_cache(maxsize=64)
def _word_format(n: int) -> str:
    """The %-format of a one-line word of length n: a digit string for
    n <= 9, else comma-separated."""
    return _format(n, "," if n > 9 else "")


def format_permutation(w: Permutation) -> str:
    """One-line text form: a digit string for n <= 9, else comma-separated
    (`_word_format`)."""
    word = w.word
    return _word_format(len(word)) % word


def inversions(w: Permutation) -> tuple[int, list[tuple[int, int]]]:
    """
    All pairs (i, j) with i < j and w(i) > w(j), in lexicographic order,
    together with their count.  The count equals the Coxeter length of w.

    >>> inversions(parse_permutation("321"))[0]
    3
    """
    pairs = [
        (i, j)
        for i in range(1, w.n + 1)
        for j in range(i + 1, w.n + 1)
        if w.word[i - 1] > w.word[j - 1]
    ]
    return len(pairs), pairs


def inversion_count(w: Permutation) -> int:
    """
    The number of inversions of w, without listing them: each value counts
    the larger values already seen, read off a bitset of the prefix.

    >>> inversion_count(parse_permutation("4321"))
    6
    """
    count = seen = 0
    for v in w.word:
        count += (seen >> v).bit_count()
        seen |= 1 << v
    return count


def sum_blocks(word: Sequence[int]) -> list[tuple[int, int]]:
    """
    The direct-sum blocks of a permutation word of [n], as position
    intervals [lo, hi] from left to right: a block ends at k exactly when
    max(w(1..k)) = k.

    >>> sum_blocks((2, 1, 3, 6, 4, 5))
    [(1, 2), (3, 3), (4, 6)]
    """
    blocks = []
    lo = top = 0
    for k, v in enumerate(word, start=1):
        if v > top:
            top = v
        if top == k:
            blocks.append((lo + 1, k))
            lo = k
    return blocks


def excedance_profile(w: Permutation) -> ExcedanceProfile:
    """Indices i with w(i) > i, w(i) < i and w(i) = i, respectively."""
    exc, defi, fix = set(), set(), set()
    for i, v in enumerate(w.word, start=1):
        (exc if v > i else defi if v < i else fix).add(i)
    return ExcedanceProfile(frozenset(exc), frozenset(defi), frozenset(fix))


def cycle_decomposition(w: Involution) -> CycleDecomposition:
    """Split an involution into its 2-cycles and fixed points."""
    w = _as_involution(w)
    cycles = set()
    fixed = set()
    for i, v in enumerate(w.word, start=1):
        if v == i:
            fixed.add(i)
        else:
            cycles.add(frozenset((i, v)))
    return CycleDecomposition(frozenset(cycles), frozenset(fixed))


def compose(u: Permutation, v: Permutation) -> Permutation:
    """The product u*v acting as (u*v)(i) = u(v(i))."""
    if u.n != v.n:
        raise ValueError(f"size mismatch: {u.n} vs {v.n}")
    return _tag_involution(tuple([u.word[x - 1] for x in v.word]))


def inverse(w: Permutation) -> Permutation:
    inv = [0] * w.n
    for i, v in enumerate(w.word, start=1):
        inv[v - 1] = i
    return _tag_involution(tuple(inv))


def conjugate(w: Permutation, t: tuple[int, int]) -> Permutation:
    """Conjugate w by the transposition t = (i, j): returns t*w*t."""
    s = transposition(w.n, *t)
    return compose(s, compose(w, s))
