"""
Words acting on involutions: the right action of the adjacent-swap letters
on I(S_n), reduced involution words, and the rank/length calculus.

Letter i (1 <= i <= n-1) acts on an involution w by right multiplication
with the adjacent transposition s_i when s_i and w commute, and by
conjugation s_i w s_i otherwise.  Every involution arises from the identity
this way, and the minimal word length is the rank

    rank(w) = (inversions(w) + two_cycles(w)) / 2,

which grades the Bruhat order on involutions.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .permutations import Involution, _trusted_involution, identity, inversion_count

Word = tuple[int, ...]

# all_reduced_words enumerates a tree with up to rank! leaves; cap the rank.
ALL_WORDS_MAX_RANK = 12


class ResourceLimitError(RuntimeError):
    """Raised when an exhaustive search would exceed its size guard."""


class RankProfile(NamedTuple):
    rank: int
    coxeter_length: int
    absolute_length: int


def _act(word: Word, i: int) -> Word:
    """
    Letter i on an involution word, in O(1) positions: the values i and
    i+1 sit at positions w(i) and w(i+1), so s_i w s_i relabels those two
    and swaps positions i and i+1; when s_i and w commute, w*s_i only swaps.
    """
    out = list(word)
    a, b = out[i - 1], out[i]
    if a != i + 1 and (a != i or b != i + 1):
        out[a - 1], out[b - 1] = i + 1, i
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def apply_letter(w: Involution, i: int) -> Involution:
    """
    Act on w by letter i: w*s_i if s_i w s_i = w, otherwise s_i w s_i.
    The result is again an involution whose rank differs from w's by one,
    so it is built without revalidation; an input not typed Involution is
    validated and raises ValueError when it is not an involution.
    """
    if not isinstance(w, Involution):
        w = Involution(w.word)
    if not 1 <= i <= w.n - 1:
        raise ValueError(f"letter {i} out of range [1, {w.n - 1}]")
    return _trusted_involution(_act(w.word, i))


def evaluate_word(letters: Iterable[int], n: int) -> Involution:
    """Fold apply_letter over the letters, starting from the identity of S_n."""
    w = identity(n)
    for i in letters:
        w = apply_letter(w, i)
    return w


def rank_profile(w: Involution) -> RankProfile:
    """
    Rank, Coxeter length (inversion count) and absolute length (number of
    2-cycles) of an involution.  The rank is their half-sum, always exact.
    """
    length = inversion_count(w)
    two_cycles = sum(1 for i, v in enumerate(w.word, start=1) if v > i)
    if (length + two_cycles) % 2:
        raise AssertionError(f"odd length+absolute-length for {w.word}")
    return RankProfile((length + two_cycles) // 2, length, two_cycles)


def rank(w: Involution) -> int:
    return rank_profile(w).rank


def is_reduced(letters: Iterable[int], n: int) -> bool:
    """A word is reduced iff its length equals the rank of its evaluation."""
    letters = tuple(letters)
    return len(letters) == rank(evaluate_word(letters, n))


def descents(w: Involution) -> list[int]:
    """
    Letters whose action lowers the rank of w by one.  For an involution
    these are exactly the i with w(i) > w(i+1) (Richardson-Springer 1990).
    """
    word = w.word
    return [i for i in range(1, w.n) if word[i - 1] > word[i]]


def reduced_word(w: Involution) -> Word:
    """
    A canonical reduced word for w: repeatedly peel off the smallest
    rank-lowering letter.  The result evaluates back to w and has length
    rank(w).
    """
    letters = []
    current = w
    while lowering := descents(current):
        letters.append(lowering[0])
        current = apply_letter(current, lowering[0])
    letters.reverse()
    return tuple(letters)


def all_reduced_words(w: Involution) -> set[Word]:
    """
    Every reduced word for w, by depth-first search over rank-lowering
    letters.  Guarded: refuses ranks above ALL_WORDS_MAX_RANK.
    """
    r = rank(w)
    if r > ALL_WORDS_MAX_RANK:
        raise ResourceLimitError(f"rank {r} exceeds guard {ALL_WORDS_MAX_RANK}")
    results: set[Word] = set()

    def descend(current: Involution, suffix: tuple[int, ...]):
        if current == identity(current.n):
            results.add(tuple(reversed(suffix)))
            return
        for i in descents(current):
            descend(apply_letter(current, i), suffix + (i,))

    descend(w, ())
    return results


def support(w: Involution) -> frozenset[int]:
    """
    The letter set shared by every reduced word of w; equally the set of
    letters i whose single-letter involution lies below w in Bruhat order.
    """
    return frozenset(reduced_word(w))
