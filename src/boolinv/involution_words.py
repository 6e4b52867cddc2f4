"""
Words acting on involutions: the right action of the adjacent-swap letters
on I(S_n), reduced involution words, and the rank/length calculus.

Letter i (1 <= i <= n-1) acts on an involution w by right multiplication
with the adjacent transposition s_i when s_i and w commute, and by
conjugation s_i w s_i otherwise.  Every involution arises from the identity
this way, and the minimal word length is the rank

    rank(w) = (inversions(w) + two_cycles(w)) / 2,

which grades the Bruhat order on involutions.  The functions here check an
argument not typed Involution on entry: ValueError when it is not one.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .permutations import (
    Involution, InvariantViolationError, _as_involution, _trusted_involution, check_size,
    inversion_count, sum_blocks)
from .work import refuse

Word = tuple[int, ...]


class RankProfile(NamedTuple):
    rank: int
    coxeter_length: int
    absolute_length: int


def _act_into(word: list[int], i: int) -> None:
    """
    Letter i on an involution word, in place and in O(1): the values i and
    i+1 sit at positions w(i) and w(i+1), so s_i w s_i relabels those two
    and swaps positions i and i+1; when s_i and w commute, w*s_i only swaps.
    The action is its own inverse, so acting twice undoes it.
    """
    a, b = word[i - 1], word[i]
    if a != i + 1 and (a != i or b != i + 1):
        word[a - 1], word[b - 1] = i + 1, i
    word[i - 1], word[i] = word[i], word[i - 1]


def _act(word: Word, i: int) -> Word:
    """Letter i on an involution word, as a new tuple."""
    out = list(word)
    _act_into(out, i)
    return tuple(out)


def _letters_in_range(letters: Iterable[int], n: int) -> Word:
    """The letters as a tuple; ValueError names the first outside 1..n-1."""
    letters = tuple(letters)
    for i in letters:
        if not 0 < i < n:
            raise ValueError(f"letter {i} out of range [1, {n - 1}]")
    return letters


def apply_letter(w: Involution, i: int) -> Involution:
    """
    Act on w by letter i: w*s_i if s_i w s_i = w, otherwise s_i w s_i.
    The result is again an involution whose rank differs from w's by one,
    so it is built without revalidation.
    """
    w = _as_involution(w)
    _letters_in_range((i,), w.n)
    return _trusted_involution(_act(w.word, i))


def evaluate_word(letters: Iterable[int], n: int) -> Involution:
    """Act by the letters in turn on the identity of S_n."""
    word = list(range(1, check_size(n) + 1))
    for i in _letters_in_range(letters, n):
        _act_into(word, i)
    return _trusted_involution(tuple(word))


def rank_profile(w: Involution) -> RankProfile:
    """
    Rank, Coxeter length (inversion count) and absolute length (number of
    2-cycles) of an involution.  The rank is their half-sum, always exact.
    """
    w = _as_involution(w)
    length = inversion_count(w)
    two_cycles = sum(1 for i, v in enumerate(w.word, start=1) if v > i)
    if (length + two_cycles) % 2:
        raise InvariantViolationError(f"odd length+absolute-length for {w.word}")
    return RankProfile((length + two_cycles) // 2, length, two_cycles)


def rank(w: Involution) -> int:
    return rank_profile(w).rank


def is_reduced(letters: Iterable[int], n: int) -> bool:
    """
    A word is reduced iff its length equals the rank of its evaluation.
    Each letter moves the rank by one, up exactly at an ascent, so that
    holds iff every letter is an ascent where it acts.
    """
    word = list(range(1, check_size(n) + 1))
    for i in _letters_in_range(letters, n):
        if word[i - 1] > word[i]:
            return False
        _act_into(word, i)
    return True


def _peel_descents(word: list[int], limit: int) -> list[int]:
    """
    Peel smallest rank-lowering letters off an involution word in place,
    at most `limit` of them; returns the letters in the order peeled.

    Peeling the smallest descent i keeps every pair left of i - 1 an
    ascent.  Swapping positions i and i+1 touches only the pairs at i - 1,
    i and i + 1.  Relabelling the values i and i+1 changes only the order
    of their positions a = w(i) and b = w(i+1); as w(1) < ... < w(i) and
    w is an involution, a > i + 1 when the letter conjugates, so that pair,
    if adjacent, sits at b = a - 1 > i.  Each next descent is thus found by
    scanning on from i - 1, in O(n + letters peeled) steps in all.
    """
    n = len(word)
    letters = []
    i = 1
    while i < n and len(letters) < limit:
        if word[i - 1] > word[i]:
            _act_into(word, i)
            letters.append(i)
            i = max(i - 1, 1)
        else:
            i += 1
    return letters


def reduced_word(w: Involution) -> Word:
    """
    A canonical reduced word for w: repeatedly peel off the smallest
    rank-lowering letter.  The result evaluates back to w and has length
    rank(w), at most n^2 / 4.
    """
    word = list(_as_involution(w).word)
    return tuple(reversed(_peel_descents(word, len(word) ** 2)))


def all_reduced_words(w: Involution) -> set[Word]:
    """
    Every reduced word for w, by depth-first search over rank-lowering
    letters on one word, each letter undone by acting again.  The search
    tree has up to rank! leaves, so the `words` guard refuses a rank past it.
    """
    w = _as_involution(w)
    r = rank(w)
    refuse("words", (r,), f"rank {r}")
    word = list(w.word)
    suffix: list[int] = []
    results: set[Word] = set()

    def descend():
        if len(suffix) == r:
            results.add(tuple(reversed(suffix)))
            return
        for i in range(1, len(word)):
            if word[i - 1] > word[i]:
                _act_into(word, i)
                suffix.append(i)
                descend()
                suffix.pop()
                _act_into(word, i)

    descend()
    return results


def support(w: Involution) -> frozenset[int]:
    """
    The letter set shared by every reduced word of w; equally the set of
    letters i whose single-letter involution lies below w in Bruhat order.
    That is each i with max(w(1..i)) > i: i < hi in its block [lo, hi].
    """
    return frozenset(i for lo, hi in sum_blocks(_as_involution(w).word) for i in range(lo, hi))
