"""
Deciding whether an involution has a Boolean principal order ideal.

Four equivalent criteria are implemented:

  * patterns       — w avoids 4321, 45312 and 456123;
  * long_crossing  — w has no pair (i, j) with i < j < w(j) and w(i) > j+1;
  * word           — the canonical reduced involution word of w has no
                     repeated letter;
  * poset          — the ideal below w passes the Boolean-lattice test.

The default is the long-crossing scan, the cheapest sound-and-complete
test; every verdict runs it once, and its criterion must agree with it.
Verdicts always carry witnesses: a repeat-free word when Boolean, and both
a long-crossing pair and a forbidden-pattern occurrence when not.
`with_witnesses` attaches them, for signed verdicts too.  Verdicts and
their occurrences are built unchecked from what the scan and the searches
produced, as `_trusted_involution` builds words.  The public constructors
are unchanged: `Occurrence(...)` still validates its positions, and
`BooleanVerdict(...)` still binds and checks its arguments.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from . import ideals
from .involution_words import Word, _peel_descents, evaluate_word
from .patterns import (
    FORBIDDEN_PATTERNS, Occurrence, SignedPattern, first_occurrence, format_signed)
from .permutations import (
    InvariantViolationError, Involution, Permutation, _as_involution, _tag_involution,
    format_permutation, sum_blocks)

METHODS = ("patterns", "long_crossing", "word", "poset", "all")


class ComponentPartition(NamedTuple):
    """Connected components of an involution, as disjoint intervals [lo, hi]."""

    components: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BooleanVerdict:
    """
    A verdict and its witnesses.  `with_witnesses` builds every verdict the
    criteria return without this constructor, as `_trusted_involution`
    builds words: one `__dict__` update in place of the frozen `__init__`.
    """

    is_boolean: bool
    long_crossing_pair: tuple[int, int] | None = None
    pattern: Permutation | SignedPattern | None = None
    occurrence: Occurrence | None = None
    word: Word | None = None

    def to_json(self) -> str:
        payload: dict = {"is_boolean": self.is_boolean}
        payload["long_crossing_pair"] = (
            list(self.long_crossing_pair) if self.long_crossing_pair else None
        )
        if self.pattern is None:
            payload["pattern"] = None
        elif isinstance(self.pattern, SignedPattern):
            payload["pattern"] = format_signed(self.pattern)
        else:
            payload["pattern"] = format_permutation(self.pattern)
        payload["occurrence"] = (
            {"positions": list(self.occurrence.positions), "values": list(self.occurrence.values)}
            if self.occurrence
            else None
        )
        payload["word"] = list(self.word) if self.word is not None else None
        return json.dumps(payload, sort_keys=True)


def connected_components(w: Involution) -> ComponentPartition:
    """
    Partition [n] by the transitive closure of the crossing relation: i and
    j are directly related when i < j and w(i) > w(j).  For a permutation
    the classes are its direct-sum blocks, intervals returned in order.
    """
    return ComponentPartition(tuple(sum_blocks(w.word)))


def restrict(w: Permutation, positions: Iterable[int]) -> Permutation:
    """
    Keep w on the given positions and fix everything else.  Fails unless the
    moved positions map among themselves.
    """
    keep = set(positions)
    try:
        perm = Permutation(tuple(w.word[i - 1] if i in keep else i for i in range(1, w.n + 1)))
    except ValueError:
        raise ValueError(f"restriction to {sorted(keep)} is not a permutation") from None
    return _tag_involution(perm.word)


def long_crossing_pairs(w: Involution) -> list[tuple[int, int]]:
    """All (i, j) with i < j < w(j) and w(i) > j + 1, lexicographic."""
    n = w.n
    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if j < w.word[j - 1] and w.word[i - 1] > j + 1
    ]


def first_long_crossing_pair(w: Involution) -> tuple[int, int] | None:
    """
    The first pair of `long_crossing_pairs(w)`, or None, in linear time: the
    first i whose next excedance j > i has j <= w(i) - 2.  One forward scan,
    moving j on to the next excedance once i reaches it.
    """
    word = w.word
    n = len(word)
    j = 1
    for i, v in enumerate(word, start=1):
        if j <= i:
            j = i + 1
            while j <= n and word[j - 1] <= j:
                j += 1
        if j <= v - 2:
            return i, j
    return None


def has_long_crossing(w: Involution) -> bool:
    """Whether w has a long-crossing pair, by the forward scan."""
    return first_long_crossing_pair(w) is not None


def is_boolean(w: Involution, method: str = "long_crossing") -> BooleanVerdict:
    """
    Decide Booleanness of w by the chosen criterion, which must agree with
    the long-crossing scan (under "all", every criterion must), and attach
    witnesses.  The scan and the forbidden-pattern search run at most once.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    w = _as_involution(w)
    pair = first_long_crossing_pair(w)
    searched = pair is not None or method in ("patterns", "all")
    hit = first_occurrence(w, FORBIDDEN_PATTERNS) if searched else None
    if method != "long_crossing":  # the scan alone cannot disagree with itself
        answers = {}
        if method in ("patterns", "all"):
            answers["patterns"] = hit is None
        answers["long_crossing"] = pair is None
        if method in ("word", "all"):
            letters = _peel_descents(list(w.word), w.n)  # n letters in 1..n-1 repeat one
            answers["word"] = len(set(letters)) == len(letters)
        if method in ("poset", "all"):
            answers["poset"] = ideals.is_boolean_lattice(ideals.ideal(w))
        if len(set(answers.values())) != 1:
            raise InvariantViolationError(f"criteria disagree on {w.word}: {answers}")
    return with_witnesses(w, pair, hit)


def with_witnesses(
    image: Involution,
    pair: tuple[int, int] | None,
    hit: tuple[Permutation | SignedPattern, Occurrence] | None,
) -> BooleanVerdict:
    """
    The verdict on the involution `image` from its first long-crossing pair:
    a repeat-free word when there is none, else the pair and `hit`, the
    first forbidden pattern the host contains, with its occurrence.  Built
    without `BooleanVerdict`'s constructor: every field comes from the scan,
    the search or the word built here.
    """
    verdict = object.__new__(BooleanVerdict)
    if pair is None:
        verdict.__dict__.update(
            is_boolean=True, long_crossing_pair=None, pattern=None, occurrence=None,
            word=_repeat_free_word(image))
    elif hit is None:
        raise InvariantViolationError(f"non-Boolean {image.word} contains no forbidden pattern")
    else:
        verdict.__dict__.update(
            is_boolean=False, long_crossing_pair=pair, pattern=hit[0], occurrence=hit[1],
            word=None)
    return verdict


def repeat_free_word(w: Involution) -> Word:
    """
    Build a repeat-free involution word for a Boolean w, component by
    component.  Within a component spanning [lo, hi] whose 2-cycles open at
    lo = i_1 < i_2 < ... < i_k, the word takes every letter lo..hi-1 except
    i_2, ..., i_k in increasing order, then appends i_2, ..., i_k.  One
    pass: the openers wait until the component ends, where the running
    maximum equals the position (as in `sum_blocks`).
    """
    w = _as_involution(w)
    pair = first_long_crossing_pair(w)
    if pair is not None:
        raise ValueError(f"{w.word} is not Boolean; long-crossing pair {pair}")
    return _repeat_free_word(w)


def _repeat_free_word(w: Involution) -> Word:
    """`repeat_free_word(w)` for an involution the caller has scanned and
    found free of long-crossing pairs."""
    letters, openers = [], []
    lo = top = 0  # lo: the end of the previous component
    for i, v in enumerate(w.word, start=1):
        if v > top:
            top = v
        if top == i:
            letters += openers
            openers, lo = [], i
        elif v > i > lo + 1:
            openers.append(i)
        else:
            letters.append(i)
    word = tuple(letters)
    if evaluate_word(word, w.n) != w:
        raise InvariantViolationError(f"construction failed for {w.word}")
    return word
