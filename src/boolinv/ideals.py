"""
Principal order ideals in the Bruhat order on involutions.

The ideal below an involution w is generated from one reduced involution
word of w: evaluating every subword yields exactly the involutions below w
(Richardson-Springer 1990, Hultman 2007).  The left-to-right closure over
the letters is the lifting recursion of this order, so it also yields ranks
and covers.  Write x.s for letter s acting on x; s is a descent of x iff
x(s) > x(s+1).  If s is a descent of y = x.s, then rank(y) = rank(x) + 1 and
the down-covers of y are x and z.s for each down-cover z of x with ascent s
(the lifting property, Hultman 2005).  No pair of elements is compared.
The closure numbers each element once, as it is reached, and carries
numbers, not words, from then on: covers are number lists, and one sort
by (rank, word) places the elements.  The order is kept once, as covers;
the down-sets, |I|^2 / 2 bits, are filled up the covers only when read.

`bruhat_leq` compares two permutations by the tableau criterion on sorted
prefixes.

Boolean-lattice certification maps each element to the set of atoms below
it, carried up the covers; the ideal is a Boolean lattice iff that map is
injective onto the full power set of the atom set.
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import IO, Iterator

from .involution_words import Word, _act, rank, reduced_word
from .permutations import (
    Involution, InvariantViolationError, Permutation, _as_involution, _trusted_involution,
    _word_format, identity)
from .work import LIMITS, refuse


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """
    Whether u <= w in the Bruhat order of S_n, by the tableau criterion:
    for every i, the sorted values of u(1..i) must be entrywise at most the
    sorted values of w(1..i) (Bjorner-Brenti 2005, Thm 2.6.3).

    >>> bruhat_leq(Permutation((2, 1, 4, 3)), Permutation((4, 3, 2, 1)))
    True
    >>> bruhat_leq(Permutation((4, 3, 2, 1)), Permutation((2, 1, 4, 3)))
    False
    """
    if u.n != w.n:
        raise ValueError(f"size mismatch: {u.n} vs {w.n}")
    low: list[int] = []
    high: list[int] = []
    for a, b in zip(u.word, w.word):
        insort(low, a)
        insort(high, b)
        if any(x > y for x, y in zip(low, high)):
            return False
    return True


@dataclass(frozen=True)
class IdealPoset:
    """
    The involutions below `root`, sorted by (rank, word), with the order
    relation as its covers, from which `below` is read on demand.

    `covers` lists the cover pairs (a, b) in increasing order, so every
    cover into a precedes every cover out of a.  The identity is the
    unique minimum and `root` the unique maximum.
    """

    root: Involution
    elements: tuple[Involution, ...]
    ranks: tuple[int, ...]
    covers: tuple[tuple[int, int], ...] = field(repr=False)

    @cached_property
    def below(self) -> tuple[int, ...]:
        """Down-set bitsets: bit a of `below[b]` is set iff elements[a] <= elements[b]."""
        return _up_closure(self.covers, [1 << b for b in range(len(self))])

    def __len__(self) -> int:
        return len(self.elements)

    def rank_counts(self) -> list[int]:
        """Number of elements of each rank, from 0 up to rank(root)."""
        counts = [0] * (self.ranks[-1] + 1 if self.elements else 1)
        for r in self.ranks:
            counts[r] += 1
        return counts


def subword_closure(w: Involution) -> tuple[list[Word], list[int], list[list[int]]]:
    """
    Evaluations of all subwords of one reduced word of w, by a left-to-right
    closure: after each letter s, keep the old evaluations (s skipped) and
    their images (s taken).  Those after each letter form the ideal below
    that prefix, so only the x with ascent s give new images.  Returns the
    words, numbered in the order they are reached, their ranks and their
    down-covers as numbers, by the lifting rule above.

    The `ideal` guard counts elements.  It refuses w up front when rank(w)
    + 1, a maximal chain's elements, pass it, and then at the closure's
    limit + 1st element, before it is stored.  The elements bound the
    covers, but each is a word of n: the DOT text is 4.8 MB at (1 14), and
    1 GB at (1 11) in S_16000.
    """
    refuse("ideal", (rank(w) + 1,), "ideal")
    limit = LIMITS["ideal"][0]
    words, ranks, downs = [identity(w.n).word], [0], [[]]
    number = {words[0]: 0}
    for s in reduced_word(w):
        lifted: dict[int, int] = {}  # x -> x.s, for each x with ascent s
        for x in range(len(words)):
            u = words[x]
            if u[s - 1] < u[s]:
                y = _act(u, s)
                lifted[x] = b = number.setdefault(y, len(words))
                if b == len(words):  # y is new; x's down-covers precede x
                    if b == limit:
                        refuse("ideal", (b + 1,), "ideal")
                    words.append(y)
                    ranks.append(ranks[x] + 1)
                    downs.append([x] + [lifted[z] for z in downs[x] if z in lifted])
    return words, ranks, downs


def ideal(w: Involution) -> IdealPoset:
    """The principal order ideal below w in the Bruhat order on involutions."""
    w = _as_involution(w)
    words, ranks, downs = subword_closure(w)
    ranks, words, order = zip(*sorted(zip(ranks, words, range(len(words)))))
    if words[0] != identity(w.n).word or words[-1] != w.word:
        raise InvariantViolationError(f"ideal of {w.word} lost its extremes")
    place = dict(zip(order, range(len(order))))
    pairs = [(place[a], b) for b, z in enumerate(order) for a in downs[z]]  # b increasing
    covers = tuple(sorted(pairs, key=itemgetter(0)))  # stable: by a, then by b
    elements = tuple(map(_trusted_involution, words))
    return IdealPoset(w, elements, ranks, covers)


def _up_closure(covers: tuple[tuple[int, int], ...], masks: list[int]) -> tuple[int, ...]:
    """Each element's mask joined with those below it, in one pass up the covers."""
    for a, b in covers:
        masks[b] |= masks[a]
    return tuple(masks)


def is_boolean_lattice(poset: IdealPoset) -> bool:
    """
    Whether the ideal is a Boolean lattice: sending each element to the set
    of atoms (rank-one elements) below it must be injective and cover every
    subset of the atoms.
    """
    atoms = [1 << a if r == 1 else 0 for a, r in enumerate(poset.ranks)]
    return len(poset) == 2 ** poset.ranks.count(1) == len(set(_up_closure(poset.covers, atoms)))


def hasse_edges(poset: IdealPoset) -> list[tuple[Involution, Involution]]:
    """
    Cover relations as (lower, upper) pairs, ordered by the positions of
    lower and then upper in `poset.elements`.
    """
    return [(poset.elements[a], poset.elements[b]) for a, b in poset.covers]


def dot_rows(poset: IdealPoset) -> Iterator[str]:
    """
    The text of `dot_export` one row at a time, each line made once with its
    newline, so that a writer holds one row beyond the element names.
    """
    fmt = _word_format(poset.root.n)  # every element has the root's length
    names = [fmt % w.word for w in poset.elements]
    yield 'digraph ideal {\n  rankdir=BT;\n  node [shape=box, fontname="monospace"];\n'
    for r, cluster in groupby(zip(poset.ranks, names), itemgetter(0)):
        yield "  { rank=same;\n"
        yield from (f'    "{name}" [label="{name}\\nrank {r}"];\n' for _, name in cluster)
        yield "  }\n"
    for a, b in poset.covers:
        yield f'  "{names[a]}" -> "{names[b]}";\n'
    yield "}\n"


def dot_export(poset: IdealPoset, sink: IO[str] | None = None) -> str:
    """
    The Hasse diagram as Graphviz DOT, nodes labelled by one-line word and
    rank, clustered by rank: `dot_rows` joined, and written to `sink` if given.
    """
    text = "".join(dot_rows(poset))
    if sink is not None:
        sink.write(text)
    return text
