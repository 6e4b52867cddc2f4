"""
Principal order ideals in the Bruhat order on involutions.

Bruhat comparison, in `bruhat_leq` and in `ideal` alike, is the classical
dominance criterion on prefix rank matrices, each packed into one integer
with a guard bit per entry and compared by one big-integer subtraction; no
reflection set is ever materialized.  The ideal below an involution w is
generated from one reduced involution word of w: evaluating every subword
yields exactly the involutions below w.

The order is graded by rank (Incitti 2004), so the comparable pairs of
adjacent ranks are exactly its covers.  Only those pairs are compared.
Down-sets are integer bitsets, filled one rank layer at a time.

Boolean-lattice certification maps each element to the set of atoms below
it; the ideal is a Boolean lattice iff that map is injective onto the full
power set of the atom set.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Callable

from .involution_words import (
    ResourceLimitError,
    apply_letter,
    rank,
    reduced_word,
)
from .permutations import Involution, Permutation, format_permutation, identity

# Refuse ideals of more elements: the order test visits at most S^2 / 4
# adjacent-rank pairs for S elements.
IDEAL_MAX_ELEMENTS = 8192


def _dominance_packing(n: int) -> tuple[Callable[[Permutation], int], int]:
    """
    (pack, guard) for S_n.  pack(w) holds w's prefix rank table
    R[i][j] = #{k <= i : w(k) >= j}, rows and columns 1..n, row-major in
    `width`-bit fields from the lowest; guard sets the top bit of each
    field.  Every entry is at most n < 2**(width - 1), so subtracting
    pack(u) from pack(w) | guard never borrows across fields: u <= w in
    the Bruhat order iff ((pack(w) | guard) - pack(u)) keeps every guard.
    """
    width = n.bit_length() + 1
    unit = (1 << width) - 1
    ones = [((1 << v * width) - 1) // unit for v in range(n + 1)]  # 1 in columns 1..v
    stride = n * width

    def pack(w: Permutation) -> int:
        packed = row = 0
        for i, v in enumerate(w.word):
            row += ones[v]
            packed |= row << i * stride
        return packed

    return pack, ((1 << n * stride) - 1) // unit << (width - 1)


def bruhat_leq(u: Permutation, w: Permutation) -> bool:
    """
    Dominance test for u <= w in the Bruhat order of S_n: every prefix of u
    must contain at most as many large values as the same prefix of w.
    """
    if u.n != w.n:
        raise ValueError(f"size mismatch: {u.n} vs {w.n}")
    pack, guard = _dominance_packing(u.n)
    return ((pack(w) | guard) - pack(u)) & guard == guard


@dataclass(frozen=True)
class IdealPoset:
    """
    The involutions below `root`, sorted by (rank, word), with the order
    relation as down-set bitsets.

    Bit a of `below[b]` is set iff elements[a] <= elements[b].  `covers`
    lists the cover pairs (a, b) in increasing order.  The identity is the
    unique minimum and `root` the unique maximum.
    """

    root: Involution
    elements: tuple[Involution, ...]
    ranks: tuple[int, ...]
    below: tuple[int, ...] = field(repr=False)
    covers: tuple[tuple[int, int], ...] = field(repr=False)

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        """`leq[a][b]` holds iff elements[a] <= elements[b]."""
        return tuple(tuple(bool(d >> a & 1) for d in self.below) for a in range(len(self)))

    def __len__(self) -> int:
        return len(self.elements)

    def rank_counts(self) -> list[int]:
        """Number of elements of each rank, from 0 up to rank(root)."""
        counts = [0] * (self.ranks[-1] + 1 if self.elements else 1)
        for r in self.ranks:
            counts[r] += 1
        return counts


def subword_closure(w: Involution) -> set[Involution]:
    """
    Evaluations of all subwords of one reduced word of w, computed by a
    left-to-right closure: after consuming each letter, keep both the old
    evaluations (letter skipped) and their images (letter taken).  Refuses
    w once the closure, a subset of the ideal, exceeds IDEAL_MAX_ELEMENTS;
    so does a rank of IDEAL_MAX_ELEMENTS or more, as every maximal chain of
    the ideal has rank(w) + 1 elements.
    """
    reached: set[Involution] = {identity(w.n)}
    if rank(w) < IDEAL_MAX_ELEMENTS:
        for letter in reduced_word(w):
            reached |= {apply_letter(u, letter) for u in reached}
            if len(reached) > IDEAL_MAX_ELEMENTS:
                break
        else:
            return reached
    raise ResourceLimitError(f"ideal exceeds guard of {IDEAL_MAX_ELEMENTS} elements")


def ideal(w: Involution) -> IdealPoset:
    """The principal order ideal below w in the Bruhat order on involutions."""
    ranks, _, elements = zip(*sorted((rank(u), u.word, u) for u in subword_closure(w)))
    r = ranks[-1]
    n = w.n
    if elements[0] != identity(n) or elements[-1] != w:
        raise AssertionError(f"ideal of {w.word} lost its extremes")
    pack, guard = _dominance_packing(n)
    packed = [pack(u) for u in elements]
    raised = [v | guard for v in packed]
    bounds = [ranks.index(k) for k in range(r + 1)] + [len(ranks)]
    below = [1 << b for b in range(len(elements))]
    covers = []
    for lo, mid, hi in zip(bounds, bounds[1:], bounds[2:]):
        for a in range(lo, mid):
            u = packed[a]
            for b in range(mid, hi):
                if (raised[b] - u) & guard == guard:
                    covers.append((a, b))
                    below[b] |= below[a]
    return IdealPoset(w, elements, ranks, tuple(below), tuple(covers))


def is_boolean_lattice(poset: IdealPoset) -> bool:
    """
    Whether the ideal is a Boolean lattice: sending each element to the set
    of atoms (rank-one elements) below it must be injective and cover every
    subset of the atoms.
    """
    atoms = sum(1 << a for a, r in enumerate(poset.ranks) if r == 1)
    atom_sets = {down & atoms for down in poset.below}
    return len(atom_sets) == len(poset) and len(poset) == 2 ** poset.ranks.count(1)


def hasse_edges(poset: IdealPoset) -> list[tuple[Involution, Involution]]:
    """
    Cover relations as (lower, upper) pairs, ordered by the positions of
    lower and then upper in `poset.elements`.
    """
    return [(poset.elements[a], poset.elements[b]) for a, b in poset.covers]


def dot_export(poset: IdealPoset, sink: IO[str] | None = None) -> str:
    """
    Render the Hasse diagram as Graphviz DOT, nodes labelled by one-line
    word and rank, clustered by rank.  Deterministic for a fixed input.
    """
    names = [format_permutation(u) for u in poset.elements]
    lines = ["digraph ideal {", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    by_rank: dict[int, list[str]] = {}
    for name, r in zip(names, poset.ranks):
        by_rank.setdefault(r, []).append(name)
    for r in sorted(by_rank):
        lines.append("  { rank=same;")
        for name in by_rank[r]:
            lines.append(f'    "{name}" [label="{name}\\nrank {r}"];')
        lines.append("  }")
    for a, b in poset.covers:
        lines.append(f'  "{names[a]}" -> "{names[b]}";')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if sink is not None:
        sink.write(text)
    return text

