"""
Differential sweeps on sampled hosts past the exhaustive sizes: uniform
Boolean involutions, drawn through uniform restricted paths by the paper's
bijection; the same hosts after one to three letters; hosts with a
forbidden block put inside their longest component or beside it; and
signed lifts of Boolean hosts with random cycle signs, or with a signed
forbidden window beside their longest component.

On each host the criteria must agree, and every witness must be a
long-crossing pair or an occurrence of its pattern at the host's values.  A
Boolean host must round-trip through its Motzkin path, and a non-Boolean
one must not.  Up to n = 60 the witness must be the first occurrence of
the first forbidden pattern the host contains, by the depth-first oracle,
which costs about n^4 on a pattern the host avoids.  The signed pattern
search is still super-linear on mixed-sign windows, so signed lifts stay at
n <= 64.
"""
import random

import pytest

from boolinv.boolean import is_boolean
from boolinv.involution_words import apply_letter
from boolinv.motzkin import involution_to_path, is_restricted, path_to_involution
from boolinv.patterns import FORBIDDEN_PATTERNS, SIGNED_FORBIDDEN_PATTERNS
from boolinv.permutations import Involution, sum_blocks
from boolinv.signed import SignedInvolution, embed, is_boolean_signed
from oracles import (
    boolean_involution, checked_involution_to_path, dfs_occurrences,
    three_pass_path_to_involution)

SIZES = (9, 12, 50, 60, 200, 700, 3000)
SIGNED_SIZES = (6, 10, 16, 32, 64)
FIRST_N_MAX = 60
POSET_N_MAX = 12
BLOCKS = ((4, 3, 2, 1), (4, 5, 3, 1, 2), (4, 5, 6, 1, 2, 3))


def _with_block(word, block, g):
    """The (signed) involution word `word` with the word `block` inserted
    after position g, on the absolute values after g: those above g move
    up, keeping their signs."""
    k = len(block)
    moved = [v + k if v > g else v - k if v < -g else v for v in word]
    return tuple(moved[:g]) + tuple(g + b if b > 0 else b - g for b in block) + tuple(moved[g:])


def _longest_component(word):
    """The longest component [lo, hi] of a (signed) involution word."""
    return max(sum_blocks([abs(v) for v in word]), key=lambda span: span[1] - span[0])


def _signed_lift(word, negative, rng):
    """The signed involution with absolute word `word`, each cycle negated
    with probability `negative`."""
    sign = {}
    for i, v in enumerate(word, start=1):
        if i not in sign:
            sign[i] = sign[v] = -1 if rng.random() < negative else 1
    return SignedInvolution(tuple(sign[i] * v for i, v in enumerate(word, start=1)))


def _hosts(rng):
    """(kind, host, positions) for each size: a uniform Boolean host, the
    same after one to three letters, and with each forbidden block put
    inside its longest component [lo, hi] ("planted": an arc over the block
    crosses it, which makes a 4321), or at either end of that component or
    of the host ("appended": the block is a component of its own, whose
    positions are then the host's only forbidden occurrence)."""
    for n in SIZES:
        w = boolean_involution(n, rng)
        yield "boolean", w, None
        moved = w
        for _ in range(rng.randrange(1, 4)):
            moved = apply_letter(moved, rng.randrange(1, n))
        yield "letters", moved, None
        lo, hi = _longest_component(w.word)
        for block in BLOCKS:
            yield "planted", Involution(_with_block(w.word, block, rng.randrange(lo, hi))), None
            for g in sorted({0, lo - 1, hi, n}):
                block_at = tuple(range(g + 1, g + len(block) + 1))
                yield "appended", Involution(_with_block(w.word, block, g)), block_at


def _signed_hosts(rng):
    """For each signed size, lifts of a uniform Boolean host with cycles
    negated at six rates, and up to n = 16 its positive lift with each
    signed forbidden window put at an end of its longest component."""
    for n in SIGNED_SIZES:
        w = boolean_involution(n, rng)
        for negative in (0.0, 1 / n, 2 / n, 0.5, 1 - 1 / n, 1.0):
            yield _signed_lift(w.word, negative, rng)
        if n <= 16:
            lo, hi = _longest_component(w.word)
            for p in SIGNED_FORBIDDEN_PATTERNS:
                yield SignedInvolution(_with_block(w.word, p.window, rng.choice((lo - 1, hi))))


def _realized(values):
    """The pattern word that distinct values realize, by absolute value,
    with the signs of the values."""
    ranked = sorted(map(abs, values))
    return tuple((ranked.index(abs(v)) + 1) * (1 if v > 0 else -1) for v in values)


def _assert_occurrence(word, occ, pattern):
    """The occurrence sits at increasing positions of the word, whose values
    realize the pattern (a signed one with slotwise equal signs)."""
    assert list(occ.positions) == sorted(set(occ.positions))
    assert occ.values == tuple(word[i - 1] for i in occ.positions)
    assert _realized(occ.values) == pattern


def _first_by_dfs(word, patterns, signed=False):
    """The first listed pattern the word contains, with the positions of
    its first occurrence by the depth-first oracle, or None."""
    for p in patterns:
        found = dfs_occurrences(word, p.window if signed else p.word, limit=1, signed=signed)
        if found:
            return p, found[0]
    return None


def _witness(verdict):
    """The verdict's pattern and occurrence positions, or None."""
    return None if verdict.is_boolean else (verdict.pattern, verdict.occurrence.positions)


def _assert_long_crossing(word, pair):
    i, j = pair
    assert i < j < word[j - 1] and word[i - 1] > j + 1


def check_host(kind, w, positions):
    n = w.n
    methods = ("long_crossing", "patterns", "word") + (("poset",) if n <= POSET_N_MAX else ())
    verdict, *others = [is_boolean(w, method) for method in methods]
    assert all(other == verdict for other in others), (kind, w.word)
    path = involution_to_path(w)
    assert path == checked_involution_to_path(w)
    if verdict.is_boolean:
        assert kind in ("boolean", "letters")
        assert len(set(verdict.word)) == len(verdict.word)
        assert path_to_involution(path) == three_pass_path_to_involution(path) == w
    else:
        assert kind != "boolean"
        _assert_long_crossing(w.word, verdict.long_crossing_pair)
        _assert_occurrence(w.word, verdict.occurrence, verdict.pattern.word)
        assert positions in (None, verdict.occurrence.positions)
        assert not is_restricted(path) or path_to_involution(path) != w
    if n <= FIRST_N_MAX:
        assert _first_by_dfs(w.word, FORBIDDEN_PATTERNS) == _witness(verdict)
    return verdict.is_boolean


def check_signed_host(w):
    methods = ("embedding", "signed_patterns", "all")
    verdict, *others = [is_boolean_signed(w, method) for method in methods]
    assert all(other == verdict for other in others), w.window
    if verdict.is_boolean:
        assert len(set(verdict.word)) == len(verdict.word)
    else:
        _assert_long_crossing(embed(w).perm.word, verdict.long_crossing_pair)
        _assert_occurrence(w.window, verdict.occurrence, verdict.pattern.window)
    if w.n <= FIRST_N_MAX:
        assert _first_by_dfs(w.window, SIGNED_FORBIDDEN_PATTERNS, signed=True) == _witness(verdict)


def sweep(seed):
    rng = random.Random(seed)
    kinds = {}
    for kind, w, positions in _hosts(rng):
        kinds.setdefault(kind, set()).add(check_host(kind, w, positions))
    for w in _signed_hosts(rng):
        check_signed_host(w)
    return kinds


def test_sampled_hosts_agree_and_round_trip():
    kinds = sweep(20)
    assert kinds == {
        "boolean": {True}, "letters": {True, False}, "planted": {False}, "appended": {False}}


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(21, 33))
def test_sampled_hosts_agree_and_round_trip_more_seeds(seed):
    sweep(seed)
