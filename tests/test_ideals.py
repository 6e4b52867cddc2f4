import io
import random

import pytest

from boolinv import ideals
from boolinv.counting import involutions
from boolinv.ideals import (
    bruhat_leq,
    dot_export,
    dot_rows,
    hasse_edges,
    ideal,
    is_boolean_lattice,
    subword_closure,
)
from boolinv.involution_words import rank
from boolinv.permutations import Involution, identity, parse_permutation, sum_blocks
from boolinv.selfcheck import product_decomposition_check
from boolinv.work import LIMITS, ResourceLimitError
from oracles import (
    boolean_involution,
    bruhat_leq_by_matrix,
    covers_from_below,
    grouped_dot,
    ideal_by_adjacent_ranks,
    sorted_assembly_ideal,
    subword_evaluations,
    word_keyed_closure,
)


def test_bruhat_leq_examples():
    top = parse_permutation("4321")
    assert bruhat_leq(identity(4), top) is True
    assert bruhat_leq(parse_permutation("2143"), top) is True
    assert bruhat_leq(top, parse_permutation("2143")) is False
    with pytest.raises(ValueError, match="size mismatch"):
        bruhat_leq(identity(3), identity(4))


def test_bruhat_leq_matches_subword_oracle():
    for n in range(6):
        elements = list(involutions(n))
        closures = {w: subword_evaluations(w) for w in elements}
        for u in elements:
            for w in elements:
                assert bruhat_leq(u, w) == (u in closures[w])


def test_bruhat_leq_matches_definition_on_full_group():
    # reachability oracle straight from the definition: multiply on the
    # right by transpositions, each step increasing the inversion count
    from itertools import combinations, permutations as all_perms

    from boolinv.permutations import Permutation, compose, transposition
    from oracles import inversion_count

    for n in range(1, 6):
        elements = [Permutation(word) for word in all_perms(range(1, n + 1))]
        above = {
            u.word: {u.word} for u in elements
        }
        order = sorted(elements, key=lambda u: inversion_count(u.word), reverse=True)
        for u in order:
            for i, j in combinations(range(1, n + 1), 2):
                moved = compose(u, transposition(n, i, j))
                if inversion_count(moved.word) > inversion_count(u.word):
                    above[u.word] |= above[moved.word]
        for u in elements:
            for w in elements:
                assert bruhat_leq(u, w) == (w.word in above[u.word]), (u, w)


def test_bruhat_leq_matches_full_matrix_oracle():
    # bruhat_leq is public for any permutation, so non-involutions too
    from itertools import permutations as all_perms

    from boolinv.permutations import Permutation

    for n in range(6):
        elements = [Permutation(word) for word in all_perms(range(1, n + 1))]
        for u in elements:
            for w in elements:
                assert bruhat_leq(u, w) == bruhat_leq_by_matrix(u.word, w.word), (u, w)
    elements = list(involutions(6))
    for u in elements:
        for w in elements:
            assert bruhat_leq(u, w) == bruhat_leq_by_matrix(u.word, w.word), (u, w)


def test_bruhat_leq_matches_full_matrix_oracle_on_seeded_pairs():
    # past n = 6, where the exhaustive comparison above stops: random pairs,
    # and pairs u <= w made by swapping inversions of w, in both orders
    import random

    from boolinv.permutations import Permutation

    rng = random.Random(2007)
    for n in (7, 8, 12, 20, 32, 64):
        for _ in range(40):
            w = tuple(rng.sample(range(1, n + 1), n))
            u = list(w)
            for _ in range(rng.randrange(1, 2 * n)):
                i, j = sorted(rng.sample(range(n), 2))
                if u[i] > u[j]:
                    u[i], u[j] = u[j], u[i]
            u, other = tuple(u), tuple(rng.sample(range(1, n + 1), n))
            assert bruhat_leq(Permutation(u), Permutation(w))
            for a, b in ((u, w), (w, u), (other, w), (w, other)):
                assert bruhat_leq(Permutation(a), Permutation(b)) == bruhat_leq_by_matrix(a, b), (a, b)


def test_bruhat_leq_is_partial_order():
    elements = list(involutions(5))
    for u in elements:
        assert bruhat_leq(u, u)
        for w in elements:
            if bruhat_leq(u, w) and bruhat_leq(w, u):
                assert u == w
    # spot-check transitivity on a chain
    a, b, c = identity(4), parse_permutation("2134"), parse_permutation("4321")
    assert bruhat_leq(a, b) and bruhat_leq(b, c) and bruhat_leq(a, c)


def test_ideal_examples():
    assert len(ideal(identity(3))) == 1
    diamond = ideal(parse_permutation("321"))
    assert {w.word for w in diamond.elements} == {
        (1, 2, 3),
        (2, 1, 3),
        (1, 3, 2),
        (3, 2, 1),
    }
    full = ideal(parse_permutation("4321"))
    assert len(full) == 10  # all involutions of S_4, fewer than 2**4


def test_ideal_matches_adjacent_rank_oracle():
    # every field equals the poset built by ranking each element and
    # running the dominance test on every pair of adjacent ranks, so the
    # Hasse edges are exactly the comparable adjacent-rank pairs; the down-sets
    # filled up the covers on first read equal the oracle's eager fill.
    for n in range(9):
        for w in involutions(n):
            poset, expected = ideal(w), ideal_by_adjacent_ranks(w)
            assert poset == expected and poset.below == expected.below, w
    high_rank = Involution(tuple(range(9, 0, -1)) + (11, 10))  # 5240 elements
    poset, expected = ideal(high_rank), ideal_by_adjacent_ranks(high_rank)
    assert poset == expected and poset.below == expected.below


# each forbidden block with the number of elements of its ideal
BLOCKS = {(4, 3, 2, 1): 10, (4, 5, 3, 1, 2): 22, (4, 5, 6, 1, 2, 3): 48}


def _sparse_hosts(rng, max_rank=10, max_elements=2048):
    """For n = 16..64: a uniform Boolean host of S_n that keeps, in a random
    order, each component that leaves its rank at most `max_rank` and fixes
    the others' points; then, for each forbidden block, the last of those
    hosts on the way whose ideal, times the block's, stays below
    `max_elements`, with the block put at one of its component boundaries."""
    for n in range(16, 65, 12):
        w = boolean_involution(n, rng)
        spans = sum_blocks(w.word)
        rng.shuffle(spans)
        word = tuple(range(1, n + 1))
        kept = [(0, word)]
        for lo, hi in spans:
            trial = word[:lo - 1] + w.word[lo - 1:hi] + word[hi:]
            r = rank(Involution(trial))
            if r <= max_rank:
                word = trial
                kept.append((r, word))
        yield Involution(word)
        for block, size in BLOCKS.items():
            host = [word for r, word in kept if size << r < max_elements][-1]
            g = rng.choice([0] + [hi for _, hi in sum_blocks(host)])
            shifted = tuple(len(block) + v for v in host[g:])
            yield Involution(host[:g] + tuple(g + b for b in block) + shifted)


def test_ideal_matches_sorted_assembly_oracle():
    # the rank layers and the bucketed covers against the comparison sorts
    # they replaced, field by field, covers in order, and the down-sets:
    # every involution with n <= 8, (1 14) at the guard, 987654321 (+) 21,
    # and sparse sampled hosts past n = 8, with and without a forbidden block
    hosts = [w for n in range(9) for w in involutions(n)]
    hosts.append(Involution((14,) + tuple(range(2, 14)) + (1,)))
    hosts.append(Involution(tuple(range(9, 0, -1)) + (11, 10)))
    sparse = list(_sparse_hosts(random.Random(37)))
    for w in hosts + sparse:
        poset, expected = ideal(w), sorted_assembly_ideal(w)
        assert poset == expected and poset.covers == expected.covers, w
        assert poset.below == expected.below, w
    assert max(len(ideal(w)) for w in sparse) < 2048
    assert max(rank(w) for w in sparse[::4]) == 10


def test_ideal_fills_down_sets_only_when_read():
    # (1 14): 8192 elements, whose down-sets take 4.2 MB; certifying and
    # exporting the ideal reads only its covers.
    poset = ideal(Involution((14,) + tuple(range(2, 14)) + (1,)))
    assert is_boolean_lattice(poset) is True
    dot_export(poset)
    assert "below" not in vars(poset)
    assert poset.below[-1] == (1 << LIMITS["ideal"][0]) - 1
    small = ideal(parse_permutation("4321"))
    assert is_boolean_lattice(small) is False and "below" not in vars(small)
    assert all(down & 1 for down in small.below) and "below" in vars(small)


def test_ideal_runs_no_pair_test_and_ranks_once(monkeypatch):
    expected = {w: ideal(w) for n in range(8) for w in involutions(n)}
    ranked = []

    def compare(u, w):
        raise AssertionError("ideal compared a pair of elements")

    monkeypatch.setattr(ideals, "bruhat_leq", compare)
    monkeypatch.setattr(ideals, "rank", lambda w: ranked.append(w) or rank(w))
    for w, poset in expected.items():
        ranked.clear()
        assert ideal(w) == poset
        assert len(ranked) <= 1, w


def test_numbered_closure_matches_word_keyed_oracle():
    # the same elements, ranks and down-covers as the closure that keys
    # every element and cover by its word
    for n in range(8):
        for w in involutions(n):
            words, ranks, downs = subword_closure(w)
            expected = word_keyed_closure(w)
            assert len(words) == len(ranks) == len(downs) == len(expected), w
            assert set(words) == set(expected), w
            for u, r, down in zip(words, ranks, downs):
                assert r == expected[u][0], (w, u)
                assert sorted(words[z] for z in down) == sorted(expected[u][1]), (w, u)


def test_dot_export_matches_grouped_oracle():
    # every involution with n <= 6, and (1 14), whose ideal of 8192
    # elements sits at the guard; the rows join to the same text
    elements = [w for n in range(7) for w in involutions(n)]
    elements.append(Involution((14,) + tuple(range(2, 14)) + (1,)))
    for w in elements:
        poset = ideal(w)
        text = dot_export(poset)
        assert text == grouped_dot(poset), w
        assert "".join(dot_rows(poset)) == text, w
    assert len(poset) == LIMITS["ideal"][0]


def test_ideal_guard():
    w = Involution(tuple(range(10, 0, -1)))  # rank (45 + 5) / 2 = 25
    assert len(list(involutions(10))) > LIMITS["ideal"][0]  # its ideal is all of I(S_10)
    with pytest.raises(ResourceLimitError):
        ideal(w)


def test_ideal_guard_refuses_large_boolean_ideal():
    # The transposition (1, 21) has rank 20 and a Boolean ideal of 2^20
    # elements; the closure passes the guard after 14 letters.
    w = Involution((21,) + tuple(range(2, 21)) + (1,))
    assert rank(w) == 20
    with pytest.raises(ResourceLimitError):
        subword_closure(w)
    with pytest.raises(ResourceLimitError):
        ideal(w)


def test_ideal_guard_admits_high_rank_small_ideal():
    # 987654321 (+) 21: rank 20 + 1, ideal of 2620 * 2 elements.
    w = Involution(tuple(range(9, 0, -1)) + (11, 10))
    assert rank(w) == 21
    assert len(ideal(w)) == 5240


def test_is_boolean_lattice_examples():
    assert is_boolean_lattice(ideal(identity(4))) is True
    assert is_boolean_lattice(ideal(parse_permutation("4321"))) is False
    assert is_boolean_lattice(ideal(parse_permutation("3412"))) is True


def test_hasse_edges_examples():
    assert hasse_edges(ideal(identity(5))) == []
    diamond_edges = hasse_edges(ideal(parse_permutation("321")))
    assert len(diamond_edges) == 4
    poset = ideal(parse_permutation("4321"))
    assert sorted(
        (a.word, b.word) for a, b in hasse_edges(poset)
    ) == sorted((a.word, b.word) for a, b in covers_from_below(poset))


def test_dot_export_is_deterministic_and_clustered():
    poset = ideal(parse_permutation("321"))
    text = dot_export(poset)
    assert text == dot_export(poset)
    assert text.count("rank=same") == 3
    assert '"123" -> "132";' in text
    assert text.startswith("digraph ideal {")
    sink = io.StringIO()
    dot_export(poset, sink)
    assert sink.getvalue() == text


def test_product_decomposition_examples():
    assert product_decomposition_check(parse_permutation("2143")) is True
    assert len(ideal(parse_permutation("2143"))) == 4
    assert product_decomposition_check(identity(4)) is True
    assert product_decomposition_check(parse_permutation("5764132")) is True
