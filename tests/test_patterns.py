from itertools import permutations as itertools_permutations

import pytest

import random

from boolinv import patterns
from boolinv.boolean import has_long_crossing, is_boolean
from boolinv.counting import involutions, signed_involutions
from boolinv.patterns import (
    FORBIDDEN_PATTERNS,
    SIGNED_FORBIDDEN_PATTERNS,
    Occurrence,
    SignedPattern,
    avoids_all,
    contains,
    contains_signed,
    is_induced,
    occurrences,
    parse_signed_pattern,
)
from boolinv.permutations import (
    InvariantViolationError, Involution, Permutation, identity, parse_permutation)
from boolinv.signed import SignedPermutation, is_boolean_signed, parse_signed
from oracles import chain, dfs_occurrences, pattern_occurrences, signed_pattern_occurrences

HOST = parse_permutation("84725631")
P4231 = parse_permutation("4231")


def test_contains_worked_example():
    occ = contains(HOST, P4231)
    assert occ is not None
    all_values = {o.values for o in occurrences(HOST, P4231)}
    assert (8, 5, 6, 1) in all_values and (8, 4, 5, 3) in all_values


def test_contains_trivia():
    assert contains(identity(5), parse_permutation("21")) is None
    occ = contains(parse_permutation("4321"), parse_permutation("4321"))
    assert occ.positions == (1, 2, 3, 4)
    # pattern longer than host fails gracefully
    assert contains(identity(2), parse_permutation("321")) is None


def test_empty_pattern_occurs_once_everywhere():
    empty = Occurrence((), ())
    assert contains(HOST, Permutation(())) == empty
    assert contains(Permutation(()), Permutation(())) == empty
    assert occurrences(HOST, Permutation(())) == [empty]
    assert contains_signed(parse_signed("-1"), SignedPattern(())) == empty
    assert contains_signed(parse_signed("2,1"), SignedPattern(())) == empty


def test_occurrences_examples():
    assert occurrences(parse_permutation("321"), parse_permutation("12")) == []
    occs = occurrences(parse_permutation("4321"), parse_permutation("321"))
    assert len(occs) == 4


def test_occurrences_lexicographic_and_first():
    occs = occurrences(HOST, P4231)
    assert [o.positions for o in occs] == sorted(o.positions for o in occs)
    assert contains(HOST, P4231) == occs[0]


def test_occurrences_against_subset_oracle():
    hosts = [tuple(w) for w in itertools_permutations(range(1, 6))]
    patterns = [(2, 1), (1, 3, 2), (3, 1, 2), (2, 1, 4, 3)]
    for host in hosts:
        for pattern in patterns:
            expected = pattern_occurrences(host, pattern)
            got = [o.positions for o in occurrences(Permutation(host), Permutation(pattern))]
            assert got == expected


def test_occurrences_oracle_larger_host():
    host = (8, 4, 7, 2, 5, 6, 3, 1)
    for pattern in [(4, 3, 2, 1), (4, 2, 3, 1), (4, 5, 3, 1, 2), (4, 5, 6, 1, 2, 3)]:
        expected = pattern_occurrences(host, pattern)
        got = [o.positions for o in occurrences(Permutation(host), Permutation(pattern))]
        assert got == expected


def test_occurrences_oracle_random_hosts():
    import random

    rng = random.Random(57641)
    for n in (6, 7, 8):
        for _ in range(20):
            host = tuple(rng.sample(range(1, n + 1), n))
            m = rng.randrange(2, 7)
            pattern = tuple(rng.sample(range(1, m + 1), m))
            expected = pattern_occurrences(host, pattern)
            got = [
                o.positions
                for o in occurrences(Permutation(host), Permutation(pattern))
            ]
            assert got == expected


def test_is_induced_worked_example():
    by_values = {o.values: o for o in occurrences(HOST, P4231)}
    assert is_induced(HOST, by_values[(8, 5, 6, 1)]) is True
    assert is_induced(HOST, by_values[(8, 4, 5, 3)]) is False
    full = contains(parse_permutation("4321"), parse_permutation("4321"))
    assert is_induced(parse_permutation("4321"), full) is True


def test_is_induced_rejects_invalid_occurrence():
    with pytest.raises(ValueError, match="not an occurrence"):
        is_induced(HOST, Occurrence((1, 2), (9, 9)))


def test_contains_signed_examples():
    assert contains_signed(
        parse_signed("-1,-2"), parse_signed_pattern("-1,-2")
    ).positions == (1, 2)
    assert contains_signed(parse_signed("1,2"), parse_signed_pattern("-1")) is None
    host = parse_signed("2,1,-3")
    assert contains_signed(host, parse_signed_pattern("2,-1")) is None
    assert contains_signed(host, parse_signed_pattern("2,1")) is not None


def test_contains_signed_against_oracle():
    hosts = ["2,1,-3", "-3,1,-2", "1,-2,3,-4", "-2,-1,4,3"]
    pats = ["-1", "2,1", "-1,-2", "2,-1", "1,-3,-2", "-2,1"]
    for host_text in hosts:
        host = parse_signed(host_text)
        for pat_text in pats:
            pattern = parse_signed_pattern(pat_text)
            expected = signed_pattern_occurrences(host.window, pattern.window)
            got = contains_signed(host, pattern)
            assert (got.positions if got else None) == (
                expected[0] if expected else None
            )


def test_signed_pattern_validation():
    with pytest.raises(ValueError):
        SignedPattern((1, 1))
    with pytest.raises(ValueError):
        SignedPattern((2, 3))


def test_forbidden_pattern_lists():
    assert [p.word for p in FORBIDDEN_PATTERNS] == [
        (4, 3, 2, 1),
        (4, 5, 3, 1, 2),
        (4, 5, 6, 1, 2, 3),
    ]
    assert len(SIGNED_FORBIDDEN_PATTERNS) == 16
    assert len(set(SIGNED_FORBIDDEN_PATTERNS)) == 16
    sizes = sorted(p.n for p in SIGNED_FORBIDDEN_PATTERNS)
    assert sizes == [2, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6]


def test_avoids_all_examples():
    assert avoids_all(parse_permutation("4321"), FORBIDDEN_PATTERNS) is False
    assert avoids_all(parse_permutation("45312"), FORBIDDEN_PATTERNS) is False
    assert avoids_all(parse_permutation("456123"), FORBIDDEN_PATTERNS) is False
    assert avoids_all(identity(6), FORBIDDEN_PATTERNS) is True
    assert avoids_all(parse_permutation("3412"), FORBIDDEN_PATTERNS) is True


def test_avoids_all_monotone_under_list_inclusion():
    w = parse_permutation("456123")
    assert avoids_all(w, FORBIDDEN_PATTERNS[:2]) is True
    assert avoids_all(w, FORBIDDEN_PATTERNS) is False
    # avoiding a larger list implies avoiding any sublist
    for word in itertools_permutations(range(1, 6)):
        host = Permutation(word)
        if avoids_all(host, FORBIDDEN_PATTERNS):
            assert avoids_all(host, FORBIDDEN_PATTERNS[:2])
            assert avoids_all(host, FORBIDDEN_PATTERNS[:1])


def test_containing_involutions_have_induced_occurrence():
    # any involution containing a forbidden pattern has an induced
    # occurrence of one of them
    for n in range(4, 10):
        for w in involutions(n):
            if not has_long_crossing(w):
                continue
            assert any(
                is_induced(w, occ)
                for p in FORBIDDEN_PATTERNS
                for occ in occurrences(w, p)
            ), f"no induced occurrence in {w.word}"


# The forbidden patterns, 21, 312 and 3142 are sum-indecomposable and are
# searched block by block; 2143 = 21 + 21 and 132 = 1 + 21 are direct sums
# and are searched over the whole host.
EXACTNESS_PATTERNS = [p.word for p in FORBIDDEN_PATTERNS] + [
    (2, 1),
    (3, 1, 2),
    (2, 1, 4, 3),
    (3, 1, 4, 2),
    (1, 3, 2),
]


def _positions(host, pattern):
    return [o.positions for o in occurrences(Permutation(host), Permutation(pattern))]


def test_occurrences_match_dfs_on_every_small_host():
    for n in range(8):
        for host in itertools_permutations(range(1, n + 1)):
            for pattern in EXACTNESS_PATTERNS:
                assert _positions(host, pattern) == dfs_occurrences(host, pattern)


def _direct_sum(blocks):
    word = []
    for block in blocks:
        offset = len(word)
        word.extend(offset + v for v in block)
    return tuple(word)


def test_occurrences_match_dfs_on_direct_sums():
    rng = random.Random(456123)
    for _ in range(40):
        blocks = []
        while sum(len(b) for b in blocks) < rng.randrange(8, 41):
            size = rng.randrange(1, 8)
            blocks.append(rng.sample(range(1, size + 1), size))
        host = _direct_sum(blocks)
        for pattern in EXACTNESS_PATTERNS:
            assert _positions(host, pattern) == dfs_occurrences(host, pattern)


def test_witness_in_last_block_of_long_host():
    # 3412 repeated fifty times, then 456123: the only occurrence of any
    # forbidden pattern sits in the last six positions.
    w = Involution(_direct_sum([(3, 4, 1, 2)] * 50 + [(4, 5, 6, 1, 2, 3)]))
    assert w.n == 206
    for method in ("long_crossing", "patterns"):
        verdict = is_boolean(w, method)
        assert verdict.pattern == parse_permutation("456123")
        assert verdict.occurrence.positions == tuple(range(201, 207))
        assert verdict.long_crossing_pair == (201, 202)


def test_contains_signed_matches_oracle_on_every_small_window():
    for n in range(5):
        for word in itertools_permutations(range(1, n + 1)):
            for signs in range(1 << n):
                window = tuple(-v if signs >> k & 1 else v for k, v in enumerate(word))
                host = SignedPermutation(window)
                for pattern in SIGNED_FORBIDDEN_PATTERNS:
                    expected = signed_pattern_occurrences(window, pattern.window)
                    got = contains_signed(host, pattern)
                    assert (got.positions if got else None) == (
                        expected[0] if expected else None
                    )


SINGLE_SIGN_WINDOWS = [p for p in SIGNED_FORBIDDEN_PATTERNS if len({q > 0 for q in p.window}) == 1]


def _negate_cycles(word, rng):
    """The signed involution negating each 2-cycle of word at random."""
    out = list(word)
    for i, v in enumerate(word, start=1):
        if i < v and rng.random() < 0.5:
            out[i - 1], out[v - 1] = -v, -i
    return tuple(out)


def test_single_sign_windows_match_signed_dfs():
    # one-sign windows run the classical search on the host's entries of
    # that sign; the signed depth-first oracle searches every position
    rng = random.Random(456123)
    hosts = [w.window for n in range(7) for w in signed_involutions(n)]
    for n in (8, 13, 21, 34, 55, 79):
        for share in (0.1, 0.5, 0.9):
            word = rng.sample(range(1, n + 1), n)
            hosts.append(tuple(v if rng.random() < share else -v for v in word))
    for n in (12, 18, 24):
        hosts += [chain(n), tuple(-v for v in chain(n)), _negate_cycles(chain(n), rng)]
    for window in hosts:
        for pattern in SINGLE_SIGN_WINDOWS:
            got = contains_signed(SignedPermutation(window), pattern)
            expected = dfs_occurrences(window, pattern.window, limit=1, signed=True)
            assert ([got.positions] if got else []) == expected, (window, pattern)


def test_negative_monotone_windows_run_no_depth_first_search(monkeypatch):
    # -1,-2 and -3,-2,-1 reach `contains` as 12 and 321, which a decreasing
    # (or increasing) host of n entries made the depth-first search scan
    # in about n^2 / 2 steps; the linear passes find them instead
    def dfs(*args):
        raise AssertionError("depth-first search run")

    monkeypatch.setattr(patterns, "_occurrences_iter", dfs)
    n = 4000
    down = SignedPermutation(tuple(-v for v in range(n, 0, -1)))
    up = SignedPermutation(tuple(-v for v in range(1, n + 1)))
    for host, pattern, expected in [
        (down, "-1,-2", None), (down, "-3,-2,-1", (1, 2, 3)),
        (up, "-1,-2", (1, 2)), (up, "-3,-2,-1", None),
    ]:
        occ = contains_signed(host, parse_signed_pattern(pattern))
        assert (occ.positions if occ else None) == expected, pattern
    verdict = is_boolean_signed(down)
    assert verdict.pattern == parse_signed_pattern("-3,-2,-1")


def test_default_signed_check_on_long_chain_with_planted_block():
    # the non-Boolean verdict searches the signed windows for its witness;
    # by depth first, that took 11.6 s at n = 256 and grows about n^4
    n = 4096
    host = parse_signed(",".join(map(str, _direct_sum([chain(n), (4, 5, 6, 1, 2, 3)]))))
    verdict = is_boolean_signed(host)
    assert verdict.pattern == parse_signed_pattern("4,5,6,1,2,3")
    assert verdict.occurrence.positions == tuple(range(n + 1, n + 7))
    bare = parse_signed(",".join(map(str, chain(n))))
    assert is_boolean_signed(bare, "signed_patterns").is_boolean


# The three forbidden patterns, 321 and 12 are found from linear passes;
# the plain depth-first oracle gives the first occurrence independently.
TABLE_PATTERNS = [p.word for p in FORBIDDEN_PATTERNS] + [(3, 2, 1), (1, 2)]


def _first(host, pattern):
    occ = contains(Permutation(host), Permutation(pattern))
    return [occ.positions] if occ else []


def test_table_witness_matches_dfs_on_every_small_host():
    for n in range(8):
        for host in itertools_permutations(range(1, n + 1)):
            for pattern in TABLE_PATTERNS:
                assert _first(host, pattern) == dfs_occurrences(host, pattern, limit=1)


def _partly_sorted(rng, n):
    word = list(range(1, n + 1))
    for _ in range(rng.randrange(1, 4)):
        a, b = rng.randrange(n), rng.randrange(n)
        word[a], word[b] = word[b], word[a]
    a = rng.randrange(n)
    b = a + rng.randrange(2, 6)
    word[a:b] = reversed(word[a:b])
    # swap two adjacent segments: 456123 when both are increasing runs of 3
    a = rng.randrange(n)
    b, c = a + rng.randrange(1, 6), a + rng.randrange(6, 11)
    word[a:c] = word[b:c] + word[a:b]
    return tuple(word)


def test_table_witness_matches_dfs_on_larger_hosts():
    # The plain oracle is fast where the pattern occurs early (uniform
    # hosts) and slow, about n^4, on a long block that avoids it, so the
    # partly sorted hosts stay small; direct sums up to n = 200 are checked
    # against the block-by-block search that `occurrences` runs.
    rng = random.Random(45312)
    for n in (8, 12, 20, 30, 50, 80, 120, 200):
        for _ in range(3):
            host = tuple(rng.sample(range(1, n + 1), n))
            for pattern in TABLE_PATTERNS:
                assert _first(host, pattern) == dfs_occurrences(host, pattern, limit=1)
    for n in (6, 9, 13, 20, 28, 40) * 5:
        host = _partly_sorted(rng, n)
        for pattern in TABLE_PATTERNS:
            assert _first(host, pattern) == dfs_occurrences(host, pattern, limit=1)
    for _ in range(30):
        blocks = []
        while sum(len(b) for b in blocks) < rng.randrange(20, 201):
            size = rng.randrange(1, 9)
            blocks.append(rng.sample(range(1, size + 1), size))
        host = _direct_sum(blocks)
        for pattern in TABLE_PATTERNS:
            assert _first(host, pattern) == _positions(host, pattern)[:1]


def test_pattern_verdicts_on_long_chains():
    # Both ran for minutes when the witness came from the depth-first
    # search, whose cost on one long avoiding block grows about n^4.
    verdict = is_boolean(Involution(chain(2048)), "patterns")
    assert verdict.is_boolean and verdict.pattern is None
    w = Involution(_direct_sum([chain(4091), (4, 5, 3, 1, 2)]))
    verdict = is_boolean(w)
    assert not verdict.is_boolean
    assert verdict.pattern == parse_permutation("45312")
    assert verdict.occurrence.positions == tuple(range(4092, 4097))


@pytest.mark.parametrize("positions", [(2, 1), (0, 1), (1, 1)])
def test_search_occurrence_refuses_positions_not_increasing_from_1(positions):
    with pytest.raises(InvariantViolationError, match="not increasing from 1"):
        patterns._occurrence((2, 1, 3), positions)
