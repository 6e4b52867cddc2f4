import dataclasses
import json
import random

import pytest

from boolinv import boolean, involution_words
from boolinv.boolean import (
    METHODS,
    BooleanVerdict,
    connected_components,
    first_long_crossing_pair,
    has_long_crossing,
    is_boolean,
    long_crossing_pairs,
    repeat_free_word,
    restrict,
)
from boolinv.counting import boolean_involutions, involutions, signed_involutions
from boolinv.ideals import bruhat_leq
from boolinv.involution_words import evaluate_word, rank
from boolinv.patterns import FORBIDDEN_PATTERNS, Occurrence, avoids_all
from boolinv.permutations import (
    Involution,
    compose,
    conjugate,
    excedance_profile,
    identity,
    parse_permutation,
    transposition,
)
from boolinv.signed import SIGNED_METHODS, is_boolean_signed
from oracles import chain, crossing_components, repeat_free_word_by_components, uniform_involution


def test_connected_components_examples():
    assert connected_components(identity(4)).components == ((1, 1), (2, 2), (3, 3), (4, 4))
    assert connected_components(parse_permutation("2143")).components == ((1, 2), (3, 4))
    assert connected_components(parse_permutation("5764132")).components == ((1, 7),)


def test_components_cover_and_are_disjoint():
    for n in range(8):
        for w in involutions(n):
            covered = []
            for lo, hi in connected_components(w).components:
                covered.extend(range(lo, hi + 1))
            assert covered == list(range(1, n + 1))


def test_restrict_examples():
    assert restrict(parse_permutation("2143"), {1, 2}) == parse_permutation("2134")
    w = parse_permutation("35142")
    assert restrict(w, range(1, 6)) == w
    assert restrict(w, ()) == identity(5)
    with pytest.raises(ValueError, match="not a permutation"):
        restrict(parse_permutation("3412"), {1})


def test_long_crossing_examples():
    assert (1, 2) in long_crossing_pairs(parse_permutation("5764132"))
    assert long_crossing_pairs(identity(6)) == []
    assert (1, 2) in long_crossing_pairs(parse_permutation("4321"))
    pairs = long_crossing_pairs(parse_permutation("5764132"))
    assert pairs == sorted(pairs)


def test_has_long_crossing_agrees_with_listing():
    for n in range(9):
        for w in involutions(n):
            assert has_long_crossing(w) == bool(long_crossing_pairs(w))


def test_is_boolean_worked_examples():
    verdict = is_boolean(parse_permutation("4321"))
    assert not verdict.is_boolean
    assert verdict.long_crossing_pair == (1, 2)
    assert verdict.pattern.word == (4, 3, 2, 1)
    assert verdict.occurrence is not None and verdict.word is None

    verdict = is_boolean(parse_permutation("3412"))
    assert verdict.is_boolean
    assert set(verdict.word) == {1, 2, 3} and len(verdict.word) == 3

    verdict = is_boolean(identity(4))
    assert verdict.is_boolean and verdict.word == ()


def test_is_boolean_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        is_boolean(identity(3), "guess")


def test_methods_agree():
    for n in range(9):
        for w in involutions(n):
            results = {m: is_boolean(w, m).is_boolean for m in
                       ("patterns", "long_crossing", "word", "poset")}
            assert len(set(results.values())) == 1
            is_boolean(w, "all")  # raises on disagreement


def test_long_crossing_iff_pattern():
    for n in range(9):
        for w in involutions(n):
            assert bool(long_crossing_pairs(w)) == (
                not avoids_all(w, FORBIDDEN_PATTERNS)
            )


def test_verdict_witnesses_are_sound():
    for n in range(8):
        for w in involutions(n):
            verdict = is_boolean(w)
            if verdict.is_boolean:
                assert len(set(verdict.word)) == len(verdict.word)
                assert evaluate_word(verdict.word, n) == w
            else:
                i, j = verdict.long_crossing_pair
                assert i < j < w(j) and w(i) > j + 1
                positions = verdict.occurrence.positions
                values = tuple(w(p) for p in positions)
                assert values == verdict.occurrence.values


def test_repeat_free_word_examples():
    assert repeat_free_word(parse_permutation("3412")) == (1, 3, 2)
    assert repeat_free_word(transposition(5, 3, 4)) == (3,)
    assert repeat_free_word(parse_permutation("2143")) == (1, 3)
    with pytest.raises(ValueError, match="long-crossing"):
        repeat_free_word(parse_permutation("4321"))


def test_repeat_free_word_is_reduced():
    for n in range(10):
        for w in involutions(n):
            if has_long_crossing(w):
                continue
            letters = repeat_free_word(w)
            assert len(letters) == len(set(letters)) == rank(w)
            assert evaluate_word(letters, n) == w


def test_repeat_free_word_matches_component_oracle():
    # the one-pass word equals the word built component by component
    for n in range(13):
        for w in boolean_involutions(n):
            assert repeat_free_word(w) == repeat_free_word_by_components(w), w


def test_component_booleanness():
    for n in range(8):
        for w in involutions(n):
            parts = connected_components(w).components
            restricted_ok = all(
                not has_long_crossing(Involution(restrict(w, range(lo, hi + 1)).word))
                for lo, hi in parts
            )
            assert restricted_ok == (not has_long_crossing(w))


def test_boolean_involutions_determined_by_excedance_sets():
    for n in range(10):
        seen = {}
        for w in involutions(n):
            if has_long_crossing(w):
                continue
            profile = excedance_profile(w)
            key = (profile.excedances, profile.deficiencies)
            assert key not in seen, f"{w.word} collides with {seen[key]}"
            seen[key] = w.word


def test_verdict_json():
    payload = json.loads(is_boolean(parse_permutation("4321")).to_json())
    assert payload["is_boolean"] is False
    assert payload["long_crossing_pair"] == [1, 2]
    assert payload["pattern"] == "4321"
    assert payload["occurrence"] == {"positions": [1, 2, 3, 4], "values": [4, 3, 2, 1]}
    payload = json.loads(is_boolean(parse_permutation("3412")).to_json())
    assert payload == {
        "is_boolean": True,
        "long_crossing_pair": None,
        "occurrence": None,
        "pattern": None,
        "word": [1, 3, 2],
    }


# The delete/shrink manipulations below mirror the constructive
# non-Booleanness argument: starting from a long-crossing pair (i, j),
# strip every other 2-cycle, then shrink the two survivors until the
# witness with cycles (j-1, j+2), (j, j+1) appears.  Each step stays
# below the previous one in Bruhat order.


def _delete_other_cycles(w: Involution, keep: set[int]) -> Involution:
    result = w
    for k in range(1, w.n + 1):
        if result(k) != k and k not in keep and result(k) not in keep:
            result = Involution(
                compose(result, transposition(w.n, k, result(k))).word
            )
    return result


def _shrink(w: Involution, a: int, b: int) -> Involution:
    if a == b:
        return w
    return Involution(conjugate(w, (a, b)).word)


def test_non_boolean_witness_chain():
    for n in range(4, 8):
        for w in involutions(n):
            pairs = long_crossing_pairs(w)
            if not pairs:
                continue
            i, j = pairs[0]
            v = _delete_other_cycles(w, {i, w(i), j, w(j)})
            u = _shrink(v, j + 1, v(j))
            assert u(j) == j + 1
            x = _shrink(_shrink(u, i, j - 1), j + 2, u(i))
            assert x(j - 1) == j + 2 and x(j) == j + 1
            assert bruhat_leq(x, u) and bruhat_leq(u, v) and bruhat_leq(v, w)
            witness = evaluate_word((j - 1, j, j + 1, j), n)
            assert x == witness
            assert not is_boolean(Involution(x.word), "poset").is_boolean


def test_worked_example_chain():
    w = parse_permutation("5764132")
    assert long_crossing_pairs(w)[0] == (1, 2)
    assert not is_boolean(w).is_boolean


def test_connected_components_match_union_find():
    for n in range(11):
        for w in involutions(n):
            assert connected_components(w).components == crossing_components(w.word)


def test_first_long_crossing_pair_is_first_of_all_pairs():
    for n in range(11):
        for w in involutions(n):
            pairs = long_crossing_pairs(w)
            assert first_long_crossing_pair(w) == (pairs[0] if pairs else None)


def test_verdict_json_same_for_every_method():
    for n in range(10):
        for w in involutions(n):
            expected = is_boolean(w, "long_crossing").to_json()
            assert is_boolean(w, "patterns").to_json() == expected
            assert is_boolean(w, "word").to_json() == expected


@pytest.mark.parametrize("method", ["patterns", "all"])
def test_forbidden_pattern_search_runs_once(monkeypatch, method):
    calls = []
    search = boolean.first_occurrence
    monkeypatch.setattr(
        boolean, "first_occurrence", lambda w, ps: calls.append(w) or search(w, ps)
    )
    verdict = is_boolean(parse_permutation("5764132"), method)
    assert verdict.pattern == parse_permutation("4321")
    assert len(calls) == 1


@pytest.mark.parametrize("method", METHODS)
def test_long_crossing_scan_runs_once_per_verdict(monkeypatch, method):
    calls = []
    scan = boolean.first_long_crossing_pair
    monkeypatch.setattr(boolean, "first_long_crossing_pair", lambda w: calls.append(w) or scan(w))
    assert not is_boolean(parse_permutation("5764132"), method).is_boolean
    assert len(calls) == 1
    assert is_boolean(parse_permutation("3412"), method).is_boolean
    assert len(calls) == 2  # the word witness reuses the verdict's scan


def test_word_witness_on_long_chain():
    # quadratic while each letter copied the word: seconds at this size
    w = Involution(chain(16000))
    verdict = is_boolean(w)
    assert verdict.is_boolean
    assert len(set(verdict.word)) == len(verdict.word) == rank(w)
    assert evaluate_word(verdict.word, w.n) == w


def test_word_criterion_on_large_random_involution():
    # n * rank while each letter copied the word and rescanned its descents
    w = uniform_involution(1000, random.Random(1017))
    assert is_boolean(w, "word") == is_boolean(w, "long_crossing")


def test_word_criterion_peels_at_most_n_letters(monkeypatch):
    # the reversal of S_2000 has rank 10^6, but n letters from 1..n-1
    # repeat one; the Boolean chain's whole word has fewer than n letters
    reversal, boolean_chain = Involution(tuple(range(2000, 0, -1))), Involution(chain(2000))
    expected = [is_boolean(reversal), is_boolean(boolean_chain)]
    kernel, acted = involution_words._act_into, []
    monkeypatch.setattr(
        involution_words, "_act_into", lambda word, i: acted.append(i) or kernel(word, i))
    assert is_boolean(reversal, "word") == expected[0]
    assert len(acted) <= reversal.n
    assert is_boolean(boolean_chain, "word") == expected[1]


def assert_same_as_public_rebuild(verdict):
    occ = verdict.occurrence and Occurrence(verdict.occurrence.positions, verdict.occurrence.values)
    rebuilt = BooleanVerdict(
        verdict.is_boolean, verdict.long_crossing_pair, verdict.pattern, occ, verdict.word)
    for built, public in ((verdict, rebuilt), (verdict.occurrence, occ)):
        assert built == public and hash(built) == hash(public) and repr(built) == repr(public)
    assert verdict.to_json() == rebuilt.to_json()
    assert vars(verdict) == vars(rebuilt)  # every field set on the instance
    assert dataclasses.asdict(verdict) == dataclasses.asdict(rebuilt)
    assert dataclasses.replace(verdict) == verdict


def test_verdicts_equal_their_public_rebuilds():
    for n in range(9):
        for w in involutions(n):
            for method in METHODS:
                assert_same_as_public_rebuild(is_boolean(w, method))
    for n in range(6):
        for w in signed_involutions(n):
            for method in SIGNED_METHODS:
                assert_same_as_public_rebuild(is_boolean_signed(w, method))


def test_default_verdicts_call_no_public_constructor(monkeypatch):
    expected = [(w, is_boolean(w).to_json()) for n in range(8) for w in involutions(n)]

    def refuse(*args, **kwargs):
        raise AssertionError("public constructor called inside a verdict")

    monkeypatch.setattr(Occurrence, "__post_init__", refuse)
    monkeypatch.setattr(BooleanVerdict, "__init__", refuse)
    for w, text in expected:
        assert is_boolean(w).to_json() == text


def test_public_constructors_still_validate():
    with pytest.raises(ValueError, match="not strictly increasing"):
        Occurrence((2, 1), (1, 2))
    for positions in ((0, 1), (-3, 2)):  # no host has a position below 1
        with pytest.raises(ValueError, match="start below 1"):
            Occurrence(positions, (5, 6))
    with pytest.raises(ValueError, match="differ in length"):
        Occurrence((1, 2), (1,))
    with pytest.raises(TypeError):
        BooleanVerdict()
    with pytest.raises(TypeError):
        BooleanVerdict(True, words=(1,))
