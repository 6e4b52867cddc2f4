import random
from itertools import product

import pytest

from boolinv import involution_words
from boolinv.boolean import is_boolean, repeat_free_word
from boolinv.counting import involutions
from boolinv.ideals import ideal
from boolinv.involution_words import (
    all_reduced_words,
    apply_letter,
    evaluate_word,
    is_reduced,
    rank,
    rank_profile,
    reduced_word,
    support,
)
from boolinv.permutations import (
    Involution,
    Permutation,
    compose,
    identity,
    parse_permutation,
    transposition,
)
from boolinv.work import ResourceLimitError
from oracles import (
    act_by_definition,
    descents_by_rank,
    inversion_count,
    reduced_word_by_rank,
    uniform_involution,
)


def test_apply_letter_examples():
    assert apply_letter(identity(2), 1) == parse_permutation("21")
    assert apply_letter(identity(4), 1) == parse_permutation("2134")
    # conjugation case: (1,3) under letter 3 becomes (1,4)
    assert apply_letter(parse_permutation("3214"), 3) == parse_permutation("4231")
    with pytest.raises(ValueError, match="out of range"):
        apply_letter(identity(4), 4)


def test_evaluate_word_examples():
    assert evaluate_word((), 5) == identity(5)
    assert evaluate_word((1, 3, 2), 4) == parse_permutation("3412")
    assert evaluate_word((1, 2, 3, 2), 4) == parse_permutation("4321")


def test_apply_letter_is_involutive():
    for n in range(2, 7):
        for w in involutions(n):
            for i in range(1, n):
                assert apply_letter(apply_letter(w, i), i) == w


def test_apply_letter_equals_validated_rebuild():
    for n in range(2, 8):
        for w in involutions(n):
            for i in range(1, n):
                acted = apply_letter(w, i)
                rebuilt = Involution(acted.word)
                assert type(acted) is Involution and isinstance(acted.word, tuple)
                assert acted == rebuilt and hash(acted) == hash(rebuilt)
                s = transposition(n, i, i + 1)
                conjugated = compose(s, compose(w, s))
                assert acted == (compose(w, s) if conjugated == w else conjugated)


def test_apply_letter_validates_other_inputs():
    assert type(apply_letter(Permutation((2, 1, 3)), 2)) is Involution
    # the message names the input word, not the word the letter made of it
    with pytest.raises(ValueError, match=r"not self-inverse: \(2, 3, 1\)"):
        apply_letter(Permutation((2, 3, 1)), 1)


def test_word_functions_validate_other_inputs():
    assert reduced_word(Permutation((2, 1, 3))) == (1,)
    # (3, 1, 2) has odd length + absolute length: validation precedes the rank
    for word in ((2, 3, 1), (1, 3, 4, 2), (3, 1, 2)):
        for function in (
            reduced_word, all_reduced_words, support, rank, rank_profile, ideal, is_boolean,
            repeat_free_word,
        ):
            with pytest.raises(ValueError, match=rf"not self-inverse: \({word[0]}, "):
                function(Permutation(word))


def test_apply_letter_changes_rank_by_one():
    for n in range(2, 7):
        for w in involutions(n):
            for i in range(1, n):
                assert abs(rank(apply_letter(w, i)) - rank(w)) == 1


def test_rank_profile_examples():
    assert rank_profile(identity(4)) == (0, 0, 0)
    assert rank_profile(parse_permutation("4321")) == (4, 6, 2)
    assert rank_profile(parse_permutation("321")) == (2, 3, 1)


def test_is_reduced_examples():
    assert is_reduced((1, 2, 3, 2), 4) is True
    assert is_reduced((1, 1), 4) is False
    assert is_reduced((1, 3, 2), 4) is True


def test_reduced_word_examples():
    assert reduced_word(identity(5)) == ()
    w = parse_permutation("4321")
    letters = reduced_word(w)
    assert len(letters) == 4 and evaluate_word(letters, 4) == w
    letters = reduced_word(parse_permutation("2143"))
    assert len(letters) == 2 and set(letters) == {1, 3}


def test_reduced_word_round_trips_and_has_rank_length():
    # support reads the direct-sum blocks, not the word
    for n in range(10):
        for w in involutions(n):
            letters = reduced_word(w)
            assert len(letters) == rank(w) and support(w) == frozenset(letters)
            assert evaluate_word(letters, n) == w


def test_reduced_word_matches_rank_oracle():
    for n in range(9):
        for w in involutions(n):
            assert reduced_word(w) == reduced_word_by_rank(w), w
    rng = random.Random(20261019)
    for _ in range(30):
        w = uniform_involution(rng.randrange(10, 31), rng)
        assert reduced_word(w) == reduced_word_by_rank(w), w


def test_all_reduced_words_examples():
    words = all_reduced_words(parse_permutation("4321"))
    assert words and all(len(set(word)) < len(word) for word in words)
    words = all_reduced_words(parse_permutation("3412"))
    assert words and all(set(word) == {1, 2, 3} for word in words)
    assert all_reduced_words(parse_permutation("21")) == {(1,)}


def test_all_reduced_words_guard():
    with pytest.raises(ResourceLimitError):
        all_reduced_words(evaluate_word(tuple(range(1, 14)), 14))


def test_support_examples():
    assert support(identity(4)) == frozenset()
    assert support(parse_permutation("2143")) == {1, 3}
    assert support(parse_permutation("4321")) == {1, 2, 3}


def test_support_is_word_independent_and_matches_order():
    from boolinv.ideals import bruhat_leq

    for n in range(1, 6):
        for w in involutions(n):
            words = all_reduced_words(w)
            letter_sets = {frozenset(word) for word in words}
            assert letter_sets == {support(w)}
            below = frozenset(
                i
                for i in range(1, n)
                if bruhat_leq(apply_letter(identity(n), i), w)
            )
            assert below == support(w)


def test_support_builds_no_reduced_word(monkeypatch):
    # the reversal of S_2000 has rank 10^6; its support is every letter
    def refuse(w):
        raise AssertionError("support built a reduced word")

    monkeypatch.setattr(involution_words, "reduced_word", refuse)
    assert support(Involution(tuple(range(2000, 0, -1)))) == frozenset(range(1, 2000))


def test_orbit_covers_all_involutions():
    # closing the identity under all letters reaches every involution
    for n in range(1, 8):
        reached = {identity(n)}
        frontier = [identity(n)]
        while frontier:
            new = []
            for w in frontier:
                for i in range(1, n):
                    u = apply_letter(w, i)
                    if u not in reached:
                        reached.add(u)
                        new.append(u)
            frontier = new
        assert reached == set(involutions(n))


def test_two_cycle_count_recovered_from_any_reduced_word():
    # multiplication steps along a reduced word count the 2-cycles
    for n in range(1, 7):
        for w in involutions(n):
            for letters in all_reduced_words(w):
                current = identity(n)
                multiplications = 0
                for i in letters:
                    after = apply_letter(current, i)
                    word = list(current.word)
                    word[i - 1], word[i] = word[i], word[i - 1]
                    if after.word == tuple(word):
                        multiplications += 1
                    current = after
                profile = rank_profile(w)
                assert multiplications == profile.absolute_length
                assert profile.coxeter_length == profile.absolute_length + 2 * (
                    len(letters) - multiplications
                )


def _first_descent_position(letters, n):
    current = identity(n)
    r = 0
    for position, i in enumerate(letters, start=1):
        current = apply_letter(current, i)
        new_rank = rank(current)
        if new_rank < r:
            return position
        r = new_rank
    return None


def test_deletion_property():
    """
    Every non-reduced word admits a two-letter deletion with the same
    evaluation.  Exhaustive over S_5 words of length <= 8: it is enough to
    find the deletion at the first rank drop of a word, since any common
    suffix extends an equality of evaluations.
    """
    n = 5
    checked = 0

    def descend(prefix, prefix_evals):
        nonlocal checked
        current = prefix_evals[-1]
        if len(prefix) >= 1 and rank(current) < rank(prefix_evals[-2]):
            # first rank drop: some earlier letter must be deletable
            # together with the last one
            target = current
            found = False
            for cut in range(len(prefix) - 1):
                candidate = prefix_evals[cut]
                for i in prefix[cut + 1 : -1]:
                    candidate = apply_letter(candidate, i)
                if candidate == target:
                    found = True
                    break
            assert found, f"no deletion pair for {prefix}"
            checked += 1
            return
        if len(prefix) == 8:
            return
        for i in range(1, n):
            descend(prefix + (i,), prefix_evals + [apply_letter(current, i)])

    descend((), [identity(n)])
    assert checked > 0


def test_random_long_words_satisfy_deletion_property():
    import random

    rng = random.Random(20260810)
    n = 5
    for _ in range(300):
        length = rng.choice([7, 8])
        letters = tuple(rng.randrange(1, n) for _ in range(length))
        if is_reduced(letters, n):
            continue
        target = evaluate_word(letters, n)
        assert any(
            evaluate_word(letters[:a] + letters[a + 1 : b] + letters[b + 1 :], n)
            == target
            for a in range(length)
            for b in range(a + 1, length)
        )


def test_descents_empty_only_for_identity():
    for n in range(1, 6):
        for w in involutions(n):
            rule = [i for i in range(1, n) if w(i) > w(i + 1)]
            assert (rule == []) == (w == identity(n))


def test_descents_match_rank_oracle():
    for n in range(10):
        for w in involutions(n):
            rule = [i for i in range(1, n) if w(i) > w(i + 1)]
            assert rule == descents_by_rank(w), w


def test_rank_matches_inversion_arithmetic():
    for n in range(8):
        for w in involutions(n):
            profile = rank_profile(w)
            assert profile.coxeter_length == inversion_count(w.word)
            assert 2 * profile.rank == profile.coxeter_length + profile.absolute_length


def test_evaluate_word_and_is_reduced_match_the_fold_by_definition():
    # every letter word of length <= 5, non-reduced ones included
    for n, length in product(range(1, 6), range(6)):
        for letters in product(range(1, n), repeat=length):
            w = identity(n)
            for i in letters:
                w = act_by_definition(w, i)
            evaluated = evaluate_word(letters, n)
            assert type(evaluated) is Involution and evaluated == w, letters
            assert is_reduced(letters, n) == (len(letters) == rank(w)), letters


@pytest.mark.parametrize(
    "letters, n, bad",
    [
        ((0, 1, 2), 4, 0),
        ((1, 4, 2), 4, 4),
        ((1, 2, 3, 2, -1), 4, -1),
        ((1,), 1, 1),
        ((0,), 1, 0),
        ((1,), 0, 1),
        ((-1,), 0, -1),
        # (1, 1) is already not reduced; the later letter still raises
        ((1, 1, 9), 4, 9),
    ],
)
def test_out_of_range_letter_raises_at_any_position(letters, n, bad):
    message = rf"^letter {bad} out of range \[1, {n - 1}\]$"
    for check in (evaluate_word, is_reduced):
        with pytest.raises(ValueError, match=message):
            check(letters, n)
        with pytest.raises(ValueError, match=message):
            check(iter(letters), n)


def _reduced_words_by_rank(w):
    if w == identity(w.n):
        return {()}
    return {
        word + (i,)
        for i in descents_by_rank(w)
        for word in _reduced_words_by_rank(apply_letter(w, i))
    }


def test_all_reduced_words_matches_search_over_rank_oracle():
    for n in range(7):
        for w in involutions(n):
            assert all_reduced_words(w) == _reduced_words_by_rank(w), w
