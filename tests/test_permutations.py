import random
from itertools import permutations as itertools_permutations, product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import boolinv
from boolinv.counting import (
    boolean_involutions, brute_totals, cross_validate, involutions, recurrence_totals,
    series_totals, signed_involutions)
from boolinv.involution_words import evaluate_word, is_reduced, rank_profile
from boolinv.motzkin import count_restricted
from boolinv.patterns import SignedPattern, format_signed, parse_signed_pattern
from boolinv.permutations import (
    CycleDecomposition,
    Involution,
    ParseError,
    Permutation,
    compose,
    conjugate,
    cycle_decomposition,
    excedance_profile,
    format_permutation,
    identity,
    inverse,
    inversion_count as direct_inversion_count,
    inversions,
    parse_permutation,
    sum_blocks,
    transposition,
)
from boolinv.selfcheck import run_selfcheck
from boolinv.signed import SignedInvolution, SignedPermutation, parse_signed
from oracles import (
    crossing_components,
    inversion_count,
    joined_format,
    is_permutation_word,
    is_self_inverse,
    is_signed_window,
)


def test_parse_worked_example():
    w = parse_permutation("5764132")
    assert w.word == (5, 7, 6, 4, 1, 3, 2)
    assert w(1) == 5 and w(7) == 2
    assert isinstance(w, Involution)


def test_parse_identity_and_comma_form():
    assert parse_permutation("1").word == (1,)
    big = parse_permutation("10,2,3,4,5,6,7,8,9,1")
    assert big.word == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    assert big == transposition(10, 1, 10)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("121", "duplicate value 1"),
        ("3,3,1", "duplicate value 3"),
        ("1,4,2", "value 4 out of range"),
        ("0", "bad character '0'"),
        ("1,,2", "empty token at position 2"),
        ("1,x,2", "bad token 'x'"),
        ("", "empty"),
    ],
)
def test_parse_errors_name_the_offender(text, fragment):
    with pytest.raises(ParseError, match=fragment.replace("(", "\\(")):
        parse_permutation(text)


def test_format_round_trips():
    for text in ["1", "4321", "5764132", "10,2,3,4,5,6,7,8,9,1"]:
        w = parse_permutation(text)
        assert parse_permutation(format_permutation(w)) == w


def test_format_matches_join_oracle():
    # one %-format per length below 65, the join above: every n in 0..70
    rng = random.Random(65)
    for n in range(71):
        shuffled = rng.sample(range(1, n + 1), n)
        for word in (tuple(shuffled), tuple(sorted(shuffled)), tuple(sorted(shuffled)[::-1])):
            assert format_permutation(Permutation(word)) == joined_format(word), word


@pytest.mark.parametrize("values", [(True,), (1.0,), (2, 1.0), ("1",), (1, False)])
def test_constructors_refuse_entries_that_are_not_int(values):
    # a bool formatted as "True" and a float failed with TypeError before
    with pytest.raises(ParseError, match="is not an int"):
        Permutation(values)
    with pytest.raises(ParseError, match="is not an int"):
        SignedPermutation(values)


@given(st.permutations(list(range(1, 9))))
def test_parse_format_roundtrip_random(word):
    w = Permutation(tuple(word))
    assert parse_permutation(format_permutation(w)).word == w.word


def test_involution_rejects_non_involution():
    with pytest.raises(ValueError, match="self-inverse"):
        Involution((2, 3, 1))


def test_inversions_examples():
    assert inversions(identity(5)) == (0, [])
    assert inversions(parse_permutation("321"))[0] == 3
    count, pairs = inversions(parse_permutation("3412"))
    assert count == inversion_count((3, 4, 1, 2)) == 4
    assert pairs == sorted(pairs)


def test_inversions_against_oracle():
    for word in itertools_permutations(range(1, 7)):
        assert inversions(Permutation(word))[0] == inversion_count(word)


def test_inversion_count_against_oracle():
    import random

    words = [w for n in range(8) for w in itertools_permutations(range(1, n + 1))]
    rng = random.Random(2143)
    words += [tuple(rng.sample(range(1, n + 1), n)) for n in (20, 64, 200) for _ in range(5)]
    for word in words:
        assert direct_inversion_count(Permutation(word)) == inversion_count(word)


def test_sum_blocks_are_crossing_components():
    for n in range(8):
        for word in itertools_permutations(range(1, n + 1)):
            assert tuple(sum_blocks(word)) == crossing_components(word)


def test_excedance_profile_examples():
    assert excedance_profile(identity(4)) == (frozenset(), frozenset(), frozenset({1, 2, 3, 4}))
    exc, defi, fix = excedance_profile(parse_permutation("4321"))
    assert (exc, defi, fix) == ({1, 2}, {3, 4}, frozenset())
    exc, defi, fix = excedance_profile(parse_permutation("5764132"))
    assert exc == {1, 2, 3} and defi == {5, 6, 7} and fix == {4}


def test_excedance_profile_partitions():
    for word in itertools_permutations(range(1, 7)):
        exc, defi, fix = excedance_profile(Permutation(word))
        assert exc | defi | fix == set(range(1, 7))
        assert sum(map(len, (exc, defi, fix))) == 6
    for n in range(10):
        for w in involutions(n):
            exc, defi, fix = excedance_profile(w)
            assert len(exc) + len(defi) + len(fix) == n


def test_cycle_decomposition_examples():
    assert cycle_decomposition(identity(3)) == CycleDecomposition(
        frozenset(), frozenset({1, 2, 3})
    )
    cycles, fixed = cycle_decomposition(parse_permutation("4321"))
    assert cycles == {frozenset({1, 4}), frozenset({2, 3})} and fixed == frozenset()
    cycles, fixed = cycle_decomposition(parse_permutation("5764132"))
    assert cycles == {frozenset({1, 5}), frozenset({2, 7}), frozenset({3, 6})}
    assert fixed == {4}


def test_cycle_count_equals_excedances():
    for w in involutions(7):
        assert len(cycle_decomposition(w).two_cycles) == len(
            excedance_profile(w).excedances
        )


def test_group_operations():
    w = parse_permutation("35142")
    assert compose(w, inverse(w)) == identity(5)
    assert compose(inverse(w), w) == identity(5)
    assert compose(parse_permutation("21"), parse_permutation("21")) == identity(2)
    assert conjugate(parse_permutation("1324"), (1, 2)) == parse_permutation("3214")
    with pytest.raises(ValueError, match="size mismatch"):
        compose(identity(3), identity(4))


def test_compose_associative():
    words = [(2, 1, 3), (3, 1, 2), (1, 3, 2)]
    u, v, w = (Permutation(x) for x in words)
    assert compose(compose(u, v), w) == compose(u, compose(v, w))


def test_length_rank_excedance_relation():
    # inversions = 2*rank - excedances on involutions
    for n in range(8):
        for w in involutions(n):
            profile = rank_profile(w)
            exc = len(excedance_profile(w).excedances)
            assert inversions(w)[0] == 2 * profile.rank - exc


def test_empty_permutation_is_legal():
    e = identity(0)
    assert e.n == 0 and e.word == ()
    assert inversions(e) == (0, [])


def test_streamed_involutions_equal_validated_ones():
    for n in range(9):
        for w in involutions(n):
            rebuilt = Involution(w.word)
            assert type(w) is Involution
            assert w == rebuilt and hash(w) == hash(rebuilt) and w.word == rebuilt.word
            assert isinstance(w.word, tuple) and w.is_involution()


def _outcome(build, arg):
    """What build(arg) returns, or the class of the ValueError it raises."""
    try:
        return build(arg)
    except ValueError as exc:
        return type(exc)


def test_constructors_and_parsers_accept_as_the_sorting_checks_did():
    # Every word of length <= 4 over -5..5, against oracle copies of the
    # checks each entry point made before they shared one validator.  The
    # parsers refuse the empty text too, and every refusal is a ParseError.
    for n in range(5):
        for values in product(range(-5, 6), repeat=n):
            perm, window = is_permutation_word(values), is_signed_window(values)
            involution = window and is_self_inverse(values)
            text = ",".join(map(str, values))
            for build, arg, accepted, kind in [
                (Permutation, values, perm, Permutation),
                (Involution, values, perm and involution, Involution),
                (parse_permutation, text, perm and n > 0,
                 Involution if involution else Permutation),
                (SignedPermutation, values, window, SignedPermutation),
                (SignedInvolution, values, involution, SignedInvolution),
                (parse_signed, text, window and n > 0,
                 SignedInvolution if involution else SignedPermutation),
            ]:
                got = _outcome(build, arg)
                if accepted:
                    assert type(got) is kind, (build, values, got)
                    assert getattr(got, "word", getattr(got, "window", None)) == values
                else:
                    refusal = ParseError if isinstance(arg, str) else ValueError
                    assert isinstance(got, type) and issubclass(got, refusal), (build, values)
    # the constructors now name the offender as the parsers do
    with pytest.raises(ParseError, match="duplicate value 1"):
        Permutation((1, 1))
    with pytest.raises(ParseError, match=r"value -3 out of range \[\+-2\]"):
        SignedPermutation((1, -3))


@pytest.mark.parametrize("n", [0, 9, 10, 64, 65, 2000])
def test_format_is_the_join_at_the_edges_of_the_old_fork(n):
    # the ends of the digit form and of the 65-entry format table it replaced
    rng = random.Random(n)
    shuffled = tuple(rng.sample(range(1, n + 1), n))
    for word in (shuffled, tuple(range(n, 0, -1))):
        text = format_permutation(Permutation(word))
        assert text == joined_format(word)
        if n:  # the empty word has no text to parse
            assert parse_permutation(text).word == word


@pytest.mark.parametrize("n", [1, 10, 65])
def test_format_signed_with_negative_entries(n):
    rng = random.Random(n)
    signs = [-1] + [rng.choice((-1, 1)) for _ in range(n - 1)]
    window = tuple(s * v for s, v in zip(signs, rng.sample(range(1, n + 1), n)))
    text = ",".join(map(str, window))
    assert format_signed(SignedPermutation(window)) == format_signed(SignedPattern(window)) == text
    assert parse_signed(text).window == parse_signed_pattern(text).window == window


SIZED = [
    identity,
    lambda n: evaluate_word((), n),
    lambda n: is_reduced((), n),
    count_restricted,
    lambda n: next(involutions(n)),
    lambda n: next(boolean_involutions(n)),
    lambda n: next(signed_involutions(n)),
    brute_totals,
    recurrence_totals,
    series_totals,
    cross_validate,
    run_selfcheck,
]


@pytest.mark.parametrize("build", SIZED)
@pytest.mark.parametrize(
    "n, message", [(-1, "negative size -1"), (2.5, "size 2.5 is not an int"),
                   (True, "size True is not an int")])
def test_bad_sizes_are_refused_everywhere(build, n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(n)


def test_text_and_size_rules_live_only_in_permutations():
    package = Path(boolinv.__file__).parent
    # ints are spelt as text only through permutations._format
    rules = {"%d": ["permutations.py"], "negative size": ["permutations.py"],
             "join(str(": [], "join(map(str": []}
    for rule, where in rules.items():
        sites = [p.name for p in sorted(package.glob("*.py")) if rule in p.read_text()]
        assert sites == where, rule
