import pytest

from boolinv import boolean, counting, patterns, signed
from boolinv.boolean import InvariantViolationError
from boolinv.counting import signed_involutions
from boolinv.involution_words import evaluate_word
from boolinv.patterns import SIGNED_FORBIDDEN_PATTERNS, avoids_all, parse_signed_pattern
from boolinv.permutations import Involution, ParseError, identity, parse_permutation
from boolinv.signed import (
    EmbeddedPermutation,
    SignedInvolution,
    apply_letter_signed,
    embed,
    format_signed,
    is_boolean_signed,
    parse_signed,
    signed_identity,
)
from oracles import signed_pattern_occurrences


def test_parse_examples():
    w = parse_signed("-1,-2")
    assert w.window == (-1, -2) and w(1) == -1 and w(-2) == 2
    assert isinstance(w, SignedInvolution)
    assert parse_signed("1,2,3") == signed_identity(3)
    assert parse_signed("2,1,-3").window == (2, 1, -3)


@pytest.mark.parametrize(
    "text, fragment",
    [("1,1", "duplicate absolute value 1"), ("3,1", "value 3 out of range"),
     ("0,1", "value 0"), ("1,,2", "empty token"), ("a", "bad token 'a'")],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_signed(text)


def test_format_round_trips():
    for text in ["-1,-2", "2,1,-3", "1,2,3", "-3,1,-2"]:
        assert format_signed(parse_signed(text)) == text


def test_signed_involution_validation():
    with pytest.raises(ValueError, match="self-inverse"):
        SignedInvolution((2, -1))  # this is a 4-cycle on [+-2]
    assert parse_signed("-2,-1").is_involution()


def test_verdict_trusts_the_signed_involution_type(monkeypatch):
    w = parse_signed("2,1,-3")
    expected = is_boolean_signed(w, "all")
    with pytest.raises(ValueError, match="not an involution"):
        is_boolean_signed(signed.SignedPermutation((2, -1)))

    def refuse(self):
        raise AssertionError("is_involution re-run on a SignedInvolution")

    monkeypatch.setattr(signed.SignedPermutation, "is_involution", refuse)
    assert is_boolean_signed(w, "all") == expected


def test_embed_examples():
    assert embed(parse_signed("-1")).perm == parse_permutation("21")
    assert embed(parse_signed("-1,-2")).perm == parse_permutation("4321")
    assert embed(signed_identity(3)).perm == identity(6)


def test_embed_preserves_structure():
    for n in range(1, 5):
        for w in signed_involutions(n):
            image = embed(w)
            assert image.perm.is_involution()
            m = 2 * n
            assert all(
                image.perm(m + 1 - i) == m + 1 - image.perm(i) for i in range(1, m + 1)
            )


def test_embedded_permutation_rejects_asymmetric():
    with pytest.raises(ValueError, match="centrally symmetric"):
        EmbeddedPermutation(parse_permutation("2134"))


def test_generators():
    # the letter i acts on the identity as the generator s_i
    e = signed_identity(3)
    assert apply_letter_signed(e, 0).window == (-1, 2, 3)
    assert apply_letter_signed(e, 1).window == (2, 1, 3)
    assert apply_letter_signed(e, 2).window == (1, 3, 2)
    with pytest.raises(ValueError, match="out of range"):
        apply_letter_signed(e, 3)


def test_apply_letter_signed_trusts_the_signed_involution_type(monkeypatch):
    elements = [w for n in range(1, 5) for w in signed_involutions(n)]
    expected = [[apply_letter_signed(w, i) for i in range(w.n)] for w in elements]
    with pytest.raises(ValueError, match="not an involution"):
        apply_letter_signed(signed.SignedPermutation((2, -1)), 0)
    untyped = signed.SignedPermutation((2, 1, -3))
    assert apply_letter_signed(untyped, 1) == apply_letter_signed(parse_signed("2,1,-3"), 1)

    def refuse(self):
        raise AssertionError("is_involution re-run on a SignedInvolution")

    monkeypatch.setattr(signed.SignedPermutation, "is_involution", refuse)
    assert [[apply_letter_signed(w, i) for i in range(w.n)] for w in elements] == expected


def test_apply_letter_signed_examples():
    e = signed_identity(3)
    assert apply_letter_signed(e, 0).window == (-1, 2, 3)
    assert apply_letter_signed(e, 1).window == (2, 1, 3)
    for i in range(2):
        w = parse_signed("-1,-2")
        assert apply_letter_signed(apply_letter_signed(w, i), i) == w


def test_action_law_on_examples():
    # embedding intertwines the signed action with the classical action
    from boolinv.involution_words import apply_letter

    w = parse_signed("-1,-2")
    n = w.n
    image = Involution(embed(w).perm.word)
    acted0 = embed(apply_letter_signed(w, 0)).perm
    assert acted0 == apply_letter(image, n)
    # letter 1 on -1,-2: both mirror conjugates move the image the same
    # way, so a single classical letter suffices
    acted1 = embed(apply_letter_signed(w, 1)).perm
    assert acted1 == apply_letter(image, n + 1)
    # letter 1 on the identity commutes, so both classical letters act
    e = signed_identity(2)
    acted = embed(apply_letter_signed(e, 1)).perm
    assert acted == apply_letter(apply_letter(identity(4), 3), 1)
    assert acted == parse_permutation("2143")


def test_orbit_of_identity_is_all_signed_involutions():
    for n in range(1, 5):
        reached = {signed_identity(n)}
        frontier = [signed_identity(n)]
        while frontier:
            new = []
            for w in frontier:
                for i in range(n):
                    u = apply_letter_signed(w, i)
                    if u not in reached:
                        reached.add(u)
                        new.append(u)
            frontier = new
        assert reached == set(signed_involutions(n))


def test_is_boolean_signed_examples():
    assert is_boolean_signed(parse_signed("-1,-2")).is_boolean is False
    assert is_boolean_signed(parse_signed("-1")).is_boolean is True
    assert is_boolean_signed(parse_signed("2,1")).is_boolean is True
    with pytest.raises(ValueError, match="unknown method"):
        is_boolean_signed(parse_signed("-1"), "guess")


def test_is_boolean_signed_witnesses():
    verdict = is_boolean_signed(parse_signed("-1,-2"))
    assert verdict.pattern.window == (-1, -2)
    assert verdict.occurrence.values == (-1, -2)
    assert verdict.long_crossing_pair is not None
    verdict = is_boolean_signed(parse_signed("2,1"))
    assert verdict.word is not None
    image = Involution(embed(parse_signed("2,1")).perm.word)
    assert evaluate_word(verdict.word, 4) == image


def test_methods_agree_small():
    for n in range(1, 5):
        for w in signed_involutions(n):
            a = is_boolean_signed(w, "embedding").is_boolean
            b = is_boolean_signed(w, "signed_patterns").is_boolean
            assert a == b
            assert is_boolean_signed(w, "all").is_boolean == a


def test_methods_agree_to_n8(monkeypatch):
    # the sixteen windows against the embedding on every signed involution
    # with 5 <= n <= 8 (312 + 1384 + 6512 + 32400), past the stream's guard;
    # 5,-4,6,-2,1,3 is never the witness (see test_dropping_a_window_is_seen)
    monkeypatch.setattr(counting, "MAX_SIGNED_STREAM_N", 8)
    for n in (5, 6, 7, 8):
        for w in signed_involutions(n):
            # raises on disagreement
            assert is_boolean_signed(w, "all").pattern != SIGNED_FORBIDDEN_PATTERNS[-1]


@pytest.mark.slow
def test_methods_agree_n9(monkeypatch):
    # 168,992 signed involutions; run by `pytest -m slow`
    monkeypatch.setattr(counting, "MAX_SIGNED_STREAM_N", 9)
    for w in signed_involutions(9):
        is_boolean_signed(w, "all")


# 5,-4,3,-2,1 and 5,-4,6,-2,1,3 each contain 4,-3,-2,1 at these positions;
# every other window, taken as a host, contains no other listed window.
NOT_MINIMAL = {"5,-4,3,-2,1": (1, 2, 4, 5), "5,-4,6,-2,1,3": (1, 2, 4, 5)}


def test_window_list_structure():
    for p in SIGNED_FORBIDDEN_PATTERNS:
        host = parse_signed(format_signed(p))
        assert isinstance(host, SignedInvolution)
        assert not is_boolean_signed(host).is_boolean
        contained = {
            format_signed(q): signed_pattern_occurrences(p.window, q.window)
            for q in SIGNED_FORBIDDEN_PATTERNS if q != p
        }
        contained = {text: occs for text, occs in contained.items() if occs}
        if format_signed(p) in NOT_MINIMAL:
            assert contained == {"4,-3,-2,1": [NOT_MINIMAL[format_signed(p)]]}
        else:
            assert contained == {}


@pytest.mark.parametrize("dropped", range(len(SIGNED_FORBIDDEN_PATTERNS)))
def test_dropping_a_window_is_seen(monkeypatch, dropped):
    # A minimal window, dropped from the list, leaves its own host with no
    # signed witness, so the two criteria disagree.  The host 5,-4,3,-2,1
    # is then named by 4,-3,-2,1 instead.  5,-4,6,-2,1,3 is never a first
    # hit: every host containing it contains 4,-3,-2,1, listed before it,
    # so dropping it changes no verdict at all.
    p = SIGNED_FORBIDDEN_PATTERNS[dropped]
    host = parse_signed(format_signed(p))
    rest = SIGNED_FORBIDDEN_PATTERNS[:dropped] + SIGNED_FORBIDDEN_PATTERNS[dropped + 1:]
    monkeypatch.setattr(signed, "SIGNED_FORBIDDEN_PATTERNS", rest)
    if format_signed(p) not in NOT_MINIMAL:
        with pytest.raises(InvariantViolationError, match="signed patterns say True"):
            is_boolean_signed(host, "all")
        return
    verdict = is_boolean_signed(host, "all")
    assert verdict.pattern == parse_signed_pattern("4,-3,-2,1")
    assert verdict.occurrence.positions == NOT_MINIMAL[format_signed(p)]


def test_avoids_all_signed_dispatch():
    assert avoids_all(parse_signed("1,2"), SIGNED_FORBIDDEN_PATTERNS) is True
    assert avoids_all(parse_signed("-1,-2"), SIGNED_FORBIDDEN_PATTERNS) is False


@pytest.mark.parametrize("method", ["signed_patterns", "all"])
def test_signed_pattern_search_runs_once(monkeypatch, method):
    calls = []
    search = boolean.first_occurrence
    for module in (boolean, signed):
        monkeypatch.setattr(
            module, "first_occurrence", lambda w, ps: calls.append(w) or search(w, ps)
        )
    verdict = is_boolean_signed(parse_signed("1,5,3,-4,2"), method)
    assert verdict.pattern == parse_signed_pattern("4,2,-3,1")
    assert len(calls) == 1
    assert is_boolean_signed(parse_signed("-5,2,3,4,-1"), method).is_boolean
    assert len(calls) == 2


def test_signed_all_raises_when_routes_disagree(monkeypatch):
    monkeypatch.setattr(signed, "first_long_crossing_pair", lambda w: (1, 3))
    expected = "embedding says False, signed patterns say True"
    with pytest.raises(InvariantViolationError, match=expected):
        is_boolean_signed(parse_signed("2,1"), "all")


def test_signed_host_is_split_once_per_verdict(monkeypatch):
    # a Boolean host tries all 16 windows on one split
    splits, windows = [], []
    split, search = patterns._split_signs, patterns._signed_positions
    monkeypatch.setattr(
        patterns, "_split_signs", lambda window: splits.append(window) or split(window))
    monkeypatch.setattr(
        patterns, "_signed_positions", lambda host, p: windows.append(p) or search(host, p))
    w = parse_signed("-5,2,3,4,-1")
    assert is_boolean_signed(w, "signed_patterns").is_boolean
    assert splits == [w.window]
    assert windows == [p.window for p in SIGNED_FORBIDDEN_PATTERNS]


def test_signed_window_shapes_computed_once():
    patterns._window_shape.cache_clear()
    hosts = [parse_signed("-5,2,3,4,-1"), parse_signed("2,1")]  # Boolean: all 16 windows tried
    for _ in range(3):
        for w in hosts:
            assert is_boolean_signed(w, "signed_patterns").is_boolean
    info = patterns._window_shape.cache_info()
    assert info.misses == len(SIGNED_FORBIDDEN_PATTERNS)
    assert info.hits == 5 * len(SIGNED_FORBIDDEN_PATTERNS)


def test_signed_verdicts_build_no_permutation(monkeypatch):
    expected = {w: is_boolean_signed(w, "all") for n in range(6) for w in signed_involutions(n)}

    def refuse(*args):
        raise AssertionError("Permutation built inside a signed search")

    monkeypatch.setattr(patterns, "Permutation", refuse)
    for w, verdict in expected.items():
        assert is_boolean_signed(w, "all") == verdict
