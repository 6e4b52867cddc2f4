import random
from itertools import accumulate

import pytest

from boolinv.boolean import has_long_crossing
from boolinv.counting import (
    involutions, recurrence_inv_exc_counts, recurrence_rank_counts, series_inv_exc_counts,
    series_rank_counts)
from boolinv.involution_words import rank
from boolinv.motzkin import (
    STEP_RISE,
    MotzkinPath,
    axis_contacts,
    count_restricted,
    first_restriction_violation,
    format_path,
    involution_to_path,
    is_restricted,
    parse_path,
    path_to_involution,
    rank_from_path,
    restricted_path_rows,
    restricted_totals,
)
from boolinv.permutations import (
    Involution,
    ParseError,
    Permutation,
    excedance_profile,
    identity,
    inversions,
    parse_permutation,
)
from oracles import (
    checked_involution_to_path, full_slot_path_rows, inversion_count, motzkin_strings,
    restricted_strings, restricted_walks, three_pass_path_to_involution,
    three_term_total_recurrence, uniform_restricted_path)


def test_path_validation():
    assert MotzkinPath("UFD").heights() == (0, 1, 1, 0)
    with pytest.raises(ValueError, match="below the axis at step 1"):
        MotzkinPath("DU")
    with pytest.raises(ValueError, match="ends at height 2"):
        MotzkinPath("UU")
    with pytest.raises(ValueError, match="bad step 'X'"):
        MotzkinPath("UXD")


def test_parse_and_format():
    path = parse_path("uudd")
    assert path.steps == "UUDD"
    assert format_path(path) == "UUDD"
    with pytest.raises(ParseError):
        parse_path("UZ")


def test_involution_to_path_examples():
    assert involution_to_path(identity(5)).steps == "FFFFF"
    assert involution_to_path(parse_permutation("2143")).steps == "UDUD"
    path = involution_to_path(parse_permutation("4321"))
    assert path.steps == "UUDD"
    # restricted even though 4321 is not Boolean: the correspondence is
    # only injective on Boolean involutions
    assert is_restricted(path)
    assert path_to_involution(path) == parse_permutation("3412")


def test_path_to_involution_examples():
    assert path_to_involution(MotzkinPath("FFF")) == identity(3)
    assert path_to_involution(MotzkinPath("UD")) == parse_permutation("21")
    w = path_to_involution(MotzkinPath("UUDUDUDDF"))
    assert w == parse_permutation("351728469")
    assert {(i, w(i)) for i in range(1, 10) if w(i) > i} == {
        (1, 3),
        (2, 5),
        (4, 7),
        (6, 8),
    }


def test_path_to_involution_rejects_unrestricted():
    with pytest.raises(ValueError, match="height above 2 at step 3"):
        path_to_involution(MotzkinPath("UUUDDD"))
    with pytest.raises(ValueError, match="flat step above level 1 at step 3"):
        path_to_involution(MotzkinPath("UUFDD"))


def test_restriction_examples():
    assert is_restricted(MotzkinPath("UUDD"))
    assert is_restricted(MotzkinPath("UFD"))
    assert not is_restricted(MotzkinPath("UUFDD"))
    assert first_restriction_violation(MotzkinPath("UUDD")) is None
    assert first_restriction_violation(MotzkinPath("UFD")) is None
    assert first_restriction_violation(MotzkinPath("UUFDD")) == (3, "flat step above level 1")


def test_statistics_worked_example():
    path = MotzkinPath("UUDUDUDDF")
    assert axis_contacts(path) == 2
    assert rank_from_path(path) == 7
    assert path.steps.count("U") == 4
    w = path_to_involution(path)
    assert inversions(w)[0] == 2 * 7 - 4 == 10


def test_statistics_trivia():
    assert axis_contacts(MotzkinPath("FFFF")) == 4
    assert rank_from_path(MotzkinPath("FFFF")) == 0
    assert axis_contacts(MotzkinPath("UD")) == 1
    assert rank_from_path(MotzkinPath("UD")) == 1
    with pytest.raises(ValueError, match="not restricted"):
        rank_from_path(MotzkinPath("UUUDDD"))


def test_count_restricted_examples():
    assert count_restricted(0) == 1
    assert count_restricted(3) == 4
    assert count_restricted(4) == 9
    with pytest.raises(ValueError):
        count_restricted(-1)


def test_count_restricted_against_enumeration():
    for n in range(9):
        assert count_restricted(n) == len(restricted_strings(n))


def test_round_trip_on_restricted_paths():
    for n in range(9):
        for steps in restricted_strings(n):
            path = MotzkinPath(steps)
            w = path_to_involution(path)
            assert not has_long_crossing(w)
            assert involution_to_path(w).steps == steps


def test_statistic_transport():
    for n in range(9):
        for w in involutions(n):
            path = involution_to_path(w)
            exc = len(excedance_profile(w).excedances)
            assert path.steps.count("U") == exc
            assert path.steps.count("D") == len(excedance_profile(w).deficiencies)
            if not has_long_crossing(w):
                assert rank_from_path(path) == rank(w)
                assert inversions(w)[0] == 2 * rank(w) - exc


def test_statistic_transport_on_sampled_paths_past_the_brute_sizes():
    # uniform restricted paths at n = 20, 50 and 100, where no table cell
    # is checked against the involutions it counts: each path's involution
    # has (inversions, excedances) = (2n - 2r - u, u), with r returns to the
    # axis and u up steps read off the path, and its f and g cells are
    # nonzero, and equal, by the recurrence and by the gf route
    f_tables = recurrence_inv_exc_counts(100), series_inv_exc_counts(100)
    g_tables = recurrence_rank_counts(100), series_rank_counts(100)
    rng = random.Random(23)
    for n in (20, 50, 100):
        for _ in range(20):
            steps = uniform_restricted_path(n, rng)
            word = path_to_involution(MotzkinPath(steps)).word
            inv = inversion_count(word)
            exc = sum(1 for i, v in enumerate(word, start=1) if v > i)
            heights = list(accumulate(STEP_RISE[step] for step in steps))
            r, u = heights.count(0), steps.count("U")
            assert (inv, exc) == (2 * n - 2 * r - u, u), steps
            f_cells = [table.get((n, inv, exc), 0) for table in f_tables]
            g_cells = [table.get((n, (inv + exc) // 2), 0) for table in g_tables]
            assert f_cells[0] == f_cells[1] > 0 and g_cells[0] == g_cells[1] > 0, steps


def test_motzkin_paths_cover_all_involutions():
    # every involution yields a valid Motzkin path, restricted or not
    for n in range(8):
        paths = {involution_to_path(w).steps for w in involutions(n)}
        assert paths <= set(motzkin_strings(n))


def test_restricted_totals_are_the_path_row_sums():
    totals = list(restricted_totals(40))
    assert totals == list(three_term_total_recurrence(40).values())
    assert totals[:9] == [len(restricted_strings(n)) for n in range(1, 10)]
    for ups in (True, False):
        assert [sum(counts) for _, _, counts in restricted_path_rows(40, ups)] == totals
    assert list(restricted_totals(0)) == []


@pytest.mark.parametrize("n_max", [*range(61), 100, 176])
def test_windowed_path_rows_match_the_full_slot_rows(n_max):
    """Each row read through its window of the slot order, 2r + u <= 2n,
    against every slot ordered and compressed: every n_max to 60, where the
    slots widen from 1 to 9 bytes, and 100 and 176, the f edge of the
    `work` guard."""
    for ups in (True, False):
        assert list(restricted_path_rows(n_max, ups)) == list(full_slot_path_rows(n_max, ups))


def test_involution_to_path_refuses_a_non_involution():
    # 2413's steps form a Motzkin path, which maps back to 3412, not to it
    w = Permutation((2, 4, 1, 3))
    assert checked_involution_to_path(w).steps == "UUDD"
    assert path_to_involution(MotzkinPath("UUDD")) == parse_permutation("3412")
    with pytest.raises(ValueError, match="not self-inverse"):
        involution_to_path(w)
    assert involution_to_path(Permutation((2, 1, 3))).steps == "UDF"


def test_involution_to_path_matches_the_validating_oracle():
    for n in range(10):
        for w in involutions(n):
            path = involution_to_path(w)
            assert path == checked_involution_to_path(w)
            assert vars(path) == vars(MotzkinPath(path.steps))


def test_path_to_involution_matches_the_three_pass_oracle():
    for n in range(9):
        assert sorted(restricted_walks(n)) == sorted(restricted_strings(n))
    for n in range(13):
        for steps in restricted_walks(n):
            path = MotzkinPath(steps)
            w = path_to_involution(path)
            assert w == three_pass_path_to_involution(path)
            assert type(w) is Involution and vars(w) == vars(Involution(w.word))
            assert involution_to_path(w).steps == steps
            assert first_restriction_violation(path) is None


def test_unrestricted_paths_raise_the_oracle_message():
    for n in range(9):
        for steps in sorted(set(motzkin_strings(n)) - set(restricted_strings(n))):
            path = MotzkinPath(steps)
            with pytest.raises(ValueError) as expected:
                three_pass_path_to_involution(path)
            with pytest.raises(ValueError) as raised:
                path_to_involution(path)
            assert str(raised.value) == str(expected.value)
            index, reason = first_restriction_violation(path)
            assert str(expected.value) == f"path not restricted: {reason} at step {index}"


def test_round_trip_calls_no_validating_constructor(monkeypatch):
    paths = [MotzkinPath(steps) for n in range(10) for steps in restricted_walks(n)]

    def refuse(*args, **kwargs):
        raise AssertionError("validating constructor called inside the bijection")

    monkeypatch.setattr(MotzkinPath, "__post_init__", refuse)
    monkeypatch.setattr(Involution, "__post_init__", refuse)
    for path in paths:
        assert involution_to_path(path_to_involution(path)) == path
