"""The guard table: each guard's edge, the refusal before any work, and the
one place that raises ResourceLimitError."""
from pathlib import Path

import pytest

from boolinv import counting, ideals, involution_words, series, work
from boolinv.counting import (
    boolean_involutions,
    brute_inv_exc_counts,
    brute_totals,
    involutions,
    recurrence_inv_exc_counts,
    recurrence_rank_counts,
    recurrence_totals,
    series_inv_exc_counts,
    series_rank_counts,
    series_totals,
    signed_involutions,
)
from boolinv.ideals import ideal
from boolinv.involution_words import all_reduced_words, evaluate_word, rank
from boolinv.permutations import Involution
from boolinv.work import LIMITS, ResourceLimitError, refuse


def swap_ends(n):
    """(1 n), Boolean of rank n - 1: its ideal has 2^(n - 1) elements."""
    return Involution((n,) + tuple(range(2, n)) + (1,))


def rank_12_admitted():
    w = evaluate_word(range(1, 13), 13)
    assert rank(w) == 12
    # all_reduced_words on it would run for hours, so only its guard runs
    refuse("words", [rank(w)], "rank 12")


# guard, a call at its largest admitted input, one at its first refused
# input, and the work that input predicts.  f and g at their edges fill for
# seconds, so their admission is checked by the guard the routes call first.
EDGES = [
    pytest.param(
        "stream", lambda: next(involutions(14)), lambda: next(involutions(15)), 15,
        id="stream 14/15"),
    pytest.param(
        "signed", lambda: next(signed_involutions(7)), lambda: next(signed_involutions(8)), 8,
        id="signed 7/8"),
    pytest.param(
        "brute", lambda: brute_totals(15), lambda: brute_totals(16), 147494,
        id="brute 15/16"),
    pytest.param(
        "work", lambda: counting._check_table_work("f", 176),
        lambda: series_inv_exc_counts(177), 321350028, id="f 176/177"),
    pytest.param(
        "work", lambda: counting._check_table_work("g", 907),
        lambda: recurrence_rank_counts(908), 318669595, id="g 907/908"),
    pytest.param(
        "work", lambda: recurrence_totals(22360), lambda: series_totals(22361), 318034599,
        id="h 22360/22361"),
    pytest.param(
        "ideal", lambda: ideal(swap_ends(14)), lambda: ideal(swap_ends(21)), 2**13 + 1,
        id="ideal (1 14)/(1 21)"),
    pytest.param(
        "words", rank_12_admitted, lambda: all_reduced_words(evaluate_word(range(1, 14), 14)),
        13, id="words 12/13"),
]


@pytest.mark.parametrize("guard, admitted, refused, predicted", EDGES)
def test_guard_edges(guard, admitted, refused, predicted):
    admitted()
    with pytest.raises(ResourceLimitError) as caught:
        refused()
    limit, unit = LIMITS[guard]
    exc = caught.value
    assert (exc.guard, exc.predicted, exc.limit) == (guard, predicted, limit)
    assert str(exc).endswith(f" exceeds {guard} guard {limit} ({unit})")


def _worked(*args, **kwargs):
    raise AssertionError("worked past the guard")


# the module and name of the first worker each refused call would reach
BEFORE_WORK = [
    pytest.param(counting, "_walk", lambda: next(involutions(15)), id="stream"),
    pytest.param(counting, "_walk", lambda: next(boolean_involutions(15)), id="boolean stream"),
    pytest.param(
        counting, "_trusted_signed_involution", lambda: next(signed_involutions(8)),
        id="signed"),
    pytest.param(counting, "_boolean_leaves", lambda: brute_inv_exc_counts(16), id="brute"),
    pytest.param(
        counting, "restricted_path_rows", lambda: recurrence_inv_exc_counts(177),
        id="recurrence f"),
    pytest.param(
        counting, "restricted_path_rows", lambda: recurrence_rank_counts(908),
        id="recurrence g"),
    pytest.param(
        counting, "restricted_totals", lambda: recurrence_totals(22361), id="recurrence h"),
    pytest.param(series, "expand_rational", lambda: series_inv_exc_counts(177), id="gf f"),
    pytest.param(series, "expand_rational", lambda: series_rank_counts(908), id="gf g"),
    pytest.param(series, "expand_rational", lambda: series_totals(22361), id="gf h"),
    # the reversal of S_182 has rank (16471 + 91) / 2 = 8281: a chain of
    # its ideal alone passes the guard
    pytest.param(
        ideals, "reduced_word", lambda: ideal(Involution(tuple(range(182, 0, -1)))),
        id="ideal"),
    pytest.param(
        involution_words, "_act_into",
        lambda w=evaluate_word(range(1, 14), 14): all_reduced_words(w), id="words"),
]


@pytest.mark.parametrize("module, worker, refused", BEFORE_WORK)
def test_guards_refuse_before_any_work(monkeypatch, module, worker, refused):
    monkeypatch.setattr(module, worker, _worked)
    with pytest.raises(ResourceLimitError):
        refused()


def test_resource_limit_error_is_raised_only_in_work():
    # every refusal goes through `work.refuse`, so that no guard bypasses the table
    package = Path(work.__file__).parent
    sites = [p.name for p in sorted(package.glob("*.py")) if "ResourceLimitError(" in p.read_text()]
    assert sites == ["work.py"]
