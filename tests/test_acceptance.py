"""
Acceptance suite: one test per criterion, each printing a PASS/FAIL line.
Everything here is exact; no tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""
from boolinv.boolean import is_boolean, long_crossing_pairs
from boolinv.counting import cross_validate, involutions, signed_involutions
from boolinv.involution_words import evaluate_word, rank
from boolinv.motzkin import MotzkinPath, count_restricted, involution_to_path, path_to_involution
from boolinv.patterns import is_induced, occurrences
from boolinv.permutations import parse_permutation
from boolinv.selfcheck import check_criteria_agree, check_ideals, check_motzkin, check_signed
from boolinv.series import merge_rows, total_series
from oracles import restricted_strings


def _report(criterion: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {description}")
    assert not failures, f"criterion {criterion}: {failures[:5]}"


def _failures(*checks):
    return [check.line() for check in checks if not check.passed]


def test_criterion_1_booleanness_criteria_agree():
    total = sum(1 for n in range(10) for _ in involutions(n))
    assert total == 1 + 1 + 2 + 4 + 10 + 26 + 76 + 232 + 764 + 2620
    _report(
        1,
        "pattern, long-crossing and word criteria agree for n <= 9; poset for n <= 7",
        _failures(check_criteria_agree(9, 7)),
    )


def test_criterion_2_base_cell_formulas(brute_table_12):
    failures = []
    for n in range(1, 11):
        if brute_table_12.get((n, 0, 0), 0) != 1:
            failures.append((n, 0, 0))
        if n >= 2 and brute_table_12.get((n, 1, 1), 0) != n - 1:
            failures.append((n, 1, 1))
        if n >= 4 and brute_table_12.get((n, 2, 2), 0) != (n * n - 5 * n + 6) // 2:
            failures.append((n, 2, 2))
    if brute_table_12.get((3, 3, 1), 0) != 1:
        failures.append((3, 3, 1))
    _report(2, "brute-force table reproduces all base-cell formulas, n <= 10", failures)


def test_criterion_3_three_way_count_agreement():
    _report(
        3,
        "brute = recurrence = series for f, g and h, and paths = totals, n <= 10",
        _failures(*cross_validate(10).checks),
    )


def test_criterion_4_total_series(brute_totals_12):
    failures = []
    series = merge_rows(total_series(12))
    if [series.get((k,), 0) for k in range(1, 5)] != [1, 2, 4, 9]:
        failures.append("series does not start 1, 2, 4, 9")
    for n in range(1, 13):
        if series.get((n,), 0) != brute_totals_12[n]:
            failures.append((n, series.get((n,), 0), brute_totals_12[n]))
    _report(4, "total generating function starts 1,2,4,9 and matches brute force to n=12", failures)


def test_criterion_5_motzkin_bijection(brute_totals_12):
    failures = _failures(check_motzkin(10))
    for n in range(11):
        for steps in restricted_strings(n):
            if involution_to_path(path_to_involution(MotzkinPath(steps))).steps != steps:
                failures.append(("path round trip", steps))
    for n in range(1, 13):
        if count_restricted(n) != brute_totals_12[n]:
            failures.append(("restricted count vs totals", n))
    _report(5, "Motzkin correspondence round-trips with correct statistics, counts to n=12", failures)


def test_criterion_6_signed_agreement():
    totals = sum(1 for n in range(1, 6) for _ in signed_involutions(n))
    assert totals == 2 + 6 + 20 + 76 + 312
    _report(
        6,
        "signed criteria agree for n <= 5; embedding action law holds for n <= 4",
        _failures(check_signed(5, 4)),
    )


def test_criterion_7_structural_invariants():
    _report(
        7,
        "ideals: subword = filter, order = bruhat_leq (so graded) and 2^rank sizes"
        " (n <= 7), component product (n <= 6)",
        _failures(check_ideals(7, 6)),
    )


def test_criterion_8_worked_examples():
    failures = []
    w = parse_permutation("5764132")
    if long_crossing_pairs(w)[0] != (1, 2) or is_boolean(w).is_boolean:
        failures.append("5764132 long-crossing")
    host = parse_permutation("84725631")
    by_values = {
        occ.values: occ for occ in occurrences(host, parse_permutation("4231"))
    }
    if (8, 5, 6, 1) not in by_values or not is_induced(host, by_values[(8, 5, 6, 1)]):
        failures.append("(8,5,6,1) should be an induced occurrence")
    if (8, 4, 5, 3) not in by_values or is_induced(host, by_values[(8, 4, 5, 3)]):
        failures.append("(8,4,5,3) should be a non-induced occurrence")
    top = evaluate_word((1, 2, 3, 2), 4)
    if top != parse_permutation("4321") or rank(top) != 4:
        failures.append("word 1,2,3,2 should evaluate to 4321 at rank 4")
    _report(8, "worked examples: 5764132, 84725631 occurrences, word 1,2,3,2", failures)
