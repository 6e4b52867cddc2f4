import json
import sys

import pytest

from boolinv import counting, motzkin, series
from boolinv.cli import _TABLE_COLUMNS
from boolinv.boolean import InvariantViolationError
from boolinv.counting import (
    CheckResult,
    CrossValidationReport,
    boolean_involutions,
    brute_inv_exc_counts,
    brute_rank_counts,
    brute_totals,
    cross_validate,
    involutions,
    rank_counts_from_inv_exc,
    recurrence_inv_exc_counts,
    recurrence_rank_counts,
    recurrence_totals,
    series_inv_exc_counts,
    series_rank_counts,
    series_totals,
    signed_involutions,
    table_to_json,
    table_to_tsv,
    totals_from_rank_counts,
)
from boolinv.series import inv_exc_series, merge_rows, rank_series, total_series
from boolinv.work import ResourceLimitError
from oracles import (
    dense_expand_rows,
    per_cell_table_rows,
    filtered_boolean_words,
    filtered_inv_exc_counts,
    four_term_rank_recurrence,
    full_range_recurrence_inv_exc,
    leaf_counts,
    nested_involution_words,
    nested_signed_windows,
    per_size_walk_inv_exc_counts,
    pruned_boolean_words,
    sorted_signed_windows,
    three_term_total_recurrence,
)

INVOLUTION_COUNTS = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620]
SIGNED_COUNTS = [2, 6, 20, 76, 312, 1384]


def test_involution_stream_counts_and_order():
    for n, expected in enumerate(INVOLUTION_COUNTS):
        elements = list(involutions(n))
        assert len(elements) == expected
        words = [w.word for w in elements]
        assert words == sorted(words)
        assert len(set(words)) == expected


def test_involution_stream_guard():
    with pytest.raises(ResourceLimitError):
        next(involutions(15))
    with pytest.raises(ValueError, match="bad shard"):
        next(involutions(4, 3, 2))


def test_involution_stream_sharding():
    full = [w.word for w in involutions(6)]
    for num_shards in (2, 3, 5):
        shards = [
            [w.word for w in involutions(6, shard, num_shards)]
            for shard in range(num_shards)
        ]
        merged = [w for shard in shards for w in shard]
        assert sorted(merged) == full
        assert sum(len(s) for s in shards) == len(full)


def test_walk_matches_nested_stream():
    for n in range(11):
        expected = nested_involution_words(n)
        assert [w.word for w in involutions(n)] == expected
        assert [(index, tuple(word)) for index, word in counting._walk(n)] == list(
            enumerate(expected)
        )


def test_pruned_walk_matches_filtered_stream():
    for n in range(12):
        expected = filtered_boolean_words(n)
        assert [(index, tuple(word)) for index, word in counting._walk(n, pruned=True)] == expected
        assert [w.word for w in boolean_involutions(n)] == [w for _, w in expected]


def test_pruned_oracle_matches_filtered_stream():
    """The per-size oracle of the brute tables, which reads no walk of the
    library, against the filtered stream."""
    for n in range(11):
        assert list(pruned_boolean_words(n)) == [word for _, word in filtered_boolean_words(n)]


def test_boolean_leaves_match_rescanned_filtered_stream():
    """The statistics the leaf walk carries, against each Boolean word
    rescanned, key order included."""
    for n in range(13):
        expected = leaf_counts(word for _, word in filtered_boolean_words(n))
        assert list(counting._boolean_leaves(n).items()) == list(expected.items())


def test_shards_match_oracles():
    for n in range(10):
        full = nested_involution_words(n)
        booleans = filtered_boolean_words(n)
        for num_shards in (2, 3, 5):
            for shard in range(num_shards):
                assert [w.word for w in involutions(n, shard, num_shards)] == full[
                    shard::num_shards
                ]
                assert [w.word for w in boolean_involutions(n, shard, num_shards)] == [
                    w for index, w in booleans if index % num_shards == shard
                ]
    with pytest.raises(ResourceLimitError):
        next(boolean_involutions(15))
    with pytest.raises(ValueError, match="bad shard"):
        next(boolean_involutions(4, 2, 2))


@pytest.mark.parametrize("stream", [involutions, boolean_involutions, signed_involutions])
def test_streams_refuse_shards_that_are_not_ints(stream):
    # range checks alone take some of these, and a float modulus or offset silently
    # drops elements
    for shard, num_shards in [(0, 1.5), (0.5, 2), (True, 2), (0, True), (0, "2")]:
        with pytest.raises(ValueError, match="^bad shard "):
            next(stream(4, shard, num_shards))


def test_brute_tables_match_per_size_walks():
    """The one walk of S_{n_max} against a walk of each size, cell order
    included."""
    per_size = per_size_walk_inv_exc_counts(13)
    for n_max in range(14):
        expected = {key: count for key, count in per_size.items() if key[0] <= n_max}
        _assert_same_in_order(brute_inv_exc_counts(n_max), expected)


@pytest.mark.slow
def test_brute_table_matches_per_size_walks_at_guard_edge():
    _assert_same_in_order(brute_inv_exc_counts(15), per_size_walk_inv_exc_counts(15))


def test_brute_walks_once(monkeypatch):
    """One leaf walk per table, of S_{n_max}, with h(n_max) leaves."""
    real, walks = counting._boolean_leaves, []

    def leaves(n):
        counts = real(n)
        walks.append((n, sum(counts.values())))
        return counts

    monkeypatch.setattr(counting, "_boolean_leaves", leaves)
    totals = three_term_total_recurrence(13)
    for n_max in range(1, 14):
        walks.clear()
        brute_totals(n_max)
        assert walks == [(n_max, totals[n_max])]


def test_brute_tables_match_filtered_stream():
    expected_f = filtered_inv_exc_counts(11)
    for n_max in range(12):
        f = brute_inv_exc_counts(n_max)
        expected = {key: c for key, c in expected_f.items() if key[0] <= n_max}
        _assert_same_in_order(f, expected)
        g, h = {}, {}
        for (n, length, exc), count in expected.items():
            g[(n, (length + exc) // 2)] = g.get((n, (length + exc) // 2), 0) + count
            h[n] = h.get(n, 0) + count
        _assert_same_in_order(brute_rank_counts(n_max), g)
        _assert_same_in_order(brute_totals(n_max), h)


def test_signed_stream_counts():
    for n, expected in enumerate(SIGNED_COUNTS, start=1):
        windows = [w.window for w in signed_involutions(n)]
        assert len(windows) == len(set(windows)) == expected
        assert windows == sorted(windows)
    with pytest.raises(ResourceLimitError):
        next(signed_involutions(8))


def test_signed_stream_matches_nested_oracle():
    for n in range(8):
        full = nested_signed_windows(n)
        assert sorted_signed_windows(n) == full
        assert [w.window for w in signed_involutions(n)] == full
        for num_shards in (2, 3, 5):
            for shard in range(num_shards):
                windows = [w.window for w in signed_involutions(n, shard, num_shards)]
                assert windows == full[shard::num_shards]


def test_signed_stream_sharding():
    full = sorted(w.window for w in signed_involutions(4))
    shards = [
        [w.window for w in signed_involutions(4, shard, 3)] for shard in range(3)
    ]
    assert sorted(w for s in shards for w in s) == full


@pytest.mark.parametrize(
    "stream, n",
    [
        (involutions, -1),
        (boolean_involutions, -2),
        (signed_involutions, -1),
        # the table routes and cross_validate refuse before returning
        (brute_inv_exc_counts, -1),
        (brute_rank_counts, -1),
        (brute_totals, -1),
        (recurrence_inv_exc_counts, -1),
        (recurrence_rank_counts, -1),
        (recurrence_totals, -1),
        (series_inv_exc_counts, -1),
        (series_rank_counts, -1),
        (series_totals, -1),
        (cross_validate, -1),
    ],
)
def test_streams_refuse_negative_sizes(stream, n):
    with pytest.raises(ValueError, match="negative size"):
        next(stream(n))


def test_brute_base_cell_formulas():
    table = brute_inv_exc_counts(8)
    for n in range(1, 9):
        assert table[(n, 0, 0)] == 1
        if n >= 2:
            assert table.get((n, 1, 1), 0) == n - 1
        if n >= 4:
            assert table.get((n, 2, 2), 0) == (n * n - 5 * n + 6) // 2
    assert table[(3, 3, 1)] == 1
    assert (4, 2, 2) in table and table[(4, 2, 2)] == 1


def test_brute_guard():
    with pytest.raises(ResourceLimitError):
        brute_inv_exc_counts(16)


def test_brute_guard_refuses_before_walking(monkeypatch):
    def walk(*args):
        raise AssertionError("walked past the guard")

    monkeypatch.setattr(counting, "_boolean_leaves", walk)
    for route in (brute_inv_exc_counts, brute_rank_counts, brute_totals, cross_validate):
        with pytest.raises(ResourceLimitError, match="brute guard"):
            route(16)
    counting._check_brute_work(15)


def test_recurrence_examples():
    table = recurrence_inv_exc_counts(5)
    assert table[(4, 2, 2)] == 1  # the single double-swap 2143
    assert table[(5, 3, 1)] == 3  # the three width-two transpositions
    assert recurrence_totals(5) == {1: 1, 2: 2, 3: 4, 4: 9, 5: 20}
    ranks = recurrence_rank_counts(4)
    assert [ranks.get((4, k), 0) for k in range(4)] == [1, 3, 3, 2]


def test_recurrence_routes_do_not_walk(monkeypatch):
    # cross_validate compares brute against them, so they must not read it
    def walk(*args):
        raise AssertionError("a recurrence route walked")

    monkeypatch.setattr(counting, "_walk", walk)
    monkeypatch.setattr(counting, "_boolean_leaves", walk)
    assert recurrence_rank_counts(12) == series_rank_counts(12)
    assert recurrence_totals(12) == series_totals(12)


def test_recurrence_routes_do_not_expand_series(monkeypatch):
    # both routes divide by the same denominator; neither may run the other
    expected = [route(12) for route in (series_inv_exc_counts, series_rank_counts, series_totals)]

    def expand(*args):
        raise AssertionError("a recurrence route expanded a series")

    monkeypatch.setattr(series, "expand_rational", expand)
    routes = (recurrence_inv_exc_counts, recurrence_rank_counts, recurrence_totals)
    assert [route(12) for route in routes] == expected


def test_three_way_agreement_small():
    n_max = 8
    brute = brute_inv_exc_counts(n_max)
    assert brute == recurrence_inv_exc_counts(n_max) == series_inv_exc_counts(n_max)
    brute_g = brute_rank_counts(n_max)
    assert brute_g == recurrence_rank_counts(n_max) == series_rank_counts(n_max)
    brute_h = brute_totals(n_max)
    assert brute_h == recurrence_totals(n_max) == series_totals(n_max)


def test_marginalization():
    table = brute_inv_exc_counts(7)
    ranks = rank_counts_from_inv_exc(table)
    assert ranks == brute_rank_counts(7)
    assert totals_from_rank_counts(ranks) == brute_totals(7)
    # (inversions + excedances) is always even on involutions
    assert all((length + exc) % 2 == 0 for (_, length, exc) in table)


def test_series_examples():
    assert [merge_rows(total_series(4))[(k,)] for k in range(1, 5)] == [1, 2, 4, 9]
    F = merge_rows(inv_exc_series(4))
    assert F[(4, 2, 2)] == 1
    assert all(F[(n, 0, 0)] == 1 for n in range(1, 5))
    assert [merge_rows(rank_series(4))[(4, k)] for k in range(4)] == [1, 3, 3, 2]
    # no numerator has an x^0 term, so no series has a size-0 cell
    for expand in (inv_exc_series, rank_series, total_series):
        assert all(key[0] >= 1 for n in range(13) for key in merge_rows(expand(n)))


def test_parallel_brute_matches_serial():
    assert brute_inv_exc_counts(6, jobs=2) == brute_inv_exc_counts(6)


def test_brute_route_builds_no_element(monkeypatch):
    # the walk carries inversions and excedances; no leaf becomes an Involution
    expected = [brute_inv_exc_counts(9), cross_validate(9)]

    def build(*args):
        raise AssertionError("the brute route built an element")

    monkeypatch.setattr(counting, "_trusted_involution", build)
    assert brute_inv_exc_counts(9) == expected[0]
    report = cross_validate(9)
    assert report.passed and report == expected[1]


def test_brute_table_exact_at_guard_edge():
    assert brute_inv_exc_counts(15) == recurrence_inv_exc_counts(15)


def _truncated(table, n):
    return {
        key: value
        for key, value in table.items()
        if (key[0] if isinstance(key, tuple) else key) <= n
    }


def _assert_same_in_order(table, expected):
    assert table == expected
    assert list(table) == list(expected)


ORACLE_MAX_N = 60


@pytest.fixture(scope="module")
def dense_series_routes():
    """The series routes with the expansion swapped for the dense oracle
    that visits every monomial of the truncation box."""

    def run(route, n_max):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "expand_rational", dense_expand_rows)
            return route(n_max)

    return run


@pytest.fixture(scope="module")
def oracle_f(dense_series_routes):
    """The f table at ORACLE_MAX_N by the full-range recurrence and by the
    dense series; smaller max-n are their rows n <= max-n (no Boolean
    involution of S_n has more than 2n inversions or n/2 excedances, so a
    smaller truncation box cuts off no cell of those rows)."""
    return (
        full_range_recurrence_inv_exc(ORACLE_MAX_N),
        dense_series_routes(series_inv_exc_counts, ORACLE_MAX_N),
    )


def test_f_routes_match_oracles(oracle_f, dense_series_routes):
    full_range, dense = oracle_f
    _assert_same_in_order(full_range, dense)
    for n in range(ORACLE_MAX_N + 1):
        _assert_same_in_order(recurrence_inv_exc_counts(n), _truncated(full_range, n))
        _assert_same_in_order(series_inv_exc_counts(n), _truncated(dense, n))
    for n in range(13):
        _assert_same_in_order(recurrence_inv_exc_counts(n), full_range_recurrence_inv_exc(n))
        _assert_same_in_order(
            series_inv_exc_counts(n), dense_series_routes(series_inv_exc_counts, n)
        )


@pytest.mark.parametrize(
    "recurrence, gf",
    [(recurrence_rank_counts, series_rank_counts), (recurrence_totals, series_totals)],
)
def test_g_h_routes_match_dense_series(dense_series_routes, recurrence, gf):
    for n in range(ORACLE_MAX_N + 1):
        expected = dense_series_routes(gf, n)
        _assert_same_in_order(gf(n), expected)
        _assert_same_in_order(recurrence(n), expected)


def test_g_h_routes_match_linear_recurrences():
    """The path routes against the four-term rank and three-term total
    recurrences, as ordered item lists."""
    assert list(recurrence_rank_counts(200).items()) == list(four_term_rank_recurrence(200).items())
    assert list(recurrence_totals(2000).items()) == list(three_term_total_recurrence(2000).items())


def test_gf_tables_match_recurrence_past_oracle_range():
    """Past ORACLE_MAX_N, the packed series rows against the restricted
    paths, key order included."""
    for stat, n_max in (("f", 80), ("g", 300), ("h", 3000)):
        _assert_same_in_order(
            counting.build_table(stat, "gf", n_max), counting.build_table(stat, "recurrence", n_max)
        )


@pytest.mark.parametrize("n_max", [0, 1, 5, 6, 12, 13, 25, 26, 50, 51, 52])
def test_gf_tables_match_recurrence_across_slot_widths(n_max):
    """Each size on either side of a slot-width edge: 1-byte slots up to
    n_max 6, then 2, 4 and 8 bytes, read by one cast each, and from n_max 51
    slots too wide for a machine word, read one int.from_bytes each."""
    for stat in "fgh":
        _assert_same_in_order(
            counting.build_table(stat, "gf", n_max), counting.build_table(stat, "recurrence", n_max)
        )


@pytest.mark.parametrize(
    "n_max, width",
    [(0, 1), (1, 1), (4, 1), (5, 2), (10, 2), (11, 4), (23, 4), (24, 8), (48, 8), (49, 9)],
)
def test_recurrence_across_slot_widths(oracle_f, n_max, width):
    """Each size on either side of a slot-width edge of the packed paths:
    count_bits(n_max + 2) bits in 1-byte slots up to n_max 4, then 2, 4 and
    8 bytes, and from n_max 49 more than 64 bits, read one int.from_bytes
    per slot; f against the full-range recurrence, g against the four-term
    one."""
    assert series.slot_bytes(series.count_bits(n_max + 2)) == width
    _assert_same_in_order(recurrence_inv_exc_counts(n_max), _truncated(oracle_f[0], n_max))
    _assert_same_in_order(recurrence_rank_counts(n_max), four_term_rank_recurrence(n_max))


@pytest.mark.parametrize(
    "route, n_max",
    [
        (recurrence_inv_exc_counts, 24),
        (recurrence_rank_counts, 24),
        (recurrence_inv_exc_counts, 60),
    ],
)
def test_recurrence_raises_on_slots_too_narrow(monkeypatch, route, n_max):
    """Slots one byte narrower than the largest count carry into their
    neighbours, which lowers the sum of the slots below the path total: the
    route raises instead of returning counts."""
    needed = max(-(-count.bit_length() // 8) for count in route(n_max).values())
    monkeypatch.setattr(motzkin, "slot_bytes", lambda bits: needed - 1)
    with pytest.raises(InvariantViolationError, match="overflows its"):
        route(n_max)


def test_expand_rational_raises_on_row_outside_its_box():
    # 1/(1 + x) = 1 - x + x^2 - ...: packed row 1 is negative
    with pytest.raises(InvariantViolationError, match="series row 1 "):
        merge_rows(series.expand_rational({(0,): 1}, {(0,): 1, (1,): 1}, (3,)))
    # at n = 8 the largest count below 2^count_bits(8) decodes, and one more
    # raises, in the top slot of the box too, although its slot could hold it
    bits = series.count_bits(8)
    largest = (1 << bits) - 1
    for bounds, top in (((8,), (1,)), ((8, 3, 2), (1, 3, 2))):
        one = {(0,) * len(bounds): 1}
        assert merge_rows(series.expand_rational({top: largest}, one, bounds)) == {top: largest}
        with pytest.raises(InvariantViolationError, match="series row 1 "):
            merge_rows(series.expand_rational({top: 1 << bits}, one, bounds))


def test_recurrence_fills_only_reachable_rows():
    table = recurrence_inv_exc_counts(40)
    assert max(length for n, length, _ in table if n == 40) == 2 * 40 - 3


def test_table_work_guard_refuses_up_front(monkeypatch):
    def fill(*args):
        raise AssertionError("a cell was filled")

    for name in ("inv_exc_series", "rank_series", "total_series"):
        monkeypatch.setattr(counting, name, fill)
    for route, n_max in [
        (recurrence_inv_exc_counts, 400),
        (series_inv_exc_counts, 400),
        (recurrence_rank_counts, 10**5),
        (series_rank_counts, 10**5),
        (recurrence_totals, 10**7),
        (series_totals, 10**7),
    ]:
        with pytest.raises(ResourceLimitError, match="work guard"):
            route(n_max)
    # the edges: the largest admitted size of each table, and one more
    for stat, n_max, route in (
        ("f", 176, series_inv_exc_counts),
        ("g", 907, series_rank_counts),
        ("h", 22360, series_totals),
    ):
        counting._check_table_work(stat, n_max)
        with pytest.raises(ResourceLimitError, match=f"table {stat} to n_max {n_max + 1} exceeds"):
            route(n_max + 1)


def test_cross_validate():
    report = cross_validate(5)
    assert isinstance(report, CrossValidationReport)
    assert report.passed and len(report.checks) == 4
    assert "all checks passed" in report.summary()
    vacuous = cross_validate(0)
    assert vacuous.passed
    with pytest.raises(ResourceLimitError):
        cross_validate(16)


def test_table_routes_are_looked_up_when_called(monkeypatch, capsys):
    # A tracer rebinds module attributes, so cross_validate and `table`
    # must call what the attribute holds when they run.
    from boolinv.cli import main

    real, calls = recurrence_rank_counts, []
    monkeypatch.setattr(
        counting, "recurrence_rank_counts", lambda n_max: calls.append(n_max) or real(n_max)
    )
    assert cross_validate(4).passed and calls == [4]
    assert main(["table", "g", "--max-n", "3", "--method", "recurrence"]) == 0
    assert calls == [4, 3] and json.loads(capsys.readouterr().out) == {
        f"{n},{k}": count for (n, k), count in real(3).items()
    }


def test_exports():
    totals = brute_totals(3)
    tsv = table_to_tsv(totals, ("n", "count"))
    assert tsv.splitlines() == ["n\tcount", "1\t1", "2\t2", "3\t4"]
    assert json.loads(table_to_json(totals)) == {"1": 1, "2": 2, "3": 4}
    table = brute_inv_exc_counts(3)
    lines = table_to_tsv(table, ("n", "inversions", "excedances", "count")).splitlines()
    assert lines[0] == "n\tinversions\texcedances\tcount"
    assert "3\t3\t1\t1" in lines


def test_check_result_line():
    assert CheckResult("totals", True).line() == "PASS totals"
    assert CheckResult("totals", False, "n=3").line() == "FAIL totals: n=3"


def test_table_rows_match_joined_fields():
    """The rows written through one format string per table against the
    fields joined by str (TSV) and against json.dumps (JSON)."""
    tables = [
        (recurrence_inv_exc_counts(12), ("n", "inversions", "excedances", "count")),
        (recurrence_rank_counts(12), ("n", "rank", "count")),
        (recurrence_totals(300), ("n", "count")),
        ({}, ("n", "count")),
    ]
    for table, columns in tables:
        fields = {key: key if isinstance(key, tuple) else (key,) for key in table}
        assert "".join(counting.table_rows(table, "tsv", columns)) == "".join(
            ["\t".join(columns) + "\n"]
            + ["\t".join(map(str, (*fields[key], table[key]))) + "\n" for key in sorted(table)]
        )
        names = {",".join(map(str, fields[key])): count for key, count in table.items()}
        assert table_to_json(table) == json.dumps(dict(sorted(names.items())))


def test_table_text_matches_the_per_cell_oracle():
    """The text of every table, written from the rows `table` reads and from
    the dict its route returns, against the per-cell emitter it replaced:
    every stat, method and format at max-n 0-40, brute up to its guard."""
    for stat, columns in _TABLE_COLUMNS.items():
        for method in counting.TABLE_METHODS:
            for n_max in range(16 if method == "brute" else 41):
                made = counting.build_table(stat, method, n_max, True)
                rows = made if isinstance(made, dict) else list(made)
                table = made if isinstance(made, dict) else merge_rows(rows)
                for fmt in ("tsv", "json"):
                    expected = "".join(per_cell_table_rows(table, fmt, columns))
                    assert "".join(counting.table_rows(rows, fmt, columns)) == expected
                    assert "".join(counting.table_rows(table, fmt, columns)) == expected


@pytest.mark.parametrize(
    "table",
    [
        {3: 7, 1: 2, 10: 5, 2: 0, 21: 1},
        {},
        {(10, 0, 1): 4, (2, 11, 1): 1, (2, 3, 0): 3, (1, 0, 0): 9, (-1, 3, 0): 2, (100, 2, 5): 8},
        {(1,): 10**5000, (12,): 1},
        {(2, 0): 10**5000 + 7},
        {(1, 2, 10): 3, (1, 21, 0): -4, (1, 2, 1): 5, (-1, 2, 1): 2, (1, 2, 100): 1},
        {100: 1, 1: -7, 10: 2, -1: 3},
    ],
    ids=["int keys", "empty", "unsorted tuple keys", "1-tuple keys", "5000 digits",
         "names prefixes of one another", "int names prefixes of one another"],
)
def test_hand_made_tables_match_the_per_cell_oracle(table):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        columns = ("n", "k", "count")
        for fmt in ("tsv", "json"):
            expected = "".join(per_cell_table_rows(table, fmt, columns))
            assert "".join(counting.table_rows(table, fmt, columns)) == expected
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_cross_validate_compares_whole_tables_then_scans_keys(monkeypatch):
    """Equal tables pass on one comparison; a table that differs is scanned
    in key order, so the FAIL line names its first differing key as before,
    and a table that only adds a zero cell still passes."""
    ranks = recurrence_rank_counts(4)
    mutant = {**ranks, (4, 2): 4, (3, 1): 5}
    monkeypatch.setattr(counting, "series_rank_counts", lambda n_max: mutant)
    monkeypatch.setattr(counting, "series_totals", lambda n_max: {**recurrence_totals(4), 7: 0})
    lines = cross_validate(4).summary().splitlines()
    assert lines == [
        "PASS inversion/excedance counts: brute = recurrence = series",
        "FAIL rank counts: brute = recurrence = series: brute[(3, 1)]=2 but series[(3, 1)]=5",
        "PASS totals: brute = recurrence = series",
        "PASS restricted Motzkin paths = totals",
        "cross-validation n <= 4: FAILURES above",
    ]
