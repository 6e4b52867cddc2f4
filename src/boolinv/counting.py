"""
Counting Boolean involutions three independent ways: exhaustive search,
the linear recurrence, and coefficient extraction from the closed-form
generating functions.

Tables are plain dicts with exact integer values:

  * inversion/excedance counts:  {(n, inversions, excedances): count}
  * rank counts:                 {(n, rank): count}
  * totals:                      {n: count}

The involution stream is one iterative depth-first walk, whose elements
are built without revalidation.  The brute route walks it pruned: no
point is paired once an earlier pair reaches beyond its right neighbour,
so only the Boolean involutions are visited, each decided on its prefixes
by the long-crossing criterion rather than filtered from the whole
stream.  It is sharded over at most one process per CPU and refused up
front when its predicted work exceeds MAX_BRUTE_WORK.  The
inversion/excedance and rank recurrences run from the empty involution
alone, the total recurrence from its three start values, so none reads
the brute or the series route.  No base cells are needed: with F = N/D
the inversion/excedance series, (1 + F) D = 1 - xy^2 - x^2y^3z, and both
correction cells, (1, 2, 0) and (2, 3, 1), lie beyond the n(n-1)/2
inversions the recurrence fills; each row runs only as far in l as its
source rows reach.  The series route expands the generating
functions one size at a time over their nonzero coefficients.  These two
refuse up front a table whose predicted work exceeds MAX_TABLE_WORK.  All
routes must agree; `cross_validate` checks them against each other, against
the marginalization identities, and against the restricted Motzkin path
count.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import accumulate, islice, product
from typing import Iterator

from .involution_words import ResourceLimitError
from .motzkin import count_restricted
from .permutations import Involution, _trusted_involution, inversion_count
from .series import inv_exc_series, rank_series, total_series
from .signed import SignedInvolution, _trusted_signed_involution

MAX_STREAM_N = 14
MAX_SIGNED_STREAM_N = 7
# Boolean involutions times n summed over the sizes: admits n_max 15.
MAX_BRUTE_WORK = 2 * 10**6
# Cells times count bits; the largest admitted tables take about 4 s to fill.
MAX_TABLE_WORK = 5 * 10**8

InvExcTable = dict[tuple[int, int, int], int]
RankTable = dict[tuple[int, int], int]
TotalTable = dict[int, int]


def _walk(n: int, pruned: bool = False) -> Iterator[tuple[int, list[int]]]:
    """
    Depth-first walk over the involutions of S_n in lexicographic order of
    their one-line words.  Yields (index, word): the element's position in
    the full stream and its word as a list, valid until the next step.

    Each node decides its first free point p, first as a fixed point and
    then paired with each larger free point q in turn, on an explicit stack
    of [p, q, prefix max, index of the first leaf below, free points]
    frames.  With `pruned`, p is never paired once an earlier partner
    exceeds p + 1, the test `has_long_crossing` makes on a whole word, so
    the leaves are exactly the Boolean involutions; a skipped subtree still
    moves the index on, by (m - 1) I(m - 2) = I(m) - I(m - 1) at a node
    with m free points, I(k) being the number of involutions of S_k.
    """
    sizes = [1, 1]
    for k in range(2, n + 1):
        sizes.append(sizes[-1] + (k - 1) * sizes[-2])
    word = list(range(1, n + 1))
    free = [False] + [True] * (n + 1)  # free[n + 1] ends every scan
    stack: list[list[int]] = []
    p, prefix, index, m = 1, 0, 0, n
    while True:
        while m > 1:  # a last free point can only be fixed and needs no frame
            stack.append([p, p, prefix, index, m])
            free[p] = False
            m -= 1
            p += 1
            while not free[p]:
                p += 1
        yield index, word
        while stack:
            frame = stack[-1]
            p, q, prefix, index, m = frame
            if q != p:
                word[p - 1], word[q - 1] = p, q
                free[q] = True
                index += sizes[m - 2]
            elif pruned and prefix > p + 1:
                q = n
            else:
                index += sizes[m - 1]
            q += 1
            while not free[q]:
                q += 1
            if q > n:
                stack.pop()
                free[p] = True
                continue
            frame[1], frame[3] = q, index
            word[p - 1], word[q - 1] = q, p
            free[q] = False
            if q > prefix:
                prefix = q
            m -= 2
            p += 1
            while not free[p]:
                p += 1
            break
        else:
            return


def _elements(n: int, shard: int, num_shards: int, pruned: bool) -> Iterator[Involution]:
    for index, word in _walk(n, pruned):
        if index % num_shards == shard:
            yield _trusted_involution(tuple(word))


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError(f"negative size {n}")


def _check_stream(
    n: int, shard: int, num_shards: int, guard: int = MAX_STREAM_N, kind: str = "stream"
) -> None:
    _check_size(n)
    if n > guard:
        raise ResourceLimitError(f"n {n} exceeds {kind} guard {guard}")
    if not 0 <= shard < num_shards:
        raise ValueError(f"bad shard {shard}/{num_shards}")


def involutions(n: int, shard: int = 0, num_shards: int = 1) -> Iterator[Involution]:
    """
    All involutions of S_n, lexicographic by one-line word, each exactly
    once.  With num_shards > 1 only every num_shards-th element (offset by
    shard) is yielded, so the shards partition the stream.
    """
    _check_stream(n, shard, num_shards)
    yield from _elements(n, shard, num_shards, False)


def boolean_involutions(n: int, shard: int = 0, num_shards: int = 1) -> Iterator[Involution]:
    """
    The Boolean involutions of S_n, in the order and with the shards of
    `involutions` (a shard keeps the Boolean elements of that shard of the
    full stream), found by the pruned walk without visiting the rest.
    """
    _check_stream(n, shard, num_shards)
    yield from _elements(n, shard, num_shards, True)


def signed_involutions(
    n: int, shard: int = 0, num_shards: int = 1
) -> Iterator[SignedInvolution]:
    """
    All involutions among signed permutations of [+-n], in lexicographic
    window order, shardable like `involutions`: each involution w of the
    absolute values with one sign per cycle, c -> +-w(c) and w(c) -> +-c.
    """
    _check_stream(n, shard, num_shards, MAX_SIGNED_STREAM_N, "signed")
    # Sorted whole; the guard keeps that to the 6512 windows of n = 7.
    windows = []
    for _, word in _walk(n):
        leads = [(c, v) for c, v in enumerate(word, start=1) if v >= c]
        for signs in product((1, -1), repeat=len(leads)):
            window = [0] * n
            for (c, v), sign in zip(leads, signs):
                window[c - 1], window[v - 1] = sign * v, sign * c
            windows.append(tuple(window))
    windows.sort()
    for window in windows[shard::num_shards]:
        yield _trusted_signed_involution(window)


def _brute_shard(args: tuple[int, int, int]) -> InvExcTable:
    n, shard, num_shards = args
    table: InvExcTable = {}
    for w in _elements(n, shard, num_shards, True):
        length = inversion_count(w)
        exc = sum(1 for i, v in enumerate(w.word, start=1) if v > i)
        key = (n, length, exc)
        table[key] = table.get(key, 0) + 1
    return table


def brute_inv_exc_counts(n_max: int, jobs: int = 1) -> InvExcTable:
    """
    Count Boolean involutions by (size, inversions, excedances) for every
    1 <= n <= n_max by the pruned walk.  With jobs > 1 the walks are
    sharded across up to jobs processes, at most one per CPU, and the
    partial tables summed.
    """
    _check_brute_work(n_max)
    shards = max(1, min(jobs, os.cpu_count() or 1))
    pieces = [(n, shard, shards) for n in range(1, n_max + 1) for shard in range(shards)]
    table: InvExcTable = {}
    if shards > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=shards) as pool:
            partials = list(pool.map(_brute_shard, pieces))
    else:
        partials = [_brute_shard(piece) for piece in pieces]
    for partial in partials:
        for key, value in partial.items():
            table[key] = table.get(key, 0) + value
    return table


def _total_recurrence() -> Iterator[int]:
    """h(1), h(2), ...: the Boolean involutions of each size, by
    h(n) = 2h(n-1) + h(n-2) - h(n-3) from h(-2), h(-1), h(0) = 2, 1, 1."""
    a, b, c = 2, 1, 1
    while True:
        a, b, c = b, c, 2 * c + b - a
        yield c


def _check_work(n_max: int, rows: Iterator[int], limit: int, refusal: str) -> None:
    """Refuse a negative size, or a run whose predicted work, the sum of the
    first n_max `rows` (sizes 1, 2, ...), exceeds limit; the sum stops once over."""
    _check_size(n_max)
    if any(work > limit for work in accumulate(islice(rows, n_max))):
        raise ResourceLimitError(refusal)


def _check_brute_work(n_max: int) -> None:
    """
    Refuse, before any element is walked, a negative size or a brute table
    whose predicted work, the sum of n h(n) over 1 <= n <= n_max, exceeds
    MAX_BRUTE_WORK.  The totals h come from their recurrence; they only
    size the run.
    """
    rows = (n * h for n, h in enumerate(_total_recurrence(), start=1))
    refusal = f"n_max {n_max} exceeds brute guard {MAX_BRUTE_WORK} (Boolean involutions times n)"
    _check_work(n_max, rows, MAX_BRUTE_WORK, refusal)


def rank_counts_from_inv_exc(table: InvExcTable) -> RankTable:
    """Marginalize inversions and excedances to the rank (their half-sum)."""
    out: RankTable = {}
    for (n, length, exc), count in table.items():
        key = (n, (length + exc) // 2)
        out[key] = out.get(key, 0) + count
    return out


def totals_from_rank_counts(table: RankTable) -> TotalTable:
    out: TotalTable = {}
    for (n, _), count in table.items():
        out[n] = out.get(n, 0) + count
    return out


def brute_rank_counts(n_max: int, jobs: int = 1) -> RankTable:
    return rank_counts_from_inv_exc(brute_inv_exc_counts(n_max, jobs))


def brute_totals(n_max: int, jobs: int = 1) -> TotalTable:
    return totals_from_rank_counts(brute_rank_counts(n_max, jobs))


# Cells of row n in each table: f has l <= 2n and a <= n/2, g has k <= n.
_ROW_CELLS = {
    "f": lambda n: (2 * n + 1) * (n // 2 + 1),
    "g": lambda n: n + 1,
    "h": lambda n: 1,
}


def _check_table_work(stat: str, n_max: int) -> None:
    """
    Refuse, before any cell is filled, a negative size or a recurrence or
    series table whose predicted work exceeds MAX_TABLE_WORK: the cells of
    each row times 2n, a bound on the bit length of its counts (each is below
    the total for size n, which grows like 2.25^n).
    """
    rows = (_ROW_CELLS[stat](n) * 2 * n for n in range(1, n_max + 1))
    refusal = f"table {stat} to n_max {n_max} exceeds work guard {MAX_TABLE_WORK}"
    _check_work(n_max, rows, MAX_TABLE_WORK, refusal + " (cells times count bits)")


def recurrence_inv_exc_counts(n_max: int) -> InvExcTable:
    """
    Fill the inversion/excedance table by the six-term recurrence

      b(n,l,a) = b(n-1,l,a) + b(n-1,l-2,a) + b(n-2,l-1,a-1) - b(n-2,l-2,a)
                 + b(n-2,l-3,a-1) - b(n-3,l-3,a-1)

    for n >= 1 over the cells with l <= n(n-1)/2 and a <= n/2, from the
    empty involution b(0,0,0) = 1 alone; every other cell of size n <= 0,
    and every cell with l < 0 or a < 0, is zero.  Row n runs l only up to
    the highest value its source rows reach, max(top(n-1) + 2, top(n-2) + 3,
    top(n-3) + 3) with top(m) the largest l of a nonzero cell in row m:
    every cell beyond is zero.
    """
    _check_table_work("f", n_max)
    table: InvExcTable = {(0, 0, 0): 1}
    get = table.get
    top = [0, 0, 0]  # top(m) of every row m so far, from m = -2
    for n in range(1, n_max + 1):
        reach = max(top[-1] + 2, top[-2] + 3, top[-3] + 3)
        top.append(0)
        for length in range(0, min(reach, n * (n - 1) // 2) + 1):
            for exc in range(0, n // 2 + 1):
                value = (
                    get((n - 1, length, exc), 0)
                    + get((n - 1, length - 2, exc), 0)
                    + get((n - 2, length - 1, exc - 1), 0)
                    - get((n - 2, length - 2, exc), 0)
                    + get((n - 2, length - 3, exc - 1), 0)
                    - get((n - 3, length - 3, exc - 1), 0)
                )
                if value:
                    table[(n, length, exc)] = value
                    top[-1] = length
    del table[(0, 0, 0)]
    return table


def recurrence_rank_counts(n_max: int) -> RankTable:
    """
    Fill the rank table by the four-term recurrence

      r(n,k) = r(n-1,k) + r(n-1,k-1) + r(n-2,k-2) - r(n-3,k-2)

    for n >= 1, over r(0,0) = 1 with every other cell of size n <= 0 or
    rank k < 0 zero; it gives r(n,0) = 1 and r(n,1) = n-1.
    """
    _check_table_work("g", n_max)
    table: RankTable = {(0, 0): 1}
    get = table.get
    for n in range(1, n_max + 1):
        for k in range(0, n):
            value = (
                get((n - 1, k), 0)
                + get((n - 1, k - 1), 0)
                + get((n - 2, k - 2), 0)
                - get((n - 3, k - 2), 0)
            )
            if value:
                table[(n, k)] = value
    del table[(0, 0)]
    return table


def recurrence_totals(n_max: int) -> TotalTable:
    """Totals by the recurrence of `_total_recurrence`."""
    _check_table_work("h", n_max)
    return dict(zip(range(1, n_max + 1), _total_recurrence()))


def series_inv_exc_counts(n_max: int) -> InvExcTable:
    """Inversion/excedance table read off the three-variable series."""
    _check_table_work("f", n_max)
    return inv_exc_series(n_max)


def series_rank_counts(n_max: int) -> RankTable:
    _check_table_work("g", n_max)
    return rank_series(n_max)


def series_totals(n_max: int) -> TotalTable:
    _check_table_work("h", n_max)
    return {n: value for (n,), value in total_series(n_max).items()}


# The brute, recurrence and gf route of each table by function name, looked
# up when called, so that a rebound module attribute is the one that runs.
TABLE_METHODS = ("brute", "recurrence", "gf")
TABLE_ROUTES = {
    "f": ("brute_inv_exc_counts", "recurrence_inv_exc_counts", "series_inv_exc_counts"),
    "g": ("brute_rank_counts", "recurrence_rank_counts", "series_rank_counts"),
    "h": ("brute_totals", "recurrence_totals", "series_totals"),
}
_TABLE_NAMES = {"f": "inversion/excedance counts", "g": "rank counts", "h": "totals"}


def build_table(stat: str, method: str, n_max: int, jobs: int = 1) -> dict:
    """Table `stat` (f, g or h) to n_max by `method` (brute, recurrence or
    gf) through its route in TABLE_ROUTES; the brute routes take jobs."""
    route = globals()[TABLE_ROUTES[stat][TABLE_METHODS.index(method)]]
    return route(n_max, jobs) if method == "brute" else route(n_max)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        """The PASS or FAIL line of this check, with ": detail" when there is one."""
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}" if self.detail else f"{status} {self.name}"


@dataclass(frozen=True)
class CrossValidationReport:
    n_max: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def summary(self) -> str:
        lines = [check.line() for check in self.checks]
        lines.append(f"cross-validation n <= {self.n_max}: "
                     + ("all checks passed" if self.passed else "FAILURES above"))
        return "\n".join(lines)


def _compare_tables(name: str, tables: dict[str, dict]) -> CheckResult:
    items = list(tables.items())
    reference_name, reference = items[0]
    for other_name, other in items[1:]:
        keys = sorted(set(reference) | set(other))
        for key in keys:
            a, b = reference.get(key, 0), other.get(key, 0)
            if a != b:
                return CheckResult(
                    name,
                    False,
                    f"{reference_name}[{key}]={a} but {other_name}[{key}]={b}",
                )
    return CheckResult(name, True)


def cross_validate(n_max: int, jobs: int = 1) -> CrossValidationReport:
    """
    Check that all counting routes agree up to n_max: the three tables for
    each statistic, the marginalization identities between them, and the
    restricted Motzkin path counts against the totals.
    """
    _check_brute_work(n_max)
    brute = {"f": brute_inv_exc_counts(n_max, jobs) if n_max >= 1 else {}}
    brute["g"] = rank_counts_from_inv_exc(brute["f"])
    brute["h"] = totals_from_rank_counts(brute["g"])
    checks = [
        _compare_tables(f"{name}: brute = recurrence = series", {
            "brute": brute[stat],
            "recurrence": build_table(stat, "recurrence", n_max),
            "series": build_table(stat, "gf", n_max),
        })
        for stat, name in _TABLE_NAMES.items()
    ]
    paths = {n: count_restricted(n) for n in range(1, n_max + 1)}
    checks.append(_compare_tables(
        "restricted Motzkin paths = totals", {"paths": paths, "totals": brute["h"]}
    ))
    return CrossValidationReport(n_max, tuple(checks))


def table_to_tsv(table: dict, columns: tuple[str, ...]) -> str:
    """Rows sorted by key; keys may be ints or tuples, last column the count."""
    lines = ["\t".join(columns)]
    for key in sorted(table):
        fields = key if isinstance(key, tuple) else (key,)
        lines.append("\t".join(str(f) for f in (*fields, table[key])))
    return "\n".join(lines) + "\n"


def table_to_json(table: dict) -> str:
    import json

    return json.dumps(
        {
            ",".join(str(f) for f in (key if isinstance(key, tuple) else (key,))): value
            for key, value in sorted(table.items())
        },
        sort_keys=True,
    )
