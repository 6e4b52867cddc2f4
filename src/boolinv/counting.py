"""
Counting Boolean involutions three independent ways: exhaustive search,
the restricted Motzkin paths, and coefficient extraction from the
closed-form generating functions.

Tables are plain dicts with exact integer values:

  * inversion/excedance counts:  {(n, inversions, excedances): count}
  * rank counts:                 {(n, rank): count}
  * totals:                      {n: count}

The involution streams are one iterative depth-first walk, `_walk`, whose
elements are built without revalidation; pruned, it visits only the
Boolean involutions.  The brute route walks the same pruned tree without
words in `_boolean_leaves`, at O(1) per Boolean involution of S_{n_max},
which holds each smaller one once.  The recurrence route reads only the
path rows of the paper's bijection (`motzkin`), the series route the
generating functions (`series`).  Each route makes its table a row of n
at a time, (n, keys, counts), keys ascending but for brute's: the route
functions merge the rows into one dict, and `table_rows` writes them as
they come, so `boolinv table` holds one TSV row, or each JSON row's text.
Each route is refused up front by its guard in `work.LIMITS`.
`cross_validate` checks the routes against each other, the
marginalization identities and the restricted path counts.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, islice
from operator import itemgetter
from typing import Iterable, Iterator

from .motzkin import restricted_path_rows, restricted_totals
from .permutations import Involution, _format, _trusted_involution, check_size
from .series import Row, count_bits, inv_exc_series, merge_rows, rank_series, total_series
from .signed import SignedInvolution, _trusted_signed_involution
from .work import refuse

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

    >>> [(i, tuple(w)) for i, w in _walk(4, pruned=True)][-2:]
    [(7, (3, 4, 1, 2)), (8, (4, 2, 3, 1))]
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


def _boolean_leaves(n: int) -> dict[tuple[int, int, int], int]:
    """
    The Boolean involutions of S_n counted by (s, inversions, excedances),
    s the largest moved point (0 for the identity), keys in the order of
    their first leaf in the pruned walk of `_walk`.  This walk makes the
    same choices in the same order without a word, a free-point array or an
    index, on frames [p, q, prefix max, inversions, excedances], q the last
    partner of p tried (top, below, before the first).

    At every node, the only point above the first free point p that is
    already taken is the prefix max, when it exceeds p.  This holds at the
    root, where nothing is taken, and fixing p takes nothing above p.
    Pairing p with q is allowed only when prefix <= p + 1, so after it the
    points above p taken are at most p + 1 and q, the new prefix max: the
    next free point skips those two at most, and above it only q can be
    taken.  So the free points above p are those above top = max(p, prefix)
    and need no scan.  When prefix > p + 1, p and each point below
    prefix - 1 can only be fixed, so the walk jumps to p = prefix - 1, where
    `_walk` pushes frames it pops unpaired.  A node with one free point
    above p (top = n - 1) has two leaves, p fixed and p paired with n, and
    needs no frame either.

    Each excedance is an arc, a 2-cycle a < b.  Split by arcs, the
    inversions are 1 per arc, 2 per fixed point strictly inside an arc, 2
    per crossing pair of arcs and 4 per nested pair; so they are the sum of
    2 (b - a) - 1 over the arcs, less 2 per crossing pair, which that sum
    counts from both arcs.  Pairing p with q thus adds 2 (q - p) - 1, less 2
    if an earlier arc ends inside (p, q).  Only one ending at p + 1 can, and
    one does exactly when the prefix max exceeds p.  So each leaf costs
    O(1).  3412 has two crossing arcs, 3 + 3 - 2 = 4 inversions; 4231 has
    one arc over two fixed points, 5.

    >>> list(_boolean_leaves(4).items())[-2:]
    [((4, 4, 2), 1), ((4, 5, 1), 1)]
    """
    leaves: dict[tuple[int, int, int], int] = {}
    stack: list[list[int]] = []
    p = top = 1
    prefix = inv = exc = 0
    while True:
        while top < n - 1:  # fix p, with a frame to pair it later
            stack.append([p, top, prefix, inv, exc])
            p = top = top + 1
        key = prefix, inv, exc
        leaves[key] = leaves.get(key, 0) + 1
        if top == n - 1:  # pair p with n, adding one inversion either way
            key = n, inv + 1, exc + 1
            leaves[key] = leaves.get(key, 0) + 1
        while stack:
            frame = stack[-1]
            p, q, prefix, inv, exc = frame
            q += 1
            if q == n:
                stack.pop()
            else:
                frame[1] = q
            top = p + 1 if prefix > p else p
            inv += 2 * (q - top) - 1  # 2 (q - p) - 1, less 2 if prefix = p + 1
            exc += 1
            prefix = q
            if q == top + 1:
                p = top = q + 1
            else:  # fix top + 1 up to q - 2
                p, top = q - 1, q
            break
        else:
            return leaves


def _elements(n: int, shard: int, num_shards: int, pruned: bool) -> Iterator[Involution]:
    for index, word in _walk(n, pruned):
        if index % num_shards == shard:
            yield _trusted_involution(tuple(word))


def _check_stream(n: int, shard: int, num_shards: int, guard: str = "stream") -> None:
    """Refuse a bad size, a size past `guard`, or shard arguments that are
    not ints (as `check_size` refuses sizes) or not 0 <= shard < num_shards."""
    refuse(guard, (check_size(n),), f"n {n}")
    if type(shard) is not int or type(num_shards) is not int or not 0 <= shard < num_shards:
        raise ValueError(f"bad shard {shard!r}/{num_shards!r}")


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
    window order, shardable like `involutions`.  One window is filled depth
    first: the first undecided position p takes, in increasing order, -q for
    each undecided q from n down to p, then +q for each undecided q from p
    up, and q then holds the same sign times p.
    """
    _check_stream(n, shard, num_shards, "signed")
    window = [0] * n

    def fill(p: int) -> Iterator[tuple[int, ...]]:
        while p <= n and window[p - 1]:
            p += 1
        if p > n:
            yield tuple(window)
            return
        for value in chain(range(-n, 1 - p), range(p, n + 1)):
            q = abs(value)
            if q != p and window[q - 1]:
                continue
            window[p - 1], window[q - 1] = value, p if value > 0 else -p
            yield from fill(p + 1)
            window[q - 1] = 0
        window[p - 1] = 0

    for signed in islice(fill(1), shard, None, num_shards):
        yield _trusted_signed_involution(signed)


def brute_inv_exc_counts(n_max: int, jobs: int = 1) -> InvExcTable:
    """
    Count Boolean involutions by (size, inversions, excedances) for every
    1 <= n <= n_max by one walk of the Boolean involutions of S_{n_max}
    (`_boolean_leaves`) in this process.  A Boolean involution w of S_n is
    w + id there, in the same order, with the same statistics; so a leaf of
    largest moved point s counts in every row from max(s, 1) on.  `jobs` is
    ignored: at O(1) per Boolean involution, workers cost more than they save.
    """
    _check_brute_work(n_max)
    rows: list[dict] = [{} for _ in range(n_max + 1)]
    for (s, inv, exc), count in _boolean_leaves(n_max).items():
        cell = inv, exc
        for row in rows[max(s, 1) :]:
            row[cell] = row.get(cell, 0) + count
    return merge_rows((n, [(n, *cell) for cell in row], row.values()) for n, row in enumerate(rows))


def _check_brute_work(n_max: int) -> None:
    """
    Refuse, before any element is walked, a bad size or a brute table whose
    predicted work, h(n_max) (the walk of S_{n_max} costs O(1) per Boolean
    involution), passes the `brute` guard.  The totals h are the
    restricted path counts, read only until they pass; they size the run.
    """
    refuse("brute", restricted_totals(check_size(n_max)), f"n_max {n_max}")


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
    return rank_counts_from_inv_exc(brute_inv_exc_counts(n_max))


def brute_totals(n_max: int, jobs: int = 1) -> TotalTable:
    return totals_from_rank_counts(brute_rank_counts(n_max))


# Cells of row n in each table: f has l <= 2n and a <= n/2, g has k <= n.
_ROW_CELLS = {"f": lambda n: (2 * n + 1) * (n // 2 + 1), "g": lambda n: n + 1, "h": lambda n: 1}


def _check_table_work(stat: str, n_max: int) -> None:
    """
    Refuse, before any cell is filled, a bad size or a recurrence or
    series table whose predicted work passes the `work` guard: the cells of
    each row times `count_bits(n)`, the bound on the bit length of its counts
    that also sizes the series' packed slots, summed only until they pass.
    """
    rows = (_ROW_CELLS[stat](n) * count_bits(n) for n in range(1, check_size(n_max) + 1))
    refuse("work", accumulate(rows), f"table {stat} to n_max {n_max}")


def _rows(stat: str, method: str, n_max: int) -> Iterator[Row]:
    """The rows of table `stat` by the recurrence or gf `method`, past its guard."""
    _check_table_work(stat, n_max)
    if method == "gf":
        rows = {"f": inv_exc_series, "g": rank_series, "h": total_series}[stat](n_max)
        return ((n, [n] * len(c), c) for n, _, c in rows) if stat == "h" else rows
    if stat == "h":
        return ((n, [n], [total]) for n, total in enumerate(restricted_totals(n_max), start=1))
    return restricted_path_rows(n_max, stat == "f")


def _route(stat: str, method: str, n_max: int) -> dict:
    return merge_rows(_rows(stat, method, n_max))


# The recurrence and gf routes, named in TABLE_ROUTES: each the dict of its
# `_rows`, from the restricted paths (`restricted_path_rows`) or the series.
recurrence_inv_exc_counts = partial(_route, "f", "recurrence")
recurrence_rank_counts = partial(_route, "g", "recurrence")
recurrence_totals = partial(_route, "h", "recurrence")
series_inv_exc_counts = partial(_route, "f", "gf")
series_rank_counts = partial(_route, "g", "gf")
series_totals = partial(_route, "h", "gf")

# The brute, recurrence and gf route of each table by function name, looked
# up when called, so that a rebound module attribute is the one that runs.
TABLE_METHODS = ("brute", "recurrence", "gf")
TABLE_ROUTES = {
    "f": ("brute_inv_exc_counts", "recurrence_inv_exc_counts", "series_inv_exc_counts"),
    "g": ("brute_rank_counts", "recurrence_rank_counts", "series_rank_counts"),
    "h": ("brute_totals", "recurrence_totals", "series_totals"),
}
_TABLE_NAMES = {"f": "inversion/excedance counts", "g": "rank counts", "h": "totals"}
for _name in [name for names in TABLE_ROUTES.values() for name in names[1:]]:
    globals()[_name].__name__ = _name  # a partial has no name of its own


def build_table(stat: str, method: str, n_max: int, rows: bool = False) -> dict | Iterable[Row]:
    """Table `stat` (f, g or h) to n_max by `method` (brute, recurrence or gf)
    through its route in TABLE_ROUTES.  With `rows`, a recurrence or gf route
    gives its rows, keys ascending, as made past its guard; a brute route
    (walk order) or a rebound name, as a tracer's, builds the dict."""
    route = globals()[TABLE_ROUTES[stat][TABLE_METHODS.index(method)]]
    if rows and getattr(route, "func", None) is _route:
        return _rows(*route.args, n_max)
    return route(n_max)


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
    (reference_name, reference), *others = tables.items()
    for other_name, other in others:
        if other == reference:
            continue
        for key in sorted(set(reference) | set(other)):
            a, b = reference.get(key, 0), other.get(key, 0)
            if a != b:
                detail = f"{reference_name}[{key}]={a} but {other_name}[{key}]={b}"
                return CheckResult(name, False, detail)
    return CheckResult(name, True)


def cross_validate(n_max: int, jobs: int = 1) -> CrossValidationReport:
    """
    Check that all counting routes agree up to n_max: the three tables for
    each statistic, the marginalization identities between them, and the
    restricted Motzkin path counts against the totals.  `jobs` is ignored,
    as by `brute_inv_exc_counts`.
    """
    brute = {"f": brute_inv_exc_counts(n_max)}
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
    paths = dict(enumerate(restricted_totals(n_max), start=1))
    checks.append(_compare_tables(
        "restricted Motzkin paths = totals", {"paths": paths, "totals": brute["h"]}
    ))
    return CrossValidationReport(n_max, tuple(checks))


def table_rows(table: dict | Iterable[Row], fmt: str, columns: tuple = ()) -> Iterator[str]:
    """
    The text of a table, a dict (one row) or `build_table`'s rows, a row at
    a time, each by one `%`: with fmt "tsv", the `columns` header, then a
    line per key, keys ascending, the count last; with "json", one object,
    keys joined by commas and sorted as strings, in json.dumps' form, with
    no final newline.  JSON sorts each row's cell texts '"n,i,e": c' whole,
    as '"' sorts below ',', '-' and every digit, then the rows by the
    string of their n, as ',' sorts below every digit too.

    >>> list(table_rows({(2, 1): 1, (10, 0): 4}, "json"))
    ['{', '"10,0": 4, "2,1": 1', '}']
    """
    if isinstance(table, dict):
        keys = sorted(table) if fmt == "tsv" else list(table)
        counts = map(table.__getitem__, keys) if fmt == "tsv" else table.values()
        table = [(0, keys, list(counts))]
    if fmt == "tsv":
        yield "\t".join(columns) + "\n"
    texts = []
    for n, keys, counts in filter(itemgetter(1), table):  # the rows with cells
        tuples = isinstance(keys[0], tuple)
        width = len(keys[0]) + 1 if tuples else 2  # ints per line
        fields = [0] * (width * len(keys))
        fields[width - 1 :: width] = counts
        for i in range(width - 1):  # by itemgetter: zip(*keys) holds an iterator per key
            fields[i::width] = map(itemgetter(i), keys) if tuples else keys
        if fmt == "tsv":
            yield (_format(width, "\t") + "\n") * len(keys) % tuple(fields)
        else:  # one copy of the row held: its text and fields dropped once split, cells once joined
            cell = f'"{_format(width - 1, ",")}": {_format(1, "")}\n'
            cells = (cell * len(keys) % tuple(fields)).splitlines()
            del fields
            cells.sort()
            texts.append((str(n), ", ".join(cells)))
            del cells
    if fmt != "tsv":
        yield "{"
        for i, (_, text) in enumerate(sorted(texts)):
            yield ", " + text if i else text
        yield "}"


def table_to_tsv(table: dict, columns: tuple[str, ...]) -> str:
    """Rows sorted by key; keys may be ints or tuples, last column the count.
    Read by the benchmark's `tables` workload and `counting.emit` span."""
    return "".join(table_rows(table, "tsv", columns))


def table_to_json(table: dict) -> str:
    """The table as one JSON object, keys "n" or "n,i,...", sorted as strings.
    Read by the benchmark's `tables` workload and `counting.emit` span."""
    return "".join(table_rows(table, "json"))
