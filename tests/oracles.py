"""
Independent oracles used by the tests: small brute-force routines that
recompute expected values by definitions, down routes deliberately
different from the ones the library takes.
"""
from functools import lru_cache
from itertools import combinations, groupby, product

from boolinv.boolean import connected_components, has_long_crossing
from boolinv.ideals import IdealPoset
from boolinv.involution_words import _act, apply_letter, rank, reduced_word
from boolinv.motzkin import STEP_RISE, MotzkinPath, restricted_totals
from boolinv.patterns import _least_larger_right, _rising_tail
from boolinv.permutations import (
    InvariantViolationError, Involution, compose, conjugate, identity, transposition)
from boolinv.series import count_bits, decode_slots, slot_bytes
from boolinv.signed import SignedInvolution


def chain(n):
    """The Boolean chain (1 3)(2 5)(4 7)... of S_n as a word: it avoids
    every forbidden pattern, and all but its last point or two form one
    direct-sum block."""
    word = list(range(1, n + 1))
    for a, b in [(1, 3)] + [(j, j + 3) for j in range(2, n - 2, 2)]:
        word[a - 1], word[b - 1] = b, a
    return tuple(word)


def uniform_involution(n, rng):
    """A uniformly random involution of S_n: with m points still free,
    the smallest is fixed with probability I(m-1)/I(m), else paired with a
    uniform other free point, where I counts involutions."""
    counts = [1, 1]
    for m in range(2, n + 1):
        counts.append(counts[-1] + (m - 1) * counts[-2])
    word = [0] * n
    free = list(range(1, n + 1))
    while free:
        i = free.pop(0)
        m = len(free) + 1
        if rng.randrange(counts[m]) < counts[m - 1]:
            word[i - 1] = i
        else:
            j = free.pop(rng.randrange(len(free)))
            word[i - 1], word[j - 1] = j, i
    return Involution(tuple(word))


# The steps a restricted Motzkin path may take from height 0, 1 and 2 (it
# stays at height 2 or below and has flats at height 1 or below), each with
# the height it reaches.
_RESTRICTED_STEPS = ((("U", 1), ("F", 0)), (("U", 2), ("F", 1), ("D", 0)), (("D", 1),))


@lru_cache(maxsize=None)
def _restricted_completions(n):
    """ways[k][h]: the restricted paths from height h after k steps to
    height 0 after n steps."""
    ways = [(1, 0, 0)]
    for _ in range(n):
        later = ways[-1]
        ways.append(tuple(sum(later[h] for _, h in steps) for steps in _RESTRICTED_STEPS))
    return tuple(reversed(ways))


def uniform_restricted_path(n, rng):
    """A restricted Motzkin path of length n drawn uniformly, as a string of
    U, F and D steps: each step is taken with probability proportional to
    the number of paths that complete it."""
    ways = _restricted_completions(n)
    height, steps = 0, []
    for k in range(1, n + 1):
        options = _RESTRICTED_STEPS[height]
        r = rng.randrange(sum(ways[k][h] for _, h in options))
        for step, height in options:
            if r < ways[k][height]:
                break
            r -= ways[k][height]
        steps.append(step)
    return "".join(steps)


def boolean_involution(n, rng):
    """A uniformly random Boolean involution of S_n, by the paper's
    bijection from a uniform restricted path (`three_pass_path_to_involution`)."""
    return three_pass_path_to_involution(MotzkinPath(uniform_restricted_path(n, rng)))


def restricted_walks(n):
    """Every restricted Motzkin string of length n, by extending each
    restricted prefix, at its height, by the steps `_RESTRICTED_STEPS`
    allows there, and keeping the walks that end on the axis."""
    walks = {"": 0}
    for _ in range(n):
        walks = {w + step: h for w, at in walks.items() for step, h in _RESTRICTED_STEPS[at]}
    return [w for w, h in walks.items() if h == 0]


def checked_involution_to_path(w):
    """The F, U, D steps of a word's fixed points, excedances and
    deficiencies, built by the validating `MotzkinPath` constructor; the
    word itself is not checked to be an involution."""
    steps = []
    for i, v in enumerate(w.word, start=1):
        steps.append("F" if v == i else "U" if v > i else "D")
    return MotzkinPath("".join(steps))


def three_pass_path_to_involution(path):
    """The involution of a restricted path in three passes: a walk of the
    heights that raises ValueError at the first step above height 2 or flat
    step above level 1; the up and down steps, listed and paired in order;
    the word, built by the validating `Involution` constructor."""
    h = 0
    for k, step in enumerate(path.steps, start=1):
        h += STEP_RISE[step]
        if h > 2:
            raise ValueError(f"path not restricted: height above 2 at step {k}")
        if step == "F" and h > 1:
            raise ValueError(f"path not restricted: flat step above level 1 at step {k}")
    ups = [k for k, s in enumerate(path.steps, start=1) if s == "U"]
    downs = [k for k, s in enumerate(path.steps, start=1) if s == "D"]
    word = list(range(1, path.n + 1))
    for u, d in zip(ups, downs):
        word[u - 1], word[d - 1] = d, u
    return Involution(tuple(word))


def inversion_count(word):
    """Count out-of-order pairs via explicit subset enumeration."""
    return sum(1 for (a, b) in combinations(word, 2) if a > b)


def pattern_occurrences(host, pattern):
    """All occurrence position tuples by filtering every C(n, m) subset."""
    m = len(pattern)
    out = []
    for positions in combinations(range(1, len(host) + 1), m):
        values = [host[i - 1] for i in positions]
        if all(
            (values[a] < values[b]) == (pattern[a] < pattern[b])
            for a, b in combinations(range(m), 2)
        ):
            out.append(positions)
    return out


def dfs_occurrences(host, pattern, limit=None, signed=False):
    """Occurrence position tuples, lexicographic, by the plain depth-first
    search over all positions of the host: a partial selection survives
    only while its values compare pairwise like the pattern prefix does.
    With a limit, the search stops once it has found that many.  With
    `signed`, host and pattern are signed windows: values compare by
    absolute value, and each slot takes only values of its own sign."""
    n, m = len(host), len(pattern)
    if m > n:
        return []
    fits = [[not signed or (v > 0) == (q > 0) for v in host] for q in pattern]
    if signed:
        host, pattern = [abs(v) for v in host], [abs(q) for q in pattern]
    chosen = []
    out = []

    def extend(start):
        k = len(chosen)
        if k == m:
            out.append(tuple(chosen))
            return len(out) == limit
        for i in range(start, n - (m - k) + 2):
            v = host[i - 1]
            if fits[k][i - 1] and all(
                (host[chosen[t] - 1] < v) == (pattern[t] < pattern[k])
                for t in range(k)
            ):
                chosen.append(i)
                done = extend(i + 1)
                chosen.pop()
                if done:
                    return True
        return False

    extend(1)
    return out


def fenwick_first_456123(word):
    """
    The first occurrence of 456123 as `patterns._first_456123` found it
    before it covered values by intervals.  Right to left, one pass keeps:
    the least top of a 123 in each suffix (a 123 with middle j has least
    top the least larger value right of j, and it fits in a suffix that
    holds the previous smaller element of j, so a previous-smaller stack
    buckets that top at its position); the next greater element; and, in a
    Fenwick tree over values, the earliest end of a rising pair above each
    value.  The "4" is the first position whose value exceeds the least
    123 top after the earliest end of a rising pair above it.
    `_rising_tail` places the "123" below the "4", after the "6".
    """
    n = len(word)
    larger = _least_larger_right(word)
    top123 = [n + 1] * (n + 1)
    greater = [n] * n
    tree = [n] * (n + 1)  # by n + 1 - value: least next-greater position
    rising = []  # next greater element stack
    unmatched = []  # positions whose previous smaller is unknown
    top, first = n + 1, -1
    for i in range(n - 1, -1, -1):
        v = word[i]
        while unmatched and word[unmatched[-1]] > v:
            j = unmatched.pop()
            if larger[j] < top:
                top = larger[j]
        unmatched.append(i)
        top123[i] = top
        end, k = n, n - v
        while k:
            if tree[k] < end:
                end = tree[k]
            k &= k - 1
        if end < n and top123[end + 1] < v:
            first = i
        while rising and word[rising[-1]] < v:
            rising.pop()
        if rising:
            end = greater[i] = rising[-1]
            k = n + 1 - v
            while k <= n:
                if end < tree[k]:
                    tree[k] = end
                k += k & -k
        rising.append(i)
    if first < 0:
        return None
    cap = word[first]
    five = next(
        j for j in range(first + 1, n)
        if word[j] > cap and greater[j] < n and top123[greater[j] + 1] < cap
    )
    six = greater[five]
    return (first + 1, five + 1, six + 1) + _rising_tail(word, six + 1, cap, 3)


def crossing_components(word):
    """Classes of the transitive closure of the crossing relation (i < j
    and w(i) > w(j)) by union-find over all pairs, as sorted (lo, hi)
    intervals; fails if a class is not an interval."""
    n = len(word)
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if word[i - 1] > word[j - 1]:
                parent[find(i)] = find(j)
    classes = {}
    for i in range(1, n + 1):
        classes.setdefault(find(i), []).append(i)
    for members in classes.values():
        assert members == list(range(members[0], members[-1] + 1)), members
    return tuple(sorted((members[0], members[-1]) for members in classes.values()))


def signed_pattern_occurrences(window, pattern):
    """Signed containment by filtering subsets: order-isomorphic absolute
    values and slotwise equal signs."""
    m = len(pattern)
    out = []
    for positions in combinations(range(1, len(window) + 1), m):
        values = [window[i - 1] for i in positions]
        abs_ok = all(
            (abs(values[a]) < abs(values[b])) == (abs(pattern[a]) < abs(pattern[b]))
            for a, b in combinations(range(m), 2)
        )
        if abs_ok and all((v > 0) == (q > 0) for v, q in zip(values, pattern)):
            out.append(tuple(positions))
    return out


def act_by_definition(w: Involution, i: int):
    """Letter i on w by the rule itself, from whole permutation products:
    w*s_i when s_i w s_i = w, otherwise s_i w s_i."""
    conjugated = conjugate(w, (i, i + 1))
    return compose(w, transposition(w.n, i, i + 1)) if conjugated == w else conjugated


def signed_identity(n):
    """The identity of the signed permutations of [+-n], by the validating constructor."""
    return SignedInvolution(tuple(range(1, n + 1)))


def descents_by_rank(w: Involution):
    """Rank-lowering letters found by recomputing the rank after each one."""
    r = rank(w)
    return [i for i in range(1, w.n) if rank(apply_letter(w, i)) == r - 1]


def reduced_word_by_rank(w: Involution):
    """Peel off the smallest rank-lowering letter, recomputing the rank of
    every candidate, until the identity is reached."""
    letters = []
    current = w
    r = rank(current)
    while r > 0:
        for i in range(1, current.n):
            lowered = apply_letter(current, i)
            if rank(lowered) == r - 1:
                letters.append(i)
                current = lowered
                r -= 1
                break
        else:
            raise AssertionError(f"no descent found for {current.word}")
    letters.reverse()
    return tuple(letters)


def subword_evaluations(w: Involution):
    """All involutions reachable by subwords of a reduced word of w,
    evaluated letter by letter from scratch for every subset."""
    letters = reduced_word_by_rank(w)
    seen = set()
    for size in range(len(letters) + 1):
        for subset in combinations(range(len(letters)), size):
            u = Involution(tuple(range(1, w.n + 1)))
            for index in subset:
                u = apply_letter(u, letters[index])
            seen.add(u)
    return seen


def ideal_by_adjacent_ranks(w: Involution):
    """The ideal below w the slow way: the subword closure as a set, each
    element ranked by `rank` and sorted by (rank, word), and the packed
    dominance test run on every pair of adjacent rank layers, whose
    comparable pairs are the covers since the order is graded.  The
    down-sets are filled eagerly, pair by pair, and preset on the poset
    as the reference for its `below`."""
    reached = {identity(w.n)}
    for letter in reduced_word_by_rank(w):
        reached |= {apply_letter(u, letter) for u in reached}
    ranks, _, elements = zip(*sorted((rank(u), u.word, u) for u in reached))
    n = w.n
    # prefix rank table R[i][j] = #{k <= i : w(k) >= j} in width-bit fields,
    # the top bit of each a guard: u <= v iff (v | guard) - u keeps them all
    width = n.bit_length() + 1
    unit = (1 << width) - 1
    ones = [((1 << v * width) - 1) // unit for v in range(n + 1)]
    stride = n * width
    guard = ((1 << n * stride) - 1) // unit << (width - 1)

    def pack(u):
        packed = row = 0
        for i, v in enumerate(u.word):
            row += ones[v]
            packed |= row << i * stride
        return packed

    packed = [pack(u) for u in elements]
    raised = [v | guard for v in packed]
    bounds = [ranks.index(k) for k in range(ranks[-1] + 1)] + [len(ranks)]
    below = [1 << b for b in range(len(elements))]
    covers = []
    for lo, mid, hi in zip(bounds, bounds[1:], bounds[2:]):
        for a in range(lo, mid):
            u = packed[a]
            for b in [b for b in range(mid, hi) if (raised[b] - u) & guard == guard]:
                covers.append((a, b))
                below[b] |= below[a]
    poset = IdealPoset(w, elements, ranks, tuple(covers))
    vars(poset)["below"] = tuple(below)
    return poset


def word_keyed_closure(w: Involution):
    """The subword closure keyed by word: each reached word maps to its
    rank and its down-covers' words, each cover found by looking its word
    up in the letter's lifted map."""
    reached = {identity(w.n).word: (0, [])}
    for s in reduced_word(w):
        lifted = {x: _act(x, s) for x in reached if x[s - 1] < x[s]}
        for x, y in lifted.items():
            if y not in reached:
                r, down = reached[x]
                reached[y] = (r + 1, [x] + [lifted[z] for z in down if z in lifted])
    return reached


def joined_format(word):
    """One-line text by joining the str of each entry: digits for n <= 9,
    else comma-separated."""
    return ("" if len(word) <= 9 else ",").join(str(v) for v in word)


def grouped_dot(poset: IdealPoset):
    """DOT text of the Hasse diagram, one line appended at a time, the
    nodes grouped into rank clusters by `groupby` over the ranks."""
    names = [joined_format(u.word) for u in poset.elements]
    lines = ["digraph ideal {", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    for r, group in groupby(zip(poset.ranks, names), key=lambda pair: pair[0]):
        lines.append("  { rank=same;")
        for _, name in group:
            lines.append(f'    "{name}" [label="{name}\\nrank {r}"];')
        lines.append("  }")
    for a, b in poset.covers:
        lines.append(f'  "{names[a]}" -> "{names[b]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def repeat_free_word_by_components(w: Involution):
    """The repeat-free word of a Boolean w in two passes per connected
    component [lo, hi]: the letters lo..hi-1 that open no 2-cycle, or open
    it at lo, then the other openers."""
    values, letters = w.word, []
    for lo, hi in connected_components(w).components:
        letters.extend(i for i in range(lo, hi) if i == lo or values[i - 1] <= i)
        letters.extend(i for i in range(lo + 1, hi + 1) if values[i - 1] > i)
    return tuple(letters)


def motzkin_strings(n):
    """Every valid Motzkin step string of length n, by filtering 3^n words."""
    out = []
    for steps in product("UFD", repeat=n):
        h = 0
        for s in steps:
            h += {"U": 1, "F": 0, "D": -1}[s]
            if h < 0:
                break
        else:
            if h == 0:
                out.append("".join(steps))
    return out


def restricted_strings(n):
    """Restricted Motzkin strings: height <= 2, flats at height <= 1."""
    out = []
    for steps in motzkin_strings(n):
        h = 0
        ok = True
        for s in steps:
            h += {"U": 1, "F": 0, "D": -1}[s]
            if h > 2 or (s == "F" and h > 1):
                ok = False
                break
        if ok:
            out.append(steps)
    return out


def covers_from_below(poset):
    """Cover pairs computed the slow way, from the down-sets: comparable
    with nothing between."""
    size = len(poset)
    below = poset.below
    out = []
    for a in range(size):
        for b in range(size):
            if a == b or not below[b] >> a & 1:
                continue
            if not any(
                c not in (a, b) and below[c] >> a & 1 and below[b] >> c & 1
                for c in range(size)
            ):
                out.append((poset.elements[a], poset.elements[b]))
    return out


def dense_expand_rational(numerator, denominator, bounds):
    """Series division over every monomial of the truncation box, in
    lexicographic order, keeping the nonzero coefficients."""
    assert denominator.get((0,) * len(bounds), 0) == 1
    tail = [(t, c) for t, c in denominator.items() if any(t)]
    coeffs = {}
    for mono in product(*[range(bound + 1) for bound in bounds]):
        value = numerator.get(mono, 0)
        for t, c in tail:
            source = tuple(m - d for m, d in zip(mono, t))
            if all(e >= 0 for e in source):
                value -= c * coeffs.get(source, 0)
        if value:
            coeffs[mono] = value
    return coeffs


def dense_expand_rows(numerator, denominator, bounds):
    """`dense_expand_rational` cut into its rows of each x-degree d, as
    `series.expand_rational` gives them: (d, exponents, coefficients)."""
    coeffs = dense_expand_rational(numerator, denominator, bounds)
    rows = {d: [] for d in range(bounds[0] + 1)}
    for mono in coeffs:
        rows[mono[0]].append(mono)
    for d, keys in rows.items():
        yield d, keys, [coeffs[mono] for mono in keys]


def full_slot_path_rows(n_max, ups):
    """`motzkin.restricted_path_rows` as it read every row: all
    (n_max + 1)(n_max // 2 + 2) slots (n_max + 1 without `ups`) ordered
    and compressed at each n, and the sum of every decoded slot checked
    against the path total."""
    bits = count_bits(n_max + 2)
    width = slot_bytes(bits)
    stride, scale = (n_max // 2 + 2, 2) if ups else (1, 1)
    slots = (n_max + 1) * stride
    up, back = 8 * width * ups, 8 * width * stride
    order = sorted((-scale * r - u, u, r) for r in range(n_max + 1) for u in range(stride))
    at0, at1, at2 = 1, 0, 0
    for n, total in enumerate(restricted_totals(n_max), start=1):
        at0, at1, at2 = (at0 + at1) << back, (at0 << up) + at1 + at2, at1 << up
        values = decode_slots(at0, width, bits, slots, f"path row {n}")
        if sum(values) != total:
            raise InvariantViolationError(f"path row {n} overflows its {width}-byte slots")
        values += [0] * (slots - len(values))
        cells = [(shift, u, values[r * stride + u]) for shift, u, r in order]
        cells = [cell for cell in cells if cell[2]]
        keys = [(n, scale * n + shift, u)[: 2 + ups] for shift, u, _ in cells]
        yield n, keys, [count for _, _, count in cells]


def per_cell_table_rows(table, fmt, columns=()):
    """
    The text of a table dict one cell at a time, as `boolinv table` wrote it
    before its rows were formatted a row of n at a time: with fmt "tsv", the
    `columns` header and then a line per key, sorted by key, the count last;
    with "json", one object, keys joined by commas and sorted as strings,
    in json.dumps' form, without a final newline.
    """
    first = next(iter(table), ())
    tuples = isinstance(first, tuple)
    parts = len(first) if tuples else 1  # ints per key
    if fmt == "tsv":
        yield "\t".join(columns) + "\n"
        line = "\t".join(["%d"] * (parts + 1)) + "\n"
        for key in sorted(table):
            yield line % ((*key, table[key]) if tuples else (key, table[key]))
        return
    key_name = ",".join(["%d"] * parts)
    names = {key_name % key: key for key in table}
    separator = "{"
    for name in sorted(names):
        yield f'{separator}"{name}": {table[names[name]]}'
        separator = ", "
    yield "}" if table else "{}"


def base_inv_exc(n, length, exc):
    """
    The paper's closed forms covering sizes up to 3, inversion counts up to
    2, and the no-excedance column; all other cells there vanish:
      (n, 0, 0) -> 1; (n, 1, 1) -> n-1; (n, 2, 2) -> (n^2-5n+6)/2; (3, 3, 1) -> 1.
    """
    if length == 0 and exc == 0:
        return 1
    if n >= 2 and length == 1 and exc == 1:
        return n - 1
    if n >= 4 and length == 2 and exc == 2:
        return (n * n - 5 * n + 6) // 2
    if (n, length, exc) == (3, 3, 1):
        return 1
    return 0


def full_range_recurrence_inv_exc(n_max):
    """The six-term inversion/excedance recurrence over every cell with
    l <= n(n-1)/2 and a <= n/2, for n >= 4, l >= 3 and a >= 1, on the
    closed-form base cells of `base_inv_exc` everywhere else."""
    table = {}

    def lookup(n, length, exc):
        if length < 0 or exc < 0:
            return 0
        if n <= 1:
            return 1 if length == 0 and exc == 0 else 0
        return table.get((n, length, exc), 0)

    for n in range(1, n_max + 1):
        for length in range(0, n * (n - 1) // 2 + 1):
            for exc in range(0, n // 2 + 1):
                if n <= 3 or length <= 2 or exc == 0:
                    value = base_inv_exc(n, length, exc)
                else:
                    value = (
                        lookup(n - 1, length, exc)
                        + lookup(n - 1, length - 2, exc)
                        + lookup(n - 2, length - 1, exc - 1)
                        - lookup(n - 2, length - 2, exc)
                        + lookup(n - 2, length - 3, exc - 1)
                        - lookup(n - 3, length - 3, exc - 1)
                    )
                if value:
                    table[(n, length, exc)] = value
    return table


def four_term_rank_recurrence(n_max):
    """The rank table by the four-term recurrence

      r(n,k) = r(n-1,k) + r(n-1,k-1) + r(n-2,k-2) - r(n-3,k-2)

    for n >= 1 and k < n, over r(0,0) = 1 with every other cell of size
    n <= 0 or rank k < 0 zero."""
    table = {(0, 0): 1}
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


def three_term_total_recurrence(n_max):
    """The totals {n: h(n)} for 1 <= n <= n_max by
    h(n) = 2h(n-1) + h(n-2) - h(n-3) from h(-2), h(-1), h(0) = 2, 1, 1."""
    table = {}
    a, b, c = 2, 1, 1
    for n in range(1, n_max + 1):
        a, b, c = b, c, 2 * c + b - a
        table[n] = c
    return table


def nested_involution_words(n):
    """The words of every involution of S_n, lexicographic, by the recursive
    fill: the first free point is fixed, then paired with each larger free
    point in turn, one nested generator per free point."""
    word = list(range(1, n + 1))

    def fill(free):
        if not free:
            yield tuple(word)
            return
        p = free[0]
        rest = free[1:]
        word[p - 1] = p
        yield from fill(rest)
        for k, q in enumerate(rest):
            word[p - 1], word[q - 1] = q, p
            yield from fill(rest[:k] + rest[k + 1:])
            word[q - 1] = q
        word[p - 1] = p

    return list(fill(tuple(range(1, n + 1))))


def nested_signed_windows(n):
    """The windows of every signed involution of [+-n], lexicographic, by
    the recursive fill: the first free point p takes each of +-p and +-q
    (q a larger free point, which then takes +-p) in sorted order, one
    nested generator per free point."""
    window = [0] * n

    def fill(free):
        if not free:
            yield tuple(window)
            return
        p = free[0]
        rest = free[1:]
        for v in sorted([-q for q in rest] + [-p, p] + list(rest)):
            window[p - 1] = v
            if abs(v) == p:
                yield from fill(rest)
            else:
                q = abs(v)
                window[q - 1] = p if v > 0 else -p
                yield from fill(tuple(r for r in rest if r != q))
                window[q - 1] = 0
        window[p - 1] = 0

    return list(fill(tuple(range(1, n + 1))))


def sorted_signed_windows(n):
    """The windows of every signed involution of [+-n], built whole and
    sorted: each involution word of `nested_involution_words` with one
    sign per cycle, c -> +-w(c) and w(c) -> +-c, under every product of
    signs."""
    windows = []
    for word in nested_involution_words(n):
        leads = [(c, v) for c, v in enumerate(word, start=1) if v >= c]
        for signs in product((1, -1), repeat=len(leads)):
            window = [0] * n
            for (c, v), sign in zip(leads, signs):
                window[c - 1], window[v - 1] = sign * v, sign * c
            windows.append(tuple(window))
    return sorted(windows)


def pruned_boolean_words(n):
    """The words of the Boolean involutions of S_n, lexicographic, by the
    recursive fill of `nested_involution_words` that pairs the first free
    point p only while no earlier 2-cycle ends past p + 1."""
    word = list(range(1, n + 1))

    def fill(free, prefix):
        if not free:
            yield tuple(word)
            return
        p, rest = free[0], free[1:]
        yield from fill(rest, prefix)
        if prefix > p + 1:
            return
        for k, q in enumerate(rest):
            word[p - 1], word[q - 1] = q, p
            yield from fill(rest[:k] + rest[k + 1:], q)  # q is the largest point paired
            word[p - 1], word[q - 1] = p, q

    return fill(tuple(range(1, n + 1)), 0)


@lru_cache(maxsize=None)
def filtered_boolean_words(n):
    """(index in the full stream, word) of each involution of S_n without a
    long crossing, by filtering the nested stream with `has_long_crossing`;
    kept per size, as several tests read the same sizes."""
    return [
        (index, word)
        for index, word in enumerate(nested_involution_words(n))
        if not has_long_crossing(Involution(word))
    ]


def leaf_counts(words):
    """The words counted by (largest moved point, 0 for the identity;
    inversions; excedances), each word rescanned, keys in the order of
    their first word."""
    counts = {}
    for word in words:
        key = (
            max((i for i, v in enumerate(word, 1) if v != i), default=0),
            inversion_count(word),
            sum(1 for i, v in enumerate(word, 1) if v > i),
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


def _per_size_inv_exc_counts(n_max, words_of):
    table = {}
    for n in range(1, n_max + 1):
        for (_, inv, exc), count in leaf_counts(words_of(n)).items():
            table[n, inv, exc] = table.get((n, inv, exc), 0) + count
    return table


def filtered_inv_exc_counts(n_max):
    """Boolean involutions by (n, inversions, excedances), each word of the
    filtered stream of each size n <= n_max rescanned."""
    return _per_size_inv_exc_counts(n_max, lambda n: (w for _, w in filtered_boolean_words(n)))


def per_size_walk_inv_exc_counts(n_max):
    """Boolean involutions by (n, inversions, excedances), each word of
    `pruned_boolean_words` of each size n <= n_max rescanned, each row in
    walk order.  The filtered stream would hold every involution of S_15 at
    the brute guard edge, and `boolean_involutions` refuses S_15."""
    return _per_size_inv_exc_counts(n_max, pruned_boolean_words)


def prefix_rank_table(word):
    """R[i][j] = #{k <= i : w(k) >= j} for 0 <= i <= n, 1 <= j <= n."""
    n = len(word)
    rows = [tuple([0] * (n + 1))]
    counts = [0] * (n + 1)
    for i in range(1, n + 1):
        for j in range(1, word[i - 1] + 1):
            counts[j] += 1
        rows.append(tuple(counts))
    return tuple(rows)


def bruhat_leq_by_matrix(u, w):
    """Bruhat u <= w by comparing the full prefix rank matrices of the two
    words entry by entry."""
    ru, rw = prefix_rank_table(u), prefix_rank_table(w)
    n = len(u)
    return all(ru[i][j] <= rw[i][j] for i in range(1, n + 1) for j in range(1, n + 1))


def is_permutation_word(values):
    """The permutation check by sorting: the values are exactly 1..n."""
    return sorted(values) == list(range(1, len(values) + 1))


def is_signed_window(values):
    """The signed-window check by sorting: the absolute values are 1..n."""
    return is_permutation_word([abs(v) for v in values])


def is_self_inverse(values):
    """w(w(i)) = i for every i, on a permutation word or a signed window,
    each applied through the sign rule w(-i) = -w(i)."""

    def apply(i):
        v = values[abs(i) - 1]
        return v if i > 0 else -v

    return all(apply(apply(i)) == i for i in range(1, len(values) + 1))
