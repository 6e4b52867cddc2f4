"""
The benchmark's own certificate checker, written from the definitions and
sharing no code with `boolinv`.

Elements are one-line words as tuples or lists of ints (values 1..n).  A
checking function returns None when the output is right and a one-line
reason when it is not.
"""
from __future__ import annotations

import operator
import re
from itertools import accumulate

FORBIDDEN = {"4321": (4, 3, 2, 1), "45312": (4, 5, 3, 1, 2), "456123": (4, 5, 6, 1, 2, 3)}

# Signed involutions are Boolean iff they avoid these windows.
SIGNED_FORBIDDEN = frozenset(
    tuple(int(v) for v in text.split(","))
    for text in (
        "4,3,2,1", "-1,-2", "2,1,-3", "3,-4,1,-2", "-4,3,2,-1", "4,5,3,1,2",
        "1,-3,-2", "4,2,-3,1", "-4,5,3,-1,2", "5,-4,3,-2,1", "4,5,6,1,2,3",
        "-3,-2,-1", "4,-3,-2,1", "4,5,-3,1,2", "-4,5,6,-1,2,3", "5,-4,6,-2,1,3",
    )
)


def is_involution(w) -> bool:
    n = len(w)
    return sorted(w) == list(range(1, n + 1)) and all(w[v - 1] == i for i, v in enumerate(w, 1))


def inversion_count(w) -> int:
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def two_cycle_count(w) -> int:
    return sum(1 for i, v in enumerate(w, 1) if v > i)


def rank(w) -> int:
    """Rank in the Bruhat order on involutions: (inversions + 2-cycles) / 2."""
    return (inversion_count(w) + two_cycle_count(w)) // 2


def act(w: tuple, i: int) -> tuple:
    """Letter i on involution w: conjugate by s_i, or multiply when s_i
    commutes with w."""
    swap = {i: i + 1, i + 1: i}
    conj = list(w)
    conj[i - 1], conj[i] = w[i], w[i - 1]
    conj = tuple(swap.get(v, v) for v in conj)
    if conj != w:
        return conj
    out = list(w)
    out[i - 1], out[i] = w[i], w[i - 1]
    return tuple(out)


def evaluate(letters, n: int) -> tuple:
    w = tuple(range(1, n + 1))
    for i in letters:
        if not 1 <= i < n:
            raise ValueError(f"letter {i} out of range for n={n}")
        w = act(w, i)
    return w


def is_long_crossing(w, i: int, j: int) -> bool:
    """(i, j) with i < j < w(j) and w(i) > j + 1."""
    n = len(w)
    return 1 <= i < j <= n and j < w[j - 1] and w[i - 1] > j + 1


def is_boolean(w) -> bool:
    """Booleanness from the long-crossing definition, by a full pair scan."""
    n = len(w)
    return not any(is_long_crossing(w, i, j) for j in range(2, n + 1) for i in range(1, j))


def component_cuts(w) -> list[int]:
    """Every c in 0..n with {w(1..c)} = {1..c}: the direct-sum boundaries."""
    return [0] + [k for k, m in enumerate(accumulate(w, max), 1) if m == k]


def pattern_of(values) -> tuple:
    ranked = sorted(values)
    return tuple(ranked.index(v) + 1 for v in values)


def embed_signed(window) -> tuple:
    """The centrally symmetric permutation of [2n] for a signed window."""
    n = len(window)

    def image(i: int) -> int:
        return window[i - 1] if i > 0 else -window[-i - 1]

    def relabel(v: int) -> int:
        return v + n + 1 if v < 0 else v + n

    return tuple(relabel(image(p - n - 1 if p <= n else p - n)) for p in range(1, 2 * n + 1))


def restricted_steps(h: int) -> list[tuple[str, int]]:
    """Steps allowed at height h: height stays <= 2, flats only at <= 1."""
    out = []
    if h < 2:
        out.append(("U", h + 1))
    if h <= 1:
        out.append(("F", h))
    if h > 0:
        out.append(("D", h - 1))
    return out


def path_to_word(steps: str) -> list[int]:
    """Pair the m-th up step with the m-th down step; flats are fixed."""
    ups = [k for k, s in enumerate(steps, 1) if s == "U"]
    downs = [k for k, s in enumerate(steps, 1) if s == "D"]
    w = list(range(1, len(steps) + 1))
    for u, d in zip(ups, downs):
        w[u - 1], w[d - 1] = d, u
    return w


def word_to_path(w) -> str:
    return "".join("F" if v == i else "U" if v > i else "D" for i, v in enumerate(w, 1))


def restricted_tables(n_max: int):
    """Restricted Motzkin path counts by size, by (size, rank) and by
    (size, up steps).  Rank is n minus the returns to the axis, and up
    steps are the excedances of the matching Boolean involution."""
    totals, by_rank, by_ups = {}, {}, {}
    # state: (height, returns, ups) -> count
    states = {(0, 0, 0): 1}
    for n in range(1, n_max + 1):
        nxt: dict = {}
        for (h, returns, ups), count in states.items():
            for step, h2 in restricted_steps(h):
                key = (h2, returns + (h2 == 0), ups + (step == "U"))
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
        for (h, returns, ups), count in states.items():
            if h == 0:
                totals[n] = totals.get(n, 0) + count
                by_rank[(n, n - returns)] = by_rank.get((n, n - returns), 0) + count
                by_ups[(n, ups)] = by_ups.get((n, ups), 0) + count
    return totals, by_rank, by_ups


def inv_exc_table(n_max: int) -> dict:
    """Exact (n, inversions, excedances) counts by listing every restricted
    path; only for small n."""
    table: dict = {}

    def walk(steps: str, h: int, n: int):
        if len(steps) == n:
            if h == 0:
                w = path_to_word(steps)
                key = (n, inversion_count(w), two_cycle_count(w))
                table[key] = table.get(key, 0) + 1
            return
        for step, h2 in restricted_steps(h):
            if h2 <= n - len(steps) - 1:
                walk(steps + step, h2, n)

    for n in range(1, n_max + 1):
        walk("", 0, n)
    return table


def check_certificate(host, is_bool, expected, pair, pattern, positions, values, word,
                      signed_window=None) -> str | None:
    """
    Check a verdict on `host` (the embedded image for signed elements).

    Boolean: the word has distinct letters, its length is the rank, and it
    evaluates back to the host.  Not Boolean: the pair is a long crossing
    of the host, and the occurrence is order-isomorphic to the forbidden
    pattern it names (signs slot by slot for signed windows).
    """
    if is_bool != expected:
        return f"verdict {is_bool}, expected {expected}"
    if is_bool:
        if word is None or pair is not None or pattern is not None:
            return "Boolean verdict without a word, or with non-Boolean witnesses"
        word = tuple(word)
        if len(set(word)) != len(word):
            return f"word {word} repeats a letter"
        if len(word) != rank(host):
            return f"word length {len(word)} != rank {rank(host)}"
        if evaluate(word, len(host)) != tuple(host):
            return f"word {word} does not evaluate to the element"
        return None
    if word is not None or pair is None or pattern is None:
        return "non-Boolean verdict with a word, or without its witnesses"
    if not is_long_crossing(host, *pair):
        return f"pair {tuple(pair)} is not a long crossing"
    positions, values = tuple(positions), tuple(values)
    if list(positions) != sorted(set(positions)) or len(values) != len(positions):
        return f"malformed occurrence {positions}"
    if signed_window is None:
        if tuple(pattern) not in FORBIDDEN.values():
            return f"pattern {pattern} is not forbidden"
        target = host
    else:
        if tuple(pattern) not in SIGNED_FORBIDDEN:
            return f"signed pattern {pattern} is not forbidden"
        target = signed_window
    if not positions or positions[0] < 1 or positions[-1] > len(target):
        return f"occurrence {positions} outside the element"
    if values != tuple(target[i - 1] for i in positions):
        return f"occurrence values {values} are not the element's"
    if pattern_of([abs(v) for v in values]) != tuple(abs(v) for v in pattern):
        return f"occurrence {values} is not order-isomorphic to {pattern}"
    if any((v > 0) != (p > 0) for v, p in zip(values, pattern)):
        return f"occurrence {values} has the wrong signs for {pattern}"
    return None


def parse_element(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",")) if "," in text else tuple(int(c) for c in text)


def check_payload(payload: dict, element_text: str, host, expected, signed_window=None) -> str | None:
    """Check one `boolinv check` JSON payload."""
    if payload.get("element") != element_text:
        return f"element {payload.get('element')!r} != {element_text!r}"
    inv, cycles = inversion_count(host), two_cycle_count(host)
    profile = (payload.get("rank"), payload.get("coxeter_length"), payload.get("absolute_length"))
    if profile != ((inv + cycles) // 2, inv, cycles):
        return f"rank profile {profile} wrong"
    if bool(payload.get("signed")) != (signed_window is not None):
        return "signed flag wrong"
    occ = payload.get("occurrence") or {}
    pattern = payload.get("pattern")
    return check_certificate(
        host, payload.get("is_boolean"), expected, payload.get("long_crossing_pair"),
        parse_element(pattern) if pattern is not None else None,
        occ.get("positions", ()), occ.get("values", ()), payload.get("word"), signed_window,
    )


_NODE = re.compile(r'^    "([^"]+)" \[label="\1\\nrank (\d+)"\];$')
_EDGE = re.compile(r'^  "([^"]+)" -> "([^"]+)";$')


def reduced_word(w: tuple) -> list[int]:
    """Peel the smallest rank-lowering letter until the identity."""
    letters, r = [], rank(w)
    while r:
        for i in range(1, len(w)):
            lower = act(w, i)
            if rank(lower) == r - 1:
                letters.append(i)
                w, r = lower, r - 1
                break
        else:
            raise ValueError(f"no descent for {w}")
    return letters[::-1]


def closure(w: tuple) -> set:
    """The involutions below w: evaluations of all subwords of a reduced word."""
    reached = {tuple(range(1, len(w) + 1))}
    for letter in reduced_word(w):
        reached |= {act(u, letter) for u in reached}
    return reached


def _dominance_key(u) -> tuple:
    """Prefix counts #{k <= i : u(k) >= j}, flattened; u <= v in Bruhat
    order iff every entry of u's key is at most v's."""
    n, counts, key = len(u), [0] * (len(u) + 2), []
    for v in u:
        for j in range(1, v + 1):
            counts[j] += 1
        key.extend(counts[1:n + 1])
    return tuple(key)


def check_ideal(text: str, w: tuple, expected: bool) -> str | None:
    """Check the certification line and the DOT Hasse diagram of the ideal below w."""
    first, _, dot = text.partition("\n")
    below = closure(w)
    r = rank(w)
    want = f"// boolean lattice: {str(expected).lower()}; elements: {len(below)}; rank: {r}"
    if first != want:
        return f"certification {first!r} != {want!r}"
    names = {}
    edges = []
    for line in dot.splitlines():
        node = _NODE.match(line)
        if node:
            names[node.group(1)] = int(node.group(2))
            continue
        edge = _EDGE.match(line)
        if edge:
            edges.append((edge.group(1), edge.group(2)))
    elements = {parse_element(name): rk for name, rk in names.items()}
    if set(elements) != below or len(names) != len(below):
        return "DOT nodes are not the ideal's elements"
    if any(rank(u) != rk for u, rk in elements.items()):
        return "DOT node rank label wrong"
    keys = {u: _dominance_key(u) for u in below}
    by_rank: dict = {}
    for u in below:
        by_rank.setdefault(elements[u], []).append(u)
    covers = set()
    for k in range(r):
        for lo in by_rank.get(k, ()):
            klo = keys[lo]
            for hi in by_rank.get(k + 1, ()):
                if all(map(operator.le, klo, keys[hi])):
                    covers.add((lo, hi))
    got = {(parse_element(a), parse_element(b)) for a, b in edges}
    if got != covers or len(edges) != len(covers):
        return f"DOT has {len(edges)} edges, the ideal has {len(covers)} covers"
    return None
