"""
Seeded input generators whose every item carries a known answer.

Everything here is independent of `boolinv`: elements are plain lists of
ints (one-line words, 1-based values) and the answers come from
`oracle`.  The program under test only ever sees the text these produce.
"""
from __future__ import annotations

import random
from functools import lru_cache

import oracle

@lru_cache(maxsize=None)
def involution_count(n: int) -> int:
    """Number of involutions of S_n: I(n) = I(n-1) + (n-1) I(n-2)."""
    return 1 if n < 2 else involution_count(n - 1) + (n - 1) * involution_count(n - 2)


def uniform_involution(rng: random.Random, n: int) -> list[int]:
    """An involution of S_n drawn uniformly: the smallest free point stays
    fixed with probability I(m-1)/I(m), else pairs with a uniform partner."""
    free = list(range(1, n + 1))
    w = list(range(1, n + 1))
    while free:
        m = len(free)
        p = free.pop(0)
        if rng.randrange(involution_count(m)) < involution_count(m - 1):
            continue
        q = free.pop(rng.randrange(m - 1))
        w[p - 1], w[q - 1] = q, p
    return w


@lru_cache(maxsize=None)
def _completions(n: int) -> tuple[tuple[int, int, int], ...]:
    """ways[k][h]: restricted continuations from step k at height h to (n, 0)."""
    ways = [(0, 0, 0)] * (n + 1)
    ways[n] = (1, 0, 0)
    for k in range(n - 1, -1, -1):
        nxt = ways[k + 1]
        ways[k] = tuple(
            sum(nxt[h2] for step, h2 in oracle.restricted_steps(h)) for h in range(3)
        )
    return tuple(ways)


def uniform_restricted_path(rng: random.Random, n: int) -> str:
    """A restricted Motzkin path of length n drawn uniformly (U/F/D steps)."""
    ways = _completions(n)
    h, steps = 0, []
    for k in range(n):
        options = oracle.restricted_steps(h)
        r = rng.randrange(sum(ways[k + 1][h2] for _, h2 in options))
        for step, h2 in options:
            if r < ways[k + 1][h2]:
                steps.append(step)
                h = h2
                break
            r -= ways[k + 1][h2]
    return "".join(steps)


def boolean_involution(rng: random.Random, n: int) -> list[int]:
    """A uniform Boolean involution of S_n, through a uniform restricted path."""
    return oracle.path_to_word(uniform_restricted_path(rng, n))


def plant_block(body: list[int], block: tuple[int, ...], cut: int) -> list[int]:
    """Direct sum body[:cut] + block + body[cut:], values shifted to stay a
    permutation.  `cut` must be a component boundary of body."""
    k = len(block)

    def shift(v: int) -> int:
        return v if v <= cut else v + k

    return [shift(v) for v in body[:cut]] + [cut + v for v in block] + [shift(v) for v in body[cut:]]


def near_boolean(rng: random.Random, n: int, block: str, where: float) -> list[int]:
    """A Boolean body of size n - |block| with the block planted at the
    component boundary nearest to `where` (a fraction of the body length).
    The block is sum-indecomposable and the body avoids all three forbidden
    patterns, so the planted pattern is the only one the result contains."""
    pattern = oracle.FORBIDDEN[block]
    body = boolean_involution(rng, n - len(pattern))
    target = where * len(body)
    cut = min(oracle.component_cuts(body), key=lambda c: (abs(c - target), c))
    return plant_block(body, pattern, cut)


def random_signed_involution(rng: random.Random, n: int) -> list[int]:
    """A signed involution window of size n: a uniform involution of [n]
    with one random sign per 2-cycle and per fixed point."""
    w = uniform_involution(rng, n)
    window = [0] * n
    for i, v in enumerate(w, start=1):
        if v >= i:
            sign = rng.choice((1, -1))
            window[i - 1] = sign * v
            window[v - 1] = sign * i
    return window


def signed_with_answer(rng: random.Random, n: int, boolean: bool) -> list[int]:
    """Rejection-sample a signed involution window with the wanted answer."""
    while True:
        window = random_signed_involution(rng, n)
        if oracle.is_boolean(oracle.embed_signed(window)) == boolean:
            return window


def involution_with_rank(rng: random.Random, rank: int, boolean: bool, n: int) -> list[int]:
    """Rejection-sample an involution of the given rank and answer: Boolean
    ones of S_n, others of S_m for a uniform m in [4, n]."""
    while True:
        if boolean:
            w = boolean_involution(rng, n)
        else:
            w = uniform_involution(rng, rng.randint(4, n))
        if oracle.rank(w) == rank and oracle.is_boolean(w) == boolean:
            return w


def spread(k: int, base: int = 2) -> float:
    """The k-th point of the van der Corput sequence in [0, 1): any run of
    consecutive points covers the interval evenly, so a prefix of rounds
    sees every size range in proportion."""
    x, denom = 0.0, 1.0
    while k:
        denom *= base
        k, digit = divmod(k, base)
        x += digit / denom
    return x


def size_at(k: int, lo: int, hi: int, shift: float = 0.0) -> int:
    """The k-th size of a low-discrepancy schedule over [lo, hi]; `shift`
    offsets one slot's schedule from another's."""
    return lo + int(((spread(k) + shift) % 1.0) * (hi - lo + 1))


def format_word(w: list[int]) -> str:
    """Text the CLI accepts: digits for n <= 9, else comma-separated."""
    return "".join(map(str, w)) if len(w) <= 9 else ",".join(map(str, w))
