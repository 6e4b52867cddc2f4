"""
Truncated multivariate power series with exact integer coefficients, and
the closed-form rational generating functions for Boolean involution
counts.

Three series are provided.  Writing b(n, l, a) for the number of Boolean
involutions of S_n with l inversions and a excedances:

  * inv_exc_series:  sum b(n, l, a) x^n y^l z^a
        = (x^2yz + x - x^2y^2 - x^3y^3z)
          / (1 - x - x^2yz - xy^2 + x^2y^2 - x^2y^3z + x^3y^3z)
  * rank_series:     sum over ranks k, coefficient of x^n t^k
        = x(1 - x^2t^2) / ((1 - x^2t^2)(1 - x) - xt)
  * total_series:    sum of totals, coefficient of x^n
        = x(1 - x^2) / (1 - 2x - x^2 + x^3)

Each series is given by its nonzero coefficients a row of x-degree d at a
time, (d, their exponents, their coefficients), in ascending order of
exponents, a `Row` as `motzkin.restricted_path_rows` gives (`merge_rows`
makes one dict of them); no numerator has an x^0 term, so none has a
size-0 coefficient.  Those path rows share only `count_bits` and the slot
decoder with these series; their arithmetic and slot layouts differ, so a
decoder fault shows up as a disagreement, and each still checks the other.

Expansion is by series division, one x-degree row at a time, each row
packed into one integer (Kronecker substitution).  The coefficient of
y^l z^a sits in a slot of w bytes at index l (bound_z + 1) + a, the last
variable fastest, so the packed row is the row evaluated at z = 2^(8w),
y = z^(bound_z + 1).  Evaluation is a ring homomorphism, so packed row d
is exactly the numerator's packed row d less c times packed row d - t0
shifted by the slots of (t1, t2), over the denominator's terms
c x^t0 y^t1 z^t2 other than its constant 1.  A true row has nonnegative
counts below 2^count_bits(n) <= 2^(8w), all inside the truncation box, so
its slots decode uniquely (`decode_slots`, a machine word at a time up to
n = 50); a packed row that is negative, runs past the box or decodes to a
count of 2^count_bits(n) or more is no such row and raises
InvariantViolationError.
"""
from __future__ import annotations

import sys
from itertools import chain, compress, product
from math import prod
from operator import mul
from typing import Iterable, Iterator

from .permutations import InvariantViolationError

Monomial = tuple[int, ...]
Terms = dict[Monomial, int]
Row = tuple[int, list, list]  # a row of a table or series: n, the keys of size n, their counts


# The memoryview cast code of each machine-word slot width, in bytes.
_WORD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def count_bits(n: int) -> int:
    """
    Bits that hold every count at size n: floor(1.272 n) + 1.

    Each f or g count at size n is at most the total h(n).  The totals
    are h(1), h(2), h(3) = 1, 2, 4 and, from the denominator of
    total_series, h(n) = 2h(n-1) + h(n-2) - h(n-3) <= 2h(n-1) + h(n-2)
    for n >= 4.  With r = 1 + sqrt(2), so r^2 = 2r + 1, induction gives
    h(n) <= 2r^(n-2) + r^(n-3) = r^(n-1), as h(1) = 1, h(2) = 2 <= r and
    h(3) = 4 <= r^2.  Since log2(r) < 1.2716, h(n) <= r^(n-1) < 2^(1.272 n)
    < 2^count_bits(n).  For n <= 3000 at least 1 bit is to spare.
    """
    return 1272 * n // 1000 + 1


def slot_bytes(bits: int) -> int:
    """Bytes per slot of `bits`-bit counts: a machine word when one holds them."""
    width = -(-bits // 8)
    return 1 << (width - 1).bit_length() if width <= 8 else width


def decode_slots(row: int, width: int, bits: int, slots: int, name: str) -> list[int]:
    """The counts in the `width`-byte slots of the packed `row`, lowest first,
    up to its highest occupied slot; raises InvariantViolationError, naming
    `name`, on a row that is negative, passes `slots` slots or holds a count
    of 2^bits or more."""
    if row < 0 or row.bit_length() > 8 * width * slots:
        raise InvariantViolationError(f"{name} is not a row of counts in its box")
    size = -(-row.bit_length() // (8 * width)) * width  # bytes of the occupied slots
    if slots == 1:  # one slot: the row is its count
        values = [row]
    elif code := _WORD_CODES.get(width):  # one machine word per slot, in native byte order
        values = memoryview(row.to_bytes(size, sys.byteorder)).cast(code).tolist()
        if sys.byteorder == "big":
            values.reverse()
    else:
        data = row.to_bytes(size, "little")
        values = [int.from_bytes(data[i : i + width], "little") for i in range(0, size, width)]
    if max(values, default=0) >> bits:
        raise InvariantViolationError(f"{name} has a count of more than {bits} bits")
    return values


def expand_rational(numerator: Terms, denominator: Terms, bounds: tuple[int, ...]) -> Iterator[Row]:
    """
    Nonzero coefficients of numerator/denominator up to the bounds
    (inclusive), one x-degree d at a time: (d, their exponents, ascending,
    and their coefficients).  Only the rows the denominator's x-degree still
    reaches are kept, and each row is decoded, up to its highest occupied
    slot, as soon as it is complete.
    """
    if denominator.get((0,) * len(bounds), 0) != 1:
        raise ValueError("denominator constant term must be 1")
    if any(t[0] == 0 for t in denominator if any(t)):
        raise ValueError("denominator tail must have positive first-variable degree")
    keys = list(product(*(range(bound + 1) for bound in bounds[1:])))  # of each slot
    bits = count_bits(bounds[0])
    width = slot_bytes(bits)
    strides = [8 * width * prod(b + 1 for b in bounds[i + 1 :]) for i in range(1, len(bounds))]

    def shift(m: Monomial) -> int:
        return sum(map(mul, m[1:], strides))

    packed: dict[int, int] = {}  # the numerator's rows, then the rows still read
    for m, c in numerator.items():
        packed[m[0]] = packed.get(m[0], 0) + (c << shift(m))
    tail = [(t[0], shift(t), c) for t, c in denominator.items() if any(t)]
    depth = max((t0 for t0, _, _ in tail), default=0)
    for d in range(bounds[0] + 1):
        row = packed.get(d, 0)
        for t0, s, c in tail:
            term = packed.get(d - t0, 0) << s
            row = row - term if c == 1 else row + term if c == -1 else row - c * term
        packed[d] = row
        packed.pop(d - depth, None)
        values = decode_slots(row, width, bits, len(keys), f"series row {d}")
        yield d, list(map((d,).__add__, compress(keys, values))), list(compress(values, values))


def merge_rows(rows: Iterable[Row]) -> dict:
    """The cells of `rows` as one dict, {key: count}, in the order made."""
    return dict(chain.from_iterable(zip(keys, values) for _, keys, values in rows))


def inv_exc_series(n_max: int) -> Iterator[Row]:
    """Series in (x, y, z) counting Boolean involutions by size, inversions
    and excedances, cut at 2 n_max inversions and n_max // 2 excedances."""
    numerator = {(2, 1, 1): 1, (1, 0, 0): 1, (2, 2, 0): -1, (3, 3, 1): -1}
    denominator = {(0, 0, 0): 1, (1, 0, 0): -1, (2, 1, 1): -1, (1, 2, 0): -1, (2, 2, 0): 1,
                   (2, 3, 1): -1, (3, 3, 1): 1}
    return expand_rational(numerator, denominator, (n_max, 2 * n_max, n_max // 2))


def rank_series(n_max: int) -> Iterator[Row]:
    """Series in (x, t) counting Boolean involutions by size and rank, cut at
    rank n_max."""
    numerator = {(1, 0): 1, (3, 2): -1}
    denominator = {(0, 0): 1, (1, 0): -1, (1, 1): -1, (2, 2): -1, (3, 2): 1}
    return expand_rational(numerator, denominator, (n_max, n_max))


def total_series(n_max: int) -> Iterator[Row]:
    """Series in x counting all Boolean involutions of each size."""
    numerator = {(1,): 1, (3,): -1}
    denominator = {(0,): 1, (1,): -2, (2,): -1, (3,): 1}
    return expand_rational(numerator, denominator, (n_max,))
