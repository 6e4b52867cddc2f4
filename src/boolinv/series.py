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

Each series is the dict of its nonzero coefficients, {exponents:
coefficient}; no numerator has an x^0 term, so none has a size-0
coefficient.  These series share no code with the restricted path
counts of `motzkin.restricted_path_rows`, so each checks the other.

Expansion is by series division: with a denominator of constant term 1
whose other terms all carry a positive power of x, the coefficients in x
degree n depend only on lower degrees.  So the expansion runs one x degree
at a time, each row a dict of its nonzero coefficients in the other
variables, and costs in proportion to the nonzero coefficients rather than
to the whole truncation box.
"""
from __future__ import annotations

from operator import add, le

Monomial = tuple[int, ...]
Terms = dict[Monomial, int]


def expand_rational(numerator: Terms, denominator: Terms, bounds: tuple[int, ...]) -> Terms:
    """
    Nonzero coefficients of numerator/denominator up to the bounds
    (inclusive), one x-degree row at a time: row d is the numerator's row d
    minus c times row d - t[0] shifted by t[1:], over the denominator terms
    c*x^t other than its constant term 1, each of positive x-degree.  Only
    the rows the denominator's x-degree still reaches are kept aside; each
    row goes into the result as soon as it is complete.
    """
    if denominator.get((0,) * len(bounds), 0) != 1:
        raise ValueError("denominator constant term must be 1")
    tail = [(t, c) for t, c in denominator.items() if any(t)]
    if any(t[0] == 0 for t, _ in tail):
        raise ValueError("denominator tail must have positive first-variable degree")
    depth = max((t[0] for t, _ in tail), default=0)
    rows: dict[int, Terms] = {}  # the last `depth` rows, all that is read again
    coeffs: Terms = {}
    for d in range(bounds[0] + 1):
        row = {m[1:]: v for m, v in numerator.items() if m[0] == d}
        for t, c in tail:
            for rest, v in rows.get(d - t[0], {}).items():
                key = tuple(map(add, rest, t[1:]))
                row[key] = row.get(key, 0) - c * v
        row = {r: v for r, v in sorted(row.items()) if v and all(map(le, r, bounds[1:]))}
        rows[d] = row
        rows.pop(d - depth, None)
        coeffs.update(((d, *r), v) for r, v in row.items())
    return coeffs


def inv_exc_series(n_max: int) -> Terms:
    """Series in (x, y, z) counting Boolean involutions by size, inversions
    and excedances, cut at 2 n_max inversions and n_max // 2 excedances."""
    numerator = {(2, 1, 1): 1, (1, 0, 0): 1, (2, 2, 0): -1, (3, 3, 1): -1}
    denominator = {
        (0, 0, 0): 1,
        (1, 0, 0): -1,
        (2, 1, 1): -1,
        (1, 2, 0): -1,
        (2, 2, 0): 1,
        (2, 3, 1): -1,
        (3, 3, 1): 1,
    }
    return expand_rational(numerator, denominator, (n_max, 2 * n_max, n_max // 2))


def rank_series(n_max: int) -> Terms:
    """Series in (x, t) counting Boolean involutions by size and rank, cut at
    rank n_max."""
    numerator = {(1, 0): 1, (3, 2): -1}
    denominator = {(0, 0): 1, (1, 0): -1, (1, 1): -1, (2, 2): -1, (3, 2): 1}
    return expand_rational(numerator, denominator, (n_max, n_max))


def total_series(n_max: int) -> Terms:
    """Series in x counting all Boolean involutions of each size."""
    numerator = {(1,): 1, (3,): -1}
    denominator = {(0,): 1, (1,): -2, (2,): -1, (3,): 1}
    return expand_rational(numerator, denominator, (n_max,))
