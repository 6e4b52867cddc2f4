"""
Motzkin paths, and the correspondence between involutions and paths that
restricts to a bijection on the Boolean involutions.

An involution maps to the path whose k-th step is flat, up or down
according as k is a fixed point, an excedance or a deficiency.  The image
of the Boolean involutions is exactly the "restricted" paths: height at
most 2 with every flat step at height at most 1.  Inverting pairs the m-th
up step with the m-th down step, in the pass that checks the restriction.
Both directions build their results unchecked, in one pass: an involution's
steps always form a Motzkin path, as the D at d closes the U at w(d) < d,
and a restricted path's disjoint pairs make a self-inverse word.
`MotzkinPath(...)` and `parse_path` still validate their input.

Path text form: a string over {U, F, D}, e.g. "UUDUDUDDF".
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, compress, repeat
from operator import itemgetter
from typing import Iterator

from .permutations import InvariantViolationError, Involution, ParseError, check_size
from .permutations import _as_involution, _trusted_involution
from .series import Row, count_bits, decode_slots, slot_bytes

STEP_RISE = {"U": 1, "F": 0, "D": -1}


@dataclass(frozen=True)
class MotzkinPath:
    """A lattice path staying weakly above the axis and ending on it."""

    steps: str

    def __post_init__(self):
        h = 0
        for k, step in enumerate(self.steps, start=1):
            if step not in STEP_RISE:
                raise ValueError(f"bad step {step!r} at position {k}")
            h += STEP_RISE[step]
            if h < 0:
                raise ValueError(f"path dips below the axis at step {k}")
        if h != 0:
            raise ValueError(f"path ends at height {h}, not 0")

    @property
    def n(self) -> int:
        return len(self.steps)

    def heights(self) -> tuple[int, ...]:
        """h_0 = 0, h_1, ..., h_n after each step."""
        return tuple(accumulate(map(STEP_RISE.__getitem__, self.steps), initial=0))


def parse_path(text: str) -> MotzkinPath:
    try:
        return MotzkinPath(text.strip().upper())
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_path(path: MotzkinPath) -> str:
    return path.steps


def involution_to_path(w: Involution) -> MotzkinPath:
    """Record fixed points, excedances and deficiencies as F, U, D steps; an
    argument not typed Involution raises ValueError unless self-inverse."""
    path = object.__new__(MotzkinPath)
    path.__dict__["steps"] = "".join(
        ["F" if v == i else "U" if v > i else "D" for i, v in enumerate(_as_involution(w).word, 1)])
    return path


def path_to_involution(path: MotzkinPath) -> Involution:
    """The Boolean involution of a restricted path, by `_pair_steps`; a path
    that is not restricted raises ValueError naming its first bad step."""
    word, violation = _pair_steps(path.steps)
    if violation is not None:
        index, reason = violation
        raise ValueError(f"path not restricted: {reason} at step {index}")
    return _trusted_involution(tuple(word))


def _pair_steps(steps: str) -> tuple[list[int], tuple[int, str] | None]:
    """One pass: the word that fixes each flat and pairs the m-th up step with
    the m-th down step, and the first step that breaks the restriction (a
    step other than D at height 2) with a description, or None."""
    word = list(range(1, len(steps) + 1))
    ups = []  # the up steps not yet closed, oldest first: one per unit of height
    for k, step in enumerate(steps, 1):
        if step == "D":
            u = ups.pop(0)
            word[u - 1], word[k - 1] = k, u
        elif len(ups) == 2:
            return word, (k, "height above 2" if step == "U" else "flat step above level 1")
        elif step == "U":
            ups.append(k)
    return word, None


def is_restricted(path: MotzkinPath) -> bool:
    return first_restriction_violation(path) is None


def first_restriction_violation(path: MotzkinPath) -> tuple[int, str] | None:
    """The first step breaking the restriction, with a description, or None."""
    return _pair_steps(path.steps)[1]


def axis_contacts(path: MotzkinPath) -> int:
    """Number of indices i in [n] with h_i = 0 (the origin does not count)."""
    return sum(1 for h in path.heights()[1:] if h == 0)


def rank_from_path(path: MotzkinPath) -> int:
    """Rank of the Boolean involution behind a restricted path: n minus the
    number of returns to the axis."""
    if not is_restricted(path):
        raise ValueError(f"path {path.steps!r} is not restricted")
    return path.n - axis_contacts(path)


def restricted_totals(n_max: int) -> Iterator[int]:
    """h(1), ..., h(n_max): the restricted paths of each length, by the
    transfer matrix of `restricted_path_rows` on plain ints."""
    at0, at1, at2 = 1, 0, 0
    for _ in range(n_max):
        at0, at1, at2 = at0 + at1, at0 + at1 + at2, at1
        yield at0


def restricted_path_rows(n_max: int, ups: bool) -> Iterator[Row]:
    """
    Row n of table f (with `ups`) or g for each n = 1..n_max, keys
    ascending: the restricted paths of length n with r returns to the axis
    and u up steps count in cell (n, 2n - 2r - u, u) of f and (n, n - r) of
    g, by the paper's bijection.  They are counted by a transfer matrix over
    the height of the last step (flats only below 2, every step onto the
    axis a return), with the count of (r, u) in slot r * stride + u, stride
    n_max // 2 + 2; without `ups`, u stays 0 and the stride is 1, as small as
    the rank marginal needs.

    The paths at each height are one packed int in those slots, so a return
    is one shift and an up step another.  A prefix at height 1 or 2 ends,
    by D or DD, in its own path of length at most n_max + 2: no count passes
    h(n_max + 2) < 2^count_bits(n_max + 2), and no prefix has more than
    n_max // 2 + 1 ups.  At every n the cells ascend with the slots by
    k = 2r + u (f) or r (g) descending, then by u, so one slot order, made
    once, serves every row.  Row n reads only its window, the slots that can
    hold a cell of size n, k <= 2n (f) or n (g), so r <= n: a suffix of
    that order, below slot (n + 1) stride; the order holds only the window
    of n_max.  A carry out of a slot, or a count left outside the window,
    would lower the sum of the counts read below `restricted_totals`, as
    checked.

    >>> list(restricted_path_rows(3, True))[-1]
    (3, [(3, 0, 0), (3, 1, 1), (3, 3, 1)], [1, 2, 1])
    """
    bits = count_bits(n_max + 2)
    width = slot_bytes(bits)
    stride, scale = (n_max // 2 + 2, 2) if ups else (1, 1)
    up, back = 8 * width * ups, 8 * width * stride
    # each slot with k = scale r + u <= scale n_max, as (-k, u, its index), in cell order
    shifts, ups_of, slot_of = map(tuple, zip(*(
        (-k, u, (k - u) // scale * stride + u) for k in range(scale * n_max, -1, -1)
        for u in range(k % scale, min(k, stride - 1) + 1, scale))))
    at0, at1, at2 = 1, 0, 0  # packed rows
    for n, total in enumerate(restricted_totals(n_max), start=1):
        at0, at1, at2 = (
            (at0 + at1) << back,  # flat at 0, or down from 1
            (at0 << up) + at1 + at2,  # up from 0, flat at 1, down from 2
            at1 << up,  # up from 1
        )
        values = decode_slots(at0, width, bits, (n_max + 1) * stride, f"path row {n}")
        start = bisect_left(shifts, -scale * n)  # k <= scale n: 2 slots or more, so a tuple
        counts = itemgetter(*slot_of[start:])(values + [0] * ((n + 1) * stride - len(values)))
        if sum(counts) != total:
            raise InvariantViolationError(f"path row {n} overflows its {width}-byte slots")
        seconds = map((scale * n).__add__, compress(shifts[start:], counts))
        ups_in = compress(ups_of[start:], counts)
        keys = zip(repeat(n), seconds, ups_in) if ups else zip(repeat(n), seconds)
        yield n, list(keys), list(compress(counts, counts))


def count_restricted(n: int) -> int:
    """Count restricted Motzkin paths of length n, by `restricted_totals`."""
    *_, last = 1, *restricted_totals(check_size(n))
    return last
