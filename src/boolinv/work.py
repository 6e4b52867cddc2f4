"""
The size guards of every exhaustive path, in one table, and the one place
that refuses.  Each caller knows only its guard's unit and its prediction
of the work in that unit; `refuse` compares the two.
"""
from __future__ import annotations

from typing import Iterable

# guard -> (limit, unit).  The largest admitted and first refused input of
# each guard are pinned in tests/test_work.py and listed in README's table.
LIMITS: dict[str, tuple[int, str]] = {
    "stream": (14, "n"),
    "signed": (7, "n"),
    "brute": (10**5, "Boolean involutions walked"),
    "work": (318_020_000, "cells times count bits"),
    "ideal": (8192, "elements"),
    "words": (12, "rank"),
}


class ResourceLimitError(RuntimeError):
    """Raised when an exhaustive search would exceed its size guard.  It
    names the `guard`, the `predicted` work that passed it, and its `limit`."""


def refuse(guard: str, work: Iterable[int], subject: str) -> None:
    """Raise ResourceLimitError for `subject` once the nondecreasing predicted
    `work`, in the unit of `guard`, passes its limit; read no further."""
    limit, unit = LIMITS[guard]
    for predicted in work:
        if predicted > limit:
            error = ResourceLimitError(f"{subject} exceeds {guard} guard {limit} ({unit})")
            error.guard, error.predicted, error.limit = guard, predicted, limit
            raise error
