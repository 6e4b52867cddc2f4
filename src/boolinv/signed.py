"""
Signed permutations: bijections of {-n..-1, 1..n} commuting with negation,
stored by the window (pi(1), ..., pi(n)).

A signed permutation embeds into the symmetric group on 2n points by
relabelling -n, ..., -1, 1, ..., n order-preservingly to 1, ..., 2n; the
image is centrally symmetric.  A signed involution is Boolean precisely
when its embedded image is, which reduces the type-B question to the
classical machinery; the equivalent signed-pattern criterion uses the
sixteen-window list from `patterns.SIGNED_FORBIDDEN_PATTERNS`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .boolean import (
    BooleanVerdict, InvariantViolationError, first_long_crossing_pair, with_witnesses)
from .patterns import SIGNED_FORBIDDEN_PATTERNS, first_occurrence, format_signed
from .permutations import Involution, Permutation, _tag_involution, check_word, parse_int_tokens

SIGNED_METHODS = ("embedding", "signed_patterns", "all")


@dataclass(frozen=True, eq=False)
class SignedPermutation:
    """A permutation pi of [+-n] with pi(-i) = -pi(i), held by its window."""

    window: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "window", check_word(self.window, signed=True))

    @property
    def n(self) -> int:
        return len(self.window)

    def __call__(self, i: int) -> int:
        if i == 0 or abs(i) > self.n:
            raise ValueError(f"index {i} out of range for [+-{self.n}]")
        return self.window[i - 1] if i > 0 else -self.window[-i - 1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SignedPermutation) and self.window == other.window

    def __hash__(self) -> int:
        return hash(("signed", self.window))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({format_signed(self)!r})"

    def is_involution(self) -> bool:
        w = self.window  # w(w(i)) = i, read off the window by w(-j) = -w(j)
        return all(w[abs(v) - 1] == (i if v > 0 else -i) for i, v in enumerate(w, start=1))


@dataclass(frozen=True, eq=False, repr=False)
class SignedInvolution(SignedPermutation):
    def __post_init__(self):
        super().__post_init__()
        if not self.is_involution():
            raise ValueError(f"not self-inverse: {self.window}")


@dataclass(frozen=True)
class EmbeddedPermutation:
    """Image of a signed permutation in S_2n; centrally symmetric."""

    perm: Permutation

    def __post_init__(self):
        m = self.perm.n
        if m % 2 or any(
            self.perm.word[m - i] != m + 1 - self.perm.word[i - 1]
            for i in range(1, m + 1)
        ):
            raise ValueError(f"not centrally symmetric: {self.perm.word}")

    @property
    def n(self) -> int:
        return self.perm.n // 2


def _trusted_signed_involution(window: tuple[int, ...]) -> SignedInvolution:
    """
    A SignedInvolution on a tuple the caller has built as one, without the
    window and self-inverse checks of the validating constructor.
    """
    w = object.__new__(SignedInvolution)
    object.__setattr__(w, "window", window)
    return w


def signed_identity(n: int) -> SignedInvolution:
    return _trusted_signed_involution(tuple(range(1, n + 1)))


def parse_signed(text: str) -> SignedPermutation:
    """Comma-separated signed integers, e.g. "2,1,-3"."""
    w = SignedPermutation(tuple(parse_int_tokens(text)))
    return _trusted_signed_involution(w.window) if w.is_involution() else w


def embed(w: SignedPermutation) -> EmbeddedPermutation:
    """
    The permutation of [2n] induced by w under the relabelling
    -n, ..., -1, 1, ..., n -> 1, ..., 2n; an `Involution` when w is one.
    Position -i holds -w(i): the first half reads the window negated, backwards.
    """
    n = w.n

    def relabel(v: int) -> int:
        return v + n + (v < 0)

    word = [relabel(-v) for v in reversed(w.window)] + [relabel(v) for v in w.window]
    return EmbeddedPermutation(_tag_involution(tuple(word)))


def apply_letter_signed(w: SignedInvolution, i: int) -> SignedInvolution:
    """
    Act on a signed involution by letter i as `apply_letter` does: w*s_i if
    s_i w s_i = w, otherwise s_i w s_i.  On values, s_0 negates +-1 and s_i
    (i >= 1) swaps the absolute values i and i+1, keeping the sign.  An
    input not typed SignedInvolution is checked, and raises ValueError when
    it is not an involution.
    """
    if not isinstance(w, SignedInvolution) and not w.is_involution():
        raise ValueError(f"not an involution: {w.window}")
    window, n = w.window, w.n
    if not 0 <= i <= n - 1:
        raise ValueError(f"letter {i} out of range [0, {n - 1}]")
    s = {1: -1, -1: 1} if i == 0 else {i: i + 1, i + 1: i, -i: -i - 1, -i - 1: -i}
    points = (s.get(j, j) for j in range(1, n + 1))
    times = tuple(window[v - 1] if v > 0 else -window[-v - 1] for v in points)
    conj = tuple(s.get(v, v) for v in times)
    return _trusted_signed_involution(times if conj == window else conj)


def is_boolean_signed(w: SignedInvolution, method: str = "embedding") -> BooleanVerdict:
    """
    Booleanness of a signed involution, decided by the long-crossing scan
    of its embedded 2n-point image.  "signed_patterns" and "all" check the
    sixteen forbidden signed windows against it; "embedding" searches them
    only for the witness of a non-Boolean verdict.

    The verdict is built by the classical `with_witnesses`: its long-crossing
    pair and repeat-free word refer to the embedded image, and its pattern
    witness is a signed pattern.
    """
    return _signed_verdict(w, embed(w).perm, method)


def _signed_verdict(w: SignedInvolution, image: Permutation, method: str) -> BooleanVerdict:
    """`is_boolean_signed(w, method)`, given the embedded image of w, which
    `embed` has tagged an Involution exactly when w is one."""
    if method not in SIGNED_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {SIGNED_METHODS}")
    if not isinstance(image, Involution):
        raise ValueError(f"not an involution: {w.window}")
    pair = first_long_crossing_pair(image)
    searched = pair is not None or method != "embedding"
    hit = first_occurrence(w, SIGNED_FORBIDDEN_PATTERNS) if searched else None
    if (hit is None) != (pair is None):
        raise InvariantViolationError(
            f"embedding says {pair is None}, signed patterns say {hit is None} for {w.window}"
        )
    return with_witnesses(image, pair, hit)
