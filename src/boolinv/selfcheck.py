"""
Cross-module invariant sweeps, run by `boolinv selftest` and by the
acceptance suite.

Each sweep checks every involution (or signed involution) up to the size
bounds it is given and verifies an equivalence between independently
implemented routes: Booleanness criteria against each other,
subword-generated ideals against the Bruhat order, the Motzkin
correspondence against the rank calculus, and the signed layer against its
embedded image.  `SWEEPS` lists them with the caps `selftest` applies; the
counting routes are checked against each other by `counting.cross_validate`.
"""
from __future__ import annotations

from functools import cache

from . import counting, ideals, motzkin
from .boolean import connected_components, has_long_crossing, is_boolean, restrict
from .counting import CheckResult
from .involution_words import apply_letter, rank, rank_profile
from .permutations import InvariantViolationError, Involution, conjugate, excedance_profile
from .signed import apply_letter_signed, embed, is_boolean_signed


def check_criteria_agree(n_max: int, poset_n_max: int) -> CheckResult:
    name = f"Boolean criteria agree (n <= {n_max}, poset n <= {poset_n_max})"
    for n in range(0, n_max + 1):
        # each verdict checks its criterion against the long-crossing scan
        methods = ("all",) if n <= poset_n_max else ("patterns", "word")
        for w in counting.involutions(n):
            try:
                for method in methods:
                    is_boolean(w, method)
            except InvariantViolationError as exc:
                return CheckResult(name, False, str(exc))
    return CheckResult(name, True)


def check_ideals(n_max: int, product_n_max: int) -> CheckResult:
    """
    Subword-generated ideals must equal Bruhat-filtered ideals and carry the
    order of `bruhat_leq` on every pair, which checks the down-sets filled
    up the covers of `ideal()`'s closure.  The size is a power of two exactly
    when w is Boolean, by `is_boolean` and by the lattice test, and up to
    product_n_max the ideal factors over the components of w.
    """
    name = f"ideal structure (n <= {n_max})"
    for n in range(0, n_max + 1):
        # a pair recurs in every ideal containing it; ask the oracle once
        leq = cache(ideals.bruhat_leq)
        everything = list(counting.involutions(n))
        for w in everything:
            poset = ideals.ideal(w)
            if set(poset.elements) != {u for u in everything if leq(u, w)}:
                return CheckResult(name, False, f"subword != filter for {w.word}")
            if any(
                (down >> a & 1) != leq(u, v)
                for v, down in zip(poset.elements, poset.below)
                for a, u in enumerate(poset.elements)
            ):
                return CheckResult(name, False, f"order of the ideal of {w.word} != bruhat_leq")
            power = len(poset) == 2 ** rank(w)
            if is_boolean(w).is_boolean != power or ideals.is_boolean_lattice(poset) != power:
                return CheckResult(name, False, f"size mismatch for {w.word}")
            if n <= product_n_max and not product_decomposition_check(w):
                return CheckResult(name, False, f"no product decomposition for {w.word}")
    return CheckResult(name, True)


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def product_decomposition_check(w: Involution) -> bool:
    """
    Verify that the ideal of w factors over the connected components of w:
    the sizes multiply and the rank generating functions multiply.
    """
    whole = ideals.ideal(w)
    gf = [1]
    size = 1
    for lo, hi in connected_components(w).components:
        part = ideals.ideal(Involution(restrict(w, range(lo, hi + 1)).word))
        size *= len(part)
        gf = _poly_mul(gf, part.rank_counts())
    return size == len(whole) and gf == whole.rank_counts()


def check_motzkin(n_max: int) -> CheckResult:
    """Boolean involutions map to restricted paths, round-trip and carry
    their rank and length; the path of a non-Boolean involution never maps
    back to it; each size has count_restricted Boolean involutions."""
    name = f"Motzkin correspondence (n <= {n_max})"
    for n in range(0, n_max + 1):
        booleans = 0
        for w in counting.involutions(n):
            path = motzkin.involution_to_path(w)
            try:  # the inverse raises ValueError exactly on the unrestricted paths
                back = motzkin.path_to_involution(path)
            except ValueError:
                back = None
            if has_long_crossing(w):  # its path, if restricted, is a Boolean one's
                if back == w:
                    return CheckResult(name, False, f"{w.word} round-trips but is not Boolean")
                continue
            if back is None:
                return CheckResult(name, False, f"Boolean {w.word} maps to unrestricted path")
            booleans += 1
            if back != w:
                return CheckResult(name, False, f"round trip failed for {w.word}")
            profile = rank_profile(w)
            if motzkin.rank_from_path(path) != profile.rank:
                return CheckResult(name, False, f"rank transport failed for {w.word}")
            exc = len(excedance_profile(w).excedances)
            if profile.coxeter_length != 2 * profile.rank - exc:
                return CheckResult(name, False, f"length transport failed for {w.word}")
        if booleans != motzkin.count_restricted(n):
            return CheckResult(name, False, f"count mismatch at n={n}")
    return CheckResult(name, True)


def check_signed(n_max: int, law_n_max: int) -> CheckResult:
    name = f"signed layer (n <= {n_max}, action law n <= {law_n_max})"
    for n in range(1, n_max + 1):
        for w in counting.signed_involutions(n):
            try:
                is_boolean_signed(w, "all")  # embedding against signed patterns
            except InvariantViolationError as exc:
                return CheckResult(name, False, str(exc))
            if n <= law_n_max and not _action_law_holds(w):
                return CheckResult(name, False, f"action law fails for {w.window}")
    return CheckResult(name, True)


def _action_law_holds(w) -> bool:
    """
    The embedded image of each signed letter action must match the
    classical letter action on the embedded image: letter 0 maps to the
    central swap; letter i >= 1 maps to the positive-side swap alone when
    both mirror conjugations agree and move the image, and to the
    positive-side swap followed by the mirror swap otherwise.
    """
    n = w.n
    image = embed(w).perm
    for i in range(0, n):
        acted = embed(apply_letter_signed(w, i)).perm
        if i == 0:
            expected = apply_letter(image, n)
        else:
            plus = conjugate(image, (n + i, n + i + 1))
            minus = conjugate(image, (n - i, n - i + 1))
            once = apply_letter(image, n + i)
            if plus == minus and plus != image:
                expected = once
            else:
                expected = apply_letter(once, n - i)
        if acted != expected:
            return False
    return True


# Every sweep with the caps `selftest` runs it at, one per size bound.
SWEEPS = (
    (check_criteria_agree, (9, 7)),
    (check_ideals, (6, 6)),
    (check_motzkin, (9,)),
    (check_signed, (5, 4)),
)


def run_selfcheck(n_max: int) -> list[CheckResult]:
    """Cross-validate the counting routes up to min(n_max, 10), which refuses
    a bad size, then run every sweep with each bound at min(n_max, cap)."""
    results = list(counting.cross_validate(min(n_max, 10)).checks)
    for sweep, caps in SWEEPS:
        results.append(sweep(*(min(n_max, cap) for cap in caps)))
    return results
