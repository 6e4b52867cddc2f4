"""
Cross-module invariant suite behind `boolinv selftest`.

Each check sweeps every involution (or signed involution) up to a size cap
and verifies an equivalence between independently implemented routes:
Booleanness criteria against each other, subword-generated ideals against
Bruhat-filtered ideals, the Motzkin correspondence against the rank
calculus, the signed layer against its embedded image, and the counting
routes against each other.
"""
from __future__ import annotations

from . import counting, ideals, motzkin
from .boolean import has_long_crossing, is_boolean
from .counting import CheckResult
from .involution_words import rank, rank_profile
from .patterns import SIGNED_FORBIDDEN_PATTERNS, avoids_all
from .permutations import excedance_profile
from .signed import apply_letter_signed, embed, is_boolean_signed


def check_criteria_agree(n_max: int, poset_n_max: int) -> CheckResult:
    name = f"Boolean criteria agree (n <= {n_max}, poset n <= {poset_n_max})"
    for n in range(0, n_max + 1):
        for w in counting.involutions(n):
            answers = {
                method: is_boolean(w, method).is_boolean
                for method in ("patterns", "long_crossing", "word")
            }
            if n <= poset_n_max:
                answers["poset"] = is_boolean(w, "poset").is_boolean
            if len(set(answers.values())) != 1:
                return CheckResult(name, False, f"{w.word}: {answers}")
    return CheckResult(name, True)


def check_ideals(n_max: int) -> CheckResult:
    """Subword-generated ideals must equal Bruhat-filtered ideals, be graded,
    factor over components, and have power-of-two size exactly when Boolean."""
    name = f"ideal structure (n <= {n_max})"
    for n in range(0, n_max + 1):
        everything = list(counting.involutions(n))
        for w in everything:
            poset = ideals.ideal(w)
            filtered = {u for u in everything if ideals.bruhat_leq(u, w)}
            if set(poset.elements) != filtered:
                return CheckResult(name, False, f"subword != filter for {w.word}")
            if not _graded(poset):
                return CheckResult(name, False, f"ideal of {w.word} not graded")
            boolean = is_boolean(w).is_boolean
            if boolean != (len(poset) == 2 ** rank(w)):
                return CheckResult(name, False, f"size mismatch for {w.word}")
            if not ideals.product_decomposition_check(w):
                return CheckResult(name, False, f"no product decomposition for {w.word}")
    return CheckResult(name, True)


def _graded(poset: ideals.IdealPoset) -> bool:
    """Every cover (comparable pair with nothing strictly between) must
    raise the rank by exactly one."""
    size = len(poset)
    for a in range(size):
        for b in range(size):
            if a == b or not poset.leq[a][b]:
                continue
            has_middle = any(
                c != a and c != b and poset.leq[a][c] and poset.leq[c][b]
                for c in range(size)
            )
            if not has_middle and poset.ranks[b] != poset.ranks[a] + 1:
                return False
    return True


def check_motzkin(n_max: int) -> CheckResult:
    """Boolean involutions map to restricted paths and round-trip; the path
    of a non-Boolean involution never maps back to it."""
    name = f"Motzkin correspondence (n <= {n_max})"
    for n in range(0, n_max + 1):
        booleans = 0
        for w in counting.involutions(n):
            path = motzkin.involution_to_path(w)
            boolean = not has_long_crossing(w)
            if not boolean:
                # The path may still be restricted, but then it belongs to
                # a different, Boolean, involution.
                if motzkin.is_restricted(path) and motzkin.path_to_involution(path) == w:
                    return CheckResult(name, False, f"{w.word} round-trips but is not Boolean")
                continue
            if not motzkin.is_restricted(path):
                return CheckResult(name, False, f"Boolean {w.word} maps to unrestricted path")
            booleans += 1
            if motzkin.path_to_involution(path) != w:
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
            by_embedding = is_boolean_signed(w, "embedding").is_boolean
            by_patterns = avoids_all(w, SIGNED_FORBIDDEN_PATTERNS)
            if by_embedding != by_patterns:
                return CheckResult(name, False, f"criteria disagree for {w.window}")
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
    from .involution_words import apply_letter
    from .permutations import conjugate

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


def run_selfcheck(n_max: int) -> list[CheckResult]:
    report = counting.cross_validate(min(n_max, 10))
    results = list(report.checks)
    results.append(check_criteria_agree(min(n_max, 9), min(n_max, 7)))
    results.append(check_ideals(min(n_max, 6)))
    results.append(check_motzkin(min(n_max, 9)))
    results.append(check_signed(min(n_max, 5), min(n_max, 4)))
    return results
