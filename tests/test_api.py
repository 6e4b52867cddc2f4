"""
Snapshot of the public API: the names in `boolinv.__all__` and the call
signature of each callable among them.  Type hints are left out of the
comparison, so renaming a type alias is not an API change; parameter names,
kinds and defaults are compared exactly.
"""
import inspect

import boolinv

PUBLIC_SIGNATURES = {
    "BooleanVerdict": "(is_boolean, long_crossing_pair=None, pattern=None, occurrence=None, word=None)",
    "FORBIDDEN_PATTERNS": None,
    "Involution": "(word)",
    "MotzkinPath": "(steps)",
    "Permutation": "(word)",
    "SIGNED_FORBIDDEN_PATTERNS": None,
    "SignedInvolution": "(window)",
    "SignedPermutation": "(window)",
    "all_reduced_words": "(w)",
    "apply_letter": "(w, i)",
    "apply_letter_signed": "(w, i)",
    "avoids_all": "(pi, patterns)",
    "bruhat_leq": "(u, w)",
    "compose": "(u, v)",
    "conjugate": "(w, t)",
    "connected_components": "(w)",
    "contains": "(pi, p)",
    "contains_signed": "(pi, p)",
    "count_restricted": "(n)",
    "cross_validate": "(n_max, jobs=1)",
    "cycle_decomposition": "(w)",
    "dot_export": "(poset, sink=None)",
    "embed": "(w)",
    "evaluate_word": "(letters, n)",
    "excedance_profile": "(w)",
    "format_permutation": "(w)",
    "format_signed": "(w)",
    "hasse_edges": "(poset)",
    "ideal": "(w)",
    "identity": "(n)",
    "inverse": "(w)",
    "inversions": "(w)",
    "involution_to_path": "(w)",
    "involutions": "(n, shard=0, num_shards=1)",
    "is_boolean": "(w, method='long_crossing')",
    "is_boolean_lattice": "(poset)",
    "is_boolean_signed": "(w, method='embedding')",
    "is_induced": "(pi, occ)",
    "is_reduced": "(letters, n)",
    "is_restricted": "(path)",
    "long_crossing_pairs": "(w)",
    "occurrences": "(pi, p)",
    "parse_permutation": "(text)",
    "parse_signed": "(text)",
    "path_to_involution": "(path)",
    "rank": "(w)",
    "rank_profile": "(w)",
    "reduced_word": "(w)",
    "repeat_free_word": "(w)",
    "restrict": "(w, positions)",
    "signed_involutions": "(n, shard=0, num_shards=1)",
    "support": "(w)",
}


def _bare_signature(obj):
    if not callable(obj):
        return None
    sig = inspect.signature(obj)
    params = [p.replace(annotation=inspect.Parameter.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=inspect.Signature.empty))


def test_public_names_unchanged():
    assert sorted(boolinv.__all__) == sorted(PUBLIC_SIGNATURES)
    assert len(boolinv.__all__) == len(set(boolinv.__all__))


def test_public_signatures_unchanged():
    found = {name: _bare_signature(getattr(boolinv, name)) for name in boolinv.__all__}
    assert found == PUBLIC_SIGNATURES
