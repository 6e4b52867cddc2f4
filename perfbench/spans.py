"""
Spans recorded from outside the program.

`Tracer.patched()` rebinds public functions of `boolinv` to wrappers that
open a span on entry and close it on return, then restores them.  Every
span adds its count, duration and self time (duration minus its direct
children's) to per-name totals.  While `recording` is set, each span is
also kept, with its name, start, end, parent span and item id, in flat
arrays until `write` puts them in a TSV file.
"""
from __future__ import annotations

import functools
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute, scope).  Scope "package" patches only the
# `boolinv` namespace, so only the benchmark's own calls are spanned;
# "all" patches every boolinv module that binds the same function, which
# splits the inside of a public call into its parts.  rank_profile and
# format_permutation run thousands of times inside reduced_word, ideal and
# dot_export, so they are spanned at the benchmark's calls only.
TARGETS = (
    ("permutations.parse", "boolinv.permutations", "parse_permutation", "package"),
    ("permutations.format", "boolinv.permutations", "format_permutation", "package"),
    ("counting.stream", "boolinv.counting", "involutions", "all"),
    ("counting.brute", "boolinv.counting", "brute_inv_exc_counts", "all"),
    ("counting.recurrence", "boolinv.counting", "recurrence_inv_exc_counts", "all"),
    ("counting.recurrence", "boolinv.counting", "recurrence_rank_counts", "all"),
    ("counting.recurrence", "boolinv.counting", "recurrence_totals", "all"),
    ("series.gf", "boolinv.counting", "series_inv_exc_counts", "all"),
    ("series.gf", "boolinv.counting", "series_rank_counts", "all"),
    ("series.gf", "boolinv.counting", "series_totals", "all"),
    ("counting.cross_validate", "boolinv.counting", "cross_validate", "all"),
    ("counting.emit", "boolinv.counting", "table_to_tsv", "all"),
    ("counting.emit", "boolinv.counting", "table_to_json", "all"),
    ("counting.emit", "boolinv.counting", "CrossValidationReport.summary", "all"),
    ("boolean.verdict", "boolinv.boolean", "is_boolean", "all"),
    ("boolean.decide", "boolinv.boolean", "has_long_crossing", "all"),
    ("boolean.word_witness", "boolinv.boolean", "repeat_free_word", "all"),
    ("boolean.pair_witness", "boolinv.boolean", "long_crossing_pairs", "all"),
    ("boolean.components", "boolinv.boolean", "connected_components", "all"),
    ("boolean.to_json", "boolinv.boolean", "BooleanVerdict.to_json", "all"),
    ("patterns.witness", "boolinv.patterns", "contains", "all"),
    ("patterns.signed_witness", "boolinv.patterns", "contains_signed", "all"),
    ("involution_words.rank_profile", "boolinv.involution_words", "rank_profile", "package"),
    ("involution_words.reduced_word", "boolinv.involution_words", "reduced_word", "all"),
    ("ideals.closure", "boolinv.ideals", "subword_closure", "all"),
    ("ideals.ideal", "boolinv.ideals", "ideal", "all"),
    ("ideals.lattice", "boolinv.ideals", "is_boolean_lattice", "all"),
    ("ideals.dot", "boolinv.ideals", "dot_export", "all"),
    ("signed.parse", "boolinv.signed", "parse_signed", "all"),
    ("signed.embed", "boolinv.signed", "embed", "all"),
    ("signed.verdict", "boolinv.signed", "is_boolean_signed", "all"),
    ("motzkin.round_trip", "boolinv.motzkin", "involution_to_path", "package"),
    ("motzkin.round_trip", "boolinv.motzkin", "path_to_involution", "package"),
)

# Work counted at a span boundary from the value the call returned.
STREAM_SPAN = "counting.stream"
WORD_SPAN = "involution_words.reduced_word"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.totals: list[list] = []  # per name id: [spans, inclusive s, self s]
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self._stack: list[list] = []  # [name id, start, children's seconds, kept index]
        self.recording = True
        self.item_id = -1
        self.streamed = 0
        self.word_letters = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.totals.append([0, 0.0, 0.0])
        return self._ids[name]

    def open(self, nid: int) -> None:
        kept = -1
        if self.recording:
            kept = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1][3] if self._stack else -1)
            self.item.append(self.item_id)
            self.start.append(0.0)
            self.end.append(0.0)
        frame = [nid, 0.0, 0.0, kept]
        self._stack.append(frame)
        frame[1] = perf_counter()
        if kept >= 0:
            self.start[kept] = frame[1]

    def close(self) -> None:
        end = perf_counter()
        nid, start, children, kept = self._stack.pop()
        took = end - start
        total = self.totals[nid]
        total[0] += 1
        total[1] += took
        total[2] += took - children
        if self._stack:
            self._stack[-1][2] += took
        if kept >= 0:
            self.end[kept] = end

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn under a span of the given name."""
        self.open(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        if name == STREAM_SPAN:
            @functools.wraps(fn)
            def stream(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    self.open(nid)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.close()
                    self.streamed += 1
                    yield value
            return stream

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if name == WORD_SPAN:
                self.word_letters += len(result)
            return result
        return traced

    @contextmanager
    def patched(self):
        """Rebind every TARGETS function to its spanned wrapper, then restore."""
        saved = []
        modules = [m for k, m in sorted(sys.modules.items()) if k == "boolinv" or k.startswith("boolinv.")]
        try:
            for name, module, attr, scope in TARGETS:
                owner = importlib.import_module(module)
                cls_name, _, method = attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    saved.append((cls, method, original))
                    setattr(cls, method, self._wrap(name, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                for mod in modules if scope == "all" else [sys.modules["boolinv"]]:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)

    def self_times(self) -> array:
        """Each kept span's duration minus the durations of its direct children."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (spans, inclusive seconds, self seconds) over every span."""
        return {name: tuple(self.totals[nid]) for nid, name in enumerate(self.names)}

    def write(self, path) -> None:
        """One span per line: id, name, start and end (us from the first
        span), self time (us), parent id, item id."""
        own = self.self_times()
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as out:
            out.write("id\tname\tstart_us\tend_us\tself_us\tparent\titem\n")
            for idx in range(len(self.start)):
                out.write(
                    f"{idx}\t{self.names[self.name[idx]]}\t{(self.start[idx] - t0) * 1e6:.3f}\t"
                    f"{(self.end[idx] - t0) * 1e6:.3f}\t{own[idx] * 1e6:.3f}\t"
                    f"{self.parent[idx]}\t{self.item[idx]}\n"
                )
