"""
The four workloads.  Each builds its pool of rounds from a seed before any
timing starts, runs one item the way the matching `boolinv` command does,
and checks the item's output with `oracle`.

A round is a short list of items with the workload's full mix, so any
prefix of rounds has the same composition; sizes follow a low-discrepancy
schedule (`inputs.size_at`) and the seed draws the elements.
"""
from __future__ import annotations

import json
import random

import inputs
import oracle


def _payload(verdict, element: str, profile) -> dict:
    """The JSON object `boolinv check` prints."""
    payload = json.loads(verdict.to_json())
    payload["element"] = element
    payload["rank"] = profile.rank
    payload["coxeter_length"] = profile.coxeter_length
    payload["absolute_length"] = profile.absolute_length
    return payload


class Workload:
    """Interface shared by the workloads.

    `block` is the number of leading rounds that form the traced run's
    repeated block.  A timed run makes passes over the whole pool, so the
    pool is sized for several passes in one run.
    """

    name = ""
    block = 1

    def __init__(self, bi):
        self.bi = bi

    def rounds(self, seed: int) -> list:
        raise NotImplementedError

    def items(self, round_):
        return round_

    def run(self, item):
        raise NotImplementedError

    def fingerprint(self, output) -> int:
        return hash(output)

    def check(self, item, output) -> str | None:
        raise NotImplementedError

    def counters(self, item, output) -> dict:
        return {}

    def argv(self, item) -> list[str] | None:
        return None


class Sweep(Workload):
    """Every involution of S_n for n = 1..11, classified by default
    `is_boolean`; Boolean ones are formatted and round-tripped through
    their Motzkin path, as `enumerate --boolean-only` does."""

    name = "sweep"
    N_MAX = 11
    block = N_MAX

    def __init__(self, bi):
        super().__init__(bi)
        self.stream = None
        self.totals = oracle.restricted_tables(self.N_MAX)[0]
        self.prev = None
        self.booleans = 0

    def rounds(self, seed: int) -> list:
        order = list(range(1, self.N_MAX + 1))
        random.Random(seed).shuffle(order)
        return [[n] for n in order]

    def items(self, round_):
        for n in round_:
            for k in range(inputs.involution_count(n)):
                yield n, k

    def run(self, item):
        bi = self.bi
        if item[1] == 0:
            self.stream = bi.involutions(item[0])
        w = next(self.stream)
        verdict = bi.is_boolean(w)
        if not verdict.is_boolean:
            return w, verdict, None, None, None
        text = bi.format_permutation(w)
        path = bi.involution_to_path(w)
        return w, verdict, text, path, bi.path_to_involution(path)

    def fingerprint(self, output) -> int:
        w, v, text, path, back = output
        return hash((
            w.word, v.is_boolean, v.word, v.long_crossing_pair,
            v.pattern.word if v.pattern is not None else None,
            v.occurrence.positions if v.occurrence else None, text,
            path.steps if path else None, back.word if back else None,
        ))

    def check(self, item, output) -> str | None:
        n, k = item
        w, v, text, path, back = output
        word = w.word
        if len(word) != n or not oracle.is_involution(word):
            return f"streamed {word} is not an involution of S_{n}"
        if k and word <= self.prev:
            return f"stream out of order at {word}"
        self.prev = word
        expected = oracle.is_boolean(word)
        occ = v.occurrence
        error = oracle.check_certificate(
            word, v.is_boolean, expected, v.long_crossing_pair,
            v.pattern.word if v.pattern is not None else None,
            occ.positions if occ else (), occ.values if occ else (), v.word,
        )
        if error:
            return error
        if expected:
            self.booleans += 1
            if text != inputs.format_word(list(word)):
                return f"formatted {text!r}"
            if path.steps != oracle.word_to_path(word) or back.word != word:
                return f"Motzkin round trip failed for {word}"
        if k == inputs.involution_count(n) - 1:
            booleans, self.booleans = self.booleans, 0
            if next(self.stream, None) is not None:
                return f"stream of S_{n} longer than {k + 1}"
            if booleans != self.totals[n]:
                return f"{booleans} Boolean involutions of S_{n}, restricted paths say {self.totals[n]}"
        return None

    def counters(self, item, output) -> dict:
        return {"boolean": int(output[1].is_boolean), "nonboolean": int(not output[1].is_boolean)}

    def argv(self, item):
        n, k = item
        return ["enumerate", "--n", str(n), "--boolean-only"] if k == 0 else None


# (kind, method).  B: uniform Boolean; NB: Boolean body with one planted
# block; R: uniform involution; SB/SNB: signed Boolean / non-Boolean.  Word
# items are Boolean or near-Boolean: a uniform involution of S_64 has rank
# near 500, and the word method's O(n^2)-per-letter search would take
# minutes on one.
CHECK_SLOTS = (
    ("B", None), ("B", None), ("B", "word"), ("B", "patterns"),
    ("NB", None), ("NB", None), ("NB", "word"), ("NB", "patterns"),
    ("R", None), ("R", None), ("R", None), ("R", "patterns"),
    ("SB", None), ("SB", "signed_patterns"), ("SNB", None), ("SNB", "signed_patterns"),
)
BLOCK_NAMES = ("4321", "45312", "456123")


class Check(Workload):
    """Single elements with n in [16, 64] (signed: n in [3, 8]), each run
    through parse, verdict, rank_profile and to_json as `check` does."""

    name = "check"
    block = 3
    pool_rounds = 8

    def rounds(self, seed: int) -> list:
        rng = random.Random(seed)
        pool = []
        for k in range(self.pool_rounds):
            round_ = []
            nb = 0
            for s, (kind, method) in enumerate(CHECK_SLOTS):
                shift = s * 0.618034
                signed = kind.startswith("S")
                n = inputs.size_at(k, 3, 8, shift) if signed else inputs.size_at(k, 16, 64, shift)
                block = None
                if kind == "B":
                    w = inputs.boolean_involution(rng, n)
                elif kind == "NB":
                    block = BLOCK_NAMES[(k + nb) % 3]
                    nb += 1
                    where = (inputs.spread(k, 3) + shift) % 1.0
                    w = inputs.near_boolean(rng, n, block, where)
                elif kind == "R":
                    w = inputs.uniform_involution(rng, n)
                else:
                    w = inputs.signed_with_answer(rng, n, kind == "SB")
                if signed:
                    text = ",".join(map(str, w))
                    host = oracle.embed_signed(w)
                else:
                    text = inputs.format_word(w)
                    host = tuple(w)
                round_.append((kind, method, text, oracle.is_boolean(host), host, block))
            rng.shuffle(round_)
            pool.append(round_)
        return pool

    def run(self, item):
        bi = self.bi
        kind, method, text = item[:3]
        if kind.startswith("S"):
            w = bi.parse_signed(text)
            if not isinstance(w, bi.SignedInvolution):
                raise ValueError(f"{text!r} is not a signed involution")
            verdict = bi.is_boolean_signed(w, method or "embedding")
            profile = bi.rank_profile(bi.Involution(bi.embed(w).perm.word))
            payload = _payload(verdict, bi.format_signed(w), profile)
            payload["signed"] = True
        else:
            w = bi.parse_permutation(text)
            if not isinstance(w, bi.Involution):
                raise ValueError(f"{text!r} is not an involution")
            verdict = bi.is_boolean(w, method or "long_crossing")
            payload = _payload(verdict, bi.format_permutation(w), bi.rank_profile(w))
        return json.dumps(payload, sort_keys=True)

    def check(self, item, output) -> str | None:
        kind, method, text, expected, host, block = item
        payload = json.loads(output)
        if kind.startswith("S"):
            return oracle.check_payload(payload, text, host, expected, oracle.parse_element(text))
        if block is not None and payload.get("pattern") != block:
            return f"planted {block}, verdict names {payload.get('pattern')}"
        return oracle.check_payload(payload, text, host, expected)

    def counters(self, item, output) -> dict:
        payload = json.loads(output)
        out = {"boolean": int(payload["is_boolean"]), "nonboolean": int(not payload["is_boolean"])}
        if not item[0].startswith("S") and payload["pattern"]:
            out["hits_" + payload["pattern"]] = 1
        return out

    def argv(self, item):
        kind, method, text = item[:3]
        argv = ["check"] + (["--signed"] if kind.startswith("S") else [])
        return argv + (["--method", method] if method else []) + ["--", text]


# Both kinds at every rank; rank 6 twice, so that the median item falls
# among the rank-6 Boolean ideals (64 elements each) rather than on the
# boundary between two classes.
IDEAL_RANKS = (4, 5, 6, 6, 7, 8, 9)
IDEAL_MAX_N = 10


class Ideal(Workload):
    """Involutions of rank 4..9 (n <= 10), Boolean and non-Boolean at each
    rank, each run through ideal, is_boolean_lattice and dot_export with
    the certification line, as `ideal` does."""

    name = "ideal"
    block = 2
    pool_rounds = 8

    def rounds(self, seed: int) -> list:
        rng = random.Random(seed)
        pool = []
        for _ in range(self.pool_rounds):
            round_ = []
            for r in IDEAL_RANKS:
                for boolean in (True, False):
                    w = tuple(inputs.involution_with_rank(rng, r, boolean, IDEAL_MAX_N))
                    round_.append((inputs.format_word(list(w)), w, boolean))
            rng.shuffle(round_)
            pool.append(round_)
        return pool

    def run(self, item):
        bi = self.bi
        w = bi.parse_permutation(item[0])
        if not isinstance(w, bi.Involution):
            raise ValueError(f"{item[0]!r} is not an involution")
        poset = bi.ideal(w)
        boolean = bi.is_boolean_lattice(poset)
        cert = (
            f"// boolean lattice: {str(boolean).lower()}; elements: {len(poset)};"
            f" rank: {poset.ranks[-1]}"
        )
        return cert + "\n" + bi.dot_export(poset), poset

    def fingerprint(self, output) -> int:
        return hash(output[0])

    def check(self, item, output) -> str | None:
        return oracle.check_ideal(output[0], item[1], item[2])

    def counters(self, item, output) -> dict:
        text, poset = output
        counts = poset.rank_counts()
        adjacent = sum(a * b for a, b in zip(counts, counts[1:]))
        return {
            "elements": len(poset),
            "order_pairs": len(poset) ** 2,
            "adjacent_rank_pairs": adjacent,
            "covers": text.count(" -> "),
        }

    def argv(self, item):
        return ["ideal", item[0]]


# (stat, method, smallest and largest max-n).  `brute` shares the
# involution stream with `sweep` but only decides; `verify` runs all three
# routes at max-n 10.  The mix puts the median inside the band of
# 85-150 ms requests (verify, brute at 10, f by recurrence near 35), where
# costs lie close together, rather than in a gap between two sizes.
TABLE_SLOTS = (
    ("h", "recurrence", 10, 40), ("h", "gf", 10, 40), ("g", "recurrence", 10, 40),
    ("g", "gf", 10, 40), ("f", "brute", 10, 11), ("g", "brute", 10, 11), ("h", "brute", 10, 11),
    ("f", "recurrence", 30, 40), ("f", "gf", 30, 40),
    ("verify", "verify", 10, 10), ("verify", "verify", 10, 10),
)
TABLE_BUILDERS = {
    ("f", "brute"): "brute_inv_exc_counts", ("g", "brute"): "brute_rank_counts",
    ("h", "brute"): "brute_totals", ("f", "recurrence"): "recurrence_inv_exc_counts",
    ("g", "recurrence"): "recurrence_rank_counts", ("h", "recurrence"): "recurrence_totals",
    ("f", "gf"): "series_inv_exc_counts", ("g", "gf"): "series_rank_counts",
    ("h", "gf"): "series_totals",
}
TABLE_COLUMNS = {"f": ("n", "inversions", "excedances", "count"), "g": ("n", "rank", "count"),
                 "h": ("n", "count")}
# Exact (n, inversions, excedances) counts are listed up to this size;
# larger rows of f are checked through both of their marginals.
F_EXACT_N = 12


class Tables(Workload):
    """Table requests for f, g and h by brute, recurrence and gf, plus
    verify, all with jobs = 1, emitted as TSV or JSON as `table` does."""

    name = "tables"
    block = 1
    pool_rounds = 4

    def __init__(self, bi):
        super().__init__(bi)
        self.counting = bi.counting
        self.totals, self.by_rank, self.by_ups = oracle.restricted_tables(40)
        self.exact_f = oracle.inv_exc_table(F_EXACT_N)

    def rounds(self, seed: int) -> list:
        rng = random.Random(seed)
        pool = []
        for k in range(self.pool_rounds):
            round_ = [
                (stat, method, inputs.size_at(k, lo, hi, s * 0.618034),
                 "text" if method == "verify" else ("tsv", "json")[(k + s) % 2])
                for s, (stat, method, lo, hi) in enumerate(TABLE_SLOTS)
            ]
            rng.shuffle(round_)
            pool.append(round_)
        return pool

    def run(self, item):
        counting = self.counting
        stat, method, max_n, fmt = item
        if method == "verify":
            report = counting.cross_validate(max_n, jobs=1)
            return report.summary(), report.passed, 0
        build = getattr(counting, TABLE_BUILDERS[(stat, method)])
        table = build(max_n, 1) if method == "brute" else build(max_n)
        if fmt == "tsv":
            text = counting.table_to_tsv(table, TABLE_COLUMNS[stat])
        else:
            text = counting.table_to_json(table)
        return text, None, len(table)

    def check(self, item, output) -> str | None:
        stat, method, max_n, fmt = item
        text, passed, _ = output
        if method == "verify":
            lines = text.splitlines()
            want = f"cross-validation n <= {max_n}: all checks passed"
            if not passed or len(lines) != 5 or lines[-1] != want or not all(
                line.startswith("PASS ") for line in lines[:-1]
            ):
                return f"verify report: {text!r}"
            return None
        table = _parse_table(text, fmt, len(TABLE_COLUMNS[stat]))
        sizes = range(1, max_n + 1)
        if stat == "h":
            want = {(n,): self.totals[n] for n in sizes}
        elif stat == "g":
            want = {key: c for key, c in self.by_rank.items() if key[0] <= max_n}
        else:
            return self._check_f(table, max_n)
        return None if table == want else f"{stat} table by {method} to {max_n} is wrong"

    def _check_f(self, table: dict, max_n: int) -> str | None:
        exact = {key: c for key, c in table.items() if key[0] <= F_EXACT_N}
        if exact != {key: c for key, c in self.exact_f.items() if key[0] <= max_n}:
            return "f rows up to 12 differ from the listed restricted paths"
        by_ups, by_rank = {}, {}
        for (n, inv, exc), count in table.items():
            if (inv + exc) % 2:
                return f"f cell {(n, inv, exc)} has odd inversions + excedances"
            by_ups[(n, exc)] = by_ups.get((n, exc), 0) + count
            by_rank[(n, (inv + exc) // 2)] = by_rank.get((n, (inv + exc) // 2), 0) + count
        if by_ups != {key: c for key, c in self.by_ups.items() if key[0] <= max_n}:
            return "f marginal by excedances is wrong"
        if by_rank != {key: c for key, c in self.by_rank.items() if key[0] <= max_n}:
            return "f marginal by rank is wrong"
        return None

    def counters(self, item, output) -> dict:
        return {"cells": output[2]}

    def argv(self, item):
        stat, method, max_n, fmt = item
        if method == "verify":
            return ["table", "h", "--max-n", str(max_n), "--method", "verify", "--jobs", "1"]
        return ["table", stat, "--max-n", str(max_n), "--method", method, "--format", fmt,
                "--jobs", "1"]


def _parse_table(text: str, fmt: str, width: int) -> dict:
    """{key tuple: count} from the TSV or JSON text of a table."""
    if fmt == "json":
        return {tuple(int(f) for f in key.split(",")): v for key, v in json.loads(text).items()}
    rows = text.splitlines()[1:]
    table = {}
    for row in rows:
        fields = [int(f) for f in row.split("\t")]
        if len(fields) != width:
            raise ValueError(f"row {row!r} has {len(fields)} fields")
        table[tuple(fields[:-1])] = fields[-1]
    return table


WORKLOADS = {w.name: w for w in (Sweep, Check, Ideal, Tables)}
