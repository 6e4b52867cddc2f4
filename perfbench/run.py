"""
The boolinv benchmark: one workload per invocation, single process,
standard library only.

    python3 perfbench/run.py --workload {sweep,check,ideal,tables} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  It imports `boolinv` from `src/`, builds the
workload's inputs from the seed, makes passes over them in a closed loop
(one item at a time, each started when the previous one returns) for about
S seconds, scales every timed run to the host's full speed with a reference
computation timed next to it (`SpeedProbe`), checks every output with its
own oracle, and prints one JSON object as the last line of standard output:

  --trace 0  end-to-end metrics (throughput_per_s, latency_p50_ms,
             latency_tail_ms, setup_s, peak_rss_mb);
  --trace 1  per-layer metrics from spans around boolinv's functions, plus
             the tracing overhead; spans go to perfbench/out/spans-<workload>.tsv.

Exit code 0 when the run completed, 2 when it could not start (for example
without `src/boolinv`).  Wrong outputs do not change the exit code: they
show as "correct": false and in "failed".
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh interpreters started to measure the start-up cost of one
# `boolinv` invocation; the median is reported.
SETUP_SAMPLES = 9
# Seconds between two samples of the reference work (see `SpeedProbe`),
# and the number of samples around a chunk of runs that scale it.
REF_EVERY = 0.1
REF_WINDOW = 4
# Set-up samples are scaled by the bare interpreter starts before and
# after them, which take BARE_NOMINAL_S at the host's full speed.
BARE_CODE = ("-S", "-c", "pass")
BARE_NOMINAL_S = 0.0097
# An involution of S_8 whose 40-element ideal the reference work builds.
REF_ELEMENT = (4, 3, 2, 1, 6, 5, 8, 7)
# The reference work's time on the baseline host at its full speed: the
# unit to which every reported time is scaled.
REF_NOMINAL_S = 0.00135
SETUP_CODE = "import boolinv, boolinv.cli; boolinv.cli.build_parser()"
PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

PER_LAYER_TIMES = (
    "permutations.parse", "permutations.format", "counting.stream", "counting.brute",
    "counting.recurrence", "counting.cross_validate", "counting.emit", "series.gf",
    "boolean.verdict", "boolean.decide", "boolean.word_witness", "boolean.pair_witness",
    "boolean.components", "boolean.to_json", "patterns.witness", "patterns.signed_witness",
    "involution_words.rank_profile", "involution_words.reduced_word", "ideals.closure",
    "ideals.ideal", "ideals.lattice", "ideals.dot", "signed.parse", "signed.embed",
    "signed.verdict", "motzkin.round_trip",
)
PER_LAYER_COUNTS = (
    ("counting.elements_streamed", "streamed"), ("counting.cells", "cells"),
    ("boolean.boolean_count", "boolean"), ("boolean.nonboolean_count", "nonboolean"),
    ("patterns.hits_4321", "hits_4321"), ("patterns.hits_45312", "hits_45312"),
    ("patterns.hits_456123", "hits_456123"), ("involution_words.word_letters", "word_letters"),
    ("ideals.elements", "elements"), ("ideals.order_pairs", "order_pairs"),
    ("ideals.adjacent_rank_pairs", "adjacent_rank_pairs"), ("ideals.covers", "covers"),
)
ITEM_SPAN = "bench.item"
FAILED_MARK = 0  # fingerprint recorded for an item that raised
PARSE_ARGS_SPAN = "cli.parse_args"


def cannot_start(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_boolinv():
    """Import boolinv from this checkout's src/, or exit 2."""
    if not (SRC / "boolinv" / "__init__.py").is_file():
        cannot_start(f"{SRC / 'boolinv'} not found; run from a boolinv checkout")
    sys.path.insert(0, str(SRC))
    import boolinv
    import boolinv.cli

    if Path(boolinv.__file__).resolve().parent != (SRC / "boolinv").resolve():
        cannot_start(f"imported boolinv from {boolinv.__file__}, not {SRC}")
    return boolinv


def reference_work() -> int:
    """Fixed pure-Python work that calls nothing in boolinv: integer
    arithmetic, tuples in a dict, and the oracle's own ideal and Boolean
    test, the kinds of work boolinv does."""
    total = 0
    for i in range(3000):
        total += i * i % 7
    counts: dict[tuple, int] = {}
    for i in range(400):
        key = tuple((i * 7 + j) % 13 for j in range(6))
        counts[key] = counts.get(key, 0) + 1
    total += sum(sorted(counts.values()))
    return total + sum(oracle.is_boolean(u) for u in oracle.closure(REF_ELEMENT))


class SpeedProbe:
    """Samples of `reference_work`, taken between timed items.

    On a shared host all code can run 1.5 to 1.9 times slower for seconds
    or minutes at a time, whatever the code (measured on a 2-vCPU virtual
    machine, where CPU time slowed as much as wall time).  `Phase` scales
    the runs made between two samples by REF_NOMINAL_S over the mean of the
    samples around them, which reports them at the host's full speed.
    There, over 15 s windows, this cut the spread of boolinv call times
    from 14-17% to 4-5%.  The
    reference work does not change when boolinv does, so a slower boolinv
    still reads slower by the same share.
    """

    def __init__(self):
        self.samples = array("d")
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.at = time.perf_counter()
        self.samples.append(self.at - t0)

    def summary(self) -> str:
        ms = sorted(self.samples)
        return (f"reference work: {len(ms)} samples, median {statistics.median(ms) * 1e3:.3f} ms, "
                f"scaled to {REF_NOMINAL_S * 1e3:g} ms")


def measure_setup() -> tuple[float, list[float]]:
    """Median time of a fresh interpreter importing boolinv and its CLI
    and building the parser, after one untimed start that fills the
    bytecode cache.  Each sample is scaled by the bare interpreter starts
    just before and after it: over 15 s windows, set-up times spread by 9%
    raw, 6% scaled by `SpeedProbe` samples and 1% scaled by bare starts."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def start(*args) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, cwd=ROOT, check=True)
        return time.perf_counter() - t0

    start("-c", SETUP_CODE)
    before = start(*BARE_CODE)
    samples = []
    for _ in range(SETUP_SAMPLES):
        took = start("-c", SETUP_CODE)
        after = start(*BARE_CODE)
        samples.append(took * 2 * BARE_NOMINAL_S / (before + after))
        before = after
    return statistics.median(samples), samples


class Phase:
    """Run passes over a pool of rounds in a closed loop and record what
    happened.

    Every item runs once per pass.  A reference sample is taken between
    items every REF_EVERY seconds; the runs between two samples form a
    chunk, scaled by REF_NOMINAL_S over the mean of the REF_WINDOW samples
    centred on it.  An item's reported time is the mean of its scaled runs,
    without the slowest one when it has at least three, so that one run hit
    by a garbage collection or an interrupt does not set it.

    The first run of each item is checked by the oracle; every later run
    of it, here or in a phase sharing `reference`, must give the same
    output fingerprint.
    """

    def __init__(self, workload, pool, reference=None, tracer=None, cli=None):
        self.workload = workload
        self.pool = pool
        self.reference = reference if reference is not None else {}
        self.tracer = tracer
        self.cli = cli
        # Per round, one slot per item: the sum, number and slowest of its
        # scaled runs, and the item's hash, which groups repeats of one
        # request.
        self.scaled: dict[int, array] = {}
        self.runs: dict[int, array] = {}
        self.slowest: dict[int, array] = {}
        self.key_hash: dict[int, array] = {}
        self.pending: list[tuple[int, int, float]] = []  # runs since the last reference sample
        self.chunks: list[list | None] = []  # chunk c lies between samples c and c + 1
        self.probe: SpeedProbe | None = None
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rounds_done = 0
        self.round_busy: list[float] = []
        self.block_counters: list[dict] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def run(self, budget: float, step: int = 1) -> None:
        """Run rounds, cycling through the pool, until `budget` seconds have
        passed; stop only after one whole pass and after a multiple of
        `step` rounds."""
        self.probe = SpeedProbe()
        start = time.perf_counter()
        while True:
            r = self.rounds_done % len(self.pool)
            if r == 0:
                self.block_counters.append({})
                if self.tracer is not None:
                    # Keep the spans of the first block only; later blocks
                    # repeat it and add to the per-name totals.
                    self.tracer.recording = len(self.block_counters) == 1
                    marks = (self.tracer.streamed, self.tracer.word_letters)
            busy = self.busy
            self.run_round(r)
            self.round_busy.append(self.busy - busy)
            self.rounds_done += 1
            if self.tracer is not None and r == len(self.pool) - 1:
                self.block_counters[-1]["streamed"] = self.tracer.streamed - marks[0]
                self.block_counters[-1]["word_letters"] = self.tracer.word_letters - marks[1]
            if (self.rounds_done >= len(self.pool) and self.rounds_done % step == 0
                    and time.perf_counter() - start >= budget):
                self.close_chunk()
                self.settle(len(self.chunks) - 1)
                return

    def close_chunk(self) -> None:
        """Take a reference sample, which ends the current chunk, and scale
        the chunk whose window of samples is now complete."""
        self.probe.sample()
        self.chunks.append(self.pending)
        self.pending = []
        if len(self.chunks) >= REF_WINDOW // 2:
            self.settle(len(self.chunks) - REF_WINDOW // 2)

    def settle(self, c: int) -> None:
        """Scale chunk c into the per-item sums."""
        half = REF_WINDOW // 2
        window = self.probe.samples[max(c + 1 - half, 0): c + 1 + half]
        factor = REF_NOMINAL_S * len(window) / math.fsum(window)
        for r, pos, took in self.chunks[c]:
            took *= factor
            self.scaled[r][pos] += took
            self.runs[r][pos] += 1
            self.slowest[r][pos] = max(self.slowest[r][pos], took)
        self.chunks[c] = None

    def run_round(self, r: int) -> None:
        workload, tracer = self.workload, self.tracer
        counters = self.block_counters[-1]
        if self.rounds_done < len(self.pool):
            self.scaled[r], self.slowest[r] = array("d"), array("d")
            self.runs[r], self.key_hash[r] = array("l"), array("q")
        key_hash = self.key_hash[r]
        # Fingerprints live in a flat array so that a million of them leave
        # no long-lived objects among the program's own allocations.
        seen = self.reference.setdefault(r, array("q"))
        perf = time.perf_counter
        for pos, item in enumerate(workload.items(self.pool[r])):
            if perf() - self.probe.at >= REF_EVERY:
                self.close_chunk()
            if pos == len(key_hash):
                self.scaled[r].append(0.0)
                self.slowest[r].append(0.0)
                self.runs[r].append(0)
                key_hash.append(hash(item))
            if tracer is not None:
                tracer.item_id = self.attempted
                argv = workload.argv(item)
                if argv is not None:
                    tracer.span(PARSE_ARGS_SPAN, self.cli.build_parser().parse_args, argv)
                tracer.open(tracer.name_id(ITEM_SPAN))
            self.attempted += 1
            t0 = perf()
            try:
                output = workload.run(item)
            except Exception as exc:  # a failing item counts, the run goes on
                output, error = None, f"{item!r:.120}: {exc!r}"
            t1 = perf()
            if tracer is not None:
                tracer.close()
            self.busy += t1 - t0
            self.pending.append((r, pos, t1 - t0))
            mark = FAILED_MARK if output is None else workload.fingerprint(output)
            if output is None:
                self.fail(error)
            elif pos < len(seen):
                if seen[pos] != mark:
                    self.fail(f"{item!r:.120}: output differs from the first run of this item")
            else:
                try:
                    problem = workload.check(item, output)
                except Exception as exc:  # malformed output
                    problem = f"unreadable output: {exc!r}"
                if problem:
                    self.fail(f"{item!r:.120}: {problem}")
            if pos >= len(seen):
                seen.append(mark)
            if output is not None:
                for key, value in workload.counters(item, output).items():
                    counters[key] = counters.get(key, 0) + value
            del output

    def item_times(self) -> list[float]:
        """The time of every item of one pass, in pool order: the mean of
        its scaled runs, without the slowest of three or more.  An item that
        occurs more than once in the pool pools the runs of every
        occurrence."""
        rounds = range(len(self.pool))
        totals: dict[int, list] = {}
        for r in rounds:
            for key, scaled, runs, slowest in zip(
                self.key_hash[r], self.scaled[r], self.runs[r], self.slowest[r]
            ):
                total = totals.setdefault(key, [0.0, 0, 0.0])
                total[0] += scaled
                total[1] += runs
                total[2] = max(total[2], slowest)
        times = {}
        for key, (scaled, runs, slowest) in totals.items():
            times[key] = (scaled - slowest) / (runs - 1) if runs >= 3 else scaled / runs
        return [times[key] for r in rounds for key in self.key_hash[r]]


def tail_percentile(n: int) -> float:
    """The highest listed percentile with at least TAIL_BEYOND samples
    beyond it."""
    for p in PERCENTILES:
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            return p
    return 50.0


def latency_summary(times) -> dict:
    """Metrics over one time per item."""
    ordered = sorted(times)
    n = len(ordered)
    p = tail_percentile(n)
    total = math.fsum(ordered)
    return {
        "throughput_per_s": n / total,
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_tail_ms": ordered[max(math.ceil(p / 100 * n) - 1, 0)] * 1e3,
        "tail_percentile": p,
        "samples": n,
        "busy_s": total,
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def run_untraced(workload, seed: int, seconds: float) -> int:
    setup_s, setup_samples = measure_setup()
    pool = workload.rounds(seed)
    gc.collect()
    gc.freeze()
    phase = Phase(workload, pool)
    phase.run(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stats = latency_summary(phase.item_times())
    report(phase)
    print(f"workload {workload.name}: seed {seed}, {phase.rounds_done} rounds "
          f"({phase.rounds_done / len(pool):.2f} passes) of a {len(pool)}-round pool, "
          f"closed loop, one item at a time")
    print(f"runs {phase.attempted}, busy {phase.busy:.3f} s as measured (throughput "
          f"{phase.attempted / phase.busy:.6g}/s unscaled), failed {phase.failed}, "
          f"failed_frac {phase.failed / phase.attempted:.6f}")
    print(phase.probe.summary())
    print(f"metrics over the time of each of {stats['samples']} items; "
          f"latency_tail_ms is p{stats['tail_percentile']:g}")
    print("round busy as measured (s): " + " ".join(f"{s:.3f}" for s in phase.round_busy))
    print("setup samples, scaled (s): " + " ".join(f"{s:.4f}" for s in setup_samples))
    metrics = {
        "throughput_per_s": stats["throughput_per_s"],
        "latency_p50_ms": stats["latency_p50_ms"],
        "latency_tail_ms": stats["latency_tail_ms"],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    units = {"throughput_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}
    for key, value in metrics.items():
        print(f"  {key:<18} {value:.6g} {units[key]}")
    print(result_line(phase.failed == 0, phase.attempted, phase.failed, metrics, units))
    return 0


def report(phase: Phase) -> None:
    for message in phase.errors:
        print(f"perfbench: FAILED {message}", file=sys.stderr)


def run_traced(workload, seed: int, seconds: float, cli) -> int:
    from spans import Tracer

    pool = workload.rounds(seed)[: workload.block]
    gc.collect()
    gc.freeze()
    plain = Phase(workload, pool)
    plain.run(seconds / 2, len(pool))
    tracer = Tracer()
    traced = Phase(workload, pool, reference=plain.reference, tracer=tracer, cli=cli)
    with tracer.patched():
        traced.run(seconds / 2, len(pool))
    untraced_stats = latency_summary(plain.item_times())
    traced_stats = latency_summary(traced.item_times())

    repeat_problems = []
    work = [{k: v for k, v in b.items() if k not in ("streamed", "word_letters")}
            for b in traced.block_counters]
    if any(b != plain.block_counters[0] for b in plain.block_counters + work):
        repeat_problems.append("work counters differ between blocks")
    if any(b != traced.block_counters[0] for b in traced.block_counters):
        repeat_problems.append("span counters differ between traced blocks")
    counts = traced.block_counters[0]

    summary = tracer.summary()
    items = traced.attempted
    metrics, units = {}, {}
    for name in PER_LAYER_TIMES:
        metrics[name + "_ms"] = summary.get(name, (0, 0.0, 0.0))[2] * 1e3 / items
        units[name + "_ms"] = "ms/item"
    calls, inclusive, _ = summary.get(PARSE_ARGS_SPAN, (0, 0.0, 0.0))
    metrics["cli.parse_args_ms"] = inclusive * 1e3 / calls if calls else 0.0
    units["cli.parse_args_ms"] = "ms/call"
    metrics["unattributed_ms"] = summary.get(ITEM_SPAN, (0, 0.0, 0.0))[2] * 1e3 / items
    units["unattributed_ms"] = "ms/item"
    for metric, key in PER_LAYER_COUNTS:
        metrics[metric] = counts.get(key, 0)
        units[metric] = "count"
    adjacent = counts.get("adjacent_rank_pairs", 0)
    metrics["ideals.cover_yield"] = counts.get("covers", 0) / adjacent if adjacent else 0.0
    units["ideals.cover_yield"] = "ratio"
    metrics["trace.overhead_pct"] = 100 * (
        1 - traced_stats["throughput_per_s"] / untraced_stats["throughput_per_s"])
    units["trace.overhead_pct"] = "%"
    metrics["trace.spans"] = len(tracer.start)
    units["trace.spans"] = "count"

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload.name}.tsv")

    report(plain)
    report(traced)
    for problem in repeat_problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"workload {workload.name}: seed {seed}, traced block of {len(pool)} rounds; "
          f"untraced {plain.rounds_done} rounds, traced {traced.rounds_done} rounds; "
          f"first block's {len(tracer.start)} spans in {out_dir.name}/spans-{workload.name}.tsv")
    print(f"throughput untraced {untraced_stats['throughput_per_s']:.6g}/s, "
          f"traced {traced_stats['throughput_per_s']:.6g}/s")
    print(f"{'span':<32}{'calls':>10}{'incl ms/item':>14}{'self ms/item':>14}")
    for name, (calls, incl, own) in sorted(summary.items(), key=lambda kv: -kv[1][2]):
        if calls:
            print(f"{name:<32}{calls:>10}{incl * 1e3 / items:>14.4f}{own * 1e3 / items:>14.4f}")
    failed = plain.failed + traced.failed + len(repeat_problems)
    attempted = plain.attempted + traced.attempted
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "check", "ideal", "tables"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bi = import_boolinv()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](bi)
    if args.trace:
        return run_traced(workload, args.seed, args.seconds, bi.cli)
    return run_untraced(workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
