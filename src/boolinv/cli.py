"""
Command-line surface: check elements, emit counting tables, convert to and
from Motzkin paths, export Hasse diagrams, enumerate involutions, and run
the self-test suite.

Exit codes: `check` exits 0 for Boolean, 1 for non-Boolean, 2 on usage or
parse errors; `table --method verify` and `selftest` exit 1 when any check
fails; every internal invariant failure (`InvariantViolationError`) exits
3; a reader that closes stdout early (`boolinv enumerate --n 10 | head -2`)
ends the run silently with exit 141 (128 + SIGPIPE, as the shell reports a
process killed by SIGPIPE); an interrupt (Ctrl-C) ends it silently with
exit 130 (128 + SIGINT); every other error path exits 2.  The default
output format is JSON and can be changed with the BOOLINV_FORMAT
environment variable.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import Sequence

from . import counting, ideals, motzkin
from .boolean import BooleanVerdict, InvariantViolationError, has_long_crossing, is_boolean
from .involution_words import rank_profile
from .permutations import (
    Involution,
    ParseError,
    _format,
    format_permutation,
    parse_permutation,
)
from .signed import SignedInvolution, _signed_verdict, embed, format_signed, parse_signed
from .work import ResourceLimitError

USAGE_ERROR = 2
INVARIANT_FAILURE = 3
PIPE_CLOSED = 141
INTERRUPTED = 130


def _default_format() -> str:
    fmt = os.environ.get("BOOLINV_FORMAT", "json")
    if fmt not in ("json", "tsv", "text"):
        raise ParseError(f"BOOLINV_FORMAT must be json, tsv or text, not {fmt!r}")
    return fmt


def _parse_involution(text: str) -> Involution:
    w = parse_permutation(text)
    if not isinstance(w, Involution):
        raise ParseError(f"{text!r} is not an involution")
    return w


def _parse_signed_involution(text: str) -> SignedInvolution:
    w = parse_signed(text)
    if not isinstance(w, SignedInvolution):
        raise ParseError(f"{text!r} is not a signed involution")
    return w


def _verdict_payload(element: str, verdict: BooleanVerdict, profile) -> dict:
    return dict(verdict._payload(), element=element, rank=profile.rank,
                coxeter_length=profile.coxeter_length, absolute_length=profile.absolute_length)


def _print_verdict(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
        return
    print(f"element: {payload['element']}")
    print(f"boolean: {str(payload['is_boolean']).lower()}")
    print(
        f"rank: {payload['rank']}  length: {payload['coxeter_length']}"
        f"  two-cycles: {payload['absolute_length']}"
    )
    if payload["is_boolean"]:
        print(f"repeat-free word: {_commas(payload['word'])}")
    else:
        i, j = payload["long_crossing_pair"]
        print(f"long-crossing pair: ({i},{j})")
        occ = payload["occurrence"]
        print(
            f"pattern {payload['pattern']} at positions "
            f"({_commas(occ['positions'])}) values ({_commas(occ['values'])})"
        )


def _commas(values: list[int]) -> str:
    return _format(len(values), ",") % tuple(values)


def cmd_check(args: argparse.Namespace) -> int:
    fmt = args.format or _default_format()
    if args.signed:
        w = _parse_signed_involution(args.element)
        image = embed(w).perm
        verdict = _signed_verdict(w, image, args.method or "embedding")
        payload = _verdict_payload(format_signed(w), verdict, rank_profile(image))
        payload["signed"] = True
    else:
        w = _parse_involution(args.element)
        verdict = is_boolean(w, args.method or "long_crossing")
        payload = _verdict_payload(format_permutation(w), verdict, rank_profile(w))
    _print_verdict(payload, fmt)
    return 0 if verdict.is_boolean else 1


_TABLE_COLUMNS = {
    "f": ("n", "inversions", "excedances", "count"),
    "g": ("n", "rank", "count"),
    "h": ("n", "count"),
}


def cmd_table(args: argparse.Namespace) -> int:
    if args.method == "verify":
        report = counting.cross_validate(args.max_n)
        print(report.summary())
        return 0 if report.passed else 1
    fmt = "json" if (args.format or _default_format()) == "json" else "tsv"
    rows = counting.build_table(args.stat, args.method, args.max_n, True)
    # Counts are computed, never parsed: lift the int-to-str limit guarding parsing.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        sys.stdout.writelines(counting.table_rows(rows, fmt, _TABLE_COLUMNS[args.stat]))
        sys.stdout.write("\n" if fmt == "json" else "")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def cmd_motzkin(args: argparse.Namespace) -> int:
    if args.direction == "to-path":
        w = _parse_involution(args.argument)
        print(motzkin.format_path(motzkin.involution_to_path(w)))
    else:
        # an unrestricted path raises ValueError, which `main` reports as a usage error
        print(format_permutation(motzkin.path_to_involution(motzkin.parse_path(args.argument))))
    return 0


def cmd_ideal(args: argparse.Namespace) -> int:
    w = _parse_involution(args.element)
    poset = ideals.ideal(w)
    boolean = ideals.is_boolean_lattice(poset)
    cert = (f"// boolean lattice: {str(boolean).lower()}; elements: {len(poset)};"
            f" rank: {poset.ranks[-1]}\n")
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as sink:
        sink.write(cert)
        sink.writelines(ideals.dot_rows(poset))
    if args.output:
        sys.stdout.write(cert)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    shard, num_shards = 0, 1
    if args.shard:
        try:
            shard_text, num_text = args.shard.split("/")
            shard, num_shards = int(shard_text), int(num_text)
        except ValueError:
            raise ParseError(f"bad shard spec {args.shard!r}; expected K/M") from None
    if args.signed:
        windows = counting.signed_involutions(args.n, shard, num_shards)
        rows = (format_signed(sw) + "\n" for sw in windows
                if not (args.boolean_only and has_long_crossing(embed(sw).perm)))
    else:
        stream = counting.boolean_involutions if args.boolean_only else counting.involutions
        rows = (format_permutation(w) + "\n" for w in stream(args.n, shard, num_shards))
    sys.stdout.writelines(rows)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selfcheck import run_selfcheck

    results = run_selfcheck(args.max_n)
    for check in results:
        print(check.line())
    ok = all(check.passed for check in results)
    print("selftest: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolinv",
        description="Boolean involutions in the Bruhat order: check, count, convert.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether an involution is Boolean")
    p.add_argument("element", help="one-line permutation, or signed window with --signed")
    p.add_argument("--signed", action="store_true")
    p.add_argument("--method", default=None, help="criterion to use")
    p.add_argument("--format", choices=("json", "text"), default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("table", help="emit a counting table")
    p.add_argument("stat", choices=tuple(counting.TABLE_ROUTES),
                   help="f: by inversions and excedances; g: by rank; h: totals")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--method", choices=(*counting.TABLE_METHODS, "verify"),
                   default="recurrence")
    p.add_argument("--format", choices=("json", "tsv", "text"), default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("motzkin", help="convert between involutions and paths")
    p.add_argument("direction", choices=("to-path", "from-path"))
    p.add_argument("argument")
    p.set_defaults(func=cmd_motzkin)

    p = sub.add_parser("ideal", help="export the Hasse diagram of an ideal as DOT")
    p.add_argument("element")
    p.add_argument("--output", default=None, help="write DOT here instead of stdout")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("enumerate", help="stream involutions, one per line")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--boolean-only", action="store_true")
    p.add_argument("--signed", action="store_true")
    p.add_argument("--shard", default=None, help="K/M: emit the K-th of M shards")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("selftest", help="run the cross-module invariant suite")
    p.add_argument("--max-n", type=int, default=7)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The flush above reports a pipe closed after the last write too.
        # Later flushes, including the one at interpreter exit, would fail
        # again on the closed pipe; send them to the null device instead.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return PIPE_CLOSED
    except KeyboardInterrupt:
        return INTERRUPTED
    except InvariantViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVARIANT_FAILURE
    except (ResourceLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
