import hashlib
import json
import subprocess
import sys
import tracemalloc

import pytest

from boolinv import boolean, counting, series
from boolinv.cli import main
from boolinv.counting import signed_involutions
from boolinv.permutations import identity
from boolinv.signed import format_signed, is_boolean_signed
from oracles import chain


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_non_boolean(capsys):
    code, out, _ = run_cli(capsys, "check", "4321")
    assert code == 1
    payload = json.loads(out)
    assert payload["is_boolean"] is False
    assert payload["pattern"] == "4321"
    assert payload["long_crossing_pair"] == [1, 2]
    assert payload["rank"] == 4


def test_check_boolean_and_identity(capsys):
    code, out, _ = run_cli(capsys, "check", "1")
    assert code == 0 and json.loads(out)["is_boolean"] is True
    code, out, _ = run_cli(capsys, "check", "--format", "text", "3412")
    assert code == 0
    assert "boolean: true" in out and "repeat-free word: 1,3,2" in out


def test_check_signed(capsys):
    code, out, _ = run_cli(capsys, "check", "--signed", "--", "-1,-2")
    assert code == 1
    payload = json.loads(out)
    assert payload["pattern"] == "-1,-2" and payload["signed"] is True
    code, _, _ = run_cli(capsys, "check", "--signed", "2,1")
    assert code == 0


def test_check_signed_embeds_once(capsys, monkeypatch):
    from boolinv import cli, signed

    real, calls = signed.embed, []
    for module in (cli, signed):
        monkeypatch.setattr(module, "embed", lambda w: calls.append(w) or real(w))
    code, out, _ = run_cli(capsys, "check", "--signed", "--", "-1,-2")
    assert code == 1 and json.loads(out)["rank"] == 4
    assert calls == [signed.parse_signed("-1,-2")]


def test_check_parse_errors(capsys):
    code, _, err = run_cli(capsys, "check", "4312")  # not an involution
    assert code == 2 and "not an involution" in err
    code, _, err = run_cli(capsys, "check", "43x21")
    assert code == 2 and "bad character" in err
    code, _, err = run_cli(capsys, "check", "--method", "nope", "4321")
    assert code == 2 and "unknown method" in err


def test_check_all_methods(capsys):
    for method in ("patterns", "long_crossing", "word", "poset", "all"):
        code, out, _ = run_cli(capsys, "check", "--method", method, "2143")
        assert code == 0 and json.loads(out)["is_boolean"] is True


def test_check_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "check", "456123")
    _, second, _ = run_cli(capsys, "check", "456123")
    assert first == second


def test_table_totals(capsys):
    code, out, _ = run_cli(
        capsys, "table", "h", "--max-n", "4", "--method", "brute", "--format", "tsv"
    )
    assert code == 0
    assert out.splitlines() == ["n\tcount", "1\t1", "2\t2", "3\t4", "4\t9"]


def test_table_inv_exc_series(capsys):
    code, out, _ = run_cli(
        capsys, "table", "f", "--max-n", "4", "--method", "gf", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["4,2,2"] == 1


def test_table_verify(capsys):
    code, out, _ = run_cli(capsys, "table", "h", "--max-n", "5", "--method", "verify")
    assert code == 0
    assert "all checks passed" in out


def test_table_guard(capsys):
    code, _, err = run_cli(capsys, "table", "f", "--max-n", "16", "--method", "brute")
    assert code == 2 and "guard" in err


def test_table_jobs_change_nothing(capsys):
    # --jobs takes any integer and changes neither stdout nor the exit code
    for argv in (
        ("table", "f", "--max-n", "9", "--method", "brute"),
        ("table", "h", "--max-n", "9", "--method", "verify"),
    ):
        jobs = ("1", "2", "0", "-3", "10000")
        runs = {run_cli(capsys, *argv, "--jobs", j)[:2] for j in jobs}
        assert len(runs) == 1 and next(iter(runs))[0] == 0
    with pytest.raises(SystemExit) as refused:
        main(["table", "f", "--max-n", "9", "--method", "brute", "--jobs", "x"])
    assert refused.value.code == 2


@pytest.mark.parametrize(
    "stat, max_n, method",
    [("f", "400", "gf"), ("f", "400", "recurrence"), ("h", "10000000", "gf")],
)
def test_table_work_guard(capsys, stat, max_n, method):
    code, out, err = run_cli(capsys, "table", stat, "--max-n", max_n, "--method", method)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "work guard" in err


def test_motzkin_conversions(capsys):
    code, out, _ = run_cli(capsys, "motzkin", "to-path", "2143")
    assert code == 0 and out.strip() == "UDUD"
    code, out, _ = run_cli(capsys, "motzkin", "from-path", "UD")
    assert code == 0 and out.strip() == "21"


def test_motzkin_rejections(capsys):
    code, _, err = run_cli(capsys, "motzkin", "from-path", "UUFDD")
    assert code == 2 and "flat step above level 1 at step 3" in err
    code, _, err = run_cli(capsys, "motzkin", "to-path", "231")
    assert code == 2 and "not an involution" in err


def test_ideal_output(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "ideal", "321")
    assert code == 0
    assert out.count("->") == 4
    assert "// boolean lattice: true; elements: 4; rank: 2" in out
    target = tmp_path / "ideal.dot"
    code, out, _ = run_cli(capsys, "ideal", "4321", "--output", str(target))
    assert code == 0
    assert "// boolean lattice: false; elements: 10; rank: 4" in out
    assert target.read_text().startswith("// boolean lattice: false")


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--boolean-only")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9 and "4321" not in lines
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--signed")
    assert out.strip().splitlines() == ["-2,-1", "-1,-2", "-1,2", "1,-2", "1,2", "2,1"]


def test_enumerate_sharding(capsys):
    whole = run_cli(capsys, "enumerate", "--n", "4")[1].split()
    pieces = []
    for shard in range(3):
        pieces += run_cli(capsys, "enumerate", "--n", "4", "--shard", f"{shard}/3")[1].split()
    assert sorted(pieces) == sorted(whole)
    code, _, err = run_cli(capsys, "enumerate", "--n", "4", "--shard", "3")
    assert code == 2 and "bad shard" in err


def test_enumerate_signed_boolean_only_matches_verdicts(capsys):
    for n in range(6):
        for shard, num_shards in ((0, 1), (0, 3), (1, 3), (2, 3)):
            argv = ["enumerate", "--n", str(n), "--signed", "--boolean-only"]
            argv += ["--shard", f"{shard}/{num_shards}"] if num_shards > 1 else []
            expected = "".join(
                format_signed(w) + "\n"
                for w in signed_involutions(n, shard, num_shards)
                if is_boolean_signed(w).is_boolean
            )
            assert run_cli(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--n", "-1"),
        ("enumerate", "--n", "-2", "--boolean-only"),
        ("enumerate", "--n", "-1", "--signed"),
        ("selftest", "--max-n", "-3"),
        *[
            ("table", stat, "--max-n", "-1", "--method", method)
            for stat in "fgh"
            for method in ("brute", "recurrence", "gf")
        ],
        ("table", "h", "--max-n", "-1", "--method", "verify"),
    ],
)
def test_negative_sizes_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: negative size")


def test_env_var_format(capsys, monkeypatch):
    monkeypatch.setenv("BOOLINV_FORMAT", "text")
    _, out, _ = run_cli(capsys, "check", "1")
    assert out.startswith("element: 1")


def test_env_var_format_refused_unless_known(capsys, monkeypatch):
    monkeypatch.setenv("BOOLINV_FORMAT", "xml")
    for argv in (("check", "2143"), ("table", "h", "--max-n", "3")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: BOOLINV_FORMAT must be json, tsv or text")
    code, out, _ = run_cli(capsys, "check", "--format", "json", "2143")
    assert code == 0 and json.loads(out)["is_boolean"] is True
    monkeypatch.setenv("BOOLINV_FORMAT", "tsv")
    _, out, _ = run_cli(capsys, "check", "1")
    assert out.startswith("element: 1")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_table_prints_counts_past_the_int_digit_limit(capsys, monkeypatch):
    monkeypatch.setattr(counting, "build_table", lambda *args: {1: 10**5000})
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for fmt in ("json", "tsv"):
            code, out, err = run_cli(capsys, "table", "h", "--max-n", "1", "--format", fmt)
            assert (code, err) == (0, "")
            assert "1" + "0" * 5000 in out and "1" + "0" * 5001 not in out
            assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(previous)


def test_selftest_small(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--max-n", "4")
    assert code == 0
    assert "selftest: ok" in out
    assert out.count("PASS") >= 7


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "boolinv.cli", "check", "45312"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["pattern"] == "45312"


# sha256 of stdout for fixed commands, recorded before ideals were built by
# rank layers; the ideal outputs include a rank-16 ideal (87654321) and a
# rank-9 ideal in S_10.
GOLDEN_STDOUT = [
    (("ideal", "4321"), 0, "74be7fa8aa611b2b7ec84aa927852282fa6006620c26f0ef84d26fc544e61a93"),
    (("ideal", "5764132"), 0, "2a639db0fe9029796fedf9144d6af4594db4e25868418fa8a5461f02181f54f4"),
    (("ideal", "87654321"), 0, "5bac3aa9df95618f802fd7e60533a71298936fa94f699149740b07533de55380"),
    (
        ("ideal", "2,1,3,4,10,8,9,6,7,5"),
        0,
        "61042a6d37f89483a38645da1e7281d3383bc41f23ef10f4d5e77e62be520cba",
    ),
    (
        ("check", "--format", "text", "4321"),
        1,
        "00f7ded114c9e36aa68af2dcdc0788d7163ed237396f90ec6384e4178b42d734",
    ),
    # Direct sums of ten blocks (n = 30), recorded before patterns were
    # searched block by block: 45312 in the fifth block; 4321 in the eighth,
    # after a 456123 block that an earlier pattern in the list outranks.
    (
        ("check", "3,4,1,2,6,5,7,10,11,8,9,15,16,14,12,13,19,20,17,18,24,25,26,21,22,23,28,27,29,30"),
        1,
        "bfa5bbdaace098d6cf5fe9111037132205d3bd0302f12d47b567aa05a799ed18",
    ),
    (
        (
            "check",
            "--method",
            "patterns",
            "2,1,5,6,3,4,7,10,11,8,9,15,16,17,12,13,14,19,18,22,23,20,21,27,26,25,24,28,30,29",
        ),
        1,
        "c99e2b3c0c5a4f994bf68e3cee2751c442f26374208b5ba9b356d0b17cd2b02c",
    ),
    # Recorded before signed verdicts went through the classical path: a
    # Boolean and a non-Boolean signed window (the hit 4,2,-3,1 is not the
    # first signed pattern in the list) under every signed method and format,
    # the patterns method on 5764132, and a whole selftest run.
    *[
        (("check", "--signed", "--method", method, "--format", fmt, "--", window), code, digest)
        for window, code, digests in (
            (
                "-5,2,3,4,-1",
                0,
                {
                    "json": "8eee40436ae9d76140239765fcc6138b1388805b1ed94844897bea84de67b764",
                    "text": "04e6473efda516511adb63f923ff697413905f90d906912e7255d9f7d687b095",
                },
            ),
            (
                "1,5,3,-4,2",
                1,
                {
                    "json": "c25a83259eea3d8e72e4f1c3562f4c18c3276c181c0438458db8e8d3e5584835",
                    "text": "991d5bcbbac8407b5d3b944747b9e72c51848286a0f3ff659ac4a3b7c13693f9",
                },
            ),
        )
        for method in ("embedding", "signed_patterns", "all")
        for fmt, digest in digests.items()
    ],
    (
        ("check", "--method", "patterns", "5764132"),
        1,
        "626a737e4d2efd6d6e378acc5f3f2a546b548db8376bd4657649ee2ca0fc1d0c",
    ),
    (
        ("selftest", "--max-n", "5"),
        0,
        "083aa855f3c38ac7384deddf96cfb9c2b069a5e690d8b49f7018673557106c54",
    ),
    # Recorded before the series rows went sparse and the recurrence
    # reach-bounded.
    (
        ("table", "f", "--max-n", "14", "--method", "gf", "--format", "tsv"),
        0,
        "a99beccff0060915ecadf409866566d8f617e9321bd22517a15f6e28200224c5",
    ),
    (
        ("table", "f", "--max-n", "14", "--method", "recurrence", "--format", "json"),
        0,
        "354e1df8899c74adf237eed68ec589fdae28fab52a809e5b4fb96f5923995b62",
    ),
    (
        ("table", "g", "--max-n", "25", "--method", "gf"),
        0,
        "cf0722411dd30a302a832e30368ec04fa1e52dc204df046ef215b566dfa15975",
    ),
    (
        ("table", "h", "--max-n", "30", "--method", "gf"),
        0,
        "cac7351e1545c265d82aa4f3508917e6ecd8c5eee455864d46bc5664dc967d4e",
    ),
    # Recorded before the brute route and `enumerate --boolean-only` read
    # the pruned walk.
    (
        ("enumerate", "--n", "9", "--boolean-only"),
        0,
        "0391ecefbbec6c41e0384e70a54f1d09130651c7a5f5ffbb198e8d0e2f9c5125",
    ),
    (
        ("enumerate", "--n", "9", "--boolean-only", "--shard", "1/3"),
        0,
        "126e45e2d996c57d082458619ac4fcb4b572c4fa8e9af44b7667ca7c28a8952e",
    ),
    (
        ("table", "f", "--max-n", "11", "--method", "brute", "--format", "tsv"),
        0,
        "231447263e80cbf891a3e5d1561deaa5c7af054b1383049b2cf109d91cf1d873",
    ),
    # Recorded before the sweeps moved into one registry: the default
    # selftest, and --max-n 10, where every sweep runs at its cap.
    (("selftest",), 0, "c4dd07cb91b5a9c81afda687bceaa8a2f7b0038d035270171de0c5ac74a0fbf6"),
    (
        ("selftest", "--max-n", "10"),
        0,
        "b29249d530231ad9cc04de95a24a1ba3d37f678d5a701370e366a669233bd822",
    ),
    # Recorded before the signed stream was built from the classical walk.
    (
        ("enumerate", "--signed", "--n", "6"),
        0,
        "845f2957387c03d41e8831f939d04ab34639f4c3758bafb46186b5e520f628db",
    ),
    (
        ("enumerate", "--signed", "--n", "6", "--shard", "2/3"),
        0,
        "e59595369989340c22239cf0285f6eb8237508e0b764e59b74a00902a91e4f79",
    ),
    (
        ("enumerate", "--signed", "--n", "7", "--boolean-only"),
        0,
        "9d6342b7983a08a4cd274a9b09a2f0a4c2b30171caa464d63ca4d92f485755ea",
    ),
    # Recorded before the recurrence tables were filled from the restricted
    # paths.
    (
        ("table", "g", "--max-n", "25", "--method", "recurrence"),
        0,
        "cf0722411dd30a302a832e30368ec04fa1e52dc204df046ef215b566dfa15975",
    ),
    (
        ("table", "h", "--max-n", "30", "--method", "recurrence"),
        0,
        "cac7351e1545c265d82aa4f3508917e6ecd8c5eee455864d46bc5664dc967d4e",
    ),
    (
        ("table", "f", "--max-n", "40", "--method", "recurrence", "--format", "tsv"),
        0,
        "ba79a4679c4bb97cb3cef77c3e7015b06f75e0bca1fb9f10edc64a23bf4d1b68",
    ),
    # Recorded before the series rows were packed into integers.
    (
        ("table", "f", "--max-n", "40", "--method", "gf", "--format", "json"),
        0,
        "6e5f97390b256d511997021359d0ea07fa928cf1ef9b60d7917925d0a4c23eb7",
    ),
    (
        ("table", "g", "--max-n", "40", "--method", "gf", "--format", "tsv"),
        0,
        "f190eccee030d300aed8f066836fbdd9c1e9a99f3f10239e6b097065f5530581",
    ),
    # Recorded before the word layer ran on one in-place letter kernel: the
    # word criterion on a Boolean S_40 (a repeat-free word of 30 letters
    # evaluated) and on a uniform non-Boolean S_60 of rank 315, and the text
    # verdict on the bare chain (1 3)(2 5)(4 7)... at n = 200, which prints
    # the repeat-free word.
    (
        (
            "check",
            "--method",
            "word",
            "1,5,3,7,2,8,4,6,9,13,11,12,10,16,15,14,19,23,17,20,21,22,18,26,29,24,27,34,25,30,"
            "31,32,35,28,33,37,36,38,40,39",
        ),
        0,
        "978f45094aeddfcf727a9a53e5bb933ebb33bbecbb6c6cbc80f1eb40f90f6d2f",
    ),
    (
        (
            "check",
            "--method",
            "word",
            "17,21,3,4,20,26,32,27,24,10,36,38,16,33,15,13,1,18,47,5,2,54,23,9,25,6,8,50,41,59,"
            "60,7,14,44,55,11,48,12,49,40,29,46,52,34,45,42,19,37,39,28,58,43,53,22,35,56,57,51,30,31",
        ),
        1,
        "21e7bc436c70c72cd2b6d70f5db8ca8e00d380e91c4cf4b59bf2056fe17bf151",
    ),
    (
        (
            "check",
            "--format",
            "text",
            ",".join(map(str, chain(200))),
        ),
        0,
        "91fcc732030480ce79e870e1271e0dadadf1c8c2294975326b1073483def8df8",
    ),
]


@pytest.mark.parametrize("argv, expected_code, digest", GOLDEN_STDOUT)
def test_golden_stdout(capsys, argv, expected_code, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == expected_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the ideal inputs above, and (1 14), whose ideal of 8192 elements sits at the guard
IDEAL_INPUTS = [argv[1] for argv, _, _ in GOLDEN_STDOUT if argv[0] == "ideal"]
IDEAL_INPUTS.append(",".join(map(str, (14, *range(2, 14), 1))))


@pytest.mark.parametrize("element", IDEAL_INPUTS)
def test_ideal_output_file_holds_the_printed_bytes(capsys, tmp_path, element):
    code, printed, _ = run_cli(capsys, "ideal", element)
    assert code == 0
    target = tmp_path / "ideal.dot"
    code, out, _ = run_cli(capsys, "ideal", element, "--output", str(target))
    assert code == 0
    assert target.read_bytes() == printed.encode()
    assert out == printed[:printed.index("\n") + 1]  # the certificate line alone


def test_ideal_output_is_written_row_by_row(capsys, tmp_path):
    # (1 9) in S_500: 256 elements of 500 entries and 4.9 MB of DOT.  The
    # writer holds the elements, their names and one row, not the text.
    target = tmp_path / "ideal.dot"
    tracemalloc.start()
    try:
        code = main(["ideal", ",".join(map(str, (9, *range(2, 9), 1, *range(10, 501)))),
                     "--output", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < target.stat().st_size / 2


def test_invariant_violation_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(boolean, "first_long_crossing_pair", lambda w: (1, 3))
    code, out, err = run_cli(capsys, "check", "--method", "all", "2143")
    assert code == 3
    assert out == ""
    assert err.startswith("error: criteria disagree on (2, 1, 4, 3)")


@pytest.mark.parametrize(
    "name, fake, args, message",
    [
        ("_peel_descents", lambda word, limit: [1, 1], ("--method", "word", "2143"),
         "criteria disagree on"),
        ("evaluate_word", lambda letters, n: identity(n), ("21",), "construction failed for"),
    ],
    ids=["word_criterion", "word_witness"],
)
def test_failed_internal_check_exits_3(capsys, monkeypatch, name, fake, args, message):
    # the word criterion disagrees with the scan; the Boolean witness does not rebuild w
    monkeypatch.setattr(boolean, name, fake)
    code, out, err = run_cli(capsys, "check", *args)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_series_row_outside_its_box_exits_3(capsys, monkeypatch):
    # counts of 8 bits cannot hold h(9) = 510: row 9 is no row of counts
    monkeypatch.setattr(series, "count_bits", lambda n: 8)
    code, out, err = run_cli(capsys, "table", "h", "--max-n", "30", "--method", "gf")
    assert code == 3
    assert out == ""
    assert err.startswith("error: series row 9 ")


def test_interrupt_exits_130_quietly():
    # a command that raises KeyboardInterrupt, as Ctrl-C does mid-run
    script = (
        "import sys\n"
        "from boolinv import cli\n"
        "def interrupted(args):\n"
        "    raise KeyboardInterrupt\n"
        "cli.cmd_enumerate = interrupted\n"
        "sys.exit(cli.main(['enumerate', '--n', '3']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60)
    assert proc.returncode == 130
    assert proc.stdout == b""
    assert b"Traceback" not in proc.stderr


def test_closed_stdout_exits_141_quietly():
    with subprocess.Popen(
        [sys.executable, "-m", "boolinv.cli", "enumerate", "--n", "10"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:  # closes both pipes and reaps the process on the way out
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert code == 141
    assert first == b"1,2,3,4,5,6,7,8,9,10\n"
    assert err == b""


# sha256 of the stdout of `table` at the `work` guard's edges (f at max-n 176,
# g at 907), recorded before the rows were written as they are made; the
# recurrence and gf routes print the same bytes.
TABLE_EDGE_DIGESTS = {
    ("f", "176", "tsv"): "fc800cc7de4bb094c2ea547c5a1cf5bbd2b3a497acda62d8a3575185bb3e3c4d",
    ("f", "176", "json"): "8a32ccd06bb2c54fe2962b3ce07fc28a3aeae6d251aa56b51ab53626e02ec511",
    ("g", "907", "tsv"): "5cb7b00ee36e34ec5512a1c567221ba243eae9fc80e22ab04aaecf9804d7bab4",
    ("g", "907", "json"): "64f919d6c3d51adf3e88fd5cebe1fd3f1848554103df2ef8bb980d81f831208f",
}


@pytest.mark.slow
@pytest.mark.parametrize("method", ["recurrence", "gf"])
@pytest.mark.parametrize("stat, max_n, fmt", list(TABLE_EDGE_DIGESTS))
def test_table_stdout_at_the_work_guard_edges(stat, max_n, fmt, method):
    argv = ["table", stat, "--max-n", max_n, "--method", method, "--format", fmt]
    digest = hashlib.sha256()
    with subprocess.Popen(
        [sys.executable, "-m", "boolinv.cli", *argv], stdout=subprocess.PIPE
    ) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            digest.update(chunk)
    assert proc.returncode == 0
    assert digest.hexdigest() == TABLE_EDGE_DIGESTS[stat, max_n, fmt]


# A child runs `table f --max-n 176` as its only child and prints that
# one's peak resident memory (KiB on Linux).  Measured with Python 3.11 on
# Linux: 26 MB as TSV and 59 MB as JSON (16 MB for the interpreter and
# package alone), against 115 and 180 MB when the table was held whole.
PEAK_RSS_SCRIPT = (
    "import resource, subprocess, sys\n"
    "argv = ['table', 'f', '--max-n', '176', '--format', sys.argv[1]]\n"
    "subprocess.run([sys.executable, '-m', 'boolinv.cli', *argv],"
    " stdout=subprocess.DEVNULL, check=True)\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


@pytest.mark.slow
@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB")
@pytest.mark.parametrize("fmt, limit_mb", [("tsv", 28), ("json", 90)])
def test_table_at_the_f_edge_holds_no_whole_table(fmt, limit_mb):
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, fmt],
        capture_output=True, text=True, timeout=600, check=True,
    )
    assert int(proc.stdout) / 1024 <= limit_mb
