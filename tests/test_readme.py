import doctest
import re
import shlex
from pathlib import Path

from boolinv.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    # Only the ```python block: run over the whole file, doctest would read
    # the closing fence as expected output of the block's last example.
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert len(blocks) == 1
    lineno = text.count("\n", 0, blocks[0].start(1))
    test = doctest.DocTestParser().get_doctest(
        blocks[0].group(1), {}, "README.md", str(README), lineno
    )
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert test.examples and runner.failures == 0


# Each shell example in README's "Command line" section, in order, with
# the exit code that section's text gives it: `check` exits 1 on a
# non-Boolean element and 2 on a parse error.
SHELL_EXAMPLES = {
    "check --format text 4321": 1,
    "check --signed -- -1,-2": 1,
    "table h --max-n 6 --method recurrence --format tsv": 0,
    "motzkin to-path 2143": 0,
    "motzkin from-path UUFDD": 2,
}


def shell_examples():
    """Each `$ boolinv ...` line of the ```sh blocks in the "Command line"
    section, with its argv, the exit code it echoes (or None) and the
    lines shown after it."""
    text = README.read_text()
    section = re.search(r"^## Command line\n(.*?)^## ", text, re.M | re.S).group(1)
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```$", section, re.M | re.S):
        for command in re.split(r"^\$ ", block, flags=re.M)[1:]:
            line, *shown = command.splitlines()
            line, echo, _ = line.partition(' ; echo "exit $?"')
            code = int(shown.pop().removeprefix("exit ")) if echo else None
            examples.append((shlex.split(line), code, shown))
    return examples


def test_readme_shell_examples_match_the_cli(capsys):
    # stdout, stderr and exit code of each example; the CLI writes only its
    # `error: ` lines to stderr, and a `...` line stands for any remaining
    # output
    examples = shell_examples()
    assert [" ".join(argv[1:]) for argv, _, _ in examples] == list(SHELL_EXAMPLES)
    for argv, echoed, shown in examples:
        code = SHELL_EXAMPLES[" ".join(argv[1:])]
        assert argv[0] == "boolinv" and echoed in (None, code), argv
        assert main(argv[1:]) == code, argv
        out, err = capsys.readouterr()
        errors = [line for line in shown if line.startswith("error: ")]
        assert err.splitlines() == errors, argv
        shown, lines = [line for line in shown if line not in errors], out.splitlines()
        if "..." in shown:
            shown = shown[: shown.index("...")]
            lines = lines[: len(shown)]
        assert lines == shown, argv
