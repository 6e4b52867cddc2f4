import doctest
import re
from pathlib import Path

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
