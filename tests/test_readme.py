"""The ```python blocks of README.md, run as doctests."""

import doctest
import io
import re
from pathlib import Path

from kunits.classify import _PREDICATE_HELP, _RULE_HELP

README = Path(__file__).resolve().parent.parent / "README.md"
# The block's text without its fences, which doctest would read as expected output.
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    blocks = list(_PYTHON_BLOCK.finditer(text))
    assert blocks
    for block in blocks:
        lineno = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block.group(1), {}, f"README.md:{lineno + 1}", str(README), lineno)
        assert test.examples, test.name
        report = io.StringIO()
        failed, _ = runner.run(test, out=report.write)
        assert failed == 0, report.getvalue()


def test_readme_quotes_the_cli_help():
    # the rule forms and the predicates are written once, in classify; README quotes both
    text = README.read_text(encoding="utf-8")
    assert f"`{_RULE_HELP}`" in text
    assert f"`{_PREDICATE_HELP}`" in text
