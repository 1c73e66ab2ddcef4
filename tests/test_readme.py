"""The README's library example runs as written, and its CLI lines parse."""

import contextlib
import io
import os
import re
import shlex

from subinf import cli

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _section(title):
    with open(README) as fh:
        return fh.read().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs():
    block = re.search(r"```python\n(.*?)```", _section("Library"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue() == "True [2, 4]\n"


def test_cli_lines_parse():
    """Every subinf line of the CLI block names a live subcommand and options."""
    block = re.search(r"```sh\n(.*?)```", _section("CLI"), re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    lines = [words for words in lines if words]
    assert {words[0] for words in lines} == {"subinf"}
    parser = cli._build_parser()
    commands = {parser.parse_args(words[1:]).command for words in lines}
    assert commands == set(cli._HANDLERS)
