"""The README's library example runs as written, its CLI lines parse, and
its config keys are the ones the parser reads."""

import contextlib
import dataclasses
import io
import os
import re
import shlex

from subinf import cli, config, fieldio
from subinf.solver import SolverConfig

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



def test_config_format_lists_the_parsed_keys():
    """The solver keys are the SolverConfig fields, and the problem keys are
    the config lines of a manifest, which parse back to the same config."""
    text = _section("Config format")
    problem, solver = (set(re.findall(r"^- `(\w+)`", block, re.M))
                       for block in text.split("\nSolver keys", 1))
    assert solver == {fd.name for fd in dataclasses.fields(SolverConfig)}
    cfg = config.parse_config("[problem]\ngeometry = euclidean:2\nlower = 0 0\n"
                              "upper = 1 1\nh = 0.5\nboundary = linear:1,0\n")
    lines = fieldio.manifest_to_text(cfg.resolved_items()).splitlines()
    solver_lines = [line[14:] for line in lines if line.startswith("config.solver.")]
    problem_lines = [line[7:] for line in lines if not line.startswith("config.solver.")]
    assert problem == {line.split(" = ")[0] for line in problem_lines}
    text = "\n".join(["[problem]", *problem_lines, "[solver]", *solver_lines])
    assert config.parse_config(text) == cfg
