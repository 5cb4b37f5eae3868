"""The commands and code that README and the CI workflow show still run: the
library quick start executes, and every ``signvote ...`` command line parses
with the CLI's own parser, so neither can name a removed class argument,
flag or subcommand; and README's table of error kinds names the kinds the
CLI raises."""

import re
import shlex
from itertools import takewhile
from pathlib import Path

import pytest
import yaml

from signvote import cli

REPO = Path(__file__).resolve().parents[1]
README = (REPO / "README.md").read_text()
CLI = Path(cli.__file__).read_text()
WORKFLOW = yaml.safe_load((REPO / ".github" / "workflows" / "tests.yml").read_text())


def fenced(text: str, language: str) -> list:
    """The bodies of the ``language`` code blocks in a markdown text."""
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)


def signvote_commands(script: str) -> list:
    """The arguments of every ``signvote`` command in a shell script, with
    backslash continuations joined, comments dropped, and each command cut at
    its first pipe, redirection or list operator."""
    commands = []
    for line in script.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["signvote"]:
            commands.append(list(takewhile(lambda word: not re.match(r"\d*[|&;<>]", word),
                                           words[1:])))
    return commands


# the shell text of each place that shows signvote command lines, and the
# subcommands it shows
SCRIPTS = {
    "README": ("\n".join(fenced(README, "sh")),
               {"run", "sweep", "verify-bounds", "gradient-check", "report"}),
    "workflow": ("\n".join(step.get("run", "") for job in WORKFLOW["jobs"].values()
                           for step in job["steps"]), {"run", "verify-bounds", "report"}),
}


def test_library_quick_start_runs(capsys):
    block = fenced(README[README.index("## Library quick start"):], "python")[0]
    assert "n_rounds=300" in block
    exec(compile(block.replace("n_rounds=300", "n_rounds=3"), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("RoundMetrics(step=3,")


@pytest.mark.parametrize("where", sorted(SCRIPTS))
def test_documented_command_lines_parse(where):
    script, expected = SCRIPTS[where]
    commands = signvote_commands(script)
    assert {argv[0] for argv in commands} == expected
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv)
        except cli._Failure:
            pytest.fail(f"{where}: `signvote {shlex.join(argv)}` does not parse")


def test_error_table_lists_every_raised_kind():
    """README's table of error kinds names exactly the kinds the CLI raises."""
    table = README[README.index("| kind | exit | printed by |"):].split("\n\n")[0]
    documented = set(re.findall(r"^ *\| `([a-z-]+)` \|", table, flags=re.M))
    raised = set(re.findall(r'_Failure\("([a-z-]+)"', CLI))
    assert documented == raised
