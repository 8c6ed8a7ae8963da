"""The README's Quick start block and command-line examples, run against the
checkout: each must print what the README shows."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from circmix.cli import main

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _examples() -> list[tuple[str, str]]:
    """``(command, output)`` for each ``$ circmix`` example, continuation
    lines joined."""
    examples = []
    for chunk in _block("Command line", "sh").split("$ ")[1:]:
        lines = chunk.rstrip("\n").split("\n")
        command = lines.pop(0)
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        examples.append((command, "\n".join(lines).strip("\n")))
    return examples


def _shown(output: str, shown: str) -> bool:
    """Does ``output`` read as ``shown``?  A ``...`` line matches whatever
    output remains."""
    want = shown.split("\n")
    got = output.rstrip("\n").split("\n")
    if "..." in want:
        want = want[:want.index("...")]
        got = got[:len(want)]
    return got == want


def test_quick_start_prints_its_comments():
    code = _block("Quick start", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == re.findall(r"#\s*(.*)", code)


EXAMPLES = _examples()


def test_four_command_examples_are_found():
    assert [shlex.split(command)[:2] for command, _ in EXAMPLES] == [
        ["circmix", "lower-parent"], ["circmix", "mixing"],
        ["circmix", "scan"], ["circmix", "extend"]]


@pytest.mark.parametrize("command, shown", EXAMPLES,
                         ids=[shlex.split(command)[1] for command, _ in EXAMPLES])
def test_command_example_output(capsys, command, shown):
    assert main(shlex.split(command)[1:]) == 0
    assert _shown(capsys.readouterr().out, shown)
