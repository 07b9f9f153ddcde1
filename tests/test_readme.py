"""The README's examples run as written: every `k3lat` line of the CLI tour, and
the library snippet, which prints what its closing comment says."""

import io
import json
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from k3lat.cli import run

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
# stands in for the tour's `my_config.json`: one A_2 chain, so p = 3
MY_CONFIG = json.dumps({"ambient": "A2", "p": 3, "chains": [[[1, 0], [0, 1]]]})


def _code_block(heading: str) -> str:
    """The first fenced code block after a level-2 heading of the README."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```\w*\n(.*?)```", section, re.S).group(1)


def _tour_commands() -> list[str]:
    """The tour's command lines, continuations joined and trailing comments dropped."""
    text = _code_block("CLI tour").replace("\\\n", " ")
    return [line.split("#", 1)[0].strip() for line in text.splitlines() if line.startswith("k3lat")]


def test_the_tour_is_read():
    assert len(_tour_commands()) == 20


@pytest.mark.parametrize("command", _tour_commands())
def test_cli_tour_line_runs(capsys, command):
    argv = shlex.split(command)[1:]
    argv = [MY_CONFIG if a == "my_config.json" else str(ROOT / a) if a.startswith("src/") else a
            for a in argv]
    assert run(argv) == 0, command
    out = capsys.readouterr()
    assert out.out and not out.err, command


def test_library_snippet_prints_its_comment():
    code = _code_block("Library use")
    expected = re.search(r"print\(.*\)\s+# (.*)", code).group(1)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert expected == "nonprimitive 5 (Z/2)^2 4A1"
    assert out.getvalue() == expected + "\n"
