"""The README's examples run as written: the library block, and every
`fuzzysm` command line through cli.main from the repository root."""
import re
import shlex
from pathlib import Path

import pytest

from fuzzysm.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _commands() -> list[list[str]]:
    """Each `fuzzysm ...` line of the sh blocks, continuations joined,
    except the 500-trial props run, which the acceptance gate covers."""
    lines = "\n".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("fuzzysm ") and "props --trials 500" not in line]


def test_the_library_block_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_each_command_exits_zero(monkeypatch, capsys, argv):
    monkeypatch.chdir(ROOT)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out
