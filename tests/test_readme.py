"""The README's library example and command-line block run as documented."""

import re
import shlex
from pathlib import Path

from geompert.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str, fence: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    block = re.search(rf"```{fence}\n(.*?)```", section, re.S)
    assert block is not None, f"the {heading} section holds no {fence or 'plain'} block"
    return block.group(1)


def test_library_example_runs():
    # the suite's filterwarnings = ["error"] turns any warning into a failure
    exec(compile(_block("Library", "python"), str(README), "exec"), {})


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # every command with its bracketed optional flags; `> FILE` is written
    # from the command's stdout
    monkeypatch.chdir(tmp_path)
    lines = _block("Command line", "").splitlines()
    assert lines, "the Command line block is empty"
    for line in lines:
        argv = shlex.split(line.replace("[", "").replace("]", ""))
        assert argv[0] == "geompert", line
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
        assert main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        if target is not None:
            Path(target).write_text(out, encoding="utf-8")
