"""The README's examples run as written against the current API."""

import re
import shlex
from pathlib import Path

from evosc.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert len(namespace["comp"]) == namespace["out"].events.shape[0]


def test_command_lines_parse():
    """Every `evosc` line of the command-line block parses with the CLI's own
    parser, so a flag the CLI no longer has cannot stay in the docs."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.S).group(1)
    lines = [shlex.split(ln) for ln in block.splitlines() if ln.startswith("evosc ")]
    assert len(lines) == 9
    parser = build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])
