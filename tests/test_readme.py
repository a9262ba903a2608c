"""The README's examples run as written against the current API, and its config
table names the keys the config blocks declare."""

import dataclasses
import re
import shlex
import typing
from pathlib import Path

from evosc.apps import PipelineConfig
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


def _outside_parentheses(text: str) -> str:
    depth, kept = 0, []
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and ch != ")":
            kept.append(ch)
    return "".join(kept)


def _config_blocks(cls=PipelineConfig, label="top level"):
    """{row label: dataclass} of every config block under cls, the blocks a
    field reads with its own reader (the patterns) left out."""
    blocks = {label: cls}
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if "read" in f.metadata:
            continue
        tp, suffix = hints[f.name], ""
        if type(None) in typing.get_args(tp):  # X | None
            tp = typing.get_args(tp)[0]
        if typing.get_origin(tp) is tuple:
            tp, suffix = typing.get_args(tp)[0], "[i]"
        if dataclasses.is_dataclass(tp):
            prefix = "" if cls is PipelineConfig else f"{label}."
            blocks.update(_config_blocks(tp, f"{prefix}{f.name}{suffix}"))
    return blocks


def test_config_table_names_each_block_s_keys():
    """Each row of the config table names, outside its parentheses, exactly
    the keys of its block's dataclass, and every block has a row. The pattern
    rows are not checked: a pattern's keys are those of the class its `type`
    names."""
    text = README.read_text().split("Every block and its defaults", 1)[1]
    table = re.search(r"\n\| block \| keys \(default\) \|\n\|---\|---\|\n((?:\|.*\n)+)", text)
    rows = {}
    for line in table.group(1).splitlines():
        label, keys = line.strip("|").split(" | ")
        if "pattern" not in label:
            rows[label.strip().strip("`")] = re.findall(r"`([^`]+)`", _outside_parentheses(keys))
    blocks = _config_blocks()
    assert sorted(rows) == sorted(blocks)
    for label, keys in rows.items():
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(blocks[label])), label
