"""The README's tables name code that exists: rule owners, flags and their RunConfig fields."""
import argparse
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from tgkit.cli import _TOP_K_FIELDS, build_parser
from tgkit.config import RunConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def table_rows(heading: str) -> list:
    """The cells of each body row of the first table under ``## heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def owners() -> list:
    """Every dotted name in the Owner column of "Tie and ordering rules"."""
    return sorted({name for row in table_rows("Tie and ordering rules")
                   for name in re.findall(r"`(\w+(?:\.\w+)+)`", row[1])})


def flag_rows() -> list:
    """(flag, command, its --task or None, RunConfig field) for each flag of the CLI table."""
    out = []
    for flags, commands, field, _ in table_rows("CLI"):
        for command in commands.split(","):
            task = re.search(r"--task (\w+)", command)
            for flag in re.findall(r"`(--[\w-]+)`", flags):
                out.append((flag, command.split()[0], task and task.group(1), field.strip("`")))
    return out


def test_tables_are_found():
    assert len(owners()) > 20 and len(flag_rows()) > 20


@pytest.mark.parametrize("dotted", owners())
def test_every_owner_resolves(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"tgkit.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)


@pytest.mark.parametrize("flag, command, task, field", flag_rows())
def test_every_flag_sets_its_field(flag, command, task, field):
    assert field in {f.name for f in dataclasses.fields(RunConfig)}
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    action = commands.choices[command]._option_string_actions[flag]
    # decode --top-k sets the field its --task picks
    assert (_TOP_K_FIELDS[task] if action.dest == "top_k" else action.dest) == field
