"""The README's tables name code that exists: rule owners, flags and their RunConfig fields."""
import argparse
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from tgkit.cli import _TOP_K_FIELDS, build_parser
from tgkit.config import _RULES, RunConfig
from tgkit.losses import _WEIGHT_RULES

README = Path(__file__).resolve().parent.parent / "README.md"


def table_rows(heading: str, which: int = 0) -> list:
    """The cells of each body row of table ``which`` (0: the first) under ``## heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    tables = re.findall(r"(?m)(?:^\|.*\n)+", section)
    lines = tables[which].splitlines()
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def owners() -> list:
    """Every dotted name in the Owner column of "Tie and ordering rules"."""
    return sorted({name for row in table_rows("Tie and ordering rules")
                   for name in re.findall(r"`(\w+(?:\.\w+)+)`", row[1])})


def flag_rows() -> list:
    """(flag, command, its --task or None, RunConfig field) for each flag of the CLI table."""
    out = []
    for flags, commands, field, *_ in table_rows("CLI"):
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


def range_rows() -> list:
    """(RunConfig field, its "Must" cell) for each field of the two CLI tables."""
    cells = [(row[2], row[4]) for row in table_rows("CLI")] + [
        (row[0], row[2]) for row in table_rows("CLI", 1)]
    return [(field, must) for fields, must in cells for field in re.findall(r"`(\w+)`", fields)]


def test_range_tables_name_every_field_once():
    fields = [field for field, _ in range_rows()]
    assert sorted(set(fields)) == sorted(fields) == sorted(
        f.name for f in dataclasses.fields(RunConfig))


@pytest.mark.parametrize("field, must", range_rows())
def test_range_is_the_rule_config_applies(field, must):
    rule = _RULES.get(field) or _WEIGHT_RULES.get(field)
    assert must == (rule[1] if rule else "")
