"""Package surface and source hygiene: exported names, imports, rule tables."""

from __future__ import annotations

import argparse
import ast
import re
import types
from pathlib import Path

import pytest

import skylink
from skylink import cli
from skylink.errors import RULES

SOURCES = sorted(
    p for p in Path(skylink.__file__).resolve().parent.glob("*.py")
    if p.name != "__init__.py"
)


def test_all_exports_no_modules():
    assert len(set(skylink.__all__)) == len(skylink.__all__)
    for name in skylink.__all__:
        assert not isinstance(getattr(skylink, name), types.ModuleType), name
    for module in ("channel_models", "datagen", "errors", "fading", "rbf_net"):
        assert module not in skylink.__all__


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import (except from __future__) -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name}: unused imports {unused}"


def rule_tables(tree: ast.Module) -> list[ast.Dict]:
    """Dict literals used as require tables: passed to it, or bound to a name
    that is passed to it or ends in _RULES."""
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "require"
    ]
    passed = {call.args[1].id for call in calls if isinstance(call.args[1], ast.Name)}
    tables = [call.args[1] for call in calls if isinstance(call.args[1], ast.Dict)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            if names & passed or any(n.endswith("_RULES") for n in names):
                tables.append(node.value)
    return tables


def test_rule_strings_are_built_from_rule_terms():
    """A typo in a rule fails here, not when someone first sets the field."""
    checked, bad = 0, []
    for path in SOURCES:
        for table in rule_tables(ast.parse(path.read_text(encoding="utf-8"))):
            for value in table.values:
                checked += 1
                rule = value.value if isinstance(value, ast.Constant) else None
                terms = rule.split(" and ") if isinstance(rule, str) else [None]
                if not set(terms) <= set(RULES):
                    bad.append(f"{path.name}:{value.lineno}: {ast.unparse(value)}")
    assert checked >= 40 and not bad, bad


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_every_curve_and_curves_key():
    """README's curve commands and `curves` config row match cli.py."""
    text = README.read_text(encoding="utf-8")
    assert re.findall(r"^skylink curves +(\S+)", text, re.M) == list(cli.CURVES)
    row = next(line for line in text.splitlines() if line.startswith("| `curves` |"))
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    keys = {
        node.value.removeprefix("curves.") for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith("curves.")
    }
    assert set(re.findall(r"`(\w+)`", row.split("|")[2])) == keys


def command_options() -> dict[str, set[str]]:
    """Each CLI command -> its option strings, without -h/--help."""
    sub = next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }


def test_readme_lists_the_config_flags_of_each_command():
    """README's config-flag list is the option set of generate, train and
    curves; predict and eval take none of those flags."""
    text = README.read_text(encoding="utf-8")
    _, _, rest = text.partition("Flags of the commands that read a run config")
    sentence, _, bullets = rest.partition(":\n\n")
    readers, others = (re.findall(r"`(\w+)`", part) for part in sentence.split(";"))
    flags = set(re.findall(r"^- `(--[\w-]+)", bullets.split("\n\n")[0], re.M))
    options = command_options()
    assert flags and set(options) == {*readers, *others}
    for command in readers:
        assert options[command] == flags, command
    for command in others:
        assert not options[command] & flags, command
