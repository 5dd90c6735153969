"""Every code name the README cites, against the package.

A backticked ``module.name`` (``metric.dk_bruteforce``), ``Class.name``
(``FactoredSpan.fit``) or bare private name (``_CUTOFF``) must name an
attribute of an ``osclass`` module, so renaming or deleting a cited name
fails here instead of leaving the README pointing at nothing.  Conversely,
every name ``osclass`` exports, other than its modules, appears in a code
span of the README, so no export goes undocumented.  The CLI section's
command block shows each subcommand the parser declares, once, and every
flag the README names after a subcommand is one that subcommand declares.
"""

import argparse
import importlib
import inspect
import re
from pathlib import Path

import pytest

import osclass
from osclass.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = ("linalg", "unitary", "degree1", "opsys", "osdist", "metric", "formulas", "io",
           "cli", "errors")


def cited(pattern: str) -> list:
    return sorted(set(re.findall(pattern, README.read_text(encoding="utf-8"))))


def holders(name: str) -> list:
    """The ``osclass`` modules that have an attribute ``name``."""
    mods = [importlib.import_module(f"osclass.{module}") for module in MODULES]
    return [mod for mod in mods if hasattr(mod, name)]


def resolves(owner, path: list) -> bool:
    for part in path:
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


DOTTED = cited(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
MODULE_REFS = [ref for ref in DOTTED if ref.split(".")[0] in MODULES]
CLASS_REFS = [ref for ref in DOTTED if ref[0].isupper()]
PRIVATE = cited(r"`(_\w+)`")


def test_the_readme_cites_code_names():
    assert len(MODULE_REFS) >= 10 and CLASS_REFS and PRIVATE


@pytest.mark.parametrize("ref", MODULE_REFS)
def test_module_reference_resolves(ref):
    module, *path = ref.split(".")
    assert resolves(importlib.import_module(f"osclass.{module}"), path), ref


@pytest.mark.parametrize("ref", CLASS_REFS)
def test_class_reference_resolves(ref):
    cls, *path = ref.split(".")
    assert any(resolves(getattr(mod, cls), path) for mod in holders(cls)), ref


@pytest.mark.parametrize("name", PRIVATE)
def test_private_name_resolves(name):
    assert holders(name), name


def test_every_export_is_cited():
    words = {word for span in cited(r"`([^`\n]+)`") for word in re.findall(r"\w+", span)}
    exports = [name for name in osclass.__all__ if not inspect.ismodule(getattr(osclass, name))]
    assert exports and sorted(set(exports) - words) == []


def subparsers() -> dict:
    """Each subcommand's parser, by name."""
    return next(a.choices for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))


def cli_block() -> list:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    return [line.split("#")[0] for line in block.splitlines() if line.startswith("osclass ")]


def test_cli_block_names_each_subcommand_once():
    shown = sorted(line.split()[1] for line in cli_block())
    assert shown == sorted(subparsers())


def test_every_flag_named_after_a_subcommand_is_declared():
    # a backticked `deg1 --cap`, or a line of the command block, names flags
    # of its subcommand; a flag the parser no longer declares fails here
    commands = subparsers()
    uses = [line.split(None, 1)[1] for line in cli_block()]
    uses += [span for span in cited(r"`([a-z][\w-]* --[^`\n]*)`") if span.split()[0] in commands]
    assert len(uses) > len(commands)
    for use in uses:
        declared = commands[use.split()[0]]._option_string_actions
        assert [f for f in re.findall(r"--[\w-]+", use) if f not in declared] == [], use
