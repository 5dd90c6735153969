"""The documented tolerance and capacity policy, read from the README, against the code."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import osclass

README = Path(__file__).resolve().parents[1] / "README.md"

#: The modules that compute; ``errors`` only reports the tolerance it is given.
MODULES = ("linalg", "unitary", "degree1", "opsys", "osdist", "metric", "formulas", "io", "cli")

#: Every function with a ``tol`` parameter: the routes the CLI's ``--tol``
#: reaches, and the rank rule that takes ``TOL_NUM`` or ``_CUTOFF``.
SETTABLE = {
    "linalg.eig_normal", "linalg.numerical_rank", "linalg.FactoredSpan.fit",
    "linalg._pruning", "linalg.bijection_sweep",
    "unitary._floored", "unitary.spectrum", "unitary.rigid_equivalent",
    "unitary._as_spectrum", "unitary.cois_unitary_theorem", "unitary._bijection_decision",
    "unitary.cois_unitary_oracle", "unitary.four_point_obstruction",
    "degree1.degree_one_homeomorphic", "degree1.deg1_via_opsys",
}

#: Module-level float constants named like thresholds, each of which needs a
#: row in the table.
THRESHOLD_NAME = re.compile(r"TOL|(_SLACK|_GAP|_RANGE|_CUTOFF|_FLOOR|_BOUND)$")

#: Constants named like thresholds that are none, with the reason.
NOT_THRESHOLDS = {
    "formulas.CONNECTIVE_BOUND": "it clips a logical connective and is not a float threshold",
}


def tolerance_table() -> list:
    """(constant, value, module) for each row of the README's Tolerances table."""
    section = README.read_text(encoding="utf-8").split("\n## Tolerances\n", 1)[1]
    section = re.split(r"^#", section, maxsplit=1, flags=re.M)[0]
    return re.findall(r"^\| `(\w+)` \| ([^ |]+) \| `(\w+)` \|", section, flags=re.M)


def test_readme_table_matches_the_constants():
    rows = tolerance_table()
    names = [name for name, _, _ in rows]
    assert "TOL_NUM" in names and len(set(names)) == len(names)
    for name, value, module in rows:
        mod = importlib.import_module(f"osclass.{module}")
        assert getattr(mod, name) == float(value), (module, name)


def test_only_the_cli_tolerance_is_settable():
    found = set()
    for module in MODULES:
        mod = importlib.import_module(f"osclass.{module}")
        for attr, obj in vars(mod).items():
            members = [(attr, obj)]
            if inspect.isclass(obj):
                members = [(f"{attr}.{k}", v) for k, v in vars(obj).items()]
            for name, fn in members:
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and {"tol", "slack"} & set(inspect.signature(fn).parameters)):
                    found.add(f"{module}.{name}")
    assert found == SETTABLE


def test_every_threshold_constant_has_a_row():
    rows = {name: module for name, _, module in tolerance_table()}
    for module in MODULES:
        mod = importlib.import_module(f"osclass.{module}")
        source = inspect.getsource(mod)
        for name, value in vars(mod).items():
            if (not isinstance(value, float) or not THRESHOLD_NAME.search(name)
                    or f"{module}.{name}" in NOT_THRESHOLDS):
                continue
            assert name in rows, f"{module}.{name} has no row in the Tolerances table"
            if re.search(rf"^{name}\b[^=\n]*=", source, flags=re.M):  # defined here
                assert rows[name] == module, (module, name)
            else:  # imported from the module of its row
                assert getattr(importlib.import_module(f"osclass.{rows[name]}"), name) is value


#: Module-level int constants named like size limits, each of which needs a
#: row in the Capacity table.
CAPACITY_NAME = re.compile(r"^MAX_|_BUDGET$|_CAP$")


def capacity_table() -> dict:
    """{constant: (value, module)} for each row of the README's Capacity
    table, a value written as an integer or as a power ``10^6``."""
    section = README.read_text(encoding="utf-8").split("\n## Capacity\n", 1)[1]
    section = re.split(r"^#", section, maxsplit=1, flags=re.M)[0]
    rows = re.findall(r"^\| `(\w+)` \| (\d+)(?:\^(\d+))? \| `(\w+)` \|", section, flags=re.M)
    return {name: (int(base) ** int(exp or 1), module) for name, base, exp, module in rows}


def test_every_capacity_constant_has_a_row_with_its_value():
    rows = capacity_table()
    assert "SEARCH_NODE_BUDGET" in rows and "MAX_SIMPLEX_FLOATS" in rows
    for name, (value, module) in rows.items():
        assert getattr(importlib.import_module(f"osclass.{module}"), name) == value, name
    for module in MODULES:
        mod = importlib.import_module(f"osclass.{module}")
        for name, value in vars(mod).items():
            if (isinstance(value, int) and not isinstance(value, bool)
                    and CAPACITY_NAME.search(name)):
                assert name in rows, f"{module}.{name} has no row in the Capacity table"
                assert getattr(importlib.import_module(f"osclass.{rows[name][1]}"), name) == value



#: Module-level int constants named like a working-set budget: only
#: ``linalg.BLOCK_ENTRIES`` may be one (a ``MAX_*`` entry count is a capacity).
BUDGET_NAME = re.compile(r"BLOCK|_ENTRIES$")


def test_the_block_budget_is_defined_once():
    # every blocked numpy loop sizes its blocks by linalg.block_size, so a
    # second such constant would be a second budget
    assert importlib.import_module("osclass.linalg").BLOCK_ENTRIES == 1 << 16
    for info in pkgutil.iter_modules(osclass.__path__):
        mod = importlib.import_module(f"osclass.{info.name}")
        for name, value in vars(mod).items():
            if (isinstance(value, int) and not isinstance(value, bool)
                    and BUDGET_NAME.search(name) and not CAPACITY_NAME.search(name)):
                assert (info.name, name) == ("linalg", "BLOCK_ENTRIES"), \
                    f"{info.name}.{name} is a second block budget"
