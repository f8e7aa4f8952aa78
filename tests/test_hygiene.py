"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import importlib
import itertools
import operator
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pressurelab"


def _imported(tree: ast.Module):
    """(name bound, line) for every import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree: ast.Module) -> set:
    """Every name the module reads, quoted annotations included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public names
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imported(tree)
                   if name not in used]
    assert unused == []


def test_the_import_check_sees_an_unused_name():
    tree = ast.parse("from typing import Iterable, List\nimport os.path\nx: 'List[int]' = []\n")
    used = _used(tree)
    assert [name for name, _ in _imported(tree) if name not in used] == ["Iterable", "os"]


_BUDGET, _REFUSAL = "DEFAULT_ENUMERATION_BUDGET", "EnumerationBudgetExceeded"


def _budget_uses(tree: ast.AST, scope: str = ""):
    """(innermost enclosing function, "budget" or "raise") for every read of
    the budget (by name, attribute or import) and every call of its
    exception below ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name) and node.id == _BUDGET and isinstance(node.ctx, ast.Load):
            yield scope, "budget"
        elif isinstance(node, ast.Attribute) and node.attr == _BUDGET:
            yield scope, "budget"
        elif isinstance(node, ast.ImportFrom) and _BUDGET in (alias.name for alias in node.names):
            yield scope, "budget"
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", "")) == _REFUSAL:
            yield scope, "raise"
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _budget_uses(node, inner)


def test_the_enumeration_budget_is_checked_in_one_place():
    # the budget is one rule: symbolic.check_budget alone reads it and
    # alone raises EnumerationBudgetExceeded; every other module calls it
    uses = sorted({(path.name, *use) for path in SRC.glob("*.py")
                   for use in _budget_uses(ast.parse(path.read_text(), filename=str(path)))})
    assert uses == [("symbolic.py", "check_budget", "budget"), ("symbolic.py", "check_budget", "raise")]


def test_the_budget_check_sees_a_copy_and_a_raise():
    tree = ast.parse(
        "from .symbolic import DEFAULT_ENUMERATION_BUDGET\n"
        "def f(n):\n"
        "    if n > symbolic.DEFAULT_ENUMERATION_BUDGET:\n"
        "        raise errors.EnumerationBudgetExceeded(n, DEFAULT_ENUMERATION_BUDGET, 'words')\n"
    )
    assert sorted(set(_budget_uses(tree))) == [("", "budget"), ("f", "budget"), ("f", "raise")]


def test_every_function_perfbench_traces_exists():
    # perfbench's Tracer.install looks each (module, function) of TRACED up
    # with getattr, so a removed name breaks ``--trace 1``; TRACED is read
    # from the source, so no perfbench module is imported
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    (traced,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    ]
    assert traced
    missing = [f"{module}.{func}" for module, func in traced
               if not hasattr(importlib.import_module(f"pressurelab.{module}"), func)]
    assert missing == []


def test_readme_config_table_lists_every_top_level_key():
    # the keys in the first column of README's config table, against the
    # keys the schema accepts, in both directions
    from pressurelab.config import FIELDS

    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| key | meaning |") + 2
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
    documented = {key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
    assert documented == FIELDS


def test_pyproject_reads_the_version_from_the_package():
    # the version is written once, in pressurelab/_version.py
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in meta["project"] and "version" in meta["project"]["dynamic"]
    attr = meta["tool"]["setuptools"]["dynamic"]["version"]
    assert attr == {"attr": "pressurelab._version.__version__"}
    module, name = attr["attr"].rsplit(".", 1)
    assert re.fullmatch(r"\d+\.\d+\.\d+", getattr(importlib.import_module(module), name))


def _requirements():
    """(name, environment marker) of every requirement pyproject.toml declares
    for the package or its test extra."""
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for requirement in project["dependencies"] + project["optional-dependencies"]["test"]:
        spec, _, marker = requirement.partition(";")
        yield re.match(r"[\w.-]+", spec.strip()).group().lower(), marker.strip()


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
            "==": operator.eq, "!=": operator.ne}


def _applies(marker: str, version: tuple) -> bool:
    """Whether a requirement with ``marker`` (none, or one python_version
    comparison) is installed on Python ``version``."""
    if not marker:
        return True
    found = re.fullmatch(r'python_version\s*([<>=!]=?)\s*"(\d+)\.(\d+)"', marker)
    assert found, f"a marker this check cannot read: {marker!r}"
    return _COMPARE[found[1]](version, (int(found[2]), int(found[3])))


def _test_imports():
    """The top-level module of every import and pytest.importorskip in tests/."""
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                yield from (alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield node.module.split(".")[0]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "importorskip":
                yield node.args[0].value.split(".")[0]


def test_the_test_extra_declares_what_the_tests_import_and_ci_pins_it():
    # ``pip install .[test]`` must bring every third-party module the tests
    # import, or a test that imports it through importorskip skips without a
    # word; CI installs by hand, so its pins must cover the same list
    requirements = dict(_requirements())
    local = {"pressurelab", "brute", "perfbench"}
    third_party = set(_test_imports()) - set(sys.stdlib_module_names) - local
    assert sorted(third_party - {name.replace("-", "_") for name in requirements}) == []

    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    (install,) = [line for line in workflow.splitlines() if "pip install" in line]
    ((major, minor),) = re.findall(r'python-version: "(\d+)\.(\d+)"', workflow)
    pinned = {name.lower() for name in re.findall(r"([\w.-]+)==", install)}
    wanted = {name for name, marker in requirements.items() if _applies(marker, (int(major), int(minor)))}
    assert sorted(wanted - pinned) == []
