"""The README's map from paper statements to code and tests stays true.

Each row of the Library table names functions as `module.name` and tests
as `file.py::test` (or `file.py::Class::test`); every one must exist, and
every public name of the package must appear in the README's code.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import ugbench

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _table_rows():
    """(statement, code names, test names) of each row of the map table."""
    section = README.split("## Library", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|") or len(cells) != 3:
            continue
        statement, code, tests = cells
        if set(code) <= set("-") or code == "Code":  # separator and header
            continue
        rows.append((statement, re.findall(r"`([^`]+)`", code),
                     re.findall(r"`([^`]+)`", tests)))
    return rows


ROWS = _table_rows()
CODE = sorted({name for _, names, _ in ROWS for name in names})
TESTS = sorted({name for _, _, names in ROWS for name in names})


def _test_names(path):
    """Names of a test file's functions, also as Class::function."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
    return names


def test_table_names_the_north_star_statements():
    statements = " ".join(statement for statement, _, _ in ROWS)
    for needle in ("Balance identity", "Monotone", "phi_k* <= F*",
                   "Deterministic rate", "Accelerated rate",
                   "Stochastic rates", "Unbiased oracles"):
        assert needle in statements
    assert all(code and tests for _, code, tests in ROWS)


@pytest.mark.parametrize("name", CODE)
def test_named_function_imports(name):
    module, _, attr = name.partition(".")
    assert callable(getattr(importlib.import_module(f"ugbench.{module}"), attr))


@pytest.mark.parametrize("name", TESTS)
def test_named_test_exists(name):
    filename, _, test = name.partition("::")
    assert test.split("::")[-1].startswith("test_")
    assert test in _test_names(ROOT / "tests" / filename)


def test_every_public_name_appears():
    fence = r"```\w*\n(.*?)```"
    spans = re.findall(fence, README, flags=re.S) + re.findall(
        r"`([^`]+)`", re.sub(fence, "", README, flags=re.S))
    words = set(re.findall(r"[A-Za-z_]\w*", " ".join(spans)))
    assert sorted(set(ugbench.__all__) - words) == []
