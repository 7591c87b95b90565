"""perfbench's tracer patches names that the package still has.

perfbench/tracing.py is read with ast, not imported: every
self.patch(owner, attr, ...) in Tracer.install must name an attribute
that exists on its owner, so that a rename in the package fails here and
not only in a traced benchmark run.
"""

import ast
from pathlib import Path

import pytest

import ugbench.solvers
from ugbench import cli, dataio
from ugbench.oracles import Oracle

TRACING = ast.parse(
    (Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py").read_text())
# the owners install patches, by the names tracing.py imports them under
OWNERS = {"ugbench.solvers": ugbench.solvers, "cli": cli, "dataio": dataio,
          "Oracle": Oracle}


def _constants():
    """tracing.py's module-level names bound to literals."""
    constants = {}
    for node in TRACING.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            try:
                constants[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:  # not a literal
                pass
    return constants


def _patches(node, constants, loops):
    """(owner name, attribute) of each self.patch under node; loops maps a
    loop variable to the keys or items of the constant it runs over."""
    if isinstance(node, ast.For):
        over = node.iter.func.value if isinstance(  # CONSTANT.items()
            node.iter, ast.Call) else node.iter
        target = node.target.elts[0] if isinstance(
            node.target, ast.Tuple) else node.target
        if over.id in constants:
            loops = {**loops, target.id: list(constants[over.id])}
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "patch"):
        owner, attr = ast.unparse(node.args[0]), node.args[1]
        for name in (loops[attr.id] if isinstance(attr, ast.Name)
                     else [attr.value]):
            yield owner, name
    for child in ast.iter_child_nodes(node):
        yield from _patches(child, constants, loops)


def _install_patches():
    tracer = next(node for node in TRACING.body
                  if isinstance(node, ast.ClassDef) and node.name == "Tracer")
    install = next(node for node in tracer.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    return list(_patches(install, _constants(), {}))


PATCHES = _install_patches()


def test_install_patches_every_expected_target():
    constants = _constants()
    expected = {("ugbench.solvers", name) for name in (
        *constants["SOLVER_GLOBALS"], *constants["SOLVER_ENTRIES"])}
    expected |= {("cli", "load_dataset"), ("cli", "write_trace"),
                 ("cli", "make_problem"), ("dataio", "parse_libsvm"),
                 ("Oracle", "draw")}
    assert set(PATCHES) == expected


@pytest.mark.parametrize("owner, attr", PATCHES,
                         ids=[f"{o}.{a}" for o, a in PATCHES])
def test_patch_target_resolves(owner, attr):
    assert callable(getattr(OWNERS[owner], attr))
