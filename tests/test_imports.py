"""The solver core evaluates one threshold at a time in plain ``math``; only
``simulation``, ``cli`` and ``costs.sample`` need numpy."""

import ast
from pathlib import Path

import pytest

import bountylab

PACKAGE = Path(bountylab.__file__).parent


def _import_time_modules(tree):
    """Names of the modules a module imports when it is loaded: every import
    outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", ["costs", "rootfind", "game", "design", "asymptotic", "credibility"])
def test_solver_core_imports_no_numpy(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = list(_import_time_modules(tree))
    assert names, "the walk found no import at all"
    assert not [n for n in names if n == "numpy" or n.startswith("numpy.")]
