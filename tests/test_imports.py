"""No module of the package imports numpy when it is loaded: the solver core
evaluates one threshold at a time in plain ``math``, the CLI's figure grids
are plain lists, and ``simulation`` and ``costs.sample`` import numpy in the
functions that draw. So only the Monte Carlo pays for loading it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bountylab
import bountylab.rootfind
import bountylab.simulation

PACKAGE = Path(bountylab.__file__).parent
ROOT = Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"


def _import_time_modules(tree):
    """Names of the modules a module imports when it is loaded: every import
    outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_solver_core_imports_no_numpy(module):
    """Every module, the solver core and the rest alike."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = list(_import_time_modules(tree))
    assert names, "the walk found no import at all"
    assert not [n for n in names if n == "numpy" or n.startswith("numpy.")]


# Runs each argv through cli.main in one process and prints, as its last line,
# [mode, exit code, whether numpy is loaded] after each.
_RUN_MODES = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from bountylab.cli import main
seen = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen.append([argv[0], code, "numpy" in sys.modules])
print(json.dumps(seen))
"""


def test_only_simulate_loads_numpy(tmp_path):
    seed = tmp_path / "seed.bin"
    seed.write_bytes(bytes(range(32)))
    out = tmp_path / "out"

    def config(name):
        return ["--config", str(DATA / name), "--out", str(out)]

    record = ["--commitment", str(out / "commitment.txt"), "--reveal", str(out / "reveal.txt")]
    runs = [
        ["equilibrium", *config("equilibrium_example.json")],
        ["design", *config("private_example.json")],
        ["public", *config("public_example.json")],
        ["figures", *config("figures_example.json")],
        ["commit", "--payload", str(seed), "--salt-hex", "00" * 32, "--out", str(out)],
        ["reveal-verify", *record],
        ["coin", *record, "--beacon", "ab" * 32, "--mu-a", "0.5"],
        ["simulate", *config("equilibrium_example.json"), "--seed", "1", "--trials", "10"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_MODES, str(PACKAGE.parent), json.dumps(runs)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == [[argv[0], 0, argv[0] == "simulate"] for argv in runs]


def test_package_namespace():
    namespace = {}
    exec("from bountylab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(bountylab.__all__)
    assert bountylab.simulate is bountylab.simulation.simulate
    with pytest.raises(AttributeError):
        bountylab.no_such_name


def _tracer_constant(name):
    """A tuple constant of ``bench/tracer.py``, read without importing it."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/tracer.py defines no {name}")


def test_benchmark_tracer_finds_what_it_hooks():
    """The benchmark's tracer rebinds names it looks up in the package; a
    change that moves one fails every traced run, so it fails here first."""
    cost_methods = _tracer_constant("COST_METHODS")
    assert [m for m in cost_methods if m not in vars(bountylab.CostDistribution)] == []
    layers = [f"bountylab.{layer}" for layer in _tracer_constant("LAYERS")]
    probe = "import json, sys, bountylab.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    loaded = json.loads(proc.stdout)
    assert [m for m in layers if m not in loaded] == []
    assert callable(bountylab.simulation._chunk_rng)
    assert callable(bountylab.rootfind.bisect_decreasing)
