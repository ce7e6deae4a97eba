"""What a process executes. No module of the package imports numpy when it
executes: the solver core evaluates one threshold at a time in plain
``math``, the CLI's figure grids are plain lists, and ``simulation`` and
``costs.sample`` import numpy in the functions that draw. ``import
bountylab`` executes no layer, and each CLI mode executes only the layers it
uses, so only the Monte Carlo pays for loading numpy."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bountylab
import bountylab.rootfind
import bountylab.simulation
from bountylab import cli

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


def test_no_module_imports_typing_when_it_executes():
    """Annotations are strings (PEP 563) and callables come from
    ``collections.abc``, so no module needs ``typing`` at run time."""
    for path in sorted(PACKAGE.glob("*.py")):
        names = _import_time_modules(ast.parse(path.read_text(encoding="utf-8")))
        assert not [n for n in names if n == "typing" or n.startswith("typing.")], path.name


LAYERS = ("costs", "rootfind", "game", "design", "asymptotic", "simulation", "credibility")
_EQUILIBRIUM = {"cli", "costs", "game", "rootfind"}
_DESIGN = _EQUILIBRIUM | {"design"}
_PUBLIC = _DESIGN | {"asymptotic"}
_PROTOCOL = {"cli", "credibility"}
# the layers each CLI mode executes
MODE_LAYERS = {
    "equilibrium": _EQUILIBRIUM,
    "design": _DESIGN,
    "public": _PUBLIC,
    "figures": _PUBLIC,
    "simulate": _EQUILIBRIUM | {"simulation"},
    "commit": _PROTOCOL,
    "reveal-verify": _PROTOCOL,
    "coin": _PROTOCOL,
}

# A layer counts as executed once its lazy module has become a plain module.
_EXECUTED = """
def executed():
    import sys, types
    modules = sys.modules.items()
    return sorted(m for m, mod in modules if m.startswith("bountylab.") and type(mod) is types.ModuleType)
"""

# Runs the argv it is given through cli.main and prints, as its last line,
# [exit code, executed layers, whether numpy is loaded, which of csv and json
# were loaded at interpreter start, which of them the mode loaded, which of
# dataclasses, fractions and datetime are loaded after the mode].
_RUN_MODE = """
import sys
FORMATS = {"csv", "json"}
at_start = sorted(FORMATS & sys.modules.keys())
from bountylab.cli import main
code = main(sys.argv[1:])
loaded = sorted(FORMATS & sys.modules.keys())
stdlib = sorted({"dataclasses", "fractions", "datetime"} & sys.modules.keys())
import json
""" + _EXECUTED + """
print(json.dumps([code, executed(), "numpy" in sys.modules, at_start, loaded, stdlib]))
"""


def _python(*args, check=True):
    """A fresh interpreter's run, importing bountylab from this checkout."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        check=check,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )


def _mode_argv(mode, tmp_path):
    """A command line on which ``mode`` succeeds; the protocol modes read a
    commitment made here."""
    out = tmp_path / "out"
    seed = tmp_path / "seed.bin"
    seed.write_bytes(bytes(range(32)))
    commit = ["commit", "--payload", str(seed), "--salt-hex", "00" * 32, "--out", str(out)]
    if mode == "commit":
        return commit
    if mode in ("reveal-verify", "coin"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(commit) == 0
        record = ["--commitment", str(out / "commitment.txt"), "--reveal", str(out / "reveal.txt")]
        return [mode, *record] + (["--beacon", "ab" * 32, "--mu-a", "0.5"] if mode == "coin" else [])
    config = {
        "equilibrium": "equilibrium_example.json",
        "design": "private_example.json",
        "public": "public_example.json",
        "figures": "figures_example.json",
        "simulate": "equilibrium_example.json",
    }[mode]
    argv = [mode, "--config", str(DATA / config), "--out", str(out)]
    return argv + (["--seed", "1", "--trials", "10"] if mode == "simulate" else [])


@pytest.mark.parametrize("mode", MODE_LAYERS)
def test_each_mode_executes_only_its_layers(tmp_path, mode):
    """In a fresh process, and only simulate loads numpy. The config modes
    load json to read the config and csv to write their tables; the protocol
    modes load neither. No mode loads dataclasses; the protocol modes load no
    fractions, and of them only commit, which reads the clock, loads datetime."""
    proc = _python("-c", _RUN_MODE, *_mode_argv(mode, tmp_path))
    code, executed, numpy_loaded, at_start, loaded, stdlib = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert executed == sorted(f"bountylab.{layer}" for layer in MODE_LAYERS[mode])
    assert numpy_loaded == (mode == "simulate")
    assert at_start == []
    assert loaded == ([] if MODE_LAYERS[mode] == _PROTOCOL else ["csv", "json"])
    assert "dataclasses" not in stdlib
    if mode in ("reveal-verify", "coin"):
        assert stdlib == []
    if mode == "commit":
        assert stdlib == ["datetime"]  # its argv passes no --timestamp


@pytest.mark.parametrize("mode", MODE_LAYERS)
def test_run_as_module_is_silent(tmp_path, mode):
    """``python -m bountylab.cli`` finds no ``bountylab.cli`` registered
    before it runs, so runpy warns of nothing."""
    proc = _python("-m", "bountylab.cli", *_mode_argv(mode, tmp_path), check=False)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_import_executes_no_layer():
    probe = _EXECUTED + """
import importlib.util, json, sys
import bountylab
lazy = sorted(m for m, mod in sys.modules.items() if type(mod) is importlib.util._LazyModule)
print(json.dumps([executed(), lazy, "numpy" in sys.modules]))
"""
    executed, lazy, numpy_loaded = json.loads(_python("-c", probe).stdout)
    assert executed == []
    assert lazy == sorted(f"bountylab.{layer}" for layer in LAYERS)
    assert not numpy_loaded


def test_package_namespace():
    namespace = {}
    exec("from bountylab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(bountylab.__all__)
    assert set(bountylab.__all__) <= set(dir(bountylab))
    for name in bountylab.__all__:
        obj = getattr(bountylab, name)
        assert vars(sys.modules[obj.__module__])[name] is obj, name
    with pytest.raises(AttributeError):
        bountylab.no_such_name


def test_package_names_follow_their_layer(monkeypatch):
    """A public name is read off its layer on every access, never cached, so
    rebinding it on the layer and undoing that both show through."""
    original = bountylab.simulate
    stand_in = object()
    monkeypatch.setattr(bountylab.simulation, "simulate", stand_in)
    assert bountylab.simulate is stand_in
    monkeypatch.undo()
    assert bountylab.simulate is original


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
    layers = _tracer_constant("LAYERS")
    # the tracer's access: each layer's vars(), which executes a lazy layer
    probe = """
import inspect, json, sys, bountylab.cli
seen = {}
for layer in json.loads(sys.argv[1]):
    mod = sys.modules[f"bountylab.{layer}"]
    seen[layer] = sorted(
        a for a, o in vars(mod).items()
        if not a.startswith("_") and inspect.isfunction(o) and o.__module__ == mod.__name__
    )
print(json.dumps(seen))
"""
    seen = json.loads(_python("-c", probe, json.dumps(layers)).stdout)
    defined = {}
    for layer in layers:
        tree = ast.parse((PACKAGE / f"{layer}.py").read_text(encoding="utf-8"))
        defs = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
        defined[layer] = sorted(name for name in defs if not name.startswith("_"))
    assert seen == defined
    assert "simulate" in seen["simulation"]
    assert callable(bountylab.simulation._chunk_rng)
    assert callable(bountylab.rootfind.bisect_decreasing)
