"""Every name the benchmark under bench/ reads from anhosc still resolves.

The benchmark imports the library from src/ and wraps some of its functions
by name; a renamed or deleted name would otherwise surface only when the
benchmark runs. The bench sources are parsed, not executed.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from anhosc.states import WaveFunction

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _anhosc_imports():
    """(file, module, name) for every `from anhosc... import name` in bench/,
    at any depth, and (file, module, None) for every `import anhosc...`."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "anhosc":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "anhosc"]
    return found


def _cli_layers():
    """The keys of bench/spans.py's CLI_LAYERS: anhosc.cli attributes it wraps."""
    tree = ast.parse((BENCH / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, (ast.AnnAssign, ast.Assign)):
            targets = [node.target] if isinstance(node, ast.AnnAssign) else node.targets
            if any(isinstance(t, ast.Name) and t.id == "CLI_LAYERS" for t in targets):
                return sorted(ast.literal_eval(node.value))
    raise AssertionError("bench/spans.py defines no CLI_LAYERS")


_IMPORTS = _anhosc_imports()


def test_the_bench_sources_are_found():
    files = {file for file, _, _ in _IMPORTS}
    assert {"check.py", "inputs.py", "spans.py", "worker.py"} <= files
    assert "normalize" in _cli_layers()


@pytest.mark.parametrize("file, module, name", _IMPORTS)
def test_imported_name_resolves(file, module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name), f"bench/{file} imports {name} from {module}"


@pytest.mark.parametrize("attr", _cli_layers())
def test_wrapped_cli_attribute_is_a_function(attr):
    import anhosc.cli

    assert callable(getattr(anhosc.cli, attr))


def test_wrapped_sample_method_is_a_class_attribute():
    # bench/spans.py replaces WaveFunction.sample on the class and restores it.
    assert inspect.isfunction(WaveFunction.__dict__["sample"])
