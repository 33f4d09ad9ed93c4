"""Package surface: every name a module exports exists, the package
re-exports only module exports, no export takes a seed or an option, only
``matcore`` sizes blocks, one entry map reads each linear value, one
module lays out two-event stacks, the command line does no probability
arithmetic, and ``pyproject.toml`` carries the package version."""

import ast
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qhistories

# Library modules; ``qhistories.__main__`` is the ``python -m`` entry script.
MODULES = [m.name for m in pkgutil.walk_packages(qhistories.__path__, "qhistories.")
           if m.name != "qhistories.__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


SEARCH_KNOBS = {"seed", "rng", "trials", "cap", "allow_mixed"}


@pytest.mark.parametrize("name", MODULES)
def test_only_the_sampler_takes_seeds(name):
    """Verdicts are decisions: no exported callable takes a seed, a
    generator, a trial budget, an enumeration budget or an opt-in for
    mixed states.  The seeded samplers live in the tests'
    ``random_instances``."""
    module = importlib.import_module(name)
    knobs = {}
    for export in module.__all__:
        obj = getattr(module, export)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if SEARCH_KNOBS & set(params):
            knobs[export] = sorted(SEARCH_KNOBS & set(params))
    assert knobs == {}


def test_sampling_exports_only_the_pointer_model():
    assert importlib.import_module("qhistories.sampling").__all__ == [
        "PointerModel", "assemble_pointer_model"]


def test_consistency_does_not_import_the_sampler():
    tree = ast.parse(inspect.getsource(importlib.import_module("qhistories.consistency")))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("sampling" in name for name in imported)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "qhistories.matcore"])
def test_only_matcore_sizes_blocks(name):
    """The block budget is decided in one place, ``matcore._blocks``."""
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.ImportFrom, ast.Import)):
            named.update(alias.name for alias in node.names)
    assert "_BLOCK_BYTES" not in named


def test_linear_entries_come_from_one_entry_map_each():
    """``D``'s final-event blocks and the chain traces are each read by one
    call, in one entry map of ``qhistories.consistency``; the individuality
    search names neither, nor a second walk of the blocks."""
    callers = {"_final_blocks": [], "chain_traces": []}
    for name in MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if called in callers:
                        callers[called].append((name, func.name))
    assert callers == {"_final_blocks": [("qhistories.consistency", "_pair_entries")],
                       "chain_traces": [("qhistories.consistency", "_trace_entries")]}
    individuality = importlib.import_module("qhistories.individuality")
    named = {getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
             for node in ast.walk(ast.parse(inspect.getsource(individuality)))}
    assert not named & {"_final_blocks", "chain_traces", "pair_entries"}


def test_two_event_stacks_are_built_in_one_module():
    """A 2-event history's ``(e1, e2)`` stack is laid out by ``mirror``'s
    ``_event_pairs`` alone, called by the certificate kernel and the coarse
    sums; a family analysis keeps neither the elementary histories nor
    their event stack."""
    callers = []
    for name in MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    called = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if called == "_event_pairs":
                        callers.append((name, func.name))
    assert sorted(callers) == [("qhistories.mirror", "_certificates"),
                               ("qhistories.mirror", "coarse_sum_mirrors")]
    from qhistories.consistency import FamilyAnalysis
    assert not {"histories", "event_pairs"} & set(dir(FamilyAnalysis))


def test_the_cli_holds_no_probability_arithmetic():
    """Reported probabilities come from ``consistency``: the command line
    calls no ``trace`` or ``einsum`` and names no chain stack or probability
    routine; it reads them off the analyses it builds."""
    tree = ast.parse(inspect.getsource(importlib.import_module("qhistories.cli")))
    called = {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not called & {"trace", "einsum"}
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.ImportFrom, ast.Import)):
            named.update(alias.name for alias in node.names)
    assert not named & {"chain_stack", "_probabilities", "probability"}


def test_only_histories_raises_resolution_errors():
    """Resolutions are checked in one place, ``histories._check_resolutions``."""
    raisers = set()
    for name in MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None)
                    in ("NotOrthogonal", "NotComplete")):
                raisers.add(name)
    assert raisers == {"qhistories.histories"}


def test_package_reexports_only_module_exports():
    """Every name the package imports from a module is in that module's
    ``__all__``."""
    tree = ast.parse(inspect.getsource(qhistories))
    missing = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"qhistories.{node.module}")
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if alias.name not in module.__all__]
    assert missing == []


def test_python_dash_m_runs_the_command_line_from_a_checkout(tmp_path):
    """``PYTHONPATH=src python -m qhistories ...`` needs no install."""
    src = Path(qhistories.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "qhistories", "example1", "--theta", "1.0",
         "--state", "rho"], cwd=tmp_path, env={"PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 1, out.stderr  # weak holds, self-decoherence fails
    assert out.stdout.startswith("qhistories 0.4.0  tol op=1e-10")
    assert "weak              pass" in out.stdout


def test_pyproject_version_is_the_package_version():
    """A version bump touches ``pyproject.toml`` and ``qhistories.__version__``
    together (read with a regex: ``tomllib`` is not in Python 3.10)."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.findall(r'^version = "([^"]+)"$', project, re.M) == [qhistories.__version__]
