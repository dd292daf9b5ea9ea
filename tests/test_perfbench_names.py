"""The hencler names perfbench reads must exist, and importing hencler
must stay silent.

perfbench's tracer wraps hencler functions by name and reads span names
back into per-layer metrics, so a renamed function would silently read as
zero. These checks turn such a rename into a failure. `perfbench/run.py`
imports `hencler.synthetic` and prints its JSON result as its last line,
so an import that writes output or leaves a thread running could break
that line. Importing hencler also leaves process-wide state such as the
allocator's settings alone.
"""

import ctypes
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_by_path(name):
    """Import perfbench/<name>.py without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    modules = {name: load_by_path(name) for name in ("run", "tracing")}
    yield modules
    for module in modules.values():
        sys.modules.pop(module.__name__, None)


def hencler_function(module, name):
    """The function `name` in hencler.<module>, or None."""
    value = getattr(importlib.import_module(f"hencler.{module}"), name, None)
    return value if inspect.isfunction(value) else None


def test_span_names_are_traced_hencler_functions(perfbench):
    run, tracing = perfbench["run"], perfbench["tracing"]
    spans = (list(run.INCLUSIVE.values()) + list(run.CALLS.values())
             + list(run.EVAL_BLOCK) + list(run.WRITERS))
    labels = set(tracing.ALIASES.values())
    checked = 0
    for span in spans:
        if span.startswith("pathlib.") or span in labels:
            continue
        module, name = span.split(".")
        assert module in tracing.MODULES, span
        fn = hencler_function(module, name)
        # a span is named after the module that defines the function
        assert fn is not None and fn.__module__ == f"hencler.{module}", span
        if name.startswith("_"):  # private functions are traced by list only
            assert name in tracing.PRIVATE.get(module, ()), span
        checked += 1
    assert checked > 20


def test_private_aliases_and_ops_are_hencler_functions(perfbench):
    run, tracing = perfbench["run"], perfbench["tracing"]
    for module, names in tracing.PRIVATE.items():
        for name in names:
            assert hencler_function(module, name) is not None, (module, name)
    for module, attribute in tracing.ALIASES:
        assert hencler_function(module, attribute) is not None, \
            (module, attribute)
    for op in run.OPS:
        assert hencler_function("gradients", op) is not None, op


def test_import_writes_nothing():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import hencler, hencler.cli, hencler.synthetic"],
        capture_output=True, env={**os.environ, "PYTHONPATH": path},
        timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")


def test_import_starts_no_thread(monkeypatch):
    # import hencler afresh; monkeypatch puts the loaded modules back after
    for name in [name for name in sys.modules
                 if name == "hencler" or name.startswith("hencler.")]:
        monkeypatch.delitem(sys.modules, name)
    # nor opens a C library: the allocator settings of `cli` are made only
    # by the commands that train, never by an import
    opened = []
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs:
                        opened.append(args))
    before = threading.active_count()
    importlib.import_module("hencler")
    importlib.import_module("hencler.cli")
    importlib.import_module("hencler.synthetic")
    assert threading.active_count() == before
    assert opened == []
