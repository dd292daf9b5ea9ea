"""Every top-level name of src/hencler is run by a command or the benchmark.

A static closure over the top-level names of src/hencler/*.py, leaving out
`__init__.py` and `__all__`, starts from every top-level name of
`hencler.cli`, every identifier in perfbench/*.py, and the names perfbench
traces by string: `run.OPS`, the span tables of `run`, and `tracing.PRIVATE`
and `tracing.ALIASES`. `tracing.NOT_OPS` only lists names to skip, so it is
no root. A name the closure does not reach runs only in tests, and belongs
in tests/reference.py.

No module of src/hencler reads the environment: a command's inputs are its
config and its command-line options, which its artifacts can name. Only the
modules in `CTYPES_IMPORTERS` import ctypes, so process-wide settings such as
the allocator's have one home. Only `WRITER` puts files on disk, so every
artifact is replaced whole or left as it was.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hencler"
PERFBENCH = ROOT / "perfbench"

# perfbench tables that name hencler functions by string
STRING_TABLES = {"run": ("OPS", "INCLUSIVE", "CALLS", "EVAL_BLOCK", "WRITERS"),
                 "tracing": ("PRIVATE", "ALIASES")}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def assigned_names(stmt):
    """Names a top-level assignment binds."""
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


class Module:
    """The top-level definitions, imports and other statements of one module."""

    def __init__(self, tree):
        self.defs = {}  # name -> the statements that bind it
        self.imports = {}  # local name -> (module, name); name None: module
        self.other = []  # statements that run at import and bind nothing
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.defs.setdefault(stmt.name, []).append(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for name in assigned_names(stmt):
                    if name != "__all__":
                        self.defs.setdefault(name, []).append(stmt)
            elif isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    self.imports[local] = ((stmt.module, alias.name)
                                           if stmt.module else
                                           (alias.name, None))
            elif not (isinstance(stmt, (ast.Import, ast.ImportFrom))
                      or (isinstance(stmt, ast.Expr)
                          and isinstance(stmt.value, ast.Constant))):
                self.other.append(stmt)


def package_modules():
    return {path.stem: Module(parse(path))
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def resolve(modules, module, name):
    """(module, name) of the definition that `name` in `module` is, or None."""
    while module in modules:
        mod = modules[module]
        if name in mod.defs:
            return module, name
        if name not in mod.imports:
            return None
        module, name = mod.imports[name]
    return None


def uses(modules, module, nodes):
    """The definitions that the code of `nodes` in `module` refers to."""
    mod = modules[module]
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield resolve(modules, module, sub.id)
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.value, ast.Name)
                  and mod.imports.get(sub.value.id, (None, ""))[1] is None):
                yield resolve(modules, mod.imports[sub.value.id][0], sub.attr)


def traced_strings():
    """(module, name) pairs perfbench names in its string tables."""
    for stem, tables in STRING_TABLES.items():
        for stmt in parse(PERFBENCH / f"{stem}.py").body:
            if not isinstance(stmt, ast.Assign):
                continue
            for table in set(assigned_names(stmt)) & set(tables):
                value = ast.literal_eval(stmt.value)
                if table == "OPS":
                    yield from (("gradients", op) for op in value)
                elif table == "PRIVATE":
                    yield from ((module, name) for module, names
                                in value.items() for name in names)
                elif table == "ALIASES":  # (module, attribute) keys
                    yield from value
                else:  # span names "module.function[.label]"
                    spans = value.values() if isinstance(value, dict) \
                        else value
                    yield from (span.split(".")[:2] for span in spans)


def roots(modules):
    found = {("cli", name) for name in modules["cli"].defs}
    for module in modules:
        found.update(uses(modules, module, modules[module].other))
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(parse(path)):
            ident = (node.id if isinstance(node, ast.Name) else
                     node.attr if isinstance(node, ast.Attribute) else
                     node.asname or node.name if isinstance(node, ast.alias)
                     else None)
            found.update((module, ident) for module in modules
                         if ident in modules[module].defs)
    found.update(resolve(modules, module, name)
                 for module, name in traced_strings())
    found.discard(None)
    return found


def test_every_package_name_is_reached_from_a_command_or_perfbench():
    modules = package_modules()
    reached = set()
    todo = list(roots(modules))
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        module, name = key
        todo.extend(used for used in uses(modules, module,
                                          modules[module].defs[name])
                    if used is not None)
    defined = {(module, name) for module, mod in modules.items()
               for name in mod.defs}
    unreached = sorted(f"{module}.{name}"
                       for module, name in defined - reached)
    assert not unreached, ("run only by tests, move to tests/reference.py: "
                           + ", ".join(unreached))


# Names through which os hands out the environment.
ENV_READS = {"environ", "environb", "getenv", "getenvb"}
# Modules allowed to read the environment, each with the reason. Empty: every
# input of a command is its config or a command-line option. A future read,
# such as recording the BLAS library and thread count next to a run's
# artifacts, must be listed here.
ENV_READERS: dict[str, str] = {}


def env_reads(tree):
    """(line, name) of every place `tree` reads os's environment."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_READS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from ((node.lineno, f"from os import {alias.name}")
                        for alias in node.names if alias.name in ENV_READS)


def test_no_package_module_reads_the_environment():
    found = [f"{path.name}:{line} {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             if path.stem not in ENV_READERS
             for line, name in env_reads(parse(path))]
    assert not found, ("reads the environment, so a run depends on an input "
                       "no artifact names: " + ", ".join(found))


# Modules allowed to import ctypes, each with the reason. Through ctypes a
# module can change the whole process, such as the allocator's settings, so
# such settings have one home, made by the commands that need them.
CTYPES_IMPORTERS = {"cli": "the training commands keep freed heap in the "
                           "process through mallopt"}


def ctypes_imports(tree):
    """Lines at which `tree` imports ctypes or one of its submodules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "ctypes" for name in names):
            yield node.lineno


def test_only_listed_modules_import_ctypes():
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             if path.stem not in CTYPES_IMPORTERS
             for line in ctypes_imports(parse(path))]
    assert not found, ("imports ctypes, which can change process-wide state "
                       "outside the listed modules: " + ", ".join(found))


# The one function of src/hencler that writes files, as (module, function).
# It writes a temporary file beside the target and renames it onto the target
# when the write succeeds, so a file holds its old bytes or all of the new.
WRITER = ("graphio", "replace_on_success")
WRITE_MODE = set("wax+")


def _open_mode(call):
    """The mode argument of an `open(file, mode)`, `io.open(file, mode)` or
    `path.open(mode)` call, "r" when it is left out; None for other calls."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open" or (
            isinstance(func, ast.Attribute) and func.attr == "open"
            and isinstance(func.value, ast.Name) and func.value.id == "io"):
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        position = 0
    else:
        return None
    if len(call.args) > position:
        return call.args[position]
    return next((kw.value for kw in call.keywords if kw.arg == "mode"),
                ast.Constant("r"))


def file_writes(tree):
    """(top-level name, line, what) of every place `tree` renames a file
    through os, calls `Path.write_text` or `Path.write_bytes`, or opens a
    file in a mode that can write (any mode that is not a constant can)."""
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("replace", "rename")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"):
                yield owner, node.lineno, f"os.{node.attr}"
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                yield from ((owner, node.lineno, f"from os import {a.name}")
                            for a in node.names
                            if a.name in ("replace", "rename"))
            elif isinstance(node, ast.Call):
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("write_text", "write_bytes")):
                    yield owner, node.lineno, f"Path.{node.func.attr}"
                mode = _open_mode(node)
                if mode is not None and not (
                        isinstance(mode, ast.Constant)
                        and isinstance(mode.value, str)
                        and not set(mode.value) & WRITE_MODE):
                    yield owner, node.lineno, "open for writing"


def test_only_the_writer_writes_files():
    writes = [(path.stem, owner, line, what)
              for path in sorted(PACKAGE.glob("*.py"))
              for owner, line, what in file_writes(parse(path))]
    found = [f"{module}.py:{line} {what} in {owner}"
             for module, owner, line, what in writes
             if (module, owner) != WRITER]
    assert not found, ("writes a file without graphio.replace_on_success, "
                       "so a failed write can truncate it: "
                       + ", ".join(found))
    assert {what for module, owner, _, what in writes
            if (module, owner) == WRITER} == {"os.replace",
                                              "open for writing"}
