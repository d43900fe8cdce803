"""Source hygiene: every name a package module imports is used in it, no
package module imports another one's private (underscore) names, no
package function, class or method is left unnamed or named by the tests
alone (but for an allowlist that gives each one's reason), no private
module-level constant of a package module goes unread in it, no package
invariant rests on an assert statement, which `python -O` strips, no
package module imports `fractions` or `decimal` when it is itself
imported, and no package module takes more memory to compile than a
budget."""

import ast
import pathlib
import tracemalloc

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "drinfeld_forge"
# where a package definition may be named
READERS = ("src", "tests", "demos", "perfbench")
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_checker_sees_an_unused_import():
    assert unused_imports("import os\nfrom .scalars import ONE, ZERO\n"
                          "print(ONE)\n") == ["line 1: os", "line 2: ZERO"]


# the package modules, named by file, then the tests and demos, named by
# path; perfbench/ is left out, its benchmark files keep a `noqa` import
IMPORTING = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize(
    "path", IMPORTING,
    ids=lambda path: (path.name if path.parent == SRC
                      else str(path.relative_to(ROOT))))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Underscore names imported from a module of the package."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("drinfeld_forge")):
            out += [f"line {node.lineno}: {alias.name}" for alias in node.names
                    if alias.name.startswith("_")]
    return out


def test_checker_sees_a_private_import():
    source = ("from __future__ import annotations\n"
              "from .reps import Representation, _rows\n"
              "def f():\n"
              "    from drinfeld_forge.cli import _emit\n")
    assert private_imports(source) == ["line 2: _rows", "line 4: _emit"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda path: path.name)
def test_no_private_name_crosses_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def definitions(source: str) -> list[tuple[str, bool]]:
    """Module-level functions and classes, and the methods of those
    classes but for dunder ones: [(name, is_method), ...]."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, functions + (ast.ClassDef,)):
            out.append((node.name, False))
        if isinstance(node, ast.ClassDef):
            out += [(item.name, True) for item in node.body
                    if isinstance(item, functions)
                    and not (item.name.startswith("__")
                             and item.name.endswith("__"))]
    return out


def references(sources) -> tuple[set[str], set[str]]:
    """(bare, attributes) that the sources name. A bare name is read as a
    name, imported, given as an identifier string (getattr, monkeypatch),
    or read as an attribute of anything but `self` or `cls` (`reps.f`);
    every attribute read counts as an attribute."""
    bare, attributes = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                bare.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                bare.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if not (isinstance(node.value, ast.Name)
                        and node.value.id in ("self", "cls")):
                    bare.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                bare.add(node.value)
    return bare, attributes


def unnamed(modules: dict[str, str], sources) -> list[str]:
    """Definitions of `modules` (name -> source) that no source names: a
    function or class must be named bare, a method at least as an
    attribute."""
    bare, attributes = references(sources)
    return [f"{module}: {name}" for module, source in modules.items()
            for name, method in definitions(source)
            if name not in bare and not (method and name in attributes)]


def test_checker_sees_a_leftover_helper():
    # a helper that only shares its name with another class's attribute
    # is still unnamed, and so is a method that nothing calls
    module = ("def _rows(mat):\n    return {}\n"
              "class Space:\n"
              "    def __init__(self):\n        self.dim = self.size()\n"
              "    def size(self):\n        return 0\n"
              "    def unused(self):\n        return 1\n")
    other = ("from .reps import Space\n"
             "class Basis:\n"
             "    def __init__(self):\n        self._rows = Space().dim\n")
    assert unnamed({"reps": module}, [module, other]) == [
        "reps: _rows", "reps: unused"]


def _sources(folders) -> list[str]:
    return [path.read_text(encoding="utf-8") for folder in folders
            for path in sorted((ROOT / folder).rglob("*.py"))]


def _package_modules() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8")
            for path in ALL_MODULES}


def test_every_definition_is_named():
    assert unnamed(_package_modules(), _sources(READERS)) == []


# package definitions that only the tests name, each kept for a reason
TEST_ONLY = {}


def named_only_by_tests(modules: dict[str, str], sources, tests) -> list[str]:
    """Definitions of `modules` that the `tests` sources name and no other
    source does."""
    anywhere = set(unnamed(modules, list(sources) + list(tests)))
    return [entry for entry in unnamed(modules, sources)
            if entry not in anywhere]


def test_checker_sees_a_helper_only_tests_name():
    # `size` is named by the package, `parse` only by a test, and
    # `unused` by nothing (test_every_definition_is_named reports it)
    module = ("class Space:\n"
              "    def __init__(self):\n        self.dim = self.size()\n"
              "    def size(self):\n        return 0\n"
              "    def unused(self):\n        return 1\n"
              "def parse(text):\n    return Space()\n")
    test = "from drinfeld_forge.reps import parse\nparse('')\n"
    assert named_only_by_tests({"reps": module}, [module], [test]) == [
        "reps: parse"]


def test_no_helper_lives_for_the_tests_alone():
    flagged = named_only_by_tests(
        _package_modules(),
        _sources(folder for folder in READERS if folder != "tests"),
        _sources(["tests"]))
    assert [entry for entry in flagged if entry not in TEST_ONLY] == []
    # and no allowance outlives its definition's last package-side reader
    assert [entry for entry in TEST_ONLY if entry not in flagged] == []


def unread_private_constants(source: str) -> list[str]:
    """Private (underscore, not dunder) names that a module assigns at
    its top level and never reads."""
    tree = ast.parse(source)
    assigned = {}
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name) and name.id.startswith("_")
                        and not name.id.startswith("__")):
                    assigned.setdefault(name.id, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in assigned.items()
            if name not in read]


def test_checker_sees_an_unread_private_constant():
    source = ("__all__ = ['f']\n"
              "_TWO = 2\n"
              "_HALF, _KINDS = 0.5, 'HI'\n"
              "_LIMIT: int = 3\n"
              "def f(x):\n    _HALF = 1\n    return x * _TWO\n"
              "PUBLIC = 1\n")
    assert unread_private_constants(source) == [
        "line 3: _HALF", "line 3: _KINDS", "line 4: _LIMIT"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda path: path.name)
def test_every_private_constant_is_read(path):
    assert unread_private_constants(path.read_text(encoding="utf-8")) == []


def imported_names(source: str) -> set[str]:
    """Each part of every module a source imports (anywhere in it), and
    every name it imports from one."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            out.update((node.module or "").split("."))
            out.update(alias.name for alias in node.names)
    return out


def test_checker_sees_every_import_of_a_module():
    for source in ("from .reps import SparseMatrix\n",
                   "def f():\n    from . import reps\n",
                   "import drinfeld_forge.reps\n"):
        assert "reps" in imported_names(source), source
    assert "reps" not in imported_names("from .scalars import ONE\n")


def test_oscillators_import_nothing_from_reps():
    # a proof is made from a Fock space and central charges alone, so the
    # oscillators never reach back into the representations they serve
    source = (SRC / "oscillators.py").read_text(encoding="utf-8")
    assert "reps" not in imported_names(source)


def test_double_imports_nothing_from_reps():
    # the double's form and Casimir tensors live in `double`, so the
    # algebraic layer (the triple, its checks and its cocommutator) never
    # loads the representation layer
    for name in ("manin.py", "double.py", "cocommutator.py"):
        source = (SRC / name).read_text(encoding="utf-8")
        assert "reps" not in imported_names(source), name


def bare_asserts(source: str) -> list[str]:
    """Assert statements, in line order."""
    nodes = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Assert)]
    return [f"line {node.lineno}"
            for node in sorted(nodes, key=lambda node: node.lineno)]


def test_checker_sees_a_bare_assert():
    source = ("def f(x):\n"
              "    if x:\n        assert x > 0, 'negative'\n"
              "    return x\n"
              "assert f(1)\n"
              "raise AssertionError('kept under -O')\n")
    assert bare_asserts(source) == ["line 3", "line 5"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda path: path.name)
def test_no_bare_assert(path):
    assert bare_asserts(path.read_text(encoding="utf-8")) == []


# loaded only where a Fraction is read or given (`scalars`), so that the
# verify path never pays for them or for the `_decimal` extension
LAZY_MODULES = ("fractions", "decimal")


def eager_imports(source: str, lazy=LAZY_MODULES) -> list[str]:
    """Imports of a lazy module outside every function body: those run
    when the module itself is imported."""
    out = []

    def visit(node, in_function):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            names = []
        if not in_function:
            out.extend(f"line {node.lineno}: {name}" for name in names
                       if name.split(".")[0] in lazy)
        inner = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(ast.parse(source), False)
    return out


def test_checker_sees_an_eager_fractions_import():
    source = ("import fractions\n"
              "from decimal import Decimal\n"
              "from .scalars import ONE\n"
              "if ONE:\n    from fractions import Fraction\n"
              "class Scalar:\n    import decimal.context\n"
              "    def a(self):\n        from fractions import Fraction\n"
              "        return Fraction(1)\n"
              "def f():\n    import decimal\n")
    assert eager_imports(source) == [
        "line 1: fractions", "line 2: decimal", "line 5: fractions",
        "line 7: decimal.context"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda path: path.name)
def test_no_eager_fractions_import(path):
    assert eager_imports(path.read_text(encoding="utf-8")) == []


# A cold run from a checkout (a benchmark child, a tier-1 subprocess, a
# `drinfeld-forge verify` with no bytecode cached) compiles src/ before it
# checks anything, and the largest compile sets the peak RSS of a small
# run: the compiler's memory grows faster than linearly with a module's
# size. So a module past this budget, in bytes traced at the peak of its
# compile, is split along a seam it has. The largest module reads about
# 1.4 MB on CPython 3.11.
COMPILE_BUDGET = 1_600_000


def compile_peak(source: str) -> int:
    """Bytes tracemalloc traces at the peak of compiling source, above
    what it traced before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        compile(source, "<module>", "exec", dont_inherit=True)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def over_compile_budget(modules: dict[str, str]) -> list[str]:
    """The modules (name -> source) whose compile peak exceeds the
    budget."""
    out = []
    for name, source in modules.items():
        peak = compile_peak(source)
        if peak > COMPILE_BUDGET:
            out.append(f"{name}: {peak} bytes")
    return out


def test_checker_sees_an_oversized_module():
    def module(functions):
        return "".join(f"def f{i}(x):\n    return [x + {i} for _ in x]\n\n\n"
                       for i in range(functions))

    # 400 lines of these read about 0.9 MB, 1,200 lines about 2.5 MB
    flagged = over_compile_budget({"small": module(100), "large": module(300)})
    assert [entry.split(":")[0] for entry in flagged] == ["large"]


def test_every_module_compiles_within_the_budget():
    assert over_compile_budget(_package_modules()) == []
