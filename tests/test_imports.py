"""The package's import structure, read from its sources: every import
between its modules points one way, every private name has a reader, the
CLI starts without the standard library's code generators, and the
sources keep to Python 3.10."""

import ast
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "circmix"
LAZY = {"homindex"}  # loaded on first use, by the calls that walk bitsets
# what Python 3.11 added that a 3.10 parse lets through: possessive
# quantifiers and atomic groups in regular expressions, and these names
LATER_REGEX = re.compile(r"[*+?}]\+|\(\?>")
LATER_NAMES = {"tomllib", "Self", "ExceptionGroup", "BaseExceptionGroup"}


def _relative_imports(node, module: str, in_function: bool, out: list) -> list:
    """``(module, imported module, inside a function)`` for each relative
    import under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ImportFrom) and child.level:
            names = [child.module] if child.module else [a.name for a in child.names]
            out += [(module, name.split(".")[0], in_function) for name in names]
        _relative_imports(child, module, in_function or isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)), out)
    return out


def test_package_imports_point_one_way():
    """The relative imports of the modules, ``__init__`` and ``__main__``
    left out, form no cycle, and the only one inside a function is of a
    lazily loaded module."""
    imports = []
    for path in sorted(SOURCES.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            _relative_imports(tree, path.stem, False, imports)
    modules = {module for module, _, _ in imports}
    assert {"graphs", "homs", "homgraph", "circular", "winding"} <= modules
    assert [(m, t) for m, t, inside in imports if inside and t not in LAZY] == []
    # drop the modules that import none of those left, or that none of
    # them imports, until none goes; every cycle stays
    edges = {(m, t) for m, t, _ in imports}
    left = modules | {t for _, t in edges}
    while True:
        inner = {(a, b) for a, b in edges if a in left and b in left}
        kept = {a for a, _ in inner} & {b for _, b in inner}
        if kept == left:
            break
        left = kept
    assert sorted(inner) == []


def test_every_private_name_is_read():
    """Every private function, class and name that a module of the package
    defines at its top level is read somewhere in the package, as a name
    or an attribute; a docstring that names it is not a reader."""
    defined, read = set(), set()
    for path in sorted(SOURCES.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined.update((path.name, name) for name in names
                           if name.startswith("_") and not name.endswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) > 50
    assert sorted((file, name) for file, name in defined if name not in read) == []


def test_cli_starts_without_dataclasses_or_inspect():
    """The result records are named tuples, so a CLI process generates no
    dataclass code: after a command has run, neither ``dataclasses`` nor
    the ``inspect`` it imports has been loaded."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import circmix.cli; "
            "assert circmix.cli.main(['fixtures']) == 0; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-B", "-I", "-S", "-c", code, str(SOURCES.parent)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_sources_keep_to_python_3_10():
    """Every file of the package and of ``tools`` parses as Python 3.10,
    the floor that pyproject.toml and the README state, and no string
    constant holds a 3.11 regular expression form, nor does any name,
    import or ``except*`` use what 3.11 added."""
    paths = sorted(SOURCES.glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    assert len(paths) > 10
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path),
                         feature_version=(3, 10))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                hit = LATER_REGEX.search(node.value)
            elif isinstance(node, ast.alias):
                hit = {node.name, node.name.split(".")[0]} & LATER_NAMES
            elif isinstance(node, (ast.Name, ast.Attribute, ast.ImportFrom)):
                hit = {getattr(node, key, None) for key in ("id", "attr", "module")} & LATER_NAMES
            else:
                hit = type(node).__name__ == "TryStar"
            if hit:
                found.append((path.name, getattr(node, "lineno", None), ast.dump(node)))
    assert found == []
