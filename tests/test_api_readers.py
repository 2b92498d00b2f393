"""Every name the package defines has a reader outside its own definition,
and every name a package module, test or script imports is read in that
file.

A public name is a top-level `def`, `class` or assigned name of a package
module with no leading underscore.  It counts as read when it appears as
a whole word in a package module other than `__init__.py`, in
`scripts/*.py`, in `perfbench/*.py` or in the acceptance criteria, on a
line that is not its own `def`, `class` or top-level assignment line.  A
name that only its unit tests call is dead weight.  A private name (one
leading underscore, not a dunder) must be read so by a package module: a
helper whose last caller is deleted shows.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fiberent"


def top_level_names(source: str) -> list:
    """The top-level `def`, `class` and assigned names of a module."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return sorted(names)


def public_names(source: str) -> list:
    return [name for name in top_level_names(source) if not name.startswith("_")]


def private_names(source: str) -> list:
    return [name for name in top_level_names(source)
            if name.startswith("_") and not name.startswith("__")]


def package_sources() -> dict:
    return {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def reader_lines():
    paths = [
        *(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"),
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]
    return [line for path in paths for line in path.read_text().splitlines()]


def unread_names(names, lines) -> list:
    """The names that appear as a whole word on no line but their own `def`,
    `class` or top-level assignment line."""
    unread = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b"
                         rf"|^{re.escape(name)}\s*(:|=(?!=))")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unread.append(name)
    return unread


def test_every_public_name_has_a_reader():
    names = [n for source in package_sources().values() for n in public_names(source)]
    unread = unread_names(names, reader_lines())
    assert not unread, f"public names with no reader: {', '.join(unread)}"


def private_names_unread(sources: dict) -> list:
    """The private names of `sources` (module name -> text) that no module reads."""
    lines = [line for source in sources.values() for line in source.splitlines()]
    return unread_names([n for source in sources.values() for n in private_names(source)], lines)


def test_every_private_name_has_a_reader_in_the_package():
    unread = private_names_unread(package_sources())
    assert not unread, f"private names with no reader: {', '.join(unread)}"


def test_an_orphaned_private_name_is_found():
    sources = package_sources()
    sources["rds.py"] += "_ORPHAN = 3\n"
    assert private_names_unread(sources) == ["_ORPHAN"]


def test_public_names_are_found():
    source = ("import os\nX = 1\nA, _b = 1, 2\nY: int = 3\n_z = 4\n__all__ = []\n"
              "def f():\n    inner = 1\nclass C:\n    attr = 2\ndef _g(): pass\n")
    assert public_names(source) == ["A", "C", "X", "Y", "f"]
    assert private_names(source) == ["_b", "_g", "_z"]


def unread_imports(source: str) -> list:
    """Names the module's imports bind that no expression of it reads
    (`np.array` reads `np`; annotations are expressions too)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


def test_every_import_is_read():
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "scripts").glob("*.py")]
    unread = {str(path.relative_to(ROOT)): names for path in sorted(paths)
              if (names := unread_imports(path.read_text()))}
    assert not unread, f"imported names never read: {unread}"


def test_an_unread_import_is_found():
    source = "from typing import Callable, Collection\nimport numpy as np\nf: Callable = np.sum\n"
    assert unread_imports(source) == ["Collection (line 1)"]


def modules_loaded_by(statement: str) -> set:
    """sys.modules of a fresh interpreter that ran `statement`, with the
    checkout's src/ first on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = f"import sys; {statement}; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return set(out.stdout.split())


def test_each_import_loads_only_what_it_uses():
    root = modules_loaded_by("import fiberent")
    assert "fiberent" in root
    assert sorted(m for m in root if m.startswith("fiberent.") or m == "numpy") == []
    groups = modules_loaded_by("import fiberent.groups")
    assert "fiberent.groups" in groups
    others = {f"fiberent.{m}" for m in ("rds", "covering", "entropy", "measures", "folner",
                                        "config", "cli")}
    assert sorted(groups & others) == []
