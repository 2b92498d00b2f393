"""Every name the package exports has a reader outside its own definition,
and every name a package module imports is read in that module.

A name counts as read when it appears as a whole word in a package
module other than `__init__.py`, in `scripts/*.py`, in `perfbench/*.py`
or in the acceptance criteria, on a line that is not its own `def` or
`class` line.  An export that only its unit tests call is dead weight.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fiberent"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    )


def reader_lines():
    paths = [
        *(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"),
        *sorted((ROOT / "scripts").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]
    return [line for path in paths for line in path.read_text().splitlines()]


def test_every_export_has_a_reader():
    lines = reader_lines()
    unread = []
    for name in exported_names():
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unread.append(name)
    assert not unread, f"exported names with no reader: {', '.join(unread)}"


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
    # __init__.py imports to export; the test above checks those names.
    unread = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py" and (names := unread_imports(path.read_text()))}
    assert not unread, f"imported names never read: {unread}"


def test_an_unread_import_is_found():
    source = "from typing import Callable, Collection\nimport numpy as np\nf: Callable = np.sum\n"
    assert unread_imports(source) == ["Collection (line 1)"]
