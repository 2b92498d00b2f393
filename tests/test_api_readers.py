"""Every name the package exports has a reader outside its own definition.

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
