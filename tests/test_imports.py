"""Every name a module imports is read somewhere in that module.

Package `__init__.py` files are skipped: their imports are the package API.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src/nilstab", "tests")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never loaded, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    unused = {}
    for path in MODULES:
        names = unused_imports(path.read_text())
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert not unused


def test_unused_import_check_sees_a_leftover_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .group import inv, mul as product, truncate\n"
        "def f(g):\n"
        "    return truncate(g, os.sep)\n"
    )
    assert unused_imports(source) == ["inv", "product"]
