"""Checks on the source files themselves: no unused imports, and the
README's library example runs."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The package's __init__.py imports only to re-export.
SOURCES = sorted(
    p for p in [*(ROOT / "src" / "coilkin").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def dotted(node):
    """'a.b.c' for the expression a.b.c, None for anything not a name chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def unused_imports(tree):
    """(line, bound name) of every import whose bound name the module never
    reads. `import a.b` counts as used only where a.b, or an attribute of
    it, is read."""
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            chain = dotted(node)
            if chain is not None:
                parts = chain.split(".")
                used.update(".".join(parts[: k + 1]) for k in range(len(parts)))
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def test_unused_import_is_found():
    tree = ast.parse("import os\nimport a.b\nimport a.c\nfrom x import y as z\nos.sep\na.c.d\n")
    assert unused_imports(tree) == [(2, "a.b"), (4, "z")]


def test_readme_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert out.getvalue()
