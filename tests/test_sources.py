"""Checks on the source files themselves: no unused imports, no private
module-level name that the package never reads, the README's library
example runs and every name its Layout table gives exists."""

import ast
import contextlib
import importlib
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
PACKAGE = sorted((ROOT / "src" / "coilkin").glob("*.py"))


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


def unread_private_names(trees):
    """(module, name) of every module-level private function, class or
    constant of the {module: tree} `trees` that none of them reads; an
    import of the name counts as a read."""
    defined, read = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return [(module, name) for module, name in defined if name not in read]


def test_no_unread_private_names():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE}
    assert unread_private_names(trees) == []


def test_unread_private_name_is_found():
    trees = {
        "a.py": ast.parse("_A, _B = 1, 2\n_C: int = 3\ndef _f(): return _A\nclass _K: pass\n__all__ = []\n"),
        "b.py": ast.parse("from .a import _C\nimport a\na._K\n"),
    }
    assert unread_private_names(trees) == [("a.py", "_B"), ("a.py", "_f")]


def test_readme_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    assert out.getvalue()


def layout_names(readme: str) -> list:
    """(module, name) of every backticked Python name in the contents column
    of the README's Layout table, file names and the `coilkin` command
    name left out."""
    table = readme.split("## Layout", 1)[1].split("\n## ", 1)[0]
    names = []
    for module, contents in re.findall(r"^\| `(coilkin\.\w+)` \| (.*) \|$", table, re.M):
        for name in re.findall(r"`([^`]+)`", contents):
            if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", name) and name != "coilkin" \
                    and not name.endswith((".csv", ".ply", ".py", ".json")):
                names.append((module, name))
    return names


def test_readme_layout_names_resolve():
    """Every name the README's Layout table gives for a module is an
    attribute (or an attribute chain, such as HeightField.height_at) of it."""
    names = layout_names((ROOT / "README.md").read_text())
    assert len(names) > 20
    missing = []
    for module, name in names:
        obj = importlib.import_module(module)
        try:
            for part in name.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            missing.append((module, name))
    assert missing == []


def test_layout_name_check_skips_files_and_the_command():
    readme = ("## Layout\n\n| module | contents |\n| --- | --- |\n"
              "| `coilkin.ply` | `write_points`, behind `workspace.ply`; a `(table, codes)` pair |\n"
              "| `coilkin.cli` | `coilkin` front end, `servo_angles` |\n\n## Next\n| `coilkin.x` | `y` |\n")
    assert layout_names(readme) == [("coilkin.ply", "write_points"), ("coilkin.cli", "servo_angles")]
