"""Code that only tests read lives in the tests: every top-level function and
class of ``src/tinysound``, and every method (dunders aside), is named
somewhere in the package, ``perfbench``, ``tools`` or ``demos`` besides its
own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tinysound"
READERS = (ROOT / "src", ROOT / "perfbench", ROOT / "tools", ROOT / "demos")


def definitions(tree: ast.Module):
    """(name, line) of each top-level function or class and of each method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m.lineno) for m in node.body
                        if isinstance(m, defs) and not m.name.startswith("__"))


def names_read(tree: ast.Module) -> set[str]:
    """Every name, attribute and imported name, and every string that is an
    identifier (an attribute looked up by name, as perfbench's patch points do)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def test_every_definition_is_named_outside_the_tests():
    read = set()
    for folder in READERS:
        for path in folder.rglob("*.py"):
            read |= names_read(ast.parse(path.read_text(), str(path)))
    unread = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for name, line in definitions(ast.parse(path.read_text()))
              if name not in read]
    assert unread == []
