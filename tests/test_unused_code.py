"""Code that only tests read lives in the tests: every top-level function and
class of ``src/tinysound``, and every method (dunders aside), is named
somewhere in the package, ``perfbench``, ``tools`` or ``demos`` besides its
own definition, and every defaulted parameter is set somewhere there too."""

import ast
import math
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


# Defaulted parameters that only tests set: the eleven augmentation overrides,
# kept because criteria 3 and 8 pin their values.
ONLY_TESTS_SET = {
    "amplitude_clip(threshold)", "amplify(gain)", "echo(delay)", "lowpass(cutoff)",
    "pitch_shift(semitones)", "partial_erase(fraction)", "speed_adjust(rate)",
    "add_noise(sigma)", "hpss(branch)", "bitwise_downsample(resolution)",
    "samplerate_downsample(factor)",
}


def _defaults(fn: ast.FunctionDef, bound: bool):
    """(parameter, position or None if keyword-only) of each defaulted one."""
    positional = (fn.args.posonlyargs + fn.args.args)[bound:]
    first = len(positional) - len(fn.args.defaults)
    yield from ((arg.arg, i) for i, arg in enumerate(positional) if i >= first)
    yield from ((arg.arg, None) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None)


def defaulted_parameters(tree: ast.Module):
    """(callee, parameter, position, line) of each defaulted parameter of a
    top-level function, of a method (called without ``self``), of ``__init__``
    (called as its class) and of each dataclass field that has a default."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from ((node.name, p, i, node.lineno) for p, i in _defaults(node, False))
        if not isinstance(node, ast.ClassDef):
            continue
        if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)
                      and "init=False" not in ast.unparse(f)]
            yield from ((node.name, f.target.id, i, f.lineno) for i, f in enumerate(fields)
                        if f.value is not None)
        for m in node.body:
            if isinstance(m, ast.FunctionDef):
                bound = not any("staticmethod" in ast.unparse(d) for d in m.decorator_list)
                callee = node.name if m.name == "__init__" else m.name
                yield from ((callee, p, i, m.lineno) for p, i in _defaults(m, bound))


def _called(func: ast.expr) -> str | None:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def arguments_passed(tree: ast.Module):
    """(callee, positional count, keywords) of each call, the function that a
    ``functools.partial`` binds included; a ``*`` or ``**`` argument passes
    every parameter (count inf, keywords None)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            if _called(func) == "partial" and args:
                func, args = args[0], args[1:]
            if any(isinstance(a, ast.Starred) for a in args) or any(
                    k.arg is None for k in node.keywords):
                yield _called(func), math.inf, None
            else:
                yield _called(func), len(args), {k.arg for k in node.keywords}


def test_every_default_is_set_outside_the_tests():
    passed = {}
    for folder in READERS:
        for path in folder.rglob("*.py"):
            for callee, count, keywords in arguments_passed(ast.parse(path.read_text())):
                passed.setdefault(callee, []).append((count, keywords))
    unset = {f"{callee}({param})": f"{path.relative_to(ROOT)}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             for callee, param, position, line in defaulted_parameters(ast.parse(path.read_text()))
             if not any(keywords is None or param in keywords
                        or (position is not None and count > position)
                        for count, keywords in passed.get(callee, []))}
    assert {k: v for k, v in unset.items() if k not in ONLY_TESTS_SET} == {}
    assert ONLY_TESTS_SET <= unset.keys()  # each exception still holds
