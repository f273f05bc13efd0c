"""Every NhspecError subclass is raised somewhere in the library: an error
class that nothing raises is dead and is deleted instead."""

import ast
from pathlib import Path

import nhspec

SRC = Path(nhspec.__file__).parent


def subclasses(tree, base):
    """Names of the top-level classes of tree that derive from base,
    directly or through another of them defined earlier."""
    found = {base}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in found for b in node.bases):
            found.add(node.name)
    return found - {base}


def raised_names(tree):
    """Names of the classes raised in tree, as `raise X(...)`, `raise X`
    or `raise module.X(...)`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id
            elif isinstance(exc, ast.Attribute):
                yield exc.attr


def test_every_error_subclass_is_raised():
    errors = subclasses(ast.parse((SRC / "errors.py").read_text()),
                        "NhspecError")
    raised = {name for path in SRC.glob("*.py")
              for name in raised_names(ast.parse(path.read_text()))}
    assert "NoConvergence" in errors and "SaddleRejected" in errors
    assert sorted(errors - raised) == []
