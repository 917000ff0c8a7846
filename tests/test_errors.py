"""The package's exception types are the ones its command line tells apart.

Read from the source with ``ast``: an exception type that no ``except``
clause names is a distinction nobody acts on, and one that keeps fields
beyond its message is data nobody reads.
"""

import ast
import builtins
from pathlib import Path

import equilines

SOURCES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(Path(equilines.__file__).parent.glob("*.py"))
}


def _name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _exception_classes() -> dict[str, list[ast.ClassDef]]:
    """Each module's classes that derive, by name, from an exception type."""
    known = {
        name for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    found: dict[str, list[ast.ClassDef]] = {module: [] for module in SOURCES}
    grew = True
    while grew:
        grew = False
        for module, tree in SOURCES.items():
            for node in ast.walk(tree):
                if (isinstance(node, ast.ClassDef) and node.name not in known
                        and any(_name(base) in known for base in node.bases)):
                    known.add(node.name)
                    found[module].append(node)
                    grew = True
    return found


def _caught_names() -> set[str]:
    caught = set()
    for tree in SOURCES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(_name(t) for t in types)
    return caught


def test_only_errors_defines_exception_types():
    found = _exception_classes()
    assert {module: [c.name for c in classes] for module, classes in found.items() if classes} == {
        "errors": ["ConfigError", "InternalInconsistencyError", "ClaimRefutedError"]
    }


def test_every_exception_type_is_caught_by_name():
    caught = _caught_names()
    assert [c.name for c in _exception_classes()["errors"] if c.name not in caught] == []


def test_exception_types_hold_only_their_message():
    for cls in _exception_classes()["errors"]:
        assert [_name(base) for base in cls.bases] == ["Exception"], cls.name
        assert len(cls.body) == 1 and isinstance(cls.body[0], ast.Expr), cls.name  # a docstring
