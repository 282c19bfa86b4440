"""The package's public surface."""

import ast
import re
import types
from pathlib import Path

import polycf

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(polycf.__all__)) == len(polycf.__all__)
    for name in polycf.__all__:
        assert not isinstance(getattr(polycf, name), types.ModuleType), name
    # every public name the package imports is listed
    public = {
        name
        for name, value in vars(polycf).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(polycf.__all__)


def _referenced_names(paths) -> set[str]:
    """Every Name and Attribute in the code of the files; docstrings,
    comments and definitions do not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _readme_module_table() -> set[str]:
    text = (ROOT / "README.md").read_text()
    table = text[text.index("## Modules"):].split("\n\n")[1]
    return set(re.findall(r"`(\w+)`", table))


def test_every_public_name_has_a_use_outside_the_tests():
    """A name in __all__ is called by the library or the CLI, shown by a
    demo, or stated as API in the README's module table."""
    src = (ROOT / "src" / "polycf").glob("*.py")
    used = _referenced_names(p for p in src if p.name != "__init__.py")
    used |= _referenced_names((ROOT / "demos").glob("*.py"))
    used |= _readme_module_table()
    assert sorted(set(polycf.__all__) - used) == []
