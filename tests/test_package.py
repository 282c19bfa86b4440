"""The package's public surface."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

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


def _loaded_names(paths) -> set[str]:
    """Every Name and Attribute that the code of the files loads, and every
    keyword argument it passes; docstrings, comments, definitions and
    assignments (an alias ``X = Fraction``) do not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                names.add(node.arg)
    return names


def _readme_module_table() -> set[str]:
    text = (ROOT / "README.md").read_text()
    table = text[text.index("## Modules"):].split("\n\n")[1]
    return set(re.findall(r"`(\w+)`", table))


def _uses_outside_the_tests() -> set[str]:
    """Names loaded by the library (bar its re-exports), the CLI, the
    demos, the paper's acceptance criteria and the benchmark, plus the
    README's module table."""
    src = [p for p in (ROOT / "src" / "polycf").glob("*.py") if p.name != "__init__.py"]
    demos = (ROOT / "demos").glob("*.py")
    perfbench = (ROOT / "perfbench").glob("*.py")
    used = _loaded_names([*src, *demos, *perfbench, ROOT / "tests" / "test_acceptance.py"])
    return used | _readme_module_table()


def test_every_public_name_has_a_use_outside_the_tests():
    """A name in __all__, and a public attribute of a class in __all__, is
    loaded by the library, the CLI, a demo, an acceptance criterion or the
    benchmark, or stated as API in the README's module table.

    The check is a floor: it matches names, not the objects they bind, so
    a member whose name some other object uses escapes it.  A
    ``ConvergentState.reduced`` would pass on the CLI's ``args.reduced``,
    and a ``ZetaCombo.to_dict`` on ``IdentifyReport.to_dict``.  Keyword
    options are not checked at all."""
    used = _uses_outside_the_tests()
    unused = set(polycf.__all__) - used
    for name in polycf.__all__:
        obj = getattr(polycf, name)
        if isinstance(obj, type) and obj.__module__.startswith("polycf"):
            unused |= {
                f"{name}.{member}"
                for member in vars(obj)
                if not member.startswith("_") and member not in used
            }
    assert sorted(unused) == []


# the seven modules behind __all__
LIBRARY = {"algebra", "errors", "mobius", "euler", "identify", "limits", "matforms"}


def _loaded_after(code: str) -> set[str]:
    """The polycf submodules (bare names, "" for the package) loaded after
    code runs in a fresh interpreter."""
    report = "import sys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'polycf'))"
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    r = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert r.returncode == 0, r.stderr
    return {m.partition(".")[2] for m in r.stdout.splitlines()[-1].split()}


_CLI_CALL = """
import contextlib, io
import polycf.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        polycf.cli.main({argv!r})
    except SystemExit:
        pass
"""

_PARSER = {"", "cli", "algebra", "errors"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["eval", "--a", "n", "--b", "1", "--depth", "4"], {"mobius"}),
        (["eval", "--a", "n^", "--b", "1", "--depth", "4"], set()),
        (["identify", "--a", "2n+1", "--b", "-n^2"], {"mobius", "euler", "identify"}),
        (["limit", "--a", "n", "--b", "1", "--max-depth", "8"], {"mobius", "euler", "limits"}),
        (
            ["limit", "--a", "2n+1", "--b", "-n^2", "--max-depth", "8", "--closed-form"],
            {"mobius", "euler", "limits", "identify"},
        ),
        (["convert", "--matrix", "n+1,n^2,2n+1,3"], {"mobius", "matforms"}),
        (["triangularize", "--h1", "n+1", "--h2", "n+2", "--depth", "4"], {"mobius", "euler", "matforms"}),
    ],
)
def test_each_subcommand_loads_only_the_modules_it_runs(argv, modules):
    assert _loaded_after(_CLI_CALL.format(argv=argv)) == _PARSER | modules


def test_importing_the_package_and_cli_loads_no_analysis_module():
    assert _loaded_after("import polycf") == {""}
    assert _loaded_after("import polycf, polycf.cli") == _PARSER


def test_the_first_public_name_loads_the_whole_library():
    # the benchmark finds the modules it wraps in sys.modules after this
    assert _loaded_after("import polycf; polycf.Poly") == {""} | LIBRARY
    assert _loaded_after("from polycf import ZetaCombo") == {""} | LIBRARY


def test_star_import_dir_and_unknown_names_before_the_library_loads():
    code = """
import polycf
assert set(polycf.__all__) <= set(dir(polycf))
assert not hasattr(polycf, "no_such_name")
namespace = {}
exec("from polycf import *", namespace)
assert set(polycf.__all__) <= namespace.keys()
"""
    assert _loaded_after(code) == {""} | LIBRARY
