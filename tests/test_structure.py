"""The modules of ``src/agripellet`` keep their private names private: none
imports, or reads as an attribute, a name beginning with ``_`` (a dunder
aside) that another package module defines.  A rule a module keeps to itself
then has one code path.  The tests, ``tests/oracles.py`` among them, may
import private names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "agripellet"
PACKAGE = SRC.name
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _module_of(path: str) -> str | None:
    """The package module a dotted path inside the package names (``""`` is
    the package itself, its ``__init__``), else None."""
    name = path or "__init__"
    return name if name in MODULES else None


def private_reaches(source: str, module: str) -> list:
    """``(line, "<module>.<name>")`` of each private name of another package
    module that ``source``, the text of package module ``module``, imports
    (``from .dataio import _x``, ``from agripellet.dataio import _x``) or reads
    (``dataio._x`` after ``from . import dataio``)."""
    tree = ast.parse(source)
    bound = {}  # a name bound in ``source`` -> the package module it is
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                owner = _module_of(node.module or "")
            elif node.level == 0 and (node.module or "").split(".")[0] == PACKAGE:
                owner = _module_of(node.module.removeprefix(PACKAGE).removeprefix("."))
            else:
                continue
            for alias in node.names:
                if owner == "__init__" and alias.name in MODULES:  # from . import dataio
                    bound[alias.asname or alias.name] = alias.name
                elif owner not in (None, module) and _private(alias.name):
                    found.append((node.lineno, f"{owner}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)):
            owner = bound.get(node.value.id)
            if owner not in (None, module):
                found.append((node.lineno, f"{owner}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reaches_into_another_modules_private_names(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert private_reaches(source, module) == []


def test_every_form_of_reaching_in_is_found():
    """Each way of reaching a private name of another module is found; a
    module's own private names, dunders, public names, other packages and
    private attributes of values (a namedtuple's ``_asdict``) are not."""
    source = "\n".join([
        "from .dataio import _raise, DataError, __doc__",  # 1
        "from agripellet.pipeline import _STAGE_ORDER",  # 2
        "from . import dataio, reporting as out",  # 3
        "from .yoy import _own",  # 4: the module's own
        "from collections import _chain_map",  # 5: another package
        "dataio._read_rows(out._render, yoy._own)",  # 6
        "record._asdict(); dataio.__name__; dataio.load_series",  # 7
    ])
    assert private_reaches(source, "yoy") == [
        (1, "dataio._raise"), (2, "pipeline._STAGE_ORDER"), (6, "dataio._read_rows"),
        (6, "reporting._render")]
