"""No module of impbox imports a name it never uses or keeps a dead helper,
the CLI reaches the models only through ``docio.KINDS``, the oracle
imports no model or front end, and every per-object cache is set by
``_exact.cached``.

No linter ships with the toolchain, so these small ``ast`` checks keep a
refactor from leaving dead imports, uncalled private helpers or a second
per-kind table behind.  ``__init__.py`` is skipped by the import check:
its imports are the re-exported API.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "impbox"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys\n"
        "from fractions import Fraction as F\n"
        "from .space import Event\n"
        "def f(e: Event) -> F:\n"
        "    return os.path.sep\n"
    )
    assert _unused_imports(source) == ["sys"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert _unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def _uncalled_helpers(sources: list[str]) -> list[str]:
    """Top-level ``_name`` functions and classes nothing else refers to.

    A reference is a name, an attribute or an imported name anywhere in
    the sources outside the helper's own definition.
    """
    statements = [stmt for source in sources for stmt in ast.parse(source).body]
    referenced = {}
    for stmt in statements:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            referenced.setdefault(name, set()).add(id(stmt))
    return sorted(
        stmt.name
        for stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and referenced.get(stmt.name, set()) - {id(stmt)} == set()
    )


def test_the_check_finds_uncalled_helpers():
    sources = [
        "def _called(): return 1\n"
        "def _via_attribute(): return 2\n"
        "def _recursive(n): return _recursive(n - 1)\n"
        "class _Orphan: pass\n",
        "from .a import _called\n"
        "from . import a\n"
        "def public(): return _called() + a._via_attribute()\n",
    ]
    assert _uncalled_helpers(sources) == ["_Orphan", "_recursive"]


def test_every_private_helper_has_a_caller():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert _uncalled_helpers(sources) == []


MODELS = {"capacity", "convert", "interval", "pbox", "possibility", "randomset"}


def _import_names(node) -> list[str]:
    """Every dotted part and imported name of an import statement, else []."""
    if isinstance(node, ast.Import):
        return [part for a in node.names for part in a.name.split(".")]
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".") + [a.name for a in node.names]
    return []


def _kind_bypasses(source: str) -> list[str]:
    """Model modules a front end imports, and kind lookups past ``KINDS``.

    ``document_for`` and ``Kind.cls`` name a kind by the object's class,
    the first match, where ``KINDS[doc.kind]`` keeps the kind it was read as.
    """
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = _import_names(node)
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found.update(name for name in names if name in MODELS | {"document_for", "cls"})
    return sorted(found)


def test_the_check_finds_kind_bypasses():
    source = (
        "from . import convert as conv\n"
        "from . import credal, docio\n"
        "from .pbox import lower_prob\n"
        "import impbox.randomset\n"
        "from .space import enumerate_events\n"
        "def f(doc):\n"
        "    kind = docio.document_for(doc.obj).kind\n"
        "    return docio.KINDS[kind].cls, docio.KINDS[doc.kind].to\n"
    )
    assert _kind_bypasses(source) == [
        "cls", "convert", "document_for", "pbox", "randomset"
    ]


def test_cli_reaches_kinds_only_through_the_table():
    assert _kind_bypasses((SRC / "cli.py").read_text(encoding="utf-8")) == []


#: what the oracle must not import: it checks these, so it cannot lean on them
ORACLE_BANS = MODELS | {"cli", "docio"}


def _oracle_imports(source: str) -> list[str]:
    """Model and front-end modules a module imports, by name."""
    tree = ast.parse(source)
    return sorted({n for node in ast.walk(tree) for n in _import_names(node)} & ORACLE_BANS)


def test_the_check_finds_oracle_imports():
    source = (
        "from . import _simplex, pbox as p\n"
        "from .space import Event\n"
        "import impbox.docio\n"
        "def f():\n"
        "    from .randomset import bel\n"
        "    return p.interval\n"
    )
    assert _oracle_imports(source) == ["docio", "pbox", "randomset"]


@pytest.mark.parametrize("module", ["credal.py", "_simplex.py"])
def test_the_oracle_imports_no_model_or_front_end(module):
    assert _oracle_imports((SRC / module).read_text(encoding="utf-8")) == []


#: the one module that sets private attributes: ``_exact.cached``
CACHE_HOME = "_exact.py"


def _private_setattrs(source: str) -> list[str]:
    """Attribute names ``object.__setattr__`` is given that are private.

    A name that is not a string literal could be private, so it is
    reported too, as its source text.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
            and len(node.args) > 1
        ):
            continue
        name = node.args[1]
        if not (isinstance(name, ast.Constant) and isinstance(name.value, str)):
            found.append(ast.unparse(name))
        elif name.value.startswith("_"):
            found.append(name.value)
    return found


def test_the_check_finds_private_setattrs():
    source = (
        "object.__setattr__(self, 'space', space)\n"
        "object.__setattr__(self, '_oracle', state)\n"
        "def f(obj, key):\n"
        "    object.__setattr__(obj, key, 1)\n"
        "    object.__setattr__(obj, f'_{key}', 2)\n"
        "    obj.__setattr__('_other', 3)\n"
    )
    assert _private_setattrs(source) == ["_oracle", "key", "f'_{key}'"]


@pytest.mark.parametrize("module", MODULES)
def test_only_the_cache_helper_sets_private_attributes(module):
    found = _private_setattrs((SRC / module).read_text(encoding="utf-8"))
    assert found == (["name"] if module == CACHE_HOME else [])
