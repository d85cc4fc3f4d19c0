"""No module of impbox imports a name it never uses or keeps a dead helper,
every public function and class is used, exported or documented, the CLI reaches the models only through ``docio.KINDS``, the oracle
imports no model or front end, ``pbox`` imports nothing from
``possibility``, no module sets a private attribute or writes into an
instance dict (every per-object cache is a ``functools.cached_property``
of its class), every model stores exactly what its constructor takes,
every model has a constructor of its own (so its input is checked
there, not in a builder beside an unchecked dataclass constructor),
only the oracle builds an object past its constructor, the simplex
imports nothing from ``fractions``, ``docio`` turns event labels into
masks in one key reader, no closed form builds its answer ``Fraction``
past its view's table, the p-box and possibility bounds are ``randomset``'s
belief and plausibility with no loop of their own, no module reads
an environment variable, a kind's polytope names no other model
module, none of the closed forms and no route to its random set or to
the hit tables ``bel`` and ``pl`` answer from, those tables are built
without ``capacity._zeta``, and ``docio`` reaches a random-set kind's
bound, conversions and facts only through ``Kind.random_set``.

No linter ships with the toolchain, so these small ``ast`` checks keep a
refactor from leaving dead imports, uncalled private helpers, public
names only tests call or a second per-kind table behind.  ``__init__.py``
is skipped by the import and public-name checks: its imports are the
re-exported API, listed in ``__all__``.
"""

import ast
import inspect
import re
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

import impbox
from impbox import capacity, credal, docio

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


def _unreferenced(sources: list[str]) -> list[str]:
    """Top-level functions and classes nothing else in the sources refers to.

    A reference is a name, an attribute or an imported name anywhere in
    the sources outside the definition itself.
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
        and referenced.get(stmt.name, set()) - {id(stmt)} == set()
    )


def _uncalled_helpers(sources: list[str]) -> list[str]:
    """Top-level ``_name`` functions and classes nothing else refers to."""
    return [name for name in _unreferenced(sources) if name.startswith("_")]


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


def _unserved_public_names(sources: list[str], exported, readme: str) -> list[str]:
    """Top-level public functions and classes that no other statement
    names, that are not in ``exported`` and that the README does not name
    in backticks, alone or after a module prefix (`` `pbox.lower_prob` ``).

    Such a name serves neither the library nor its documented API: a
    wrapper only tests call, or a test route kept in the package.
    """
    documented = set(re.findall(r"`(?:\w+\.)*(\w+)`", readme))
    return [
        name
        for name in _unreferenced(sources)
        if not name.startswith("_") and name not in exported and name not in documented
    ]


def test_the_check_finds_unserved_public_names():
    sources = [
        "def used(): return 1\n"
        "def exported(): return 2\n"
        "def documented(): return 3\n"
        "def prefixed(): return 4\n"
        "def orphan(): return 5\n"
        "class Orphan: pass\n"
        "def _private(): return 6\n",
        "from .a import used\n",
    ]
    readme = "`documented`, `impbox.a.prefixed`, orphan, `orphan()` and `Orphan.x`"
    assert _unserved_public_names(sources, {"exported"}, readme) == ["Orphan", "orphan"]


def test_every_public_name_is_used_exported_or_documented():
    sources = [(SRC / module).read_text(encoding="utf-8") for module in MODULES]
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    assert _unserved_public_names(sources, impbox.__all__, readme) == []


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


def _imports_of(source: str, module: str) -> list[str]:
    """Import statements, at any depth, that name ``module`` as a dotted
    part or an imported name, as their source text."""
    return [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if module in _import_names(node)
    ]


def test_the_check_finds_imports_of_a_module():
    source = (
        "from . import credal, possibility as poss\n"
        "from .possibility import PossibilityDistribution\n"
        "from .space import Event\n"
        "import impbox.possibility\n"
        "def f():\n"
        "    from .randomset import possibility_like\n"
        "    from .possibility import necessity\n"
    )
    assert _imports_of(source, "possibility") == [
        "from . import credal, possibility as poss",
        "from .possibility import PossibilityDistribution",
        "import impbox.possibility",
        "from .possibility import necessity",
    ]


def test_pbox_imports_nothing_from_possibility():
    """Possibility distributions are generalized p-boxes, so
    ``possibility`` builds on ``pbox`` and never the reverse."""
    assert _imports_of((SRC / "pbox.py").read_text(encoding="utf-8"), "possibility") == []


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


def _fraction_imports(source: str) -> list[str]:
    """Import statements, at any depth, of the ``fractions`` module or of
    a name ``Fraction`` from anywhere, as their source text."""
    return [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if {"fractions", "Fraction"} & set(_import_names(node))
    ]


def test_the_check_finds_fraction_imports():
    source = (
        "from itertools import count\n"
        "from fractions import Fraction as F\n"
        "import fractions\n"
        "from ._exact import over_lcd\n"
        "def f():\n"
        "    from .space import Fraction\n"
    )
    assert _fraction_imports(source) == [
        "from fractions import Fraction as F",
        "import fractions",
        "from .space import Fraction",
    ]


def test_the_simplex_imports_no_fractions():
    """The solver takes, pivots and answers integers only."""
    assert _fraction_imports((SRC / "_simplex.py").read_text(encoding="utf-8")) == []


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
    """No module sets a private attribute: a per-object cache is a
    ``cached_property`` of its class, so no helper sets one by name."""
    assert _private_setattrs((SRC / module).read_text(encoding="utf-8")) == []


def _is_instance_dict(node) -> bool:
    """Whether ``node`` is ``<x>.__dict__`` or ``vars(<x>)``."""
    return (
        isinstance(node, ast.Attribute) and node.attr == "__dict__"
        or isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "vars"
        and len(node.args) == 1
    )


def _instance_dict_writes(source: str) -> list[str]:
    """Stores into and deletions from ``<x>.__dict__[...]`` or
    ``vars(<x>)[...]``, and their ``update``, ``setdefault`` and
    ``__setitem__`` calls, as source text: each sets an attribute past
    ``__setattr__``, as a hand-rolled cache would."""
    return sorted(
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Subscript)
        and isinstance(node.ctx, (ast.Store, ast.Del))
        and _is_instance_dict(node.value)
        or isinstance(node, ast.Attribute)
        and node.attr in {"update", "setdefault", "__setitem__"}
        and _is_instance_dict(node.value)
    )


def test_the_check_finds_instance_dict_writes():
    source = (
        "obj.__dict__['_ints'] = view\n"
        "vars(self)[name] = 1\n"
        "self.__dict__[key] += 1\n"
        "a, vars(obj)['b'] = 1, 2\n"
        "del obj.__dict__['_oracle']\n"
        "obj.__dict__.setdefault('_table', table)\n"
        "vars(obj).update(cache)\n"
        "view = obj.__dict__['_ints'], vars(obj).get('x'), vars()\n"
        "table[key] = obj.__dict__\n"
    )
    assert _instance_dict_writes(source) == [
        "obj.__dict__.setdefault",
        "obj.__dict__['_ints']",
        "obj.__dict__['_oracle']",
        "self.__dict__[key]",
        "vars(obj).update",
        "vars(obj)['b']",
        "vars(self)[name]",
    ]


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_module_writes_into_an_instance_dict(module):
    assert _instance_dict_writes((SRC / module).read_text(encoding="utf-8")) == []


#: the one module that builds an object past its constructor: the oracle's
#: ``_Oracle.certified`` makes each witness vector once it has proven it
#: against every row
BYPASS_HOME = "credal.py"


def _constructor_bypasses(source: str) -> int:
    """How often ``object.__new__`` is named: each use can build an object
    that its constructor never checked."""
    return sum(
        isinstance(node, ast.Attribute)
        and node.attr == "__new__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
        for node in ast.walk(ast.parse(source))
    )


def test_the_check_finds_constructor_bypasses():
    source = (
        "event = object.__new__(Event)\n"
        "new = object.__new__\n"
        "def f(cls):\n"
        "    return cls.__new__(cls), super().__new__(cls), new(cls)\n"
    )
    assert _constructor_bypasses(source) == 2


@pytest.mark.parametrize("module", MODULES)
def test_only_the_oracle_builds_objects_past_their_constructor(module):
    found = _constructor_bypasses((SRC / module).read_text(encoding="utf-8"))
    assert found == (1 if module == BYPASS_HOME else 0)


def _stores_more_than_it_takes(cls) -> bool:
    """Whether a dataclass keeps fields beyond its constructor's arguments,
    such as a value derived from them that could instead be read off them."""
    return len(fields(cls)) != len(inspect.signature(cls).parameters)


def test_the_check_finds_derived_fields():
    @dataclass(frozen=True)
    class Derived:
        values: tuple
        total: int

        def __init__(self, values):
            object.__setattr__(self, "values", tuple(values))
            object.__setattr__(self, "total", sum(values))

    @dataclass(frozen=True)
    class Stored:
        values: tuple

    assert _stores_more_than_it_takes(Derived)
    assert not _stores_more_than_it_takes(Stored)


MODEL_CLASSES = sorted(
    {kind.cls for kind in docio.KINDS.values()}
    | {credal.CredalPolytope, capacity.MobiusAssignment},
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", MODEL_CLASSES, ids=lambda cls: cls.__name__)
def test_every_model_stores_only_what_its_constructor_takes(cls):
    assert not _stores_more_than_it_takes(cls)


def _has_own_constructor(cls, home: Path) -> bool:
    """Whether ``cls`` defines its own ``__init__`` in a file under ``home``:
    a ``dataclass``-generated one is compiled from a string, and one that
    is inherited is not in the class's own namespace."""
    init = vars(cls).get("__init__")
    return (
        inspect.isfunction(init)
        and init.__qualname__ == f"{cls.__qualname__}.__init__"
        and Path(init.__code__.co_filename).resolve().is_relative_to(home)
    )


def test_the_check_finds_generated_constructors():
    @dataclass(frozen=True)
    class Generated:
        values: tuple

    @dataclass(frozen=True)
    class Checked:
        values: tuple

        def __init__(self, values):
            object.__setattr__(self, "values", tuple(values))

    class Inherited(Checked):
        pass

    here = Path(__file__).resolve().parent
    assert _has_own_constructor(Checked, here)
    assert not _has_own_constructor(Checked, SRC)
    assert not _has_own_constructor(Generated, here)
    assert not _has_own_constructor(Inherited, here)


@pytest.mark.parametrize("cls", MODEL_CLASSES, ids=lambda cls: cls.__name__)
def test_every_model_checks_its_input_in_its_own_constructor(cls):
    assert _has_own_constructor(cls, SRC)


#: the one ``docio`` function that turns event labels into bitmasks
KEY_READER = "_key_masks"


def _reads_label_table(node) -> bool:
    """Whether ``node`` names ``_label_bits``: a label table's builder, or
    its cache attribute, by name or as a string."""
    return (
        isinstance(node, ast.Name) and node.id == "_label_bits"
        or isinstance(node, ast.Attribute) and node.attr == "_label_bits"
        or isinstance(node, ast.Constant) and node.value == "_label_bits"
    )


def _label_lookups(source: str, reader: str) -> list[str]:
    """``.event(`` and ``.index(`` calls and reads of ``_label_bits`` outside
    the top-level function ``reader``, as their source text: each turns
    labels into positions."""
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == reader:
            continue
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in {"event", "index"}
            ):
                found.append(ast.unparse(node.func))
            elif _reads_label_table(node):
                found.append(ast.unparse(node))
    return sorted(found)


def test_the_check_finds_label_lookups():
    source = (
        "def _key_masks(space, keys):\n"
        "    bits = cached(space, '_label_bits', _label_bits)\n"
        "    return space.event(keys[0].split(','))\n"
        "def _label_bits(space):\n"
        "    return {'': 0}\n"
        "def _other(space, key):\n"
        "    return space.index(key) | space.labels.index(key)\n"
        "def _inline(space, key):\n"
        "    return _label_bits(space)[key] | space._label_bits[key]\n"
        "def _cached(space, key):\n"
        "    return space.__dict__['_label_bits'][key]\n"
        "READ = lambda payload, space: space.event(payload['event'])\n"
        "def fine(space, index):\n"
        "    return space.events(), index(space), space.event, 'label_bits'\n"
    )
    assert _label_lookups(source, "_key_masks") == [
        "'_label_bits'", "_label_bits", "space._label_bits",
        "space.event", "space.index", "space.labels.index",
    ]


def test_docio_reads_labels_only_in_its_key_reader():
    assert callable(getattr(docio, KEY_READER))
    source = (SRC / "docio.py").read_text(encoding="utf-8")
    assert _label_lookups(source, KEY_READER) == []


#: the closed forms, by module: each answers from its integer view's
#: ``_exact.Ratios`` table, which builds every ``Fraction`` once; the byte
#: tables some of them read fold integers only
CLOSED_FORMS = {
    "interval.py": {"event_bounds", "normalize"},
    "pbox.py": {"lower_prob", "upper_prob"},
    "possibility.py": {"necessity", "possibility", "sufficiency"},
    "randomset.py": {"bel", "pl"},
    "space.py": {"_byte_tables"},
}


def _fraction_calls(source: str, names) -> list[str]:
    """``Fraction(...)`` calls in the top-level functions ``names``, as
    ``"function: call"`` source text; a name with no such function is
    reported as ``"function: missing"``, so a rename cannot hide a call."""
    functions = {
        stmt.name: stmt for stmt in ast.parse(source).body if isinstance(stmt, ast.FunctionDef)
    }
    found = []
    for name in sorted(names):
        if name not in functions:
            found.append(f"{name}: missing")
            continue
        found.extend(
            f"{name}: {ast.unparse(node)}"
            for node in ast.walk(functions[name])
            if isinstance(node, ast.Call)
            and (
                isinstance(node.func, ast.Name) and node.func.id == "Fraction"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "Fraction"
            )
        )
    return found


def test_the_check_finds_fraction_calls():
    source = (
        "def lower(view, num):\n"
        "    return view.ratios[num], Fraction\n"
        "def upper(num, den):\n"
        "    return Fraction(den - num, den), fractions.Fraction(1)\n"
        "def other(num, den):\n"
        "    return Fraction(num, den)\n"
    )
    assert _fraction_calls(source, {"lower", "upper", "gone"}) == [
        "gone: missing",
        "upper: Fraction(den - num, den)",
        "upper: fractions.Fraction(1)",
    ]


@pytest.mark.parametrize("module", sorted(CLOSED_FORMS))
def test_closed_forms_answer_from_the_views_table(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert _fraction_calls(source, CLOSED_FORMS[module]) == []


#: the bounds of the random-set kinds past ``randomset`` itself, by module:
#: each is the belief or plausibility of its object's random set
RANDOM_SET_BOUNDS = {
    "pbox.py": {"lower_prob", "upper_prob"},
    "possibility.py": {"necessity", "possibility"},
}


def _own_bound_routes(source: str, names) -> list[str]:
    """The top-level functions ``names`` that call neither ``randomset.bel``
    nor ``randomset.pl``, or that loop (``for``, ``while`` or a
    comprehension), as ``"function: what"``; a name with no such function
    is reported as ``"function: missing"``.  Either is a per-event route
    of its own beside the random set's."""
    functions = {
        stmt.name: stmt for stmt in ast.parse(source).body if isinstance(stmt, ast.FunctionDef)
    }
    found = []
    for name in sorted(names):
        if name not in functions:
            found.append(f"{name}: missing")
            continue
        nodes = list(ast.walk(functions[name]))
        if not any(
            isinstance(node, ast.Attribute)
            and node.attr in {"bel", "pl"}
            and isinstance(node.value, ast.Name)
            and node.value.id == "randomset"
            for node in nodes
        ):
            found.append(f"{name}: no randomset.bel or randomset.pl")
        found.extend(
            f"{name}: {type(node).__name__}"
            for node in nodes
            if isinstance(node, (ast.For, ast.While, ast.comprehension))
        )
    return found


def test_the_check_finds_own_bound_routes():
    source = (
        "def lower(ms, a):\n"
        "    return randomset.bel(ms._random_set, a)\n"
        "def upper(ms, a):\n"
        "    return bel(ms, a), ms.pl(a)\n"
        "def walk(ms, a):\n"
        "    for mask in ms.focal:\n"
        "        while mask: mask >>= 1\n"
        "    return randomset.pl(ms, a), max(m for m in ms.focal)\n"
    )
    assert _own_bound_routes(source, {"lower", "upper", "walk", "gone"}) == [
        "gone: missing",
        "upper: no randomset.bel or randomset.pl",
        "walk: For",
        "walk: While",
        "walk: comprehension",
    ]


@pytest.mark.parametrize("module", sorted(RANDOM_SET_BOUNDS))
def test_random_set_kinds_answer_only_through_bel_and_pl(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert _own_bound_routes(source, RANDOM_SET_BOUNDS[module]) == []


#: the names that read the process environment
ENV_READERS = {"environ", "getenv"}


def _environment_reads(source: str) -> list[str]:
    """``os.environ``/``os.getenv`` attributes and imports of ``environ``
    or ``getenv``, as their source text."""
    return sorted(
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ENV_READERS
        or isinstance(node, ast.ImportFrom) and {a.name for a in node.names} & ENV_READERS
    )


def test_the_check_finds_environment_reads():
    source = (
        "import os\n"
        "from os import environ, getenv as read\n"
        "def f():\n"
        "    return os.environ.get('X'), os.getenv('Y'), environ['Z'], read('W')\n"
        "def g(env):\n"
        "    return env.environment, os.path.sep\n"
    )
    assert _environment_reads(source) == [
        "from os import environ, getenv as read",
        "os.environ",
        "os.getenv",
    ]


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_the_library_reads_no_environment_variable(module):
    """Every input reaches the library as an argument, so no setting
    outside a call, such as a second space-size cap, can change a result."""
    assert _environment_reads((SRC / module).read_text(encoding="utf-8")) == []


#: the random-set routes ``docio`` may name only where ``Kind`` derives a
#: random-set kind's bound, conversions and facts, or where an entry says
#: which random set its object is
RANDOM_SET_ROUTES = {
    "bel", "to_interval", "is_nested", "to_random_set", "lower_prob", "necessity",
    "pbox_to_interval",
}


def _random_set_routes(source: str) -> list[str]:
    """Names, attributes and imports in ``RANDOM_SET_ROUTES`` outside
    ``Kind.__post_init__`` and the values of ``random_set=`` keywords, as
    ``"line: name"``."""
    tree, allowed = ast.parse(source), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Kind":
            allowed.update(
                id(inner)
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__"
                for inner in ast.walk(stmt)
            )
        elif isinstance(node, ast.keyword) and node.arg == "random_set":
            allowed.update(id(inner) for inner in ast.walk(node.value))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            name = getattr(node, "attr", None)
        if name in RANDOM_SET_ROUTES and id(node) not in allowed:
            found.append((node.lineno, name))
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_the_check_finds_random_set_routes():
    source = (
        "class Kind:\n"
        "    def __post_init__(self):\n"
        "        self.lower = lambda obj, a: randomset.bel(self.random_set(obj), a)\n"
        "    def other(self):\n"
        "        return randomset.is_nested\n"
        "MASS = Kind(random_set=lambda pb: pbox.to_random_set(pb))\n"
        "PBOX = dict(lower=lambda pb, a: pbox.lower_prob(pb, a))\n"
        "TO = {'interval': lambda pb, sigma: convert.pbox_to_interval(pb)}\n"
        "from .possibility import necessity\n"
        "N = necessity\n"
    )
    assert _random_set_routes(source) == [
        "5: is_nested", "7: lower_prob", "8: pbox_to_interval", "9: necessity",
        "10: necessity",
    ]


def test_docio_names_each_random_set_route_once():
    """A random-set kind states its random set, and ``Kind`` derives its
    bound, its ``mass`` and ``interval`` conversions and its facts."""
    source = (SRC / "docio.py").read_text(encoding="utf-8")
    assert _random_set_routes(source) == []


#: the polytope that ``verify`` checks each random-set or interval kind's
#: closed form against, by module
POLYTOPE_MODULES = ("interval.py", "pbox.py", "possibility.py", "randomset.py")

#: what a kind's polytope may not name: the routes to its random set, the
#: hit tables its ``bel`` and ``pl`` answer from, and the closed forms
#: ``verify`` checks against it
BOUND_CODE = {"_as_pbox", "_random_set", "to_random_set", "_hits"}.union(
    *CLOSED_FORMS.values()
)


def _shared_bound_code(source: str, module: str) -> list[str]:
    """The names and attributes in the top-level ``to_polytope`` of
    ``source`` that are a model module other than ``module`` or in
    ``BOUND_CODE``, sorted; ``"to_polytope: missing"`` when it has none.

    Each would build the polytope from code that also computes the
    closed form, so ``verify`` would check that code against itself."""
    functions = {
        stmt.name: stmt for stmt in ast.parse(source).body if isinstance(stmt, ast.FunctionDef)
    }
    if "to_polytope" not in functions:
        return ["to_polytope: missing"]
    banned = MODELS - {module} | BOUND_CODE
    names = set()
    for node in ast.walk(functions["to_polytope"]):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return sorted(names & banned)


def test_the_check_finds_shared_bound_code():
    source = (
        "def to_polytope(d):\n"
        "    cuts = [alpha_cut(d, a) for a in d.levels()] + [_zeta(d.table)]\n"
        "    box = pbox.to_polytope(_as_pbox(d))\n"
        "    bounds = bel(d._random_set, a), randomset.pl(to_random_set(d), a)\n"
        "    return CredalPolytope(d.space, cuts), possibility(d, a), interval\n"
    )
    assert _shared_bound_code(source, "interval") == [
        "_as_pbox", "_random_set", "bel", "pbox", "pl", "possibility", "randomset",
        "to_random_set",
    ]
    assert _shared_bound_code("def to_interval(ms): pass\n", "randomset") == [
        "to_polytope: missing"
    ]


@pytest.mark.parametrize("module", POLYTOPE_MODULES)
def test_a_kinds_polytope_shares_no_bound_code(module):
    """A kind's polytope and its closed form share no code that computes
    a bound, so ``verify`` compares two independent statements."""
    source = (SRC / module).read_text(encoding="utf-8")
    assert _shared_bound_code(source, module.removesuffix(".py")) == []


def _zeta_in_hits(source: str) -> list[str]:
    """The names and attributes ``_zeta`` in ``MassAssignment._hits`` of
    ``source``, as ``"line: source text"``; ``["_hits: missing"]`` when it
    has no such method.

    The hit tables that ``bel`` and ``pl`` answer from are built from the
    focal masks; built from the ``_zeta`` sums that the mass polytope is
    built from, ``verify`` would check that code against itself."""
    methods = [
        stmt
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == "MassAssignment"
        for stmt in node.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "_hits"
    ]
    if not methods:
        return ["_hits: missing"]
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for method in methods
        for node in ast.walk(method)
        if isinstance(node, ast.Name) and node.id == "_zeta"
        or isinstance(node, ast.Attribute) and node.attr == "_zeta"
    ]


def test_the_check_finds_zeta_in_the_hit_tables():
    source = (
        "class MassAssignment:\n"
        "    def _hits(self):\n"
        "        below = _zeta(self.table)\n"
        "        return below, capacity._zeta, self.zeta\n"
        "    def _ints(self):\n"
        "        return _zeta(self.table)\n"
        "def _hits(ms):\n"
        "    return _zeta(ms.table)\n"
    )
    assert _zeta_in_hits(source) == ["3: _zeta", "4: capacity._zeta"]
    assert _zeta_in_hits("class MassAssignment:\n    def _ints(self): pass\n") == [
        "_hits: missing"
    ]


def test_the_hit_tables_are_built_from_the_focal_masks():
    """``bel`` and ``pl`` answer from tables that share no code with the
    ``_zeta``-built mass polytope, so ``verify`` compares two independent
    statements."""
    source = (SRC / "randomset.py").read_text(encoding="utf-8")
    assert _zeta_in_hits(source) == []
