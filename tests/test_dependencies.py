"""Structural guards: the package has no third-party runtime dependency
(pyproject ``dependencies = []``), optional imports included, every
name the benchmark's layer budget hooks still exists, no module imports
across a layer boundary its docstring rules out, the indexing
protocol's one exchange stays one, a message is built and priced in one
module, the overlay's shape stays one number on the overlay's config,
a retrieval system stays one class whose term-selection policy is its
config, and every module is reached from an entry point or the
benchmark."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"

PROBE = """
import sys
import repro, repro.cli, repro.perf, repro.sim
import repro.perf.route
print("numpy" in sys.modules)
"""


def test_importing_the_package_never_imports_numpy() -> None:
    """A fresh interpreter, so neither a pytest plugin's own numpy
    import nor this process's module cache can mask or fake the result."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert result.stdout.strip() == "False", result.stdout + result.stderr


def test_every_benchmark_trace_hook_resolves(monkeypatch) -> None:
    """``bench.trace.LAYER_TABLE`` names the ``(module, attribute)``
    pairs the benchmark wraps to fill its layer budget; a target that
    no longer exists silently nulls a layer there.  Only the table is
    read — nothing is traced or run."""
    monkeypatch.syspath_prepend(str(SRC.parent))
    from bench.trace import LAYER_TABLE

    missing = []
    for module, attribute, *__ in LAYER_TABLE:
        target = importlib.import_module(module)
        for name in attribute.split("."):
            target = getattr(target, name, None)
            if target is None:
                missing.append(f"{module}:{attribute}")
                break
    assert not missing


def _imported_names(module: Path, node: ast.AST) -> list:
    """The dotted names *node* imports (none unless it is an import
    statement), relative imports resolved against *module*'s package."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module or ""
    if node.level:
        package = ("repro",) + module.parent.parts
        anchor = package[: len(package) - (node.level - 1)]
        base = ".".join(anchor + ((base,) if base else ()))
    # ``from repro import perf`` / ``from . import perf`` name the
    # package in the alias list, not in the module path.
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def _repro_imports(path: Path, module: Path) -> set:
    """Every ``repro`` name *path* imports, at any depth of its body;
    *module* anchors its relative imports (see :func:`_imported_names`)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        name
        for node in ast.walk(tree)
        for name in _imported_names(module, node)
        if name == "repro" or name.startswith("repro.")
    }


def _typing_only(tree: ast.AST) -> set:
    """Every node in the body of an ``if TYPE_CHECKING:``."""
    return {
        inner
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING")
        for statement in node.body
        for inner in ast.walk(statement)
    }


#: ``(importers, except, must not import, unless under TYPE_CHECKING)``:
#: importers and exceptions are path prefixes below ``src/repro``.  The
#: first row keeps ``repro.perf`` harnesses-only.  The rest the source
#: states and nothing else checks: a posting store is below the slot
#: layer (``ir/postings.py``: "must not import repro.core"; the SQLite
#: one hands the same plain rows to ``TermSlot``), and ``repro.net``
#: "stays import-independent of repro.dht" (``net/trace.py``), naming
#: ``Message`` and ``NetworkConfig`` for typing only to avoid a cycle.
FORBIDDEN_EDGES = [
    ("", ("perf/", "cli.py"), ("repro.perf",), False),
    ("ir/", (), ("repro.core", "repro.dht", "repro.store", "repro.net"), False),
    ("net/", (), ("repro.dht", "repro.config"), True),
    ("store/sqlite_store.py", (), ("repro.core",), False),
]


def _violations(importers, exempt, forbidden, typing_allowed) -> list:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE)
        where = module.as_posix()
        if not where.startswith(importers) or where.startswith(exempt):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        excused = _typing_only(tree) if typing_allowed else ()
        for node in ast.walk(tree):
            if node in excused:
                continue
            for name in _imported_names(module, node):
                if any(name == f or name.startswith(f + ".") for f in forbidden):
                    found.append(f"{where} -> {name}")
    return found


def test_core_never_imports_perf_or_a_global_profile() -> None:
    """``repro.perf`` is harnesses only: counts live on the object that
    owns them and time in the benchmark's tracer, so no core module may
    import the package, and no process-global ``PROFILE`` may return."""
    assert not _violations(*FORBIDDEN_EDGES[0])
    assert not [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if "PROFILE" in path.read_text(encoding="utf-8")
    ]


@pytest.mark.parametrize("edge", FORBIDDEN_EDGES[1:], ids=lambda edge: str(edge[0]))
def test_layers_import_only_what_their_docstrings_allow(edge) -> None:
    assert not _violations(*edge)


def test_the_edge_check_sees_relative_guarded_and_function_level_imports() -> None:
    """The checker itself: ``core`` does import ``repro.ir`` (relatively),
    ``net`` names ``repro.dht`` only under ``TYPE_CHECKING``, and
    ``store/recovery.py`` imports ``..core.metadata`` inside a method."""
    assert "core/metadata.py -> repro.ir.postings" in _violations(
        "core/", (), ("repro.ir",), False
    )
    assert _violations("net/", (), ("repro.dht",), False)
    assert "store/recovery.py -> repro.core.metadata" in _violations(
        "store/recovery.py", (), ("repro.core.metadata",), False
    )


def _functions_where(tree: ast.AST, matches) -> set:
    """Names of the functions of *tree* with a node below them that
    *matches*."""
    return {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        and any(matches(node) for node in ast.walk(function))
    }


def _calls(*names: str):
    """Matches a call of ``<anything>.name(...)`` or of a local alias
    ``name(...)``, for any of *names*."""

    def matches(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and (
            getattr(node.func, "attr", None) in names
            or getattr(node.func, "id", None) in names
        )

    return matches


def test_the_indexing_protocol_keeps_one_exchange() -> None:
    """``core/indexer.py`` routes, groups and exchanges in one place
    each (its module docstring): one function looks up, the liveness
    check that follows a lookup sits in that function, and a delivery
    failure is caught only where it becomes failed terms (the exchange)
    or is tolerated (the replica deletion-forward).  A second copy of
    any of them is how the delivery-order bugs of PR 20 got in."""
    tree = ast.parse((PACKAGE / "core" / "indexer.py").read_text(encoding="utf-8"))
    assert _functions_where(tree, _calls("lookup", "lookup_term")) == {"_route"}
    # _locate reads it of an absorption candidate, before any lookup.
    assert _functions_where(
        tree, lambda node: isinstance(node, ast.Attribute) and node.attr == "alive"
    ) == {"_route", "_locate"}
    assert _functions_where(
        tree,
        lambda node: isinstance(node, ast.Try)
        and any(_calls("send")(inner) for stmt in node.body for inner in ast.walk(stmt)),
    ) == {"_exchange", "_forward_unpublish_to_replicas"}


def test_a_message_is_built_and_priced_in_one_module() -> None:
    """What a message of a kind costs is that kind's row in
    ``dht/messages.py``: no other module of ``src`` calls ``Message(...)``,
    passes a ``size_bytes=`` or names a ``*_BYTES`` constant to do the
    arithmetic itself (``repro.dht`` re-exports four for its users)."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        where = path.relative_to(PACKAGE).as_posix()
        if where == "dht/messages.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _calls("Message")(node):
                found.append(f"{where}: Message(...)")
            if isinstance(node, ast.keyword) and node.arg == "size_bytes":
                found.append(f"{where}: size_bytes=")
            named = getattr(node, "name", None) or getattr(node, "id", None) or getattr(
                node, "attr", ""
            )
            if named.endswith("_BYTES") and where != "dht/__init__.py":
                found.append(f"{where}: names {named}")
    assert not found, found


#: The modules every delivery, routed hop and indexing exchange runs
#: through, and the enums whose members they send and compare.
HOT_MODULES = ("dht/ring.py", "core/indexer.py", "net/transport.py")
HOT_ENUMS = ("MessageKind", "DeliveryOutcome")


def _enum_reads(source: str) -> list:
    """``function: Enum.MEMBER`` for every enum member of HOT_ENUMS a
    function (or lambda) of *source* reads through its class."""
    return [
        f"{getattr(function, 'name', 'lambda')}: {node.value.id}.{node.attr}"
        for function in ast.walk(ast.parse(source))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in HOT_ENUMS
    ]


def test_the_hot_modules_bind_their_enum_members_at_import() -> None:
    """On CPython 3.11 a read of an enum member through its class
    (``MessageKind.LOOKUP``, ``DeliveryOutcome.DELIVERED``) goes through
    ``EnumType.__getattr__`` and costs about 140–180 ns; a module global
    costs 10–20 ns (3.12 dropped the hook).  A lossy delivery, a routed
    hop and an indexing exchange each made several such reads, so the
    three modules they run through bind the members they use once, at
    import, and no function of theirs reads one through its class."""
    found = [
        f"{where} {read}"
        for where in HOT_MODULES
        for read in _enum_reads((PACKAGE / where).read_text(encoding="utf-8"))
    ]
    assert not found, found
    # The checker itself sees a read in a method, a nested function and
    # a lambda, and none at module level.
    assert sorted(
        _enum_reads(
            "_L = MessageKind.LOOKUP\n"
            "class C:\n"
            "    def f(self):\n"
            "        def g():\n"
            "            return DeliveryOutcome.DROPPED\n"
            "        return lambda: MessageKind.HEARTBEAT\n"
        )
    ) == [
        "f: DeliveryOutcome.DROPPED",
        "f: MessageKind.HEARTBEAT",
        "g: DeliveryOutcome.DROPPED",
        "lambda: MessageKind.HEARTBEAT",
    ]


def test_the_overlay_shape_is_one_field_of_one_ring_class() -> None:
    """A ReCord-style ring is ``ChordConfig.finger_arity`` above 2, not
    a second ring class behind a second pair of ``SpriteConfig``
    fields: nothing in ``src`` subclasses ``ChordRing``, and a field
    added to either config is a deliberate edit of this census."""
    from repro.config import ChordConfig, SpriteConfig

    subclasses = [
        f"{path.relative_to(PACKAGE)}:{node.name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(base).endswith("ChordRing") for base in node.bases)
    ]
    assert not subclasses
    assert len(dataclasses.fields(SpriteConfig)) == 12
    assert len(dataclasses.fields(ChordConfig)) == 6


def test_a_retrieval_system_is_one_class_and_its_policy_is_its_config() -> None:
    """eSearch, the full-index system and the index-everything
    strawman are values of ``SpriteConfig`` (``static_baseline``, a
    large ``initial_terms``), not classes: ``core/system.py`` defines
    one system, nothing in ``src`` subclasses it or hooks its first
    terms, and the baseline has no config class of its own."""
    from repro.config import ALL_CONFIG_TYPES, ExperimentConfig, SpriteConfig

    system = ast.parse((PACKAGE / "core" / "system.py").read_text(encoding="utf-8"))
    assert [n.name for n in system.body if isinstance(n, ast.ClassDef)] == ["SpriteSystem"]
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        where = path.relative_to(PACKAGE).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                ast.unparse(base).endswith("System") for base in node.bases
            ):
                found.append(f"{where}: class {node.name}({ast.unparse(node.bases[0])})")
            named = (
                getattr(node, "name", None)
                or getattr(node, "id", None)
                or getattr(node, "attr", None)
                or getattr(node, "arg", None)
            )
            if named in {"_first_terms", "first_terms_of", "ESearchConfig"}:
                found.append(f"{where}: names {named}")
    assert not found, found
    assert len(ALL_CONFIG_TYPES) == 7
    assert "esearch" not in {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert len(dataclasses.fields(SpriteConfig)) == 12


#: Modules under ``src/repro`` (path prefixes) that no entry point or
#: benchmark reaches, each with the reason it may stay.
UNREACHED = {
    "extensions/": "the paper's §7(a) remedy for maintenance-hot terms "
    "(HotTermAdvisor, with its priced ADVISE_HOT_TERM message); no figure "
    "or tracked cell reads it yet, so it earns one or goes",
}


def test_every_module_is_reached_from_an_entry_point_or_the_benchmark() -> None:
    """The surface rule: a module stays if the package, its CLI or a
    benchmark needs it.  Every module under ``src/repro`` must be reached,
    through imports at any depth, from ``repro``'s ``__init__``,
    ``__main__`` or ``cli``, or from a ``repro`` module that a file under
    ``bench/`` or ``benchmarks/`` imports; importing ``a.b.c`` runs ``a``
    and ``a.b`` too.  Every exception must still be needed."""
    where = {}
    for path in PACKAGE.rglob("*.py"):
        dotted = ".".join(("repro",) + path.relative_to(PACKAGE).with_suffix("").parts)
        where[dotted.removesuffix(".__init__")] = path
    todo = ["repro", "repro.__main__", "repro.cli"]
    for tree in ("bench", "benchmarks"):
        for path in (SRC.parent / tree).rglob("*.py"):
            todo += _repro_imports(path, path.relative_to(SRC.parent))
    reached: set = set()
    while todo:
        parts = todo.pop().split(".")
        for name in (".".join(parts[:end]) for end in range(1, len(parts) + 1)):
            if name in where and name not in reached:
                reached.add(name)
                todo += _repro_imports(where[name], where[name].relative_to(PACKAGE))
    unreached = {where[name].relative_to(PACKAGE).as_posix() for name in where.keys() - reached}
    excused = {path for path in unreached if path.startswith(tuple(UNREACHED))}
    assert unreached == excused, sorted(unreached - excused)
    assert all(any(path.startswith(prefix) for path in excused) for prefix in UNREACHED)
