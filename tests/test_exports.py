"""Every name that ``lefschetz`` exports is reached by something that states a claim.

The claims of the paper are stated by the CLI verbs, the library functions
between them, ``tests/test_acceptance.py`` and the benchmark in
``perfbench/``.  A name imported in ``src/lefschetz/__init__.py`` is
reached when it is

* a catalog class, which the parser reaches through ``varieties._KINDS``:
  a class of ``varieties.py`` that sets ``kind`` to a string;
* a ``Name`` loaded in its home module outside its own ``def`` or ``class``;
* imported by name in another module of ``src/lefschetz`` or in
  ``tests/test_acceptance.py``;
* read as ``lx.<name>`` in ``perfbench/*.py``.

The same holds for input formats: every ``from_json`` that a class of
``src/lefschetz`` defines is reached from a CLI verb, through calls of other
functions of the package and of other decoders.  Unreached writers, and any
other code that no claim runs, show in the line list of
``tests/unexecuted.py``.

The checks read the source with ``ast`` alone and import nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lefschetz"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _exports():
    """Name -> home module, for each name ``__init__.py`` imports from a module of the package."""
    return {
        alias.name: node.module
        for node in _tree(PACKAGE / "__init__.py").body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _catalog_classes():
    return {
        node.name
        for node in _tree(PACKAGE / "varieties.py").body
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "kind" for t in stmt.targets)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    }


def _loaded_outside_own_definition(tree, name):
    """Whether ``name`` is loaded anywhere in ``tree`` but inside its own def or class."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == name:
            continue
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            return True
        todo.extend(ast.iter_child_nodes(node))
    return False


def _imported_names(path):
    return {
        alias.name
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _perfbench_reads():
    return {
        node.attr
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "lx"
    }


def unreached_exports():
    """The exported names that nothing in the four places above reaches, sorted."""
    exports = _exports()
    catalog = _catalog_classes()
    homes = {module: _tree(PACKAGE / (module + ".py")) for module in set(exports.values())}
    imported = {
        module: _imported_names(path)
        for path in PACKAGE.glob("*.py")
        if (module := path.stem) != "__init__"
    }
    by_acceptance = _imported_names(ROOT / "tests" / "test_acceptance.py")
    by_perfbench = _perfbench_reads()
    return sorted(
        name
        for name, home in exports.items()
        if name not in catalog
        and not _loaded_outside_own_definition(homes[home], name)
        and not any(name in names for module, names in imported.items() if module != home)
        and name not in by_acceptance
        and name not in by_perfbench
    )


def test_every_export_is_reached():
    assert unreached_exports() == []


def test_the_rule_sees_each_kind_of_reach():
    assert _exports()["parse_expr"] == "exprlang"
    # one name reached in each of the four ways, and one not in the second
    assert "Projective" in _catalog_classes()
    assert _loaded_outside_own_definition(_tree(PACKAGE / "tate.py"), "InputError")
    assert not _loaded_outside_own_definition(_tree(PACKAGE / "tate.py"), "tensor")
    assert "tensor" in _imported_names(PACKAGE / "varieties.py")
    assert "canonical_unit_iso" in _imported_names(ROOT / "tests" / "test_acceptance.py")
    assert "decompose_via_orbit" in _perfbench_reads()


def _package_trees():
    return {path.stem: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}


def _verbs(cli):
    """The functions that ``build_parser`` hands to ``add`` as the verbs."""
    return {
        node.args[-1].id
        for node in ast.walk(cli)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "add"
        and node.args and isinstance(node.args[-1], ast.Name)
    }


def _decoder_owner(classes, name):
    """The class whose ``from_json`` a call ``name.from_json`` runs: ``name``, or its first base with one."""
    todo = [name]
    while todo:
        node = classes.get(todo.pop(0))
        if node is None:
            continue
        if any(isinstance(stmt, ast.FunctionDef) and stmt.name == "from_json" for stmt in node.body):
            return node.name
        todo.extend(base.id for base in node.bases if isinstance(base, ast.Name))
    return None


def unreached_decoders():
    """The classes of the package whose ``from_json`` no CLI verb reaches, sorted.

    From each verb, the walk follows a call of a module-level function of
    the package by name and a call ``C.from_json``, or ``cls.from_json``
    inside class C, into the ``from_json`` that C has or inherits.
    """
    trees = _package_trees()
    functions = {
        node.name: node for tree in trees.values() for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    classes = {node.name: node for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    decoders = {
        owner.name: stmt
        for owner in classes.values()
        for stmt in owner.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "from_json"
    }
    seen = set()
    todo = [(functions[name], None) for name in _verbs(trees["cli"])]
    while todo:
        fn, owner = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            call = node.func
            if isinstance(call, ast.Name) and call.id in functions:
                todo.append((functions[call.id], None))
            elif isinstance(call, ast.Attribute) and call.attr == "from_json" and isinstance(call.value, ast.Name):
                name = owner if call.value.id == "cls" else call.value.id
                found = _decoder_owner(classes, name)
                if found is not None:
                    todo.append((decoders[found], found))
    return sorted(name for name, fn in decoders.items() if fn not in seen)


def test_every_decoder_is_reached_from_a_verb():
    assert unreached_decoders() == []


def test_the_decoder_rule_sees_verbs_and_inherited_decoders():
    assert "cmd_sod_solve" in _verbs(_package_trees()["cli"])
    # a subclass's ``from_json`` is its base's
    tree = ast.parse("class A:\n    def from_json(cls): pass\nclass B(A): pass\nclass C: pass\n")
    classes = {node.name: node for node in tree.body}
    assert (_decoder_owner(classes, "A"), _decoder_owner(classes, "B")) == ("A", "A")
    assert _decoder_owner(classes, "C") is None
