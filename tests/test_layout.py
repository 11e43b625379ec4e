"""Layout rules of the source tree that no behavioural test sees."""

import ast
from collections import Counter
from pathlib import Path

import bringcover
from bringcover.cli import _TRACKING_FLAGS
from bringcover.tracking import TrackingConfig

SRC = Path(bringcover.__file__).parent
LAYERS = {path.stem for path in SRC.glob("*.py")}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


# namedtuple's public methods, underscored only to keep clear of field
# names; a value type that overrides one is called through namedtuple
NAMEDTUPLE_API = ("_make", "_replace", "_asdict")


def _is_private(name):
    return (name.startswith("_") and not name.endswith("__")
            and name not in NAMEDTUPLE_API)


def _references(node):
    """Every name a subtree reads: bare names, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def test_private_helpers_have_callers():
    trees = _trees()
    total = Counter(name for tree in trees.values()
                    for name in _references(tree))
    defs = []
    for fname, tree in trees.items():
        for node in tree.body:
            if isinstance(node, DEFS) and _is_private(node.name):
                defs.append((fname, node))
            if isinstance(node, ast.ClassDef):
                defs.extend((fname, m) for m in node.body
                            if isinstance(m, DEFS) and _is_private(m.name))
    assert defs, "no private helpers found: the scan is broken"
    # a reference inside the helper's own body (recursion) is no caller
    uncalled = [f"{fname}:{node.lineno} {node.name}"
                for fname, node in defs
                if total[node.name]
                == sum(n == node.name for n in _references(node))]
    assert uncalled == []


# public names no code in src/ calls, kept only because the benchmark's
# tracer (perfbench/tracer.py) wraps them by name in its SPANS, and its
# selftest requires their spans
TRACED_ONLY = ("dessins.py automorphism_group", "dessins.py acts_freely")


def _module_references(node):
    """The names a subtree reads as module-level objects: bare names,
    imports, and attributes of a package module (``cells.polygon``); an
    attribute of any other object, such as a field, is no caller."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif (isinstance(sub, ast.Attribute)
              and isinstance(sub.value, ast.Name) and sub.value.id in LAYERS):
            yield sub.attr


def _is_check(node):
    # @check(...) registers the function in the check registry
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", "") == "check"
               for d in node.decorator_list)


def _uncalled_public(trees):
    """``file name`` of each public function, class or method that no code
    in ``trees`` references outside its own body, in file order."""
    functions, methods = [], []
    for fname, tree in trees.items():
        for node in tree.body:
            if isinstance(node, DEFS) and not node.name.startswith("_"):
                functions.append((fname, node))
            if isinstance(node, ast.ClassDef):
                methods.extend((fname, m) for m in node.body
                               if isinstance(m, DEFS)
                               and not m.name.startswith("_"))
    uncalled = []
    for defs, refs in ((functions, _module_references),
                       (methods, _references)):
        total = Counter(name for tree in trees.values()
                        for name in refs(tree))
        uncalled += [(fname, node) for fname, node in defs
                     if not _is_check(node) and total[node.name]
                     == sum(n == node.name for n in refs(node))]
    return [f"{fname} {node.name}"
            for fname, node in sorted(uncalled,
                                      key=lambda d: (d[0], d[1].lineno))]


def test_public_names_have_callers():
    # src/ holds what the verdict and the CLI reach; a reader or oracle
    # that only the tests call lives under tests/
    assert _uncalled_public(_trees()) == list(TRACED_ONLY)


def test_public_census_sees_a_new_uncalled_name():
    trees = _trees()
    trees["extra.py"] = ast.parse(
        "class Reader:\n"
        "    def read_back(self):\n"
        "        return self.read_back()\n"
        "def helper():\n"
        "    return helper()\n")
    assert _uncalled_public(trees) == [*TRACED_ONLY, "extra.py Reader",
                                       "extra.py read_back", "extra.py helper"]


def test_uncalled_public_names_are_traced_spans():
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(
                node.targets[0], "id", "") == "SPANS":
            spans = ast.literal_eval(node.value)
    assert all(name in spans[fname[:-3]]
               for fname, name in map(str.split, TRACED_ONLY))


def test_no_module_imports_a_private_name_of_another():
    # a name one layer takes from another is that layer's public API, so
    # its home can change it without reading every importer
    imported, private = 0, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.startswith("bringcover")):
                imported += 1
                private += (f"{path.name}: {alias.name}"
                            for alias in node.names if _is_private(alias.name))
    assert imported, "no package imports found: the scan is broken"
    assert private == []


def test_lazy_table_is_the_public_api():
    # the package resolves exactly its public names, each from the layer
    # that defines it, so the census of public names covers __all__
    assert bringcover.__all__ == sorted(bringcover._HOMES)
    defined = {(fname[:-3], node.name) for fname, tree in _trees().items()
               for node in tree.body if isinstance(node, DEFS)}
    assert {(home, name) for name, home in bringcover._HOMES.items()} \
        <= defined


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _importers(module):
    return sorted(path.name for path in SRC.glob("*.py")
                  if module in _imported_modules(ast.parse(path.read_text())))


def test_only_config_modules_import_dataclasses():
    # the value types and the tracking configs are namedtuples, which
    # generate no code at import; dataclasses stays with CheckDef, which
    # perfbench's tracer rebuilds by dataclasses.replace
    assert _importers("dataclasses") == ["verify.py"]


def test_no_module_imports_typing():
    # typing costs a cold process milliseconds to import; the value types
    # are collections.namedtuple subclasses instead of typing.NamedTuple
    assert _importers("typing") == []


def test_cli_takes_only_the_config_from_tracking():
    # the rule for a loop geometry that can be tracked lives in
    # TrackingConfig; the CLI builds one and reports what it raises, and
    # reads only the default steps for its help text and MAX_STEPS, its
    # bound on --steps, which a config cannot hold: the doubling row's
    # config at twice the steps is a config too
    taken = []
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".tracking", "bringcover.tracking"):
                taken += (alias.name for alias in node.names)
            elif module in (".", "bringcover"):
                assert "tracking" not in (a.name for a in node.names)
        elif isinstance(node, ast.Import):
            assert "bringcover.tracking" not in (a.name for a in node.names)
    assert sorted(taken) == ["DEFAULT_STEPS", "MAX_STEPS", "TrackingConfig",
                             "TrackingError"]


def _module_level_layers(fname):
    """The package modules a source file imports at module level."""
    layers = set()
    for node in ast.parse((SRC / fname).read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                layers.add(node.module.split(".")[0])
            else:   # from . import a, b: the names that are modules
                layers.update(a.name for a in node.names
                              if (SRC / f"{a.name}.py").is_file())
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else [node.module])
            layers.update(n.split(".")[1] for n in names
                          if n.startswith("bringcover."))
    return layers


def test_cli_imports_a_layer_where_a_command_needs_it():
    # an export of I4, the union or J must not load cells, cover, the
    # monodromy or the check registry
    assert _module_level_layers("cli.py") == {"context", "tracking"}


def test_context_imports_each_layer_at_its_build():
    assert _module_level_layers("context.py") == {"tracking"}
    # the scan sees the layers verify imports at module level
    assert {"cells", "context", "monodromy"} <= _module_level_layers(
        "verify.py")


def test_only_monodromy_forks():
    # monodromy_triple reaps its children before it returns or raises; a
    # fork anywhere else would need the same care
    forking = sorted(path.name for path in SRC.glob("*.py")
                     if "fork" in _references(ast.parse(path.read_text())))
    assert forking == ["monodromy.py"]


def test_no_module_imports_process_pools_or_pickle():
    # a forked loop sends its result through a pipe with marshal: the
    # cold imports of these cost a run milliseconds, and subprocess would
    # start a fresh interpreter
    banned = {"multiprocessing", "concurrent", "pickle", "subprocess"}
    found = sorted((path.name, name) for path in SRC.glob("*.py")
                   for name in _imported_modules(ast.parse(path.read_text()))
                   if name.split(".")[0] in banned)
    assert found == []


def test_every_tracking_field_but_the_branch_is_a_flag():
    # a field no flag sets is a knob only tests turn; the fourth-root branch
    # of b(t) stays one, swept by the tests to show the triples conjugate
    assert set(TrackingConfig._fields) - {"branch"} == set(_TRACKING_FLAGS)
