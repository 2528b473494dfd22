"""Every function or class of the package, public or private, has a caller
outside the tests. A definition counts as used in three cases only: it is
imported, from its own module or from `iadt`; it is reached as an attribute
of a name bound to its module; or its bare name appears in its own module
where no enclosing function binds that name. The callers are the package's
modules, the demos and the benchmark harness; the package's `__init__`
re-exports do not count, since exporting a name is not using it. Every
public method and property of the package's own classes that have no base
class is likewise reached, as an attribute, outside the tests.

Likewise every parameter with a default is set by some call outside the
tests; a default that only tests override is an option nothing uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "iadt").glob("*.py") if p.name != "__init__.py")
CALLERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def definitions(path, private):
    """Names of the module-level private (or public) functions and classes in `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node.name for node in tree.body
            if isinstance(node, kinds) and node.name.startswith("_") == private]


def module_of(node):
    """The dotted name of the module a `from ... import` reads; a relative
    import is one from inside the package."""
    if node.level == 0:
        return node.module
    return ".".join(filter(None, ("iadt", node.module)))


def bound_modules(tree):
    """{name: dotted module name} of every name an `import` binds in `tree`."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    modules[alias.asname] = alias.name
                    continue
                # `import a.b` binds `a`, through which `a.b` is reached
                parts = alias.name.split(".")
                for i in range(1, len(parts) + 1):
                    modules[".".join(parts[:i])] = ".".join(parts[:i])
    return modules


def imports_and_attributes(path):
    """(module, name) of every `from <module> import <name>` in `path`, and of
    every `<m>.<name>` where an import binds `m` to `<module>`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, found = bound_modules(tree), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = module_of(node)
            for alias in node.names:
                found.add((module, alias.name))
                modules[alias.asname or alias.name] = f"{module}.{alias.name}"
    found |= {(modules[ast.unparse(node.value)], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules}
    return found


DEFINES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)  # a statement binding its name
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def scope_nodes(nodes):
    """`nodes` and all below them, except inside a nested function, lambda or
    class: the names bound there are its own."""
    for node in nodes:
        yield node
        if not isinstance(node, DEFINES + FUNCTIONS):
            yield from scope_nodes(ast.iter_child_nodes(node))


def function_bindings(node):
    """Every name a function or lambda binds: its parameters, and the names
    its body assigns, imports or defines."""
    args = node.args
    names = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {arg.arg for arg in (args.vararg, args.kwarg) if arg}
    for inner in scope_nodes(node.body if isinstance(node.body, list) else [node.body]):
        if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Store):
            names.add(inner.id)
        elif isinstance(inner, DEFINES):
            names.add(inner.name)
        elif isinstance(inner, ast.alias):
            names.add((inner.asname or inner.name).split(".")[0])
    return names


def free_names(path):
    """Every bare name `path` reads where no enclosing function binds it."""
    found = set()

    def visit(node, bound):
        if isinstance(node, FUNCTIONS):
            bound = bound | function_bindings(node)
        if isinstance(node, ast.Name) and node.id not in bound:
            found.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def unused_definitions(private):
    used = set().union(*(imports_and_attributes(path) for path in CALLERS))
    return [f"{path.stem}.{name}" for path in MODULES for name in definitions(path, private)
            if (f"iadt.{path.stem}", name) not in used and ("iadt", name) not in used
            and name not in free_names(path)]


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    assert MODULES and CALLERS
    assert unused_definitions(private=False) == []


def public_methods(path):
    """(class, name) of every public method and property of the module-level
    classes in `path` that have no base class. Dunders are left out, and so
    are classes with a base: their methods may override the base's protocol
    (`_Upto.readinto`), which the base calls, not the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    return [(node.name, item.name) for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.bases
            for item in node.body if isinstance(item, kinds) and not item.name.startswith("_")]


def referenced_attributes(paths):
    """Every attribute name, `<value>.<name>`, that appears in `paths`: a
    method or property is reached only so."""
    return {node.attr for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}


def test_every_public_method_and_property_has_a_caller_outside_the_tests():
    # A method that only tests call is an API nothing uses.
    assert any(public_methods(path) for path in MODULES)
    used = referenced_attributes(CALLERS)
    assert [f"{path.stem}.{cls}.{name}" for path in MODULES
            for cls, name in public_methods(path) if name not in used] == []


def test_every_private_function_and_class_has_a_caller_outside_the_tests():
    # A private helper that only its own tests call is dead code.
    assert sum(len(definitions(path, private=True)) for path in MODULES) > 0
    assert unused_definitions(private=True) == []


# (module, function, parameter) pairs whose only setters are tests, and why
# each is kept.
TEST_ONLY_PARAMETERS = {
    # the gradient tests use backward with recon_weight=0 as the reference
    # that classifier_backward must equal bit for bit
    ("network", "backward", "recon_weight"),
}


def defaulted_parameters(path):
    """(function, parameter, position, is a method) of every parameter with a
    default in `path`, nested functions and methods included. A positional
    parameter's position counts `self`; a keyword-only one has None. A
    class's `__init__` is listed under the class's name, as it is called."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods[item] = node.name if item.name == "__init__" else item.name
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = methods.get(node, node.name)
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        found += [(name, positional[i].arg, i, node in methods)
                  for i in range(first, len(positional))]
        found += [(name, arg.arg, None, node in methods)
                  for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]
    return found


def calls(paths):
    """{callee name: [(positional count, keywords)]} of every call in
    `paths`; a `*args` counts as every position and a `**kwargs` (keywords
    None) as every keyword."""
    found = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {kw.arg for kw in node.keywords}
            found.setdefault(name, []).append(
                (float("inf") if starred else len(node.args),
                 None if None in keywords else keywords))
    return found


def unset_parameters():
    """(module, function, parameter) of every defaulted parameter that no
    call outside the tests sets."""
    sites = calls(CALLERS)

    def is_set(name, param, position, method):
        for count, keywords in sites.get(name, ()):
            if keywords is None or param in keywords:
                return True
            # a method's call passes `self` before its positional arguments
            if position is not None and position < count + method:
                return True
        return False

    return {(path.stem, name, param) for path in MODULES
            for name, param, position, method in defaulted_parameters(path)
            if not is_set(name, param, position, method)}


def parameters_only_tests_set():
    return sorted(f"{module}.{name}({param})" for module, name, param in unset_parameters()
                  if (module, name, param) not in TEST_ONLY_PARAMETERS)


def test_every_defaulted_parameter_is_set_outside_the_tests():
    assert any(defaulted_parameters(path) for path in MODULES)
    assert parameters_only_tests_set() == []


def test_every_exemption_names_a_parameter_only_tests_set():
    # An exemption whose parameter is gone, lost its default or is now set
    # outside the tests is stale.
    assert sorted(TEST_ONLY_PARAMETERS - unset_parameters()) == []


# `<module>.<name>` references the guard below allows: names with a leading
# underscore that their module documents as public.
DOCUMENTED_PRIVATE_NAMES = {
    "os._exit",  # the documented way for a forked child to leave without cleanup
}


def private_references(path):
    """Every private name that `path` reaches through an absolute import: `<m>._<name>` where `import m` (or `import m as
    alias`) binds `m`, and `from m import _<name>`; each as `m._<name>`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = bound_modules(tree)  # the name an import binds -> the module's dotted name
    found = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 0
             for alias in node.names if _is_private(alias.name)]
    found += [f"{modules[ast.unparse(node.value)]}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and _is_private(node.attr)
              and ast.unparse(node.value) in modules]
    return found


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_module_refers_to_private_names_of_imported_modules():
    # A private name (argparse's `_SubParsersAction`, say) may change or go
    # in any Python release the package supports.
    found = {f"{path.stem}: {name}" for path in MODULES for name in private_references(path)
             if name not in DOCUMENTED_PRIVATE_NAMES}
    assert sorted(found) == []


def test_every_documented_private_name_is_referred_to():
    # an allowance that no module uses any more is stale
    used = {name for path in MODULES for name in private_references(path)}
    assert DOCUMENTED_PRIVATE_NAMES <= used


# The process calls that only the fork module may make: a child started,
# signalled, reaped or left, and the pipe it sends through.
PROCESS_CALLS = {"fork", "pipe", "kill", "waitpid", "waitstatus_to_exitcode", "_exit"}


def process_primitives(path):
    """Every `os.<call>` of PROCESS_CALLS in `path`, through `import os` (as
    any name) or `from os import`, and every import of `signal`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    os_names = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names if alias.name == "os"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name == "signal"]
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", "signal"):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if node.module == "signal" or alias.name in PROCESS_CALLS]
        elif (isinstance(node, ast.Attribute) and node.attr in PROCESS_CALLS
              and ast.unparse(node.value) in os_names):
            found.append(f"os.{node.attr}")
    return found


def test_only_the_fork_module_forks():
    # One module owns the child: fork, pipe, kill, reap and exit stay in one
    # place that every caller (the CSV writer and reader today) shares.
    package = sorted((ROOT / "src" / "iadt").glob("*.py"))
    found = {f"{path.stem}: {name}" for path in package if path.stem != "_fork"
             for name in process_primitives(path)}
    assert sorted(found) == []
    assert set(process_primitives(ROOT / "src" / "iadt" / "_fork.py")) == {
        "signal", *(f"os.{call}" for call in PROCESS_CALLS)}


# What starts a thread: `threading`'s classes, and the modules below it or
# beside it that start one.
THREAD_CLASSES = {"Thread", "Timer"}
THREAD_MODULES = ("_thread", "concurrent.futures")


def thread_primitives(path):
    """Every `threading.<class>` of THREAD_CLASSES in `path`, through `import
    threading` (as any name) or `from threading import`, and every import
    from THREAD_MODULES."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    threading_names = {alias.asname or alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.Import) for alias in node.names
                       if alias.name == "threading"}

    def starter_module(name):
        return any(name == m or name.startswith(m + ".") for m in THREAD_MODULES)

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if starter_module(alias.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if (node.module == "threading" and alias.name in THREAD_CLASSES)
                      or starter_module(f"{node.module}.{alias.name}")]
        elif (isinstance(node, ast.Attribute) and node.attr in THREAD_CLASSES
              and ast.unparse(node.value) in threading_names):
            found.append(f"threading.{node.attr}")
    return found


def test_only_the_data_module_starts_a_thread():
    # `_fork.can_fork` refuses a fork while another thread runs, so a thread
    # has one owner that joins it before any fork: `data`, whose helper
    # thread scans a large CSV while its cache entry is read.
    package = sorted((ROOT / "src" / "iadt").glob("*.py"))
    found = {f"{path.stem}: {name}" for path in package if path.stem != "data"
             for name in thread_primitives(path)}
    assert sorted(found) == []
    assert thread_primitives(ROOT / "src" / "iadt" / "data.py") == ["threading.Thread"]


def repr_maps(tree):
    """Every `map(repr, ...)` call in `tree`, as source text."""
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "map" and node.args and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "repr"]


def test_only_the_float_text_module_formats_floats_with_repr():
    # Every float a CSV writer writes goes through `_floattext.rows`, which
    # equals repr's text at a fraction of its cost; a writer that maps repr
    # over its values would format floats around it. The kernel itself maps
    # repr over a chunk that is mostly values only repr formats.
    package = sorted((ROOT / "src" / "iadt").glob("*.py"))
    found = {f"{path.stem}: {call}" for path in package
             for call in repr_maps(ast.parse(path.read_text(encoding="utf-8")))}
    assert sorted(found) == ["_floattext: map(repr, row)"]


# The calls that store a file atomically: a temporary file beside the
# target, then a rename over it.
STORE_CALLS = {"tempfile.mkstemp", "os.replace"}


def store_primitives(path):
    """Every call of STORE_CALLS in `path`, through `import tempfile` or
    `import os` (as any name) or `from tempfile import` / `from os import`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names
             if alias.name in ("os", "tempfile")}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("os", "tempfile"):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if f"{node.module}.{alias.name}" in STORE_CALLS]
        elif (isinstance(node, ast.Attribute) and ast.unparse(node.value) in names
              and f"{names[ast.unparse(node.value)]}.{node.attr}" in STORE_CALLS):
            found.append(f"{names[ast.unparse(node.value)]}.{node.attr}")
    return found


def test_only_the_cache_module_stores_files_atomically():
    # Every cache entry, of a CSV or of a model, is written by `_cache.store`
    # through one temporary file and one rename, after one key re-check.
    package = sorted((ROOT / "src" / "iadt").glob("*.py"))
    found = {f"{path.stem}: {name}" for path in package if path.stem != "_cache"
             for name in store_primitives(path)}
    assert sorted(found) == []
    assert sorted(store_primitives(ROOT / "src" / "iadt" / "_cache.py")) == sorted(STORE_CALLS)
