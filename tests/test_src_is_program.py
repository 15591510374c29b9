"""``src/dialab`` holds only the program: every function, method and class
it defines, and every name a module assigns at its top level, is used
somewhere in ``src/dialab`` itself, every attribute it writes is read
there, and every name a module imports is read in that module.

A definition counts as used when some ``Name`` read, ``Attribute`` or
import in the package names it; the search goes by name, so a method
shares its use with any other attribute of that name. An import counts
as read when a ``Name`` read in its module, or its module's ``__all__``,
names it. An attribute counts as read when the package loads an
``Attribute`` of its name; ``x.n += 1`` only writes ``n``. Code that only
tests call belongs in ``tests/`` (the test oracles are in
``tests/reference.py``).
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "dialab")

# used outside src/dialab only, each pinned by a benchmark hook
ALLOWED = {
    "generate_corpus": "perfbench/workload.py builds the tda2c corpus with "
                       "it, and perfbench/spans.py times it",
    "load_corpus": "perfbench/spans.py times it as corpus.io",
}

# written by src/dialab and read by tests only, until the learner-health
# record of ROADMAP's observability item reads them
UNREAD_ALLOWED = {
    "last_loss": "QAgent's latest replay loss",
    "last_value_loss": "ActorCriticAgent's latest critic loss",
    "clamp_count": "ActorCriticAgent's count of clamped cross-entropy "
                   "gradients",
}


def _trees():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path) as fh:
                yield name, ast.parse(fh.read(), path)


def _module_names(tree):
    """The names a module assigns at its top level, with their lines."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node.lineno


def unused_definitions() -> dict:
    """Each non-dunder definition or module-level name no name in the
    package uses, by name, with the file and line that define it."""
    defined, used = {}, set()
    for name, tree in _trees():
        for k, line in _module_names(tree):
            defined.setdefault(k, f"{name}:{line}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.setdefault(node.name, f"{name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.split(".")[-1] for alias in node.names)
    return {k: where for k, where in defined.items()
            if k not in used and not (k.startswith("__")
                                      and k.endswith("__"))}


def test_every_definition_in_src_is_used_by_src():
    unused = {k: where for k, where in unused_definitions().items()
              if k not in ALLOWED}
    assert not unused, (f"defined in src/dialab but used by no code there: "
                        f"{unused}; move test-only code into tests/")


def test_every_allowed_name_is_still_defined_and_unused():
    assert set(ALLOWED) <= set(unused_definitions())


def unread_imports() -> list:
    """Each name a module binds by an import (``__future__``'s aside) and
    reads nowhere in that module, as ``file:line name``."""
    unread = []
    for name, tree in _trees():
        imported, read = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = f"{name}:{node.lineno}"
            elif isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                               ast.Store):
                read.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and [ast.unparse(t) for t in node.targets] == ["__all__"]):
                read.update(ast.literal_eval(node.value))
        unread += [f"{where} {k}" for k, where in imported.items()
                   if k not in read]
    return unread


def test_every_import_in_src_is_read():
    unread = unread_imports()
    assert not unread, (f"imported in src/dialab but never read there: "
                        f"{unread}")


def unread_attributes() -> dict:
    """Each attribute name the package writes and never loads, with the
    file and line of its first write."""
    written, read = {}, set()
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    written.setdefault(node.attr, f"{name}:{node.lineno}")
                else:
                    read.add(node.attr)
    return {k: where for k, where in written.items() if k not in read}


def test_every_attribute_src_writes_is_read_by_src():
    unread = {k: where for k, where in unread_attributes().items()
              if k not in UNREAD_ALLOWED}
    assert not unread, (f"written in src/dialab but read by no code there: "
                        f"{unread}")


def test_every_allowed_attribute_is_still_written_and_unread():
    assert set(UNREAD_ALLOWED) <= set(unread_attributes())
