"""``src/dialab`` holds only the program: every function, method and class
it defines, and every name a module assigns at its top level, is used
somewhere in ``src/dialab`` itself.

A definition counts as used when some ``Name`` read, ``Attribute`` or
import in the package names it; the search goes by name, so a method
shares its use with any other attribute of that name. Code that only
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
