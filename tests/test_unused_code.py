"""The package keeps only what its commands and the benchmark run: every public
function, class and method of ``src/dirlink`` and ``perfbench``, every
private module-level function and class, and every module-level assigned
name but the dunders, is read somewhere in those two trees.  Code that only
tests call belongs in ``tests/``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# public names that no command runs, each with the reason it stays
ALLOWED = {
    # reads the files `dirlink split` writes; the golden split test
    # round-trips every split through it
    "load_split",
}


def _files():
    return [*sorted((ROOT / "src" / "dirlink").glob("*.py")),
            *sorted((ROOT / "perfbench").glob("*.py"))]


def _assigned(node):
    """The names a module-level statement assigns, tuple targets included."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]


def _unused_names(private=False):
    """Defined names that nothing in the two trees reads: the public functions,
    classes, methods and module-level assigned names, or with ``private`` the
    module-level functions, classes and assigned names whose names start with
    an underscore.  Dunders such as ``__all__`` are left out."""
    defined, used = {}, set()
    for path in _files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private):
                defined[node.name] = path.name
            defined.update((name, path.name) for name in _assigned(node)
                           if name.startswith("_") == private
                           and not (name.startswith("__") and name.endswith("__")))
            if isinstance(node, ast.ClassDef) and not private:
                defined.update((item.name, f"{path.name}: {node.name}") for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
            elif (path.parent.name == "perfbench" and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                # spans.TARGETS names the functions it patches as strings
                used.add(node.value)
    return {name: where for name, where in defined.items() if name not in used}


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    unused = _unused_names()
    assert set(ALLOWED) <= set(unused), "an allowed name is used now; drop it from ALLOWED"
    assert {k: v for k, v in unused.items() if k not in ALLOWED} == {}


def test_every_private_module_function_and_class_is_referenced():
    assert _unused_names(private=True) == {}


def _imported(tree):
    """The dotted names a module imports, ``from a import b`` as a.b."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_only_graph_imports_the_private_sparse_kernels():
    """``graph.spmm`` calls scipy's private ``_sparsetools`` kernels, for the
    ``out=`` that scipy's ``@`` lacks; every other product goes through ``@``."""
    importers = {path.relative_to(ROOT).as_posix() for path in _files()
                 if any(name.startswith("scipy.sparse._sparsetools")
                        for name in _imported(ast.parse(path.read_text(encoding="utf-8"))))}
    assert importers == {"src/dirlink/graph.py"}
