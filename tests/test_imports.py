"""numpy is the package's only runtime dependency outside the standard
library; matplotlib is imported lazily, for --plot only. Every function
at module level, and every method and property of a class at module level
other than the dunders, is referred to in the package, or listed with its
reason."""

import ast
import sys
from collections import Counter
from pathlib import Path

import cayleyprop

PACKAGE_DIR = Path(cayleyprop.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "cayleyprop"}
LAZY = {"matplotlib": ("cli", "_matplotlib")}


def _imports(node, func=None):
    """(top-level module, enclosing function or None) for every absolute
    import in the tree; relative imports are the package itself."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imports(child, child.name)
            continue
        if isinstance(child, ast.Import):
            for alias in child.names:
                yield alias.name.split(".")[0], func
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield child.module.split(".")[0], func
        yield from _imports(child, func)


def test_runtime_imports_are_stdlib_numpy_or_the_package():
    seen, offenders = set(), []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for module, func in _imports(ast.parse(path.read_text())):
            seen.add(module)
            if module in ALLOWED or LAZY.get(module) == (path.stem, func):
                continue
            offenders.append(f"{path.name}: {module} (in {func or 'module scope'})")
    assert offenders == []
    # the walk reaches imports nested in functions as well
    assert {"numpy", "matplotlib"} <= seen


# Functions, methods and properties that nothing in the package refers to,
# each with the reason it stays in the package rather than in
# tests/oracles.py.
UNREFERENCED = {
    "propagation.extend_features": "perfbench/spans.py wraps it by name (ROADMAP item 1b)",
    "graphcore.UGraph.bfs_distances": "perfbench/spans.py wraps it by name (ROADMAP item 1b)",
    "nn.relu_kink_margin": "train --trace is to report it (ROADMAP item 6)",
    "spectral.dirichlet_energy": "train --trace is to report it (ROADMAP item 6)",
}


def _references(tree) -> Counter:
    """How often each name, attribute and import alias occurs in the tree."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def _definitions(tree):
    """(dotted name, def) of every function at module level and of every
    method and property, dunders aside, of a class at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member


def test_every_package_function_is_referred_to_in_the_package():
    # A function, method or property only tests use belongs in
    # tests/oracles.py. A method counts as referred to when any attribute of
    # its name is, on whatever object.
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE_DIR.glob("*.py")}
    everywhere = sum(map(_references, trees.values()), Counter())
    unreferenced = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        # a reference inside the function's own def is not a caller
        if everywhere[node.name] == _references(node)[node.name]
    ]
    assert sorted(unreferenced) == sorted(UNREFERENCED)
