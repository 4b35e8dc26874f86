"""numpy is the package's only runtime dependency outside the standard
library; matplotlib is imported lazily, for --plot only."""

import ast
import sys
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
