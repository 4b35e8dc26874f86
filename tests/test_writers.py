"""Every file the package writes goes through cayley.write_atomic, so a crash
never leaves a torn output. The --plot SVGs, written by matplotlib's
savefig, are outside this check."""

import ast
from pathlib import Path

import cayleyprop

PACKAGE_DIR = Path(cayleyprop.__file__).parent
WRITER = ("cayley", "write_atomic")


def _is_write_mode(node) -> bool:
    if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
        return False
    mode = set(node.value)
    return bool(mode) and mode <= set("rwaxbt+") and bool(mode & set("wax+"))


def _writes(node, func=None):
    """(enclosing function or None, what) for every call in the tree that
    writes a file: write_text, write_bytes, or an open-like call given a
    write, append, exclusive-create or update mode."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _writes(child, child.name)
            continue
        if isinstance(child, ast.Call):
            f = child.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in ("write_text", "write_bytes"):
                yield func, name
            elif name in ("open", "fdopen"):
                modes = child.args[:2] + [k.value for k in child.keywords if k.arg == "mode"]
                if any(_is_write_mode(m) for m in modes):
                    yield func, name
        yield from _writes(child, func)


def test_files_are_written_only_by_write_atomic():
    allowed, offenders = [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for func, what in _writes(ast.parse(path.read_text())):
            if (path.stem, func) == WRITER:
                allowed.append(what)
            else:
                offenders.append(f"{path.name}: {what} (in {func or 'module scope'})")
    assert offenders == []
    # the walk reaches the one writer's own open
    assert allowed == ["fdopen"]
