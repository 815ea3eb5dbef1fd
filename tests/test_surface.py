"""Every public name of the library has a caller outside the test suite."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Public names whose only callers are tests.
ALLOWED_UNUSED = {
    "sufficient_condition",  # the paper's sufficient stability condition
    "necessary_condition",  # the paper's necessary stability condition
    "asymptotic_band_check",  # the paper's asymptotic bands, checked by simulation
    "exact_p_sigma_k3",  # the paper's exact three-node robustness probability
    "save_allocation",  # writes the allocation format that ``inspect --file`` reads
}


def _definitions(tree: ast.Module):
    """(name, statement) of each top-level public function, class and constant."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        yield from ((name, stmt) for name in names if not name.startswith("_"))


def _references(nodes) -> set[str]:
    """Every name read as a ``Name`` or an ``Attribute`` within the nodes."""
    walked = (node for top in nodes for node in ast.walk(top))
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in walked if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_name_has_a_non_test_caller():
    src = {p: ast.parse(p.read_text()) for p in sorted((ROOT / "src/storagebalance").glob("*.py"))}
    outside = [ast.parse(p.read_text())
               for folder in ("scripts", "perfbench") for p in (ROOT / folder).glob("*.py")]
    unused = []
    for path, tree in src.items():
        others = [t for p, t in src.items() if p != path and p.name != "__init__.py"]
        used = _references(others + outside) | ALLOWED_UNUSED
        for name, stmt in _definitions(tree):
            if name not in used | _references(s for s in tree.body if s is not stmt):
                unused.append(f"{path.name}:{name}")
    assert unused == [], f"public names only tests call: {unused}"


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that the module never reads, by line.

    A name listed in the module's ``__all__`` counts as read.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_every_imported_name_is_read():
    unread = {}
    for folder in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            names = _unread_imports(ast.parse(path.read_text()))
            if names:
                unread[str(path.relative_to(ROOT))] = names
    assert unread == {}, f"imported names never read: {unread}"
