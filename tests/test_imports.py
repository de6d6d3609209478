"""Static checks: every name a module of the package imports is used in it,
every private module-level name is referenced somewhere in the package,
every function the benchmark wraps exists, and the solver's duality-gap
target is read in one place and passed to no function.

Package __init__ modules are exempt from the import check, since their
imports are re-exports."""

import ast
import importlib
from pathlib import Path

import ellest

PACKAGE = Path(ellest.__file__).parent
PERFBENCH_WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _private_definitions(tree: ast.Module) -> list[tuple[int, str]]:
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        out += [(node.lineno, n) for n in names if n.startswith("_") and not n.startswith("__")]
    return out


def test_no_unreferenced_private_names():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.rglob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    dead = [f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
            for path, tree in trees.items()
            for line, name in _private_definitions(tree) if name not in referenced]
    assert not dead, "unreferenced private names:\n" + "\n".join(dead)


def _perfbench_layers() -> tuple:
    tree = ast.parse(PERFBENCH_WORKER.read_text(), filename=str(PERFBENCH_WORKER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{PERFBENCH_WORKER} defines no LAYERS")


def test_perfbench_layers_resolve():
    # perfbench reads a layer whose function it cannot find as 0 seconds
    layers = _perfbench_layers()
    assert layers
    missing = []
    for modname, attr, _ in layers:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{modname}.{attr}")
    assert not missing, "perfbench layers missing from ellest:\n" + "\n".join(missing)
    # the KKT factor and solve spans wrap these two calls through ipm's scipy global
    source = (PACKAGE / "solver" / "ipm.py").read_text()
    assert "scipy.linalg.lu_factor(" in source and "scipy.linalg.lu_solve(" in source


def _docstrings(tree: ast.Module) -> set:
    nodes = [tree] + [n for n in ast.walk(tree) if isinstance(
        n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return {id(n.body[0].value) for n in nodes
            if n.body and isinstance(n.body[0], ast.Expr)
            and isinstance(n.body[0].value, ast.Constant)}


def test_one_solver_tolerance():
    # ESTIMATOR_SOLVER_TOL is read by solver.ipm.gap_tolerance alone, and no
    # function takes the target as a tol_gap parameter
    params, readers = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = str(path.relative_to(PACKAGE.parent))
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                if "tol_gap" in names:
                    params.append(f"{rel}:{node.lineno}")
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "ESTIMATOR_SOLVER_TOL" in node.value and id(node) not in docs):
                readers.add(rel)
    assert not params, "functions with a tol_gap parameter:\n" + "\n".join(params)
    assert len(readers) <= 1, f"ESTIMATOR_SOLVER_TOL read in {sorted(readers)}"
