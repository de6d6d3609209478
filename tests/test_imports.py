"""Static checks: every name a module of the package imports is used in it,
every private module-level name is referenced somewhere in the package,
every function the benchmark wraps exists, the solver's duality-gap target
is read in one place and passed to no function, and only the solver names
a scipy submodule, never in a module-level import. One run in a fresh
interpreter checks that importing the package and its CLI leaves
multiprocessing unloaded, and that every CLI command, the refined lower
bounds and their Chernoff tail included, leaves scipy.optimize and
scipy.special unloaded; another that the package and the commands that
solve no conic program leave scipy.linalg and scipy.sparse unloaded, and
that the first conic solve loads both.

Package __init__ modules are exempt from the import check, since their
imports are re-exports."""

import ast
import importlib
import os
import subprocess
import sys
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


def _scipy_submodule_uses(tree: ast.Module) -> list[tuple[int, str, bool]]:
    """(line, name, at import time) of each scipy submodule the module names:
    in an import statement, or as an attribute of the scipy module. An
    import outside every function runs at import time."""
    deferred = {id(n) for f in ast.walk(tree)
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                for n in ast.walk(f) if n is not f}
    aliases = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
               for a in n.names if a.name == "scipy"}
    out = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("scipy.")]
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            names = [f"scipy.{a.name}" for a in node.names if a.name != "__version__"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy."):
            names = [node.module]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and node.attr != "__version__"):
            names = [f"scipy.{node.attr}"]
        at_import = isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in deferred
        out += [(node.lineno, name, at_import) for name in names]
    return out


def test_scipy_submodules_load_at_the_first_conic_solve():
    # scipy loads a submodule on first attribute access, so the solver's
    # scipy.linalg and scipy.sparse cost nothing until a conic program is
    # solved; outside the solver only scipy.__version__ is read
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE.parent)
        in_solver = rel.parts[1] == "solver"
        for line, name, at_import in _scipy_submodule_uses(ast.parse(path.read_text())):
            if at_import or not in_solver:
                found.append(f"{rel}:{line}: {name}")
    assert not found, "scipy submodules named outside a conic solve:\n" + "\n".join(found)


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


_COLD_START = """
import sys
import numpy as np
import ellest, ellest.cli
from ellest import Ellitope, io
# only a suboptimality sweep that forks its workers loads multiprocessing
assert "multiprocessing" not in sys.modules, "import ellest loads multiprocessing"

rng = np.random.default_rng(5)
io.write_matrix("A.csv", rng.normal(size=(3, 3)))
io.write_matrix("B.csv", rng.normal(size=(2, 3)))
io.write_matrix("E.csv", 0.2 * np.ones((2, 5)))
io.write_matrix("F.csv", 0.2 * np.ones((2, 3)))
io.write_matrix("C.csv", -np.eye(3))
io.write_ellitope("ell.json", Ellitope.ellipsoid(np.diag([1.0, 2.0, 3.0])))
io.write_ellitope("box.json", Ellitope.coordinate_box(np.ones(3)))
loaded = {"import": [m for m in ("scipy.optimize", "scipy.special") if m in sys.modules]}
problem = ["A.csv", "B.csv", "ell.json", "--sigma", "0.5"]
for label, argv in (
        ("estimate", ["estimate", *problem, "--report", "e.json"]),
        ("robust", ["robust", "A.csv", "B.csv", "ell.json", "E.csv", "F.csv", "--sigma", "0.5",
                    "--radius", "0.3", "--report", "r.json"]),
        ("srisk", ["srisk", "A.csv", "B.csv", "--sigma", "0.5", "--optimize-S",
                   "--report", "s.json"]),
        ("sdprelax", ["sdprelax", "C.csv", "box.json", "--report", "q.json"]),
        ("pendulum", ["experiment", "pendulum", "--horizon", "2", "--out", "pend",
                      "--report", "p.json"]),
        ("contraction", ["lower-bound", *problem, "--method", "contraction",
                         "--report", "lc.json"]),
        ("quadratic_approx", ["lower-bound", *problem, "--method", "quadratic_approx",
                              "--report", "lq.json"]),
        ("ellipsoid", ["experiment", "ellipsoid", "--n", "3", "--refine-deltas", "0.003",
                       "--out", "ell", "--report", "x.json"])):
    assert ellest.cli.main(argv) == 0, argv
    loaded[label] = [m for m in ("scipy.optimize", "scipy.special") if m in sys.modules]
print(loaded)
"""


def test_cli_commands_leave_scipy_optimize_and_special_unloaded(tmp_path):
    # Phi and its inverse come from the standard library, and the Chernoff
    # tail of the contraction and quadratic-approximation bounds finds its
    # root by bisection: no command needs scipy.optimize or scipy.special
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", _COLD_START], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    loaded = ast.literal_eval(run.stdout.strip().splitlines()[-1])
    assert set(loaded) == {"import", "estimate", "robust", "srisk", "sdprelax", "pendulum",
                           "contraction", "quadratic_approx", "ellipsoid"}
    assert all(mods == [] for mods in loaded.values()), loaded


_NUMPY_ONLY = """
import sys
import numpy as np
import ellest, ellest.cli
from ellest import Ellitope, io

def loaded():
    return [m for m in ("scipy.linalg", "scipy.sparse") if m in sys.modules]

rng = np.random.default_rng(5)
io.write_matrix("A.csv", rng.normal(size=(3, 3)))
io.write_matrix("B.csv", rng.normal(size=(2, 3)))
io.write_ellitope("ell.json", Ellitope.ellipsoid(np.diag([1.0, 2.0, 3.0])))
io.write_ellitope("box.json", Ellitope.coordinate_box(np.ones(3)))
out = {"import": loaded()}
for label, argv in (
        ("pendulum", ["experiment", "pendulum", "--horizon", "2", "--out", "pend",
                      "--report", "p.json"]),
        ("estimate", ["estimate", "A.csv", "B.csv", "ell.json", "--sigma", "0.5",
                      "--report", "e.json"]),
        ("srisk", ["srisk", "A.csv", "B.csv", "--sigma", "0.5", "--optimize-S",
                   "--report", "s.json"]),
        ("box", ["estimate", "A.csv", "B.csv", "box.json", "--sigma", "0.5",
                 "--report", "b.json"])):
    assert ellest.cli.main(argv) == 0, argv
    out[label] = loaded()
print(out)
"""


def test_one_ellipsoid_commands_leave_the_solver_stack_unloaded(tmp_path):
    # the pendulum study, a design on an ellipsoid and the S optimization run
    # on numpy alone; the box design is a conic solve and loads both
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", _NUMPY_ONLY], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    loaded = ast.literal_eval(run.stdout.strip().splitlines()[-1])
    solver_stack = ["scipy.linalg", "scipy.sparse"]
    assert loaded == {"import": [], "pendulum": [], "estimate": [], "srisk": [],
                      "box": solver_stack}, loaded
