"""The benchmark harness's tracer names layers that still exist, every
export list names something real, no private name is dead, and the
package's import and first calls stay light."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_traced_layers_resolve_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for module, function in tracing.LAYERS:
        target = importlib.import_module(f"dressedbath.{module}")
        assert callable(getattr(target, function, None)), f"{module}.{function}"


def test_export_lists_name_existing_attributes():
    # a deleted function must leave no stale name in any __all__
    import dressedbath

    modules = [dressedbath] + [
        importlib.import_module(f"dressedbath.{info.name}")
        for info in pkgutil.iter_modules(dressedbath.__path__)
        if info.name != "__main__"
    ]
    for module in modules:
        exported = getattr(module, "__all__", ())
        assert len(set(exported)) == len(exported), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}: {missing}"


def test_private_module_names_are_used_in_the_package():
    # a module-level private name that nothing else in src/ reads is dead
    # code; a use inside the name's own definition does not count
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "dressedbath").glob("*.py"))}
    uses = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            uses.setdefault(name, []).append((path, node.lineno))
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if all(p == path and node.lineno <= line <= node.end_lineno
                       for p, line in uses.get(name, [])):
                    unused.append(f"{path.name}: {name}")
    assert not unused


def test_cli_import_pulls_in_no_process_pools():
    # mode sums run on plain threads; concurrent.futures alone would add
    # about 11 ms to every fresh process
    code = ("import sys, dressedbath.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_mode_sums_and_quadrature_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, about 12 ms of a fresh
    # process; the package finds distinct values without it
    code = (
        "import sys, numpy as np, dressedbath as db\n"
        "spec = db.OhmicSystemSpec.from_dimensionless("
        "beta=0.3, delta=0.05, n_modes=40, light_speed=1.0)\n"
        "t = np.linspace(0.0, 20.0, 30)\n"
        "db.f00_quadrature(spec, t)\n"
        "modes = db.solve_finite_spectrum(spec)\n"
        "db.f00_discrete(modes, modes.weights, t)\n"
        "cav = db.solve_cavity_spectrum(spec, k_max=200)\n"
        "db.cavity_survival_series((cav.weights[0], cav.weights[1:]), cav.frequencies, t)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
