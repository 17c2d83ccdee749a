"""Package layout: each public name is declared once, and modules import in
one direction.

The modules' ``__all__`` lists are the only lists of public names (the
benchmark tracer reads them too), and the package exports their union.
Intra-package imports sit at module level and follow the rule that README's
Layout states: a module imports only ``_backend`` and the modules listed
above it, ``jets``, ``_inputs`` and ``_backend`` import no package module,
and ``data_io`` imports only ``_inputs``.  scipy loads only inside the functions that use
it, so the package imports, and every CLI command runs, without loading any
scipy module; ``fit`` and ``validate`` too, since the Ljung-Box p-value is
computed in the package.  Importing the CLI starts no process,
and ``validate``'s worker pool does not outlive the command.
``concurrent.futures`` loads only inside the Monte Carlo block loop, so
importing the CLI and running ``simulate`` or ``pmf`` never loads it.
"""

import ast
import graphlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import coxaffine
from coxaffine import affine_core, cox_dist, data_io, estimate, simulate

PACKAGE = Path(coxaffine.__file__).resolve().parent
MODULES = {p.stem: p for p in sorted(PACKAGE.glob("*.py"))}
README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_exports_the_union_of_module_lists():
    assert len(coxaffine.__all__) == len(set(coxaffine.__all__))
    lists = [m.__all__ for m in (affine_core, cox_dist, simulate, estimate, data_io)]
    declared = [name for names in lists for name in names]
    assert len(declared) == len(set(declared)), "a name is in two module lists"
    assert set(coxaffine.__all__) == {"BACKEND", "__version__", "Jet", *declared}
    for name in coxaffine.__all__:
        assert hasattr(coxaffine, name), name


def _package_imports(node):
    """Modules of this package that an import statement names."""
    if isinstance(node, ast.ImportFrom) and node.level:
        if node.module:
            return [node.module.split(".")[0]]
        return [a.name if a.name in MODULES else "__init__" for a in node.names]
    names = []
    if isinstance(node, ast.ImportFrom) and node.module:
        names = [node.module]
    elif isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    parts = [n.split(".") for n in names if n.split(".")[0] == "coxaffine"]
    return [p[1] if len(p) > 1 else "__init__" for p in parts]


def _import_graph():
    """Module-level import edges, and the imports found inside functions."""
    graph, nested = {}, []
    for name, path in MODULES.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        graph[name] = set()
        stack = [(tree, False)]
        while stack:
            node, in_function = stack.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                targets = _package_imports(node)
                if in_function and targets:
                    nested.append(f"{name}.py:{node.lineno}")
                elif not in_function:
                    graph[name].update(targets)
            inside = in_function or isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
            stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return graph, nested


def test_package_imports_in_one_direction():
    graph, nested = _import_graph()
    assert not nested, f"intra-package imports inside functions: {nested}"
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None


def _layout_order():
    """The package modules in the order README's Layout lists them."""
    block = README.read_text().split("## Layout", 1)[1].split("```")[1]
    return re.findall(r"^  (\w+)\.py", block, re.MULTILINE)


def test_imports_follow_the_readme_layout():
    graph, _ = _import_graph()
    order = _layout_order()
    assert sorted(order) == sorted(set(MODULES) - {"__init__"}), "README Layout lists other modules"
    for i, name in enumerate(order):
        extra = graph[name] - {"_backend", *order[:i]}
        assert not extra, f"{name} imports {sorted(extra)}, not listed above it"
    for name in ("jets", "_inputs", "_backend"):
        assert graph[name] == set(), f"{name} imports {sorted(graph[name])}"
    assert graph["data_io"] == {"_inputs"}, graph["data_io"]


_PROBE = """
import json, multiprocessing, sys
from coxaffine import cli

def loaded(top="scipy"):
    return sorted(m for m in sys.modules if m.split(".")[0] == top)

def children(stage):
    return [f"{stage}: {p.name}" for p in multiprocessing.active_children()]

seen = {"import": loaded(), "children": children("import")}
seen["futures"] = {"import": loaded("concurrent")}
for name, argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, name
    seen[name] = loaded()
    seen["futures"][name] = loaded("concurrent")
    seen["children"] += children(name)
print(json.dumps(seen))
"""


def test_no_cli_command_loads_scipy(tmp_path):
    # the test process has imported scipy.stats, so only a fresh
    # interpreter shows what the package itself loads
    model = tmp_path / "model.json"
    model.write_text(
        json.dumps({"kind": "feller", "kappa": 1.0, "theta": 1.0, "sigma": 0.5, "lambda0": 1.0})
    )
    dense = Path(__file__).resolve().parent / "fixtures" / "events_dense.csv"
    out = str(tmp_path / "out")
    commands = [
        ["simulate", ["simulate", "--model", str(model), "--out", out, "--len", "5"]],
        ["pmf", ["pmf", "--model", str(model), "--out", out, "--kmax", "20"]],
        ["fit", ["fit", "--data", str(dense), "--out", out, "--seed", "1"]],
        ["validate", ["validate", "--model", str(model), "--out", out, "--reps", "2", "--len", "30"]],
        ["validate_pool", ["validate", "--model", str(model), "--out", out, "--reps", "2",
                           "--len", "30", "--jobs", "2"]],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands)],
        # every process, spawned workers included, reports its imports on stderr
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent), "PYTHONPROFILEIMPORTTIME": "1"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert imported.count("coxaffine.estimate") >= 2  # the probe and at least one worker
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == [], seen["import"]
    # importing starts no process, and no command leaves one running
    assert seen["children"] == [], seen["children"]
    assert seen["simulate"] == [], seen["simulate"]
    assert seen["pmf"] == [], seen["pmf"]
    # start-up stays light: the thread pool's module loads only where it is used
    for stage in ("import", "simulate", "pmf"):
        assert seen["futures"][stage] == [], (stage, seen["futures"][stage])
    for name in ("fit", "validate", "validate_pool"):
        assert "scipy.stats" not in seen[name], seen[name]
        assert "scipy.optimize" not in seen[name], seen[name]
        assert seen[name] == [], seen[name]
