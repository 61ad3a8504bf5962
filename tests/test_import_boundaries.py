"""The algorithm packages import none of the infrastructure packages, no
module of the program imports networkx, which is only a dev dependency (tests
cross-check the flow solver against it), and no module imports a name it
never uses."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

INFRASTRUCTURE = (
    "repro.analysis",
    "repro.distributed",
    "repro.orchestration",
    "repro.service",
    "repro.observability",
)


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter (this test process has imported
    everything already) and return its standard output."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return done.stdout


def _loaded_by_the_algorithms() -> list[str]:
    return json.loads(
        _fresh(
            "import json, sys\n"
            "import repro.eptas, repro.exact, repro.baselines, repro.solvers\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
    )


def test_algorithms_load_no_infrastructure():
    loaded = _loaded_by_the_algorithms()
    offending = [
        name
        for name in loaded
        if any(name == package or name.startswith(package + ".") for package in INFRASTRUCTURE)
    ]
    assert offending == []


def test_algorithms_load_without_networkx():
    # networkx is a dev dependency, so loading the algorithms must not load it.
    loaded = _loaded_by_the_algorithms()
    assert [name for name in loaded if name.split(".")[0] == "networkx"] == []


def test_no_module_imports_networkx():
    # Every import statement counts, inside functions and TYPE_CHECKING
    # blocks too, so an import that runs only when called is also caught.
    root = Path(repro.__file__).parent
    offending = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "networkx" for module in modules):
                offending.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offending == []


def test_eptas_runs_with_networkx_blocked():
    out = _fresh(
        "import sys\n"
        "sys.modules['networkx'] = None  # any import of it now raises\n"
        "from repro.eptas import eptas_schedule\n"
        "from repro.generators import uniform_random_instance\n"
        "instance = uniform_random_instance(num_jobs=12, num_machines=3, num_bags=4, seed=0).instance\n"
        "result = eptas_schedule(instance, 0.5)\n"
        "result.schedule.validate(require_complete=True)\n"
        "print(result.makespan > 0)\n"
    )
    assert out.strip() == "True"


def _names_in_annotation(annotation: ast.expr) -> set[str]:
    """The names an annotation reads, also inside quoted (string) parts."""
    names: set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= _names_in_annotation(quoted.body)
    return names


def _unused_imports(path: Path) -> list[str]:
    """``name (line)`` for every name the module imports and never reads.

    A name counts as read when an expression loads it, a string annotation
    names it, or ``__all__`` lists it.  An import marked ``# noqa: F401``
    (an import for its side effect) is exempt.
    """
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1] or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _names_in_annotation(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _names_in_annotation(node.returns)
        elif (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {item.value for item in node.value.elts if isinstance(item, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # A package's __init__.py re-exports what it imports, so it is exempt.
    root = Path(repro.__file__).parent
    offending = {
        str(path.relative_to(root)): unused
        for path in sorted(root.rglob("*.py"))
        if path.name != "__init__.py" and (unused := _unused_imports(path))
    }
    assert offending == {}

