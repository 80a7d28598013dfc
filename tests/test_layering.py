"""The package's import graph: the fork pool stands alone, only the front
ends import the lab, and no module imports itself through others."""

import ast
import graphlib
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "limitcurves"


def package_imports(path: pathlib.Path) -> set[str]:
    """Modules of the package that the module at ``path`` imports anywhere
    in its body, relatively or by the package's name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "limitcurves":
                continue
            inner = parts[1:] if node.level == 0 else [p for p in parts if p]
            if inner:
                found.add(inner[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "limitcurves":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


GRAPH = {path.stem: package_imports(path) for path in PACKAGE.glob("*.py")}


def test_forks_imports_nothing_from_the_package():
    assert GRAPH["forks"] == set()


def test_only_the_front_ends_import_the_lab():
    assert {name for name, imports in GRAPH.items() if "simlab" in imports} == {"cli", "__init__"}


def test_import_graph_is_acyclic():
    # static_order raises CycleError, naming the cycle, if there is one; it
    # also orders each imported name, so a name that is no module shows here
    assert set(graphlib.TopologicalSorter(GRAPH).static_order()) == set(GRAPH)
