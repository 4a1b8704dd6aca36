"""No public API that only tests reach.

Every public module-level function of the package, and every public method
or property of a public class, must be referenced from the package itself,
the scripts, the benchmark or the console entry point. References are AST
names and attributes (attributes only, for methods), so a docstring or a
parameter of the same name does not count, and neither does an attribute of
a name imported from another package (np.log is not autodiff.log).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bridgetune"

# Kept for the acceptance checklist (tests/test_acceptance.py), by item.
ALLOWED = {
    "bridges.sample_paths_marginal": "item 1: the bridge moments are estimated from its paths",
    "bridges.transition_logpdf": "item 2: the density whose normalization is checked",
    "bridges.kl_path_estimate": "item 3: the KL oracle",
    "spline.CubicSpline.eval": "item 5: the spline oracles evaluate one point",
    # BENCHMARK.json names its op metrics, so it stays until the benchmark drops them
    "autodiff.log": "item 4: the gradient suite checks every op kind",
}


def _public(name):
    return not name.startswith("_")


def _definitions():
    """module.function and module.Class.method of every public definition."""
    functions, methods = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                functions.add(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                methods.update(f"{module}.{node.name}.{item.name}" for item in node.body
                               if isinstance(item, ast.FunctionDef) and _public(item.name))
    return functions, methods


def _foreign(tree):
    """The names a module binds by importing from outside the package."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names
                         if a.name.split(".")[0] != "bridgetune")
        elif isinstance(node, ast.ImportFrom) and not node.level and (
                node.module.split(".")[0] != "bridgetune"):
            bound.update(a.asname or a.name for a in node.names)
    return bound


def _references():
    """(names, attributes) referenced in src/, scripts/ and perfbench/, plus
    the module attribute named by each console entry point. An attribute of
    a name imported from another package does not count."""
    names, attributes = set(), set()
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            foreign = _foreign(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and not (
                        isinstance(node.value, ast.Name) and node.value.id in foreign):
                    attributes.add(node.attr)
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    attributes.update(re.findall(r'^\w+ = "[\w.]+:(\w+)"$', pyproject, re.M))
    return names, attributes


def test_every_public_function_and_method_has_a_caller_outside_tests():
    functions, methods = _definitions()
    names, attributes = _references()
    unreached = sorted(
        [f for f in functions if f.split(".")[-1] not in names | attributes]
        + [m for m in methods if m.split(".")[-1] not in attributes])
    assert [u for u in unreached if u not in ALLOWED] == []
    assert sorted(ALLOWED) == [u for u in unreached if u in ALLOWED]  # no stale entry
