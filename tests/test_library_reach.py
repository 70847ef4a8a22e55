"""Library code that only tests keep alive should be deleted, or moved under
tests/oracles when a test needs it as a reference.

Each top-level function and class of src/banditpd must be named somewhere in
src/ outside its own definition: by a Name or an Attribute node of the parsed
source, so docstrings and comments do not count. The exceptions are listed
below. The entry points are called from outside the package. The Dykstra
family of banditpd.geometry (project_intersection, and through it
project_halfspace and Halfspace) stays reachable only through metrics'
re-import of project_intersection, which perfbench/child.py:TRACED looks up by
name; it goes when a benchmark change drops that TRACED row (ROADMAP item 1).
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "banditpd"

# module.name of the definitions that need no caller inside src/
ENTRY_POINTS = {"cli.main", "__init__.__version__"}
TRACED_ONLY = {"geometry.project_intersection"}


def referenced_names(node) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names[sub.attr] += 1
    return names


def test_every_definition_has_a_caller_in_src():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((referenced_names(tree) for tree in modules.values()), Counter())
    defined, unreferenced = set(), []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                defined.update(f"{module}.{t.id}" for t in node.targets if isinstance(t, ast.Name))
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            qualified = f"{module}.{node.name}"
            defined.add(qualified)
            outside = everywhere[node.name] - referenced_names(node)[node.name]
            if outside == 0 and qualified not in ENTRY_POINTS | TRACED_ONLY:
                unreferenced.append(qualified)
    assert not unreferenced, f"only tests reach {unreferenced}: delete them or move them to tests/oracles"
    assert ENTRY_POINTS | TRACED_ONLY <= defined, "an exception names a definition that is gone"
