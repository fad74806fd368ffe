"""Source checks: no private helper in the package outlives its last caller."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dyadichardy"


def _private_definitions_and_references():
    """({name: module} of top-level private functions and classes, and per
    top-level statement of every module the names it reads)."""
    defined, reads = {}, []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                if own.startswith("_") and not own.startswith("__"):
                    defined[own] = path.name
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            reads.append((own, names))
    return defined, reads


def test_every_private_helper_is_used_outside_its_own_definition():
    # An import alone is no use: `from .grid import _x` holds no Name node.
    defined, reads = _private_definitions_and_references()
    assert defined, "found no private helpers; is SRC right?"
    dead = sorted(f"{module}:{name}" for name, module in defined.items()
                  if not any(name in names for own, names in reads if own != name))
    assert dead == [], f"private helpers referenced nowhere in src/ but their definition: {dead}"
