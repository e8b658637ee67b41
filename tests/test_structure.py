"""N(X), the OR of the adjacency rows of X's members, is written once.

Every routine that needs a neighbourhood calls ``graph._reach``. Only the
routines that read rows one at a time by design write ``... |= adj[...]``
themselves, so a new copy of the loop fails here, named by file and
function.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "triconvex"

ROW_ORS = {
    ("graph.py", "_reach"),
    # one row per step, always on the side that has read fewer
    ("convexity.py", "_lockstep"),
    # most waves are one vertex, where a call costs more than it saves
    ("decomposition.py", "_mcs_m"),
}


def row_ors(node: ast.AST, where: tuple[str, str], found: set) -> None:
    """Add ``where`` to ``found`` for every ``|= adj[...]`` under ``node``,
    with the innermost enclosing function's name in its place."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (where[0], child.name)
        elif (
            isinstance(child, ast.AugAssign)
            and isinstance(child.op, ast.BitOr)
            and isinstance(child.value, ast.Subscript)
            and isinstance(child.value.value, ast.Name)
            and child.value.value.id == "adj"
        ):
            found.add(where)
        row_ors(child, inner, found)


def test_row_ors_are_written_once():
    found: set = set()
    for path in sorted(SRC.glob("*.py")):
        row_ors(ast.parse(path.read_text(encoding="utf-8")), (path.name, "<module>"), found)
    extra = sorted(f"{name}: {func}" for name, func in found - ROW_ORS)
    assert not extra, f"row OR over a mask outside graph._reach in {extra}"
    missing = sorted(f"{name}: {func}" for name, func in ROW_ORS - found)
    assert not missing, f"no row OR left in {missing}; drop it from ROW_ORS"
