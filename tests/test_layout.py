"""Layout guard: every module-level function and class in src/ serves the program.

A definition is in use when another top-level statement of the package
(outside ``__init__.py``) or a perfbench script names it. Definitions used
only by tests belong in the tests, as the dense oracle does.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "teleport_lab"


def _reads(tree: ast.AST, strings: bool = False) -> set[str]:
    """Identifiers a statement reads; with ``strings``, also the words of its string literals."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
    return names


def _unused_definitions() -> list[str]:
    statements = []  # (defined name or None, "module.name", identifiers read)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            name = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            statements.append((name, f"{path.stem}.{name}", _reads(node)))
    bench = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        bench |= _reads(ast.parse(path.read_text()), strings=True)

    # drop unused definitions until none is left, so a chain that only an
    # unused definition calls is caught as well
    live = list(range(len(statements)))
    flagged = []
    while True:
        dead = [i for i in live if statements[i][0] is not None
                and statements[i][0] not in bench
                and not any(statements[i][0] in statements[j][2] for j in live if j != i)]
        if not dead:
            return flagged
        flagged += [statements[i][1] for i in dead]
        live = [i for i in live if i not in dead]


def test_no_definition_in_src_is_used_only_by_tests():
    assert _unused_definitions() == []
