"""Layout guard: every module-level function and class in src/ serves the program.

A definition is in use when another top-level statement of the package
(outside ``__init__.py``) or a perfbench script names it; an ``Enum``
member is in use when a top-level statement outside its own class reads
it. Definitions used only by tests belong in the tests, as the dense
oracle does.
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


def _top_level_statements() -> list[tuple[str, ast.stmt]]:
    """(module name, statement) for every top-level statement of the package."""
    return [(path.stem, node) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py" for node in ast.parse(path.read_text()).body]


def _unused_definitions() -> list[str]:
    statements = []  # (defined name or None, "module.name", identifiers read)
    for module, node in _top_level_statements():
        name = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        statements.append((name, f"{module}.{name}", _reads(node)))
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


def _unused_enum_members() -> list[str]:
    statements = _top_level_statements()
    flagged = []
    for module, node in statements:
        if not (isinstance(node, ast.ClassDef)
                and any(isinstance(b, ast.Name) and b.id == "Enum" for b in node.bases)):
            continue
        elsewhere = set().union(*(_reads(other) for _, other in statements if other is not node))
        members = [t.id for item in node.body if isinstance(item, ast.Assign)
                   for t in item.targets if isinstance(t, ast.Name)]
        flagged += [f"{module}.{node.name}.{m}" for m in members if m not in elsewhere]
    return flagged


def test_no_enum_member_in_src_is_used_only_by_tests():
    assert _unused_enum_members() == []
