"""Layout guard: every function, class, method and property in src/ serves the program.

A function or class is in use when another top-level statement of the
package (outside ``__init__.py``) or a perfbench script names it. A method
or property is in use when any other statement of the package, its class
mates included, reads it as an attribute, or a perfbench script names it.
An ``Enum`` member is in use when a top-level statement outside its own
class reads it. Definitions used only by tests belong in the tests, as the
dense oracle does.
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


def _attributes(tree: ast.AST) -> set[str]:
    """Attribute names a statement reads, as in ``obj.name``."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _statements() -> list[tuple[str | None, str, str | None, ast.AST]]:
    """(defined name or None, label, owning class or None, node) per statement.

    A class counts as its bases, decorators and class-level statements; each
    method and property in it, dunders aside, is a statement of its own.
    """
    out = []
    for module, node in _top_level_statements():
        if not isinstance(node, ast.ClassDef):
            name = node.name if isinstance(node, ast.FunctionDef) else None
            out.append((name, f"{module}.{name}", None, node))
            continue
        shell = ast.Module([], [])
        for item in [*node.bases, *node.decorator_list, *node.body]:
            if isinstance(item, ast.FunctionDef):
                name = None if item.name.startswith("__") else item.name
                out.append((name, f"{module}.{node.name}.{item.name}", node.name, item))
            else:
                shell.body.append(item)
        out.append((node.name, f"{module}.{node.name}", None, shell))
    return out


def _unused_definitions() -> list[str]:
    statements = _statements()
    # a function or class is named by any identifier, a method or property by an attribute
    reads = [(_reads(node), _attributes(node)) for *_, node in statements]
    bench = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        bench |= _reads(ast.parse(path.read_text()), strings=True)

    def used(i: int, live: list[int]) -> bool:
        name, _, owner, _ = statements[i]
        if owner is not None:  # a method's class mates may keep it alive
            return name in bench or any(name in reads[j][1] for j in live if j != i)
        # a class's own methods do not keep it alive
        return name in bench or any(name in reads[j][0] for j in live
                                    if j != i and statements[j][2] != name)

    # drop unused definitions (a class with its methods) until none is left,
    # so a chain that only an unused definition calls is caught as well
    live = list(range(len(statements)))
    flagged = []
    while True:
        dead = [i for i in live if statements[i][0] is not None and not used(i, live)]
        if not dead:
            return flagged
        flagged += [statements[i][1] for i in dead]
        dead_classes = {statements[i][0] for i in dead if statements[i][2] is None}
        live = [i for i in live if i not in dead and statements[i][2] not in dead_classes]


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
