"""Layout guard: every function, class, method and property in src/ serves the program.

A function or class is in use when another top-level statement of the
package (outside ``__init__.py``) or a perfbench script names it. A method
or property is in use when any other statement of the package, its class
mates included, reads it as an attribute, or a perfbench script names it.
An ``Enum`` member is in use when a top-level statement outside its own
class reads it. Definitions used only by tests belong in the tests, as the
dense oracle does.

State guard: no function keeps state in its module, through a ``global``
statement, by changing a module-level list, dict or set, or behind a
``functools.cache`` or ``lru_cache`` decorator, so that one run never
depends on an earlier one in the same process. Constant tables stay allowed.

Oracle guard: the dense oracle, the independent reference of the engine's
gates, takes no gate matrix or basis-rotation table from the package.
"""
import ast
import importlib
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "teleport_lab"
ORACLE = ROOT / "tests" / "dense_oracle.py"


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


#: Methods that change a list, dict or set in place.
MUTATORS = {"append", "pop", "extend", "insert", "update", "setdefault", "clear", "remove",
            "add", "discard"}
CONTAINERS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _module_containers(tree: ast.Module) -> set[str]:
    """Names that a module's top level binds to a list, dict or set."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, CONTAINERS) or (isinstance(value, ast.Call)
                                             and isinstance(value.func, ast.Name)
                                             and value.func.id in ("list", "dict", "set")):
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


#: Decorators that keep a function's results in its module.
CACHES = {"cache", "lru_cache"}


def _module_state_writes(folder: Path = PACKAGE) -> list[str]:
    """"module.function: what" for each global statement, module container change and cache."""
    flagged = set()
    for path in sorted(folder.glob("*.py")):
        tree = ast.parse(path.read_text())
        containers = _module_containers(tree)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            local = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                     args.vararg, args.kwarg] if a is not None}
            local |= {n.id for n in ast.walk(fn)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            shared = containers - local
            where = f"{path.stem}.{fn.name}"
            for decorator in fn.decorator_list:
                # @cache, @functools.cache, @lru_cache(maxsize=...) and the like
                named = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = named.attr if isinstance(named, ast.Attribute) else getattr(named, "id", "")
                if name in CACHES:
                    flagged.add(f"{where}: @{name}")
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    flagged.add(f"{where}: global {', '.join(node.names)}")
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and isinstance(node.func.value, ast.Name)
                      and node.func.value.id in shared and node.func.attr in MUTATORS):
                    flagged.add(f"{where}: {node.func.value.id}.{node.func.attr}")
                elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                      and isinstance(node.value, ast.Name) and node.value.id in shared):
                    flagged.add(f"{where}: {node.value.id}[...]")
    return sorted(flagged)


def test_no_function_in_src_keeps_module_state(tmp_path):
    assert _module_state_writes() == []
    # the guard sees each way of keeping state, one per module, and a local table is no state
    ways = ("TABLE = {}\ndef f(k):\n    TABLE[k] = 1",
            "SEEN = []\ndef f(k):\n    SEEN.append(k)",
            "def f():\n    global COUNT",
            "from functools import cache\n@cache\ndef f(): pass",
            "import functools\n@functools.cache\ndef f(): pass",
            "from functools import lru_cache\n@lru_cache\ndef f(): pass",
            "import functools\n@functools.lru_cache(maxsize=8)\ndef f(): pass")
    for i, source in enumerate(ways):
        (tmp_path / f"way{i}.py").write_text(source)
    (tmp_path / "local.py").write_text("TABLE = {}\ndef f():\n    TABLE = {}\n    TABLE[1] = 2")
    flagged = _module_state_writes(tmp_path)
    assert sorted(line.split(".")[0] for line in flagged) == [f"way{i}" for i in range(len(ways))]


def _holds_gate_matrix(value) -> bool:
    """Whether a value is a 2x2 matrix, or a dict, list or tuple that holds one."""
    if isinstance(value, np.ndarray):
        return value.shape == (2, 2)
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, (list, tuple)) and any(map(_holds_gate_matrix, value))


def _gate_tables_taken(source: str) -> list[str]:
    """Package names a module's source imports or reads that hold gate matrices or rotations.

    A name counts if its value holds a 2x2 matrix or is `tomography.rotation_gates`;
    a package module bound to a name counts through the attributes read from it.
    """
    from teleport_lab import tomography

    tree = ast.parse(source)
    bound = {}  # local name -> (qualified name, value)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("teleport_lab"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                bound[alias.asname or alias.name] = (f"{node.module}.{alias.name}",
                                                     getattr(module, alias.name, None))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("teleport_lab") and alias.asname:
                    bound[alias.asname] = (alias.name, importlib.import_module(alias.name))
    values = dict(bound.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound
                and type(bound[node.value.id][1]) is type(tomography)):
            name, module = bound[node.value.id]
            values[f"{name}.{node.attr}"] = getattr(module, node.attr, None)
    return sorted(name for name, value in values.items()
                  if _holds_gate_matrix(value) or value is tomography.rotation_gates)


def test_dense_oracle_takes_no_gate_table_from_src():
    assert _gate_tables_taken(ORACLE.read_text()) == []
    # the guard sees each way of taking one
    for source in ("from teleport_lab.tomography import H, BASIS_PAIRS",
                   "from teleport_lab.tomography import PAULI_MATRICES as P",
                   "from teleport_lab import tomography\ntomography.rotation_gates('X')",
                   "import teleport_lab.tomography as t\nt.SDG"):
        assert len(_gate_tables_taken(source)) == 1, source
