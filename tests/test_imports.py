"""Every name a package module imports is used in that module, and every
public name the package defines has a user."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "squaregeo"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that it never reads; imports
    from ``__future__`` bind no name the code reads and are skipped."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from .graph import Graph, is_unit_interval_order\nimport os.path\n\ng: Graph\n"
    assert unused_imports(source) == ["is_unit_interval_order", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


ROOT = PACKAGE.parent.parent
# __init__.py re-exports names, it does not use them, so it is no user.
USERS = sorted(
    p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")
    if p.name != "__init__.py"
)


def public_definitions(tree: ast.Module):
    """(qualified name, is a class member) for each public top-level
    function or class and each public method, field or class attribute of
    those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, False
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                members = [item.name]
            elif isinstance(item, (ast.AnnAssign, ast.Assign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                members = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            yield from ((f"{node.name}.{m}", True) for m in members if not m.startswith("_"))


def read_names(source: str) -> tuple[set[str], set[str]]:
    """The identifiers a source reads: (names, attributes). Attributes are
    attribute reads, keyword arguments and string constants (a traced
    name, a patched attribute); names add plain reads and imported names.
    A definition, an assignment or an attribute store reads nothing."""
    names, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            attrs.add(node.arg)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.add(node.value)
    return names | attrs, attrs


def unused_public_names(modules: dict[str, str], users: list[str], readme: str) -> list[str]:
    """``module:name`` for each public definition of ``modules`` that no
    source in ``users`` and no code span or block of ``readme`` names; a
    class member counts as named only by an attribute read or its
    equivalents (``read_names``)."""
    names, attrs = set(), set()
    for source in users:
        n, a = read_names(source)
        names |= n
        attrs |= a
    code = "".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))
    words = set(re.findall(r"\w+", code))
    out = []
    for module, source in modules.items():
        for qualified, member in public_definitions(ast.parse(source)):
            seen = (attrs if member else names) | words
            if qualified.rpartition(".")[2] not in seen:
                out.append(f"{module}:{qualified}")
    return out


def test_the_check_sees_an_unused_member():
    module = (
        "class Graph:\n    n: int\n    def adjacent(self, u, v): ...\n"
        "    def degree(self, v): ...\n    def edges(self): ...\n"
        "def build_graph(n): ...\ndef unused(): ...\n"
    )
    user = "from m import Graph, build_graph\ng: Graph = build_graph(3)\ng.adjacent(0, 1)\ndegree = 2\n"
    got = unused_public_names({"m": module}, [module, user], "`x.edges()`")
    assert got == ["m:Graph.n", "m:Graph.degree", "m:unused"]


def test_every_public_name_has_a_user():
    """Every public function, class and class member of the package is named
    somewhere outside its definition: in the package, the tests, the
    benchmark or the README's code."""
    modules = {p.name: p.read_text() for p in MODULES}
    users = [p.read_text() for p in USERS]
    readme = (ROOT / "README.md").read_text()
    assert unused_public_names(modules, users, readme) == []
