"""Every top-level definition, method, dataclass field and stored attribute in src
is used by the program.

A ``def`` or ``class`` at module level in ``src/xhoglab`` must be named
somewhere other than inside its own body: in src, in the benchmark
(``xbench/*.py``), or in the acceptance criteria (``tests/test_acceptance.py``).
A name, an attribute or an equal string constant counts; an import does not,
so a definition that only unit tests reach fails here.  The same holds for
every method, property and classmethod of a src class (dunder methods, which
Python calls itself, aside).  Likewise every field of a ``@dataclass`` in src,
and every attribute src stores on ``self``, must be read as an attribute
(``obj.attr``) in one of those files.  This checks references, not full
reachability from a command, but it keeps test-only helpers, members and
fields out of src.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "xhoglab").glob("*.py"))
USERS = sorted((ROOT / "xbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _names(node) -> set:
    """The names, attributes and string constants anywhere under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _trees():
    """(path, parsed module) for src, the benchmark and the acceptance criteria."""
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in SRC + USERS]


def _attribute_loads(trees) -> set:
    """The attribute names read (``obj.attr`` in a load) anywhere in ``trees``."""
    return {node.attr for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_src_definition_is_referenced_outside_itself():
    definitions = []  # (file, name, node)
    chunks = []  # (node, names under it): one per top-level statement, so a definition's own
    # body can be left out of its references
    for path, tree in _trees():
        for node in tree.body:
            chunks.append((node, _names(node)))
            if path in SRC and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.name, node.name, node))
    assert definitions
    unreferenced = [
        f"{file}: {name}"
        for file, name, own in definitions
        if not any(name in names for node, names in chunks if node is not own)
    ]
    assert not unreferenced, "referenced only by unit tests, or not at all:\n" + "\n".join(unreferenced)


def _is_dataclass(decorator) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass"


def test_every_dataclass_field_is_read():
    fields = []  # (file, class, field)
    trees = _trees()
    for path, tree in trees:
        if path not in SRC:
            continue
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list)):
                fields += [(path.name, cls.name, stmt.target.id) for stmt in cls.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    assert fields
    reads = _attribute_loads(trees)
    unread = [f"{file}: {cls}.{name}" for file, cls, name in fields if name not in reads]
    assert not unread, "dataclass fields that nothing reads:\n" + "\n".join(unread)


def test_every_src_method_is_referenced_outside_itself():
    trees = _trees()
    chunks = [(node, _names(node)) for _, tree in trees for node in tree.body]
    methods = []  # (file, class, method, the names in the rest of the class)
    for path, tree in trees:
        if path not in SRC:
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for own in cls.body:
                if isinstance(own, ast.FunctionDef) and not own.name.startswith("__"):
                    rest = set().union(*(_names(n) for n in cls.body if n is not own))
                    methods.append((path.name, cls, own.name, rest))
    assert methods
    unreferenced = [
        f"{file}: {cls.name}.{name}"
        for file, cls, name, rest in methods
        if name not in rest and not any(name in names for node, names in chunks if node is not cls)
    ]
    assert not unreferenced, "methods that nothing outside themselves names:\n" + "\n".join(unreferenced)


def test_every_stored_attribute_is_read():
    trees = _trees()
    stored = sorted({
        (path.name, node.attr)
        for path, tree in trees if path in SRC
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    })
    assert stored
    reads = _attribute_loads(trees)
    unread = [f"{file}: self.{attr}" for file, attr in stored if attr not in reads]
    assert not unread, "attributes that src stores and nothing reads:\n" + "\n".join(unread)
