"""Every top-level definition and dataclass field in src is used by the program.

A ``def`` or ``class`` at module level in ``src/xhoglab`` must be named
somewhere other than inside its own body: in src, in the benchmark
(``xbench/*.py``), or in the acceptance criteria (``tests/test_acceptance.py``).
A name, an attribute or an equal string constant counts; an import does not,
so a definition that only unit tests reach fails here.  Likewise every field
of a ``@dataclass`` in src must be read as an attribute (``obj.field``) in one
of those files.  This checks references, not full reachability from a
command, but it keeps test-only helpers and fields out of src.
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


def test_every_src_definition_is_referenced_outside_itself():
    definitions = []  # (file, name, node)
    chunks = []  # (node, names under it): one per top-level statement, so a definition's own
    # body can be left out of its references
    for path in SRC + USERS:
        tree = ast.parse(path.read_text(), filename=str(path))
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
    reads = set()  # attribute names read anywhere in src, xbench or the acceptance criteria
    for path in SRC + USERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        reads |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        if path not in SRC:
            continue
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list)):
                fields += [(path.name, cls.name, stmt.target.id) for stmt in cls.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    assert fields
    unread = [f"{file}: {cls}.{name}" for file, cls, name in fields if name not in reads]
    assert not unread, "dataclass fields that nothing reads:\n" + "\n".join(unread)
