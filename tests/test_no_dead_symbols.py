"""No symbol that nothing calls.

Every module-level ``def`` and ``class`` in ``src/oran_isac`` must be referred
to by the program: ``src/`` (but not ``__init__.py``, so that a re-export
cannot keep a dead name alive), ``demos/`` and ``perfbench/``. A reference is
an ``ast.Name``, an ``ast.Attribute`` or an import alias; a reference from
``tests/`` does not count.

An entry in ``KEPT`` needs a one-line reason here and a CHANGES.md line
saying why.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oran_isac"

KEPT: dict[str, str] = {}


def _definitions() -> dict[str, str]:
    """Module-level function and class names, each with the module defining it."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
    return defined


def _program_files() -> list[Path]:
    files = [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
    for folder in ("demos", "perfbench"):
        files += (ROOT / folder).rglob("*.py")
    return files


def _references() -> set[str]:
    names = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
    return names


def test_every_definition_is_referred_to_by_the_program():
    used = _references()
    dead = sorted(f"{module}: {name}" for name, module in _definitions().items()
                  if name not in used and name not in KEPT)
    assert not dead, f"defined but never referred to outside tests/: {dead}"


def test_every_kept_name_is_defined_and_otherwise_dead():
    """An allowlist entry goes once its name is deleted or the program refers to it."""
    defined, used = _definitions(), _references()
    assert all(name in defined and name not in used for name in KEPT)
