"""Every public name in the package is used somewhere.

That covers top-level functions and classes, and in each class its methods,
properties and enum members.  A name counts as used when the package (apart from ``__init__.py``), the
scripts or the benchmark harness refer to it in code: a top-level name as a
bare name, an attribute or in an import, a member only as an attribute or in
an import, so a local variable of the same name does not count.  Tests and
docstrings do not count, so a function that only its own tests call is
reported.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cowqkd"


def _modules() -> list[Path]:
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions() -> dict[str, str]:
    """Public top-level def/class name -> defining module."""
    out = {}
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                out[node.name] = path.name
    return out


def public_members() -> dict[str, str]:
    """Public method, property and enum member -> "module:Class"."""
    out = {}
    for path in _modules():
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            is_enum = any(isinstance(b, ast.Name) and b.id.endswith("Enum") for b in cls.bases)
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                elif is_enum and isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                else:
                    continue
                out.update((n, f"{path.name}:{cls.name}") for n in names if _public(n))
    return out


def referenced_names(bare: bool = True) -> set[str]:
    """Names referred to in code; ``bare=False`` leaves out bare names."""
    files = _modules() + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if bare:
                    names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_is_used():
    defs = public_definitions()
    used = referenced_names()
    # Guard against a vacuous pass when the paths above stop matching.
    assert defs["run_simulation"] == "experiment.py" and "run_simulation" in used
    dead = sorted(f"{module}:{name}" for name, module in defs.items() if name not in used)
    assert not dead, f"public names nothing outside the tests uses: {dead}"


def test_every_public_member_is_used():
    members = public_members()
    used = referenced_names(bare=False)
    # Guard against a vacuous pass: a method, a property and an enum member.
    assert {"counts_by_cause", "signal_window_ps", "BACKFLASH"} <= members.keys()
    dead = sorted(f"{owner}.{name}" for name, owner in members.items() if name not in used)
    assert not dead, f"public members nothing outside the tests uses: {dead}"
