"""Every public name of the package has a caller, or README says why not.

Each module-level function and class under `src/microvasc/`, and each
method not starting with `_`, must be referenced, as a name or an
attribute, somewhere in `src/microvasc/` or `perfbench/` outside its own
definition, or be named in backticks in the list that ends README's
"Library" section, which says why it stays. Tests are not callers: a name
only the tests read is surface with no use.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "microvasc"
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def definitions():
    """(path, qualified name, node) of every module-level function and class
    and every public method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path, f"{node.name}.{item.name}", item


def references():
    """(path, line, name) of every `ast.Name` and `ast.Attribute` in the callers."""
    out = []
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                out.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                out.append((path, node.lineno, node.attr))
    return out


def kept_names():
    """The backticked names in the list of README's "Library" section."""
    text = (ROOT / "README.md").read_text()
    assert "\n## Library\n" in text
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([^`]+)`", section.partition("\n- ")[2]))


def test_every_public_name_has_a_caller_or_a_reason():
    refs, kept = references(), kept_names()
    unused = [
        qualified
        for path, qualified, node in definitions()
        if qualified not in kept
        and node.name not in kept
        and not any(
            name == node.name
            and not (where == path and node.lineno <= line <= node.end_lineno)
            for where, line, name in refs
        )
    ]
    assert unused == []


def test_scan_sees_definitions_and_callers():
    names = {qualified for _, qualified, _ in definitions()}
    assert {"build_surface_coupling", "TissueGrid", "TissueGrid.locate"} <= names
    called = {name for _, _, name in references()}
    assert {"build_surface_coupling", "locate", "per_segment"} <= called
