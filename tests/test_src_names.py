"""`src/ecgstress` holds only what the program runs.

A module-level function or class, or a method or property of a class, that no
code in `src/ecgstress` names, apart from its own definition, is reached only
from tests (or not at all): it belongs in `tests/`, such as `tests/oracles.py`,
not in the package. Dunder methods are called by Python itself and are not
checked.
"""

import ast
import dataclasses
from pathlib import Path

from ecgstress.cli import SETTINGS
from ecgstress.pipeline import PipelineConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "ecgstress"


def unreferenced_definitions(src: Path) -> list[str]:
    """`module.name` of each module-level def or class, and `module.Class.name` of each
    def in a class body (dunders aside), that src never names elsewhere."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)) and node.name not in named:
                found.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{module}.{node.name}.{member.name}"
                    for member in node.body
                    if isinstance(member, functions)
                    and not (member.name.startswith("__") and member.name.endswith("__"))
                    and member.name not in named
                ]
    return found


def test_every_definition_is_named_in_src():
    assert unreferenced_definitions(SRC) == []


def test_a_test_only_definition_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import used\n\n\ndef run():\n    return used()\n\n\ndef run_again():\n    run()\n"
    )
    (tmp_path / "b.py").write_text("def used():\n    return 1\n\n\nclass Orphan:\n    pass\n")
    (tmp_path / "c.py").write_text(
        "class Params:\n"
        "    def __post_init__(self):\n        self.check()\n\n"
        "    def check(self):\n        pass\n\n"
        "    @property\n    def bins(self):\n        return 1\n\n\n"
        "Params()\n"
    )
    assert unreferenced_definitions(tmp_path) == ["a.run_again", "b.Orphan", "c.Params.bins"]



def leaf_fields(record, prefix: str = "") -> list[str]:
    """`name` of each field of a dataclass instance, `name.inner` for each field of a
    dataclass held in one."""
    found = []
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if dataclasses.is_dataclass(value):
            found += leaf_fields(value, f"{prefix}{f.name}.")
        else:
            found.append(prefix + f.name)
    return found


def test_every_config_field_is_a_setting():
    """A field of PipelineConfig that no setting reaches holds one value for every run:
    it is a constant, not a field."""
    destinations = {dest for _, dests in SETTINGS.values() for dest in dests}
    unset = [name for name in leaf_fields(PipelineConfig()) if name not in destinations]
    assert unset == []
