"""`src/ecgstress` holds only what the program runs.

A module-level function or class that no code in `src/ecgstress` names,
apart from its own definition, is reached only from tests (or not at all):
it belongs in `tests/`, such as `tests/oracles.py`, not in the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ecgstress"


def unreferenced_definitions(src: Path) -> list[str]:
    """`module.name` of each module-level def or class that src never names elsewhere."""
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
    defined = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, defined) and node.name not in named
    ]


def test_every_definition_is_named_in_src():
    assert unreferenced_definitions(SRC) == []


def test_a_test_only_definition_is_found(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import used\n\n\ndef run():\n    return used()\n\n\ndef run_again():\n    run()\n"
    )
    (tmp_path / "b.py").write_text("def used():\n    return 1\n\n\nclass Orphan:\n    pass\n")
    assert unreferenced_definitions(tmp_path) == ["a.run_again", "b.Orphan"]

