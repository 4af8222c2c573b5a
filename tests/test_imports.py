"""Every name a module of the package imports is used in that module, so
a deletion cannot leave a dead import behind and no module keeps a name
only for another module to import it from there."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "subreg"


def unused_imports(source: str) -> list:
    """The names ``source`` imports (``__future__`` aside) and never reads,
    a name counting as read wherever it appears as an identifier."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_the_check_finds_an_unused_import():
    source = (
        '"""Uses q_powers in prose only."""\n'
        "import os\n"
        "from .problems import q_powers as qp, mix_seed\n"
        "mix_seed(0)\n"
    )
    assert unused_imports(source) == ["os", "qp"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
