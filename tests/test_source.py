"""Hygiene of the package source, checked with the standard library alone."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nclp"
# __init__.py imports names to export them, not to use them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_an_unused_name():
    assert unused_imports("from .opcore import Op, proj_join\nOp(1)\n") \
        == ["proj_join"]
    assert unused_imports("import numpy as np\nimport os.path\n"
                          "np.ones(os.sep)\n") == []
    assert unused_imports("from dataclasses import dataclass, replace\n"
                          "@dataclass\nclass A:\n    x: int\n") == ["replace"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def mats_reads(source: str) -> list[int]:
    """The lines that read a ``.mats`` attribute, apart from the property's
    own definition (``def mats``)."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute) and n.attr == "mats")


def test_mats_reads_finds_a_read():
    assert mats_reads("x = T.mats[0]\n") == [1]
    assert mats_reads("class D:\n    @property\n    def mats(self):\n"
                      "        return 1\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_reads_the_dense_stack(path):
    # the dense (M, N, N) stack DiscOp.mats is for the tests' oracles only
    assert mats_reads(path.read_text(encoding="utf-8")) == []
