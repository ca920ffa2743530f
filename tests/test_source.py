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


def validating_op_callers(source: str) -> set[str]:
    """The functions that call the validating constructor ``Op(...)``, as
    ``function``, ``Class.method`` or ``outer.inner``; ``<module>`` for a
    call outside any function."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                    and child.func.id == "Op":
                found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


# Where data enters an Op: the draws, and the drawn scalar function of the
# d = 1 reduction.  Every other Op is computed from checked operands and is
# made by ``opcore._op``; ``Martingale.__init__`` checks its top directly.
OP_CALLERS = {"harness.py": {"random_op", "random_positive_top",
                             "_nc_scalar_reduction"}}


def test_validating_op_callers_finds_a_call_outside_the_list():
    assert validating_op_callers("def f(x, a):\n    return _op(x, a)\n") \
        == set()
    assert validating_op_callers(
        "class A:\n    def g(self, x):\n        return Op(x, 1)\n"
        "def f():\n    def inner():\n        return [Op(1, 2)]\n"
        "Op(0, 0)\n") == {"A.g", "f.inner", "<module>"}
    # a cuculescu that validated its results again would be caught
    src = (SRC / "cuculescu.py").read_text(encoding="utf-8")
    assert validating_op_callers(src.replace("_op(", "Op(")) \
        - OP_CALLERS.get("cuculescu.py", set())


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_the_entry_points_call_the_validating_op(path):
    assert validating_op_callers(path.read_text(encoding="utf-8")) \
        == OP_CALLERS.get(path.name, set())
