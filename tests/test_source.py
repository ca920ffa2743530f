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


def callers(source: str, is_target) -> set[str]:
    """The functions that make a call whose ``func`` node has
    ``is_target(func)`` true, as ``function``, ``Class.method`` or
    ``outer.inner``; ``<module>`` for a call outside any function."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and is_target(child.func):
                found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def validating_op_callers(source: str) -> set[str]:
    """The functions that call the validating constructor ``Op(...)``."""
    return callers(source, lambda f: isinstance(f, ast.Name) and f.id == "Op")


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


def spectral_callers(source: str) -> set[str]:
    """The functions that call ``eigvalsh`` or ``np.linalg``'s ``eigvalsh``,
    ``eigh``, ``svd`` or ``norm`` (which takes an SVD for ord=2)."""
    def is_solve(f):
        if isinstance(f, ast.Name):
            return f.id == "eigvalsh"
        return isinstance(f, ast.Attribute) \
            and f.attr in ("eigvalsh", "eigh", "svd", "norm") \
            and isinstance(f.value, ast.Attribute) and f.value.attr == "linalg"
    return callers(source, is_solve)


# opcore holds the solvers, and every eigenvalue-based operator norm is its
# ``opnorm``; outside it only these read a spectrum, not a norm, and two
# checks take the norm of vectors
SPECTRAL_CALLERS = {"cuculescu.py": {"cuculescu_report"},
                    "czkit.py": {"zeta_cube_inequalities"},
                    "martingale.py": {"Martingale.spectral_floor"},
                    "pseudoloc.py": {"ksk_check", "localization_check"}}


def test_spectral_callers_finds_a_solve_outside_the_list():
    assert spectral_callers(
        "def f(g):\n    return np.linalg.eigh(g), linalg.svd(g)\n"
        "class A:\n    def n(self, x):\n        return np.linalg.norm(x)\n"
        "def g(h):\n    return eigvalsh(h), np.linalg.qr(h), h.norm()\n") \
        == {"f", "A.n", "g"}
    # a phi_s_norm that took its block norms by hand would be caught
    src = (SRC / "pseudoloc.py").read_text(encoding="utf-8")
    old = "opnorm(h.reshape(-1, h.shape[-1]))"
    planted = src.replace(old, "np.sqrt(eigvalsh(h).max())")
    assert planted != src
    assert spectral_callers(planted) - SPECTRAL_CALLERS["pseudoloc.py"] \
        == {"phi_s_norm"}


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "opcore.py"],
                         ids=lambda p: p.name)
def test_only_the_spectrum_readers_solve_outside_opcore(path):
    assert spectral_callers(path.read_text(encoding="utf-8")) \
        == SPECTRAL_CALLERS.get(path.name, set())
