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


def uncalled(sources: dict, exported: set) -> set[str]:
    """The functions and methods of ``sources`` (module name -> source) that
    no code of theirs names outside their own body, as
    ``module.function`` or ``module.Class.method``; a name in ``exported``
    and a dunder method, which Python calls itself, count as called.  A
    name read anywhere counts, as a call, an attribute, a callback or a
    registry entry alike."""
    defs, reads = [], []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((module, scope + [child.name]))
                visit(child, module, scope + [child.name])
            elif isinstance(child, ast.ClassDef):
                visit(child, module, scope + [child.name])
            else:
                if isinstance(child, ast.Name):
                    reads.append((child.id, scope))
                elif isinstance(child, ast.Attribute):
                    reads.append((child.attr, scope))
                visit(child, module, scope)

    for module, source in sources.items():
        visit(ast.parse(source), module, [])
    found = set()
    for module, path in defs:
        name = path[-1]
        if name in exported or (name.startswith("__")
                                and name.endswith("__")):
            continue
        # a read inside the function's own body is recursion, not a caller
        if not any(n == name and scope[:len(path)] != path
                   for n, scope in reads):
            found.add(".".join([module] + path))
    return found


def package_exports() -> set[str]:
    """The names ``nclp/__init__.py`` imports to export."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for a in node.names}


# read by no code in src/: lambda_family waits for the truncation
# experiment, and perfbench reads AlgebraSpec.label
UNCALLED = {"pseudoloc.lambda_family", "filtration.AlgebraSpec.label"}


def src_sources() -> dict:
    return {p.stem: p.read_text(encoding="utf-8") for p in MODULES}


def test_uncalled_finds_a_planted_helper():
    assert uncalled({"m": "def f():\n    return 1\n"
                          "def g():\n    return g()\n"
                          "class A:\n    def __len__(self):\n        return 0\n"
                          "    def h(self):\n        return self.k\n"
                          "    @property\n    def k(self):\n        return 1\n"
                          "REG = {'x': f}\n"}, set()) == {"m.g", "m.A.h"}
    assert uncalled({"m": "def f():\n    return 1\n"}, {"f"}) == set()
    # a helper planted in czkit with no caller is caught
    sources = src_sources()
    sources["czkit"] += "\n\ndef _orphan(x):\n    return x\n"
    assert uncalled(sources, package_exports()) - UNCALLED \
        == {"czkit._orphan"}


def test_every_function_in_src_has_a_caller_or_is_exported():
    assert uncalled(src_sources(), package_exports()) == UNCALLED


def extend_levels_callers(source: str) -> set[str]:
    """The functions that call a ``.extend_levels`` method."""
    return callers(source, lambda f: isinstance(f, ast.Attribute)
                   and f.attr == "extend_levels")


# The full-size stack of every level is built for the martingale's f_n and
# for nc_pseudoloc_check's certificate, which meets q_k with df_{k+s} in the
# full algebra; every other reader takes q_n on its own level.
EXTEND_LEVELS_CALLERS = {"martingale.py": {"Martingale.seq"},
                         "pseudoloc.py": {"nc_pseudoloc_check"}}


def test_extend_levels_callers_finds_a_planted_caller():
    assert extend_levels_callers(
        "def f(filt, ys):\n    return filt.extend_levels(ys)\n"
        "def g(filt, ys):\n    return filt.extend(ys[0], 0)\n") == {"f"}
    # a CuculescuSequence that built its full-size stack again is caught
    src = (SRC / "cuculescu.py").read_text(encoding="utf-8")
    old = "    def __getitem__(self, i)"
    planted = src.replace(old, (
        "    @property\n    def qs(self):\n        return self.martingale."
        "filtration.extend_levels(self.restricted)\n\n") + old)
    assert planted != src
    assert extend_levels_callers(planted) == {"CuculescuSequence.qs"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_the_full_size_readers_extend_every_level(path):
    assert extend_levels_callers(path.read_text(encoding="utf-8")) \
        == EXTEND_LEVELS_CALLERS.get(path.name, set())
