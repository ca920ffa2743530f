"""Concrete algebras and filtrations with trace-preserving conditional
expectations, plus dyadic geometry helpers on the torus [0,1)^n.

Three families are provided:

* ``tensor_dyadic(N)`` — the 2^N dimensional tensor product of N copies of
  (M_2, normalized trace); level n keeps the first n factors and integrates
  the rest out by a normalized partial trace.
* ``grid_matrix(n, K, d)`` — functions on the dyadic 2^K x ... x 2^K torus
  grid with d x d matrix values; level k averages over dyadic cubes of side
  2^{-k}.
* ``corner(n)`` — M_n with level k the subalgebra of matrices supported on
  the top-left k x k corner plus the remaining diagonal.

Levels always run 0..top; the bi-infinite dyadic index of the continuum
picture is truncated with E_{<0} = E_0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .opcore import Algebra, Op, dense_algebra


@dataclass(frozen=True)
class AlgebraSpec:
    kind: str                 # "tensor" | "grid" | "corner"
    params: tuple

    @property
    def label(self) -> str:
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"


def parse_spec(text: str) -> AlgebraSpec:
    """Parse CLI-style specs: tensor:N | grid:n,K,d | corner:n."""
    try:
        kind, rest = text.split(":", 1)
        params = tuple(int(p) for p in rest.split(","))
    except ValueError as exc:
        raise ContractViolation(f"bad algebra spec {text!r}") from exc
    if kind == "tensor" and len(params) == 1:
        return AlgebraSpec("tensor", params)
    if kind == "grid" and len(params) == 3 and params[0] in (1, 2):
        return AlgebraSpec("grid", params)
    if kind == "corner" and len(params) == 1:
        return AlgebraSpec("corner", params)
    raise ContractViolation(f"unsupported algebra spec {text!r}")


class Filtration:
    """Ordered chain of subalgebras given by conditional expectations E_k."""

    def __init__(self, algebra: Algebra, levels: list[int], spec: AlgebraSpec):
        self.algebra = algebra
        self.levels = list(levels)
        self.spec = spec

    def expect(self, f: Op, k: int) -> Op:
        """E_k applied to each entry of f (batch axes pass through)."""
        raise NotImplementedError

    def check_level(self, k: int):
        if k not in self.levels:
            raise ContractViolation(f"level {k} outside {self.levels[0]}..{self.levels[-1]}")


class TensorDyadicFiltration(Filtration):
    def __init__(self, N: int):
        if N < 1:
            raise ContractViolation("tensor:N requires N >= 1")
        self.N = N
        super().__init__(dense_algebra(2 ** N), list(range(N + 1)),
                         AlgebraSpec("tensor", (N,)))

    def expect(self, f: Op, k: int) -> Op:
        self.check_level(k)
        if k == self.N:
            return f.copy()
        a, b = 2 ** k, 2 ** (self.N - k)
        batch = f.batch
        m = f.blocks[..., 0, :, :].reshape(batch + (a, b, a, b))
        small = np.einsum("...ibjb->...ij", m) / b
        # the kron product small (x) 1_b, entry by entry
        out = small[..., :, None, :, None] * np.eye(b)[:, None, :]
        return Op(out.reshape(batch + (1, a * b, a * b)), self.algebra)


class CornerFiltration(Filtration):
    def __init__(self, n: int):
        if n < 1:
            raise ContractViolation("corner:n requires n >= 1")
        self.n = n
        super().__init__(dense_algebra(n), list(range(n + 1)),
                         AlgebraSpec("corner", (n,)))

    def expect(self, f: Op, k: int) -> Op:
        self.check_level(k)
        m = f.blocks
        out = np.where(np.eye(self.n, dtype=bool), m, 0.0)
        out[..., :k, :k] = m[..., :k, :k]
        return Op(out, self.algebra)


class GridFiltration(Filtration):
    """d x d matrix-valued functions on the dyadic torus grid.

    Cells are raster-ordered; the operator blocks array has one block per
    cell.  E_k averages blocks over each dyadic cube of level k.
    """

    def __init__(self, n: int, K: int, d: int):
        if n not in (1, 2) or K < 1 or d < 1:
            raise ContractViolation("grid:n,K,d requires n in {1,2}, K>=1, d>=1")
        self.n, self.K, self.d = n, K, d
        ncells = 2 ** (n * K)
        algebra = Algebra(ncells, d, np.full(ncells, 2.0 ** (-n * K) / d))
        super().__init__(algebra, list(range(K + 1)), AlgebraSpec("grid", (n, K, d)))

    # spatial <-> flat indexing ------------------------------------------
    @property
    def side(self) -> int:
        return 2 ** self.K

    def cubes(self, blocks: np.ndarray, k: int) -> np.ndarray:
        """Blocks (*batch, cells, d, d) reshaped to (*batch, 2^k, L) per
        axis plus (d, d): the L cells along each axis of each level-k cube
        sit on the axes -3 (n = 1) or -5 and -3 (n = 2)."""
        return blocks.reshape(blocks.shape[:-3] + (2 ** k, 2 ** (self.K - k))
                              * self.n + (self.d, self.d))

    def expect(self, f: Op, k: int) -> Op:
        self.check_level(k)
        if k == self.K:
            return f.copy()
        cubes = self.cubes(f.blocks, k)
        axes = (-3,) if self.n == 1 else (-5, -3)
        m = cubes.mean(axis=axes, keepdims=True)
        out = np.broadcast_to(m, cubes.shape)
        return Op(out.reshape(f.blocks.shape).copy(), self.algebra)

    # dyadic cube helpers --------------------------------------------------
    def cube_cells(self, Q: "DyadicCube") -> np.ndarray:
        """Flat cell indices of a level-k dyadic cube."""
        L = 2 ** (self.K - Q.level)
        axes = [np.arange(c * L, (c + 1) * L) for c in Q.corner]
        if self.n == 1:
            return axes[0]
        return (axes[0][:, None] * self.side + axes[1][None, :]).ravel()

    def cubes_at_level(self, k: int):
        """All dyadic cubes of level k."""
        side = 2 ** k
        if self.n == 1:
            return [DyadicCube(k, (c,), 1) for c in range(side)]
        return [DyadicCube(k, (a, b), 2) for a in range(side) for b in range(side)]

    def cube_of_cell(self, cell: int, k: int) -> "DyadicCube":
        L = 2 ** (self.K - k)
        if self.n == 1:
            return DyadicCube(k, (cell // L,), 1)
        i, j = divmod(cell, self.side)
        return DyadicCube(k, (i // L, j // L), 2)

    def first_cells(self, k: int) -> np.ndarray:
        """Flat index of the first cell of each level-k cube, in the order of
        ``cubes_at_level(k)``."""
        starts = np.arange(2 ** k) * 2 ** (self.K - k)
        if self.n == 1:
            return starts
        return (starts[:, None] * self.side + starts[None, :]).ravel()

    def dilation_masks(self, k: int, delta: int) -> np.ndarray:
        """(cubes, cells) boolean incidence of the concentric dilations
        delta*Q (torus wrap), one row per cube of ``cubes_at_level(k)``."""
        if delta % 2 == 0 or delta < 1:
            raise ContractViolation("concentric dilation factor must be odd")
        # along each axis a cell lies in delta*Q iff its level-k cube is at
        # most (delta - 1)/2 cubes away from Q, mod 2^k; delta >= 2^k covers
        # the whole axis
        cube = np.arange(self.side) // 2 ** (self.K - k)
        away = cube - np.arange(2 ** k)[:, None]
        m = (away + (delta - 1) // 2) % 2 ** k < delta
        if self.n == 1:
            return m
        return (m[:, None, :, None] & m[None, :, None, :]).reshape(4 ** k, -1)

    def concentric_mask(self, Q: "DyadicCube", delta: int) -> np.ndarray:
        """Boolean cell mask of the concentric dilation delta*Q (torus wrap)."""
        row = np.ravel_multi_index(Q.corner, (2 ** Q.level,) * self.n)
        return self.dilation_masks(Q.level, delta)[row]


@dataclass(frozen=True)
class DyadicCube:
    """Dyadic cube of side 2^{-level} on the torus, corner in cube units."""

    level: int
    corner: tuple
    n: int

    def __post_init__(self):
        side = 2 ** self.level
        object.__setattr__(self, "corner",
                           tuple(int(c) % side for c in self.corner))

    @property
    def measure(self) -> float:
        return float(2.0 ** (-self.n * self.level))


def dyadic_father(Q: DyadicCube) -> DyadicCube:
    if Q.level == 0:
        raise ContractViolation("the level-0 cube has no dyadic father")
    return DyadicCube(Q.level - 1, tuple(c // 2 for c in Q.corner), Q.n)


def build_filtration(spec: AlgebraSpec | str) -> Filtration:
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if spec.kind == "tensor":
        return TensorDyadicFiltration(*spec.params)
    if spec.kind == "grid":
        return GridFiltration(*spec.params)
    if spec.kind == "corner":
        return CornerFiltration(*spec.params)
    raise ContractViolation(f"unsupported spec {spec}")

