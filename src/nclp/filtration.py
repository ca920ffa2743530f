"""Concrete algebras and filtrations with trace-preserving conditional
expectations, plus dyadic geometry helpers on the torus [0,1)^n.

Two families are provided, specified as ``tensor:N | grid:n,K,d``:

* ``tensor_dyadic(N)`` — the 2^N dimensional tensor product of N copies of
  (M_2, normalized trace); level n keeps the first n factors and integrates
  the rest out by a normalized partial trace.
* ``grid_matrix(n, K, d)`` — functions on the dyadic 2^K x ... x 2^K torus
  grid with d x d matrix values; level k averages over dyadic cubes of side
  2^{-k}.

Levels always run 0..top; the bi-infinite dyadic index of the continuum
picture is truncated with E_{<0} = E_0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .opcore import Algebra, Op, _op, dense_algebra


@dataclass(frozen=True)
class AlgebraSpec:
    kind: str                 # "tensor" | "grid"
    params: tuple

    @property
    def label(self) -> str:
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"


def parse_spec(text: str) -> AlgebraSpec:
    """Parse CLI-style specs: tensor:N | grid:n,K,d."""
    try:
        kind, rest = text.split(":", 1)
        params = tuple(int(p) for p in rest.split(","))
    except ValueError as exc:
        raise ContractViolation(f"bad algebra spec {text!r}") from exc
    if kind == "tensor" and len(params) == 1:
        return AlgebraSpec("tensor", params)
    if kind == "grid" and len(params) == 3 and params[0] in (1, 2):
        return AlgebraSpec("grid", params)
    raise ContractViolation(f"unsupported algebra spec {text!r}")


class Filtration:
    """Ordered chain of subalgebras M_k given by conditional expectations.

    A subclass defines ``restrict(x, k)``, E_k applied to each entry of x
    (batch axes pass through) and written in the coordinates of M_k, an
    element of ``level_algebra(k)`` whose trace agrees with tau; and
    ``refine(y, k)``, the inclusion into M_k of y in M_i, i <= k.  Its case
    k = top is ``extend``, the inclusion into the full algebra, so
    E_k = extend o restrict.  The levels run 0..top, M_top being the whole
    algebra.
    """

    def __init__(self, level_algebras: list[Algebra], spec: AlgebraSpec):
        self._level_algebras = list(level_algebras)
        self.algebra = self._level_algebras[-1]
        self.levels = list(range(len(self._level_algebras)))
        self.spec = spec

    def level_algebra(self, k: int) -> Algebra:
        return self._level_algebras[k]

    def expect(self, f: Op, k: int) -> Op:
        """E_k applied to each entry of f (batch axes pass through)."""
        return self.extend(self.restrict(f, k), k)

    def extend(self, y: Op, k: int) -> Op:
        """y of M_k in the full algebra: its ``refine`` to the top level,
        which reads y's level off y itself."""
        return self.refine(y, self.levels[-1])

    def extend_levels(self, ys) -> Op:
        """Each ys[k] of M_k, k = 0..len(ys) - 1, in the full algebra,
        stacked on axis -4, for the martingale's f_n and the certificate
        of ``nc_pseudoloc_check``; every other reader takes one level."""
        return _op(np.stack([self.extend(y, k).blocks for k, y in zip(
            self.levels[:len(ys)], ys, strict=True)], axis=-4), self.algebra)

    def check_level(self, k: int):
        if k not in self.levels:
            raise ContractViolation(f"level {k} outside {self.levels[0]}..{self.levels[-1]}")


def _pairwise_mean(x: np.ndarray, axis: int) -> np.ndarray:
    """Mean over a (negative) axis of power-of-two length, summed by
    halving, so the mean of equal entries is that entry exactly."""
    n, rest = x.shape[axis], (slice(None),) * (-axis - 1)
    while x.shape[axis] > 1:
        h = x.shape[axis] // 2
        x = x[(..., slice(h)) + rest] + x[(..., slice(h, None)) + rest]
    return x[(..., 0) + rest] / n


class TensorDyadicFiltration(Filtration):
    """Level k is M_{2^k} (x) 1: the normalized partial trace over the last
    N - k factors restricts, the tensor product with 1 extends."""

    def __init__(self, N: int):
        if N < 1:
            raise ContractViolation("tensor:N requires N >= 1")
        self.N = N
        super().__init__([dense_algebra(2 ** k) for k in range(N + 1)],
                         AlgebraSpec("tensor", (N,)))

    # bound in the class itself, where perfbench traces it per class
    expect = Filtration.expect

    def restrict(self, x: Op, k: int) -> Op:
        self.check_level(k)
        a, b = 2 ** k, 2 ** (self.N - k)
        m = x.blocks[..., 0, :, :].reshape(x.batch + (a, b, a, b))
        # the diagonal of the traced factors, shape (*batch, a, a, b)
        diag = np.diagonal(m, axis1=-3, axis2=-1)
        return _op(_pairwise_mean(diag, -1)[..., None, :, :],
                   self.level_algebra(k))

    def refine(self, y: Op, k: int) -> Op:
        """The kron product y (x) 1_b, b = 2^k / dim y, entry by entry."""
        self.check_level(k)
        small, b = y.blocks[..., 0, :, :], 2 ** k // y.algebra.d
        out = small[..., :, None, :, None] * np.eye(b)[:, None, :]
        return _op(out.reshape(y.batch + (1, 2 ** k, 2 ** k)),
                   self.level_algebra(k))


class GridFiltration(Filtration):
    """d x d matrix-valued functions on the dyadic torus grid.

    Cells are raster-ordered; the operator blocks array has one block per
    cell.  E_k averages blocks over each dyadic cube of level k, and a
    level's cubes are raster-ordered too.
    """

    def __init__(self, n: int, K: int, d: int):
        if n not in (1, 2) or K < 1 or d < 1:
            raise ContractViolation("grid:n,K,d requires n in {1,2}, K>=1, d>=1")
        self.n, self.K, self.d = n, K, d
        # level k has one d x d block per level-k cube, of measure 1/m
        ncubes = [2 ** (n * k) for k in range(K + 1)]
        super().__init__([Algebra(m, d, np.full(m, 1.0 / m / d))
                          for m in ncubes], AlgebraSpec("grid", (n, K, d)))

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

    # bound in the class itself, where perfbench traces it per class
    expect = Filtration.expect

    def restrict(self, x: Op, k: int) -> Op:
        """Cube averages, one block per level-k cube."""
        self.check_level(k)
        m = self.cubes(x.blocks, k)
        # the cell axes inside a cube: -3 (n = 1); -5 and -3 (n = 2), which
        # is -4 once -3 is averaged out
        for axis in (-3,) if self.n == 1 else (-3, -4):
            m = _pairwise_mean(m, axis)
        return _op(m.reshape(x.batch + (-1, self.d, self.d)),
                   self.level_algebra(k))

    def refine(self, y: Op, k: int) -> Op:
        """Each block of y, of a level-i cube, repeated over the level-k
        cubes inside it."""
        self.check_level(k)
        i = (y.algebra.nblocks.bit_length() - 1) // self.n
        batch, dd = y.batch, (self.d, self.d)
        out = np.empty(batch + (2 ** i, 2 ** (k - i)) * self.n + dd,
                       dtype=y.blocks.dtype)
        out[...] = y.blocks.reshape(batch + (2 ** i, 1) * self.n + dd)
        return _op(out.reshape(batch + (-1,) + dd), self.level_algebra(k))

    # dyadic cube helpers --------------------------------------------------
    def dilation_cubes(self, k: int, delta: int) -> np.ndarray:
        """(offsets, cells) indices of the level-k cubes Q whose concentric
        dilation delta*Q holds each cell (torus wrap): row o gives the cube
        o cubes away along each axis, so each (cube, cell) pair comes once,
        in at most delta^n rows of one cell each and no (cubes, cells)
        array."""
        if delta % 2 == 0 or delta < 1:
            raise ContractViolation("concentric dilation factor must be odd")
        # along each axis a cell lies in delta*Q iff its level-k cube is at
        # most (delta - 1)/2 cubes away from Q, mod 2^k: the offsets
        # -(delta - 1)/2 .. (delta - 1)/2, or every residue once delta >= 2^k
        # covers the whole axis
        m = 2 ** k
        steps = np.arange(m) if delta >= m \
            else np.arange(delta) - (delta - 1) // 2
        along = (np.arange(self.side) // 2 ** (self.K - k)
                 - steps[:, None]) % m
        if self.n == 1:
            return along
        return (along[:, None, :, None] * m
                + along[None, :, None, :]).reshape(len(steps) ** 2, -1)


def build_filtration(spec: AlgebraSpec | str) -> Filtration:
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if spec.kind == "tensor":
        return TensorDyadicFiltration(*spec.params)
    if spec.kind == "grid":
        return GridFiltration(*spec.params)
    raise ContractViolation(f"unsupported spec {spec}")

