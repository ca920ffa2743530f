"""Martingales, transform families, square functions and BMO norms."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolation, NumericError
from .filtration import Filtration, GridFiltration
from .opcore import (Op, _op, _per_entry, eigvalsh, l2_norm, op_norm,
                     opnorm, psd_sqrt, schatten_norm)


# the eigenvalue floor below which ``Martingale.is_positive`` fails
POSITIVE_TOL = 1e-10


class Martingale:
    """Finite adapted sequence f_k = E_k(f) over the filtration levels.

    ``seq`` and ``diffs`` are Ops batched over the levels; ``restricted``
    holds each f_k in the coordinates of M_k (``Filtration.restrict``).
    The convention f_{before first level} = 0 makes the first difference
    equal to the first conditional expectation, so sum(df) = f_top.

    A batched ``top`` (*batch, nblocks, d, d) gives a batch of martingales:
    the level axis is axis -4 of ``seq`` and ``diffs``, behind the batch
    axes, and the cached norms give one value per entry.
    """

    def __init__(self, filtration: Filtration, top: Op):
        if not np.isfinite(top.blocks).all():   # where the data enters
            raise NumericError("martingale top entries must be finite")
        self.filtration = filtration
        self.levels = list(filtration.levels)
        self.restricted = [filtration.restrict(top, k) for k in self.levels]
        self.seq = _op(np.stack([filtration.extend(y, k).blocks for k, y in
                                 zip(self.levels, self.restricted)], axis=-4),
                       filtration.algebra)
        self.diffs = _op(np.diff(self.seq.blocks, axis=-4, prepend=0.0),
                         filtration.algebra)

    @property
    def top(self) -> Op:
        return self.seq[..., -1, :, :, :]

    @property
    def batch(self) -> tuple:
        """The batch axes in front of the level axis."""
        return self.seq.batch[:-1]

    @property
    def algebra(self):
        return self.filtration.algebra

    def expect_each(self, x: Op, lag: int = 0) -> Op:
        """E at the level ``lag`` positions before i, applied to the entry
        x_i of a family aligned with the levels on axis -4 (zero for
        i < lag); leading batch axes pass through."""
        out = np.zeros_like(x.blocks)
        for i in range(lag, len(self.levels)):
            out[..., i, :, :, :] = self.filtration.expect(
                x[..., i, :, :, :], self.levels[i - lag]).blocks
        return _op(out, self.algebra)

    def level_norms(self, x: Op, p: float):
        """||E_k(x_k)||_p, level axis last, of each entry x_k of a Hermitian
        family aligned with the levels on axis -4, measured in M_k."""
        return np.stack([schatten_norm(self.filtration.restrict(
            x[..., i, :, :, :], k), p, hermitian=True)
            for i, k in enumerate(self.levels)], axis=-1)

    @cached_property
    def sup_l1(self):
        """max_k ||f_k||_1 = ||f_top||_1 per entry: each E_k is a positive,
        unital, trace-preserving contraction of L_1 (Cuculescu 1971)."""
        return schatten_norm(self.top, 1)

    @cached_property
    def sup_linf(self):
        """max_k ||f_k||_inf = ||f_top||_inf per entry: E_k contracts L_inf."""
        return op_norm(self.top)

    @cached_property
    def spectral_floor(self):
        """Smallest eigenvalue of the Hermitian parts of all f_k per entry,
        f_top's: E_k is positive, unital and commutes with the adjoint, so
        Re f_top >= m 1 gives Re f_k = E_k(Re f_top) >= m 1."""
        return _per_entry(eigvalsh(self.top.hermitize().blocks).min(
            axis=(-2, -1)))

    def is_positive(self, tol: float = POSITIVE_TOL) -> bool:
        """Every entry positive: a Hermitian top (positive implies self-
        adjoint) with no eigenvalue below -tol, and so every f_k."""
        return self.top.is_hermitian() and bool(
            np.all(np.asarray(self.spectral_floor) >= -tol))


@dataclass
class CoeffMatrix:
    """Transform coefficients xi[k, m], k indexing martingale differences."""

    entries: np.ndarray  # (K_max, M_max) complex

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2:
            raise ContractViolation("coefficient matrix must be 2-D")
        if not np.isfinite(self.entries).all():
            raise NumericError("transform coefficients must be finite")

    @property
    def k_max(self) -> int:
        return self.entries.shape[0]

    @property
    def m_max(self) -> int:
        return self.entries.shape[1]

    def row_sums(self) -> np.ndarray:
        return (np.abs(self.entries) ** 2).sum(axis=1)

    @property
    def row_bound(self) -> float:
        return float(self.row_sums().max())

    def apply(self, x: Op) -> Op:
        """The family (sum_k xi[k, m] x_k)_m from a family (x_k)."""
        return _op(np.einsum("km,k...->m...", self.entries,
                             x.blocks[:self.k_max]), x.algebra)


def _one_martingale(f: Martingale, name: str):
    """Reject a batched f where the level axis must be axis 0."""
    if f.batch != ():
        raise ContractViolation(f"{name} takes one martingale, got a batch "
                                f"of shape {f.batch}")


def transform_family(f: Martingale, xi: CoeffMatrix) -> Op:
    """T_m f = sum_k xi[k, m] df_k (k enumerates the difference sequence),
    batched over m."""
    _one_martingale(f, "transform_family")
    if xi.k_max > len(f.diffs):
        raise ContractViolation(
            f"coefficients use {xi.k_max} differences, martingale has {len(f.diffs)}")
    return xi.apply(f.diffs)


def row_square(g: Op) -> Op:
    """(sum_m g_m g_m*)^{1/2} of a family g batched over m."""
    return psd_sqrt((g @ g.H).sum())


def col_square(g: Op) -> Op:
    return psd_sqrt((g.H @ g).sum())


def lp_rc_norm(g: Op, p: float) -> float:
    """max of the row and column square-function norms in L_p, p >= 2."""
    if p < 2:
        raise ContractViolation("lp_rc_norm requires p >= 2; "
                                "use split_upper_bound for p < 2")
    return max(schatten_norm(row_square(g), p), schatten_norm(col_square(g), p))


def split_upper_bound(row_part: Op, col_part: Op, p: float) -> float:
    """Upper bound for the p < 2 sum-norm from one explicit splitting."""
    return schatten_norm(row_square(row_part), p) + \
        schatten_norm(col_square(col_part), p)


def l2_identity_check(f: Martingale, xi: CoeffMatrix) -> float:
    """| ||(T_m f)||^2_{L2(l2)} - sum_k gamma_k ||df_k||_2^2 |.

    gamma_k are the coefficient row sums; unit rows give the plain identity.
    """
    lhs = float((l2_norm(transform_family(f, xi)) ** 2).sum())
    rhs = float(xi.row_sums() @ l2_norm(f.diffs[:xi.k_max]) ** 2)
    return abs(lhs - rhs)


def bmo_norms(f: Martingale) -> tuple[float, float, float]:
    """Martingale BMO_r, BMO_c and their max.

    BMO_c = sup_n || [E_n( sum_{k>=n} df_k* df_k )]^{1/2} ||_inf, with the
    row version using df_k df_k*.
    """
    _one_martingale(f, "bmo_norms")
    d = f.diffs
    # the supremum starts after the coarsest level: the zeroth difference
    # is f at the first level itself, not an oscillation
    start = min(1, len(f.levels) - 1)
    out = []
    for sq in (d @ d.H, d.H @ d):
        tails = _op(np.cumsum(sq.blocks[::-1], axis=0)[::-1], f.algebra)
        out.append(float(np.sqrt(f.level_norms(tails, np.inf)[start:].max())))
    return out[0], out[1], max(out)


def function_bmo(filtration: GridFiltration, fs: Op) -> tuple[float, float]:
    """Function-BMO of a grid function or of the family of the entries of a
    batched Op.

    For each dyadic cube Q (every level, dyadic grid plus the grids shifted
    by half a side along any set of axes, 2^n in all, on the torus) computes
    the block norm of
    (1/|Q|) int_Q sum_m (f_m - (f_m)_Q)(f_m - (f_m)_Q)* dx  (row flavor)
    and the adjoint-ordered column flavor; returns the square-root suprema.
    These are ||A||/|Q|^{1/2} and ||B||/|Q|^{1/2}, A the (d, member.cell.d)
    row of Q's deviations and B the (member.cell.d, d) column.
    """
    n, d = filtration.n, filtration.d
    b = fs.blocks.reshape((-1,) + fs.blocks.shape[-3:])
    sp = b.reshape((len(b),) + (filtration.side,) * n + (d, d))
    axes = (-3,) if n == 1 else (-5, -3)     # cell offsets inside a cube
    bmo_r = 0.0
    bmo_c = 0.0
    for k in filtration.levels:
        L = 2 ** (filtration.K - k)
        for shift in itertools.product(sorted({0, L // 2}), repeat=n):
            rolled = np.roll(sp, shift=[-t for t in shift],
                             axis=range(1, n + 1))
            cubes = filtration.cubes(rolled.reshape(b.shape), k)
            dev = cubes - cubes.mean(axis=axes, keepdims=True)
            dev = np.moveaxis(dev, axes, range(-2 - n, -2)).reshape(
                len(b), -1, L ** n, d, d)         # (member, cube, cell)
            q, width = dev.shape[1], len(b) * L ** n * d
            row = dev.transpose(1, 3, 0, 2, 4).reshape(q, d, width)
            col = dev.transpose(1, 0, 2, 3, 4).reshape(q, width, d)
            bmo_r = max(bmo_r, float(opnorm(row).max() / np.sqrt(L ** n)))
            bmo_c = max(bmo_c, float(opnorm(col).max() / np.sqrt(L ** n)))
    return bmo_r, bmo_c
