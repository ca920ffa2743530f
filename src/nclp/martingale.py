"""Martingales, transform families, square functions and BMO norms."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolation
from .filtration import Filtration, GridFiltration
from .opcore import Op, l2_norm, op_norm, schatten_norm


class Martingale:
    """Finite adapted sequence f_k = E_k(f) over the filtration levels.

    The convention f_{before first level} = 0 makes the first difference
    equal to the first conditional expectation, so sum(df) = f_top.
    """

    def __init__(self, filtration: Filtration, top: Op):
        self.filtration = filtration
        self.levels = list(filtration.levels)
        self.seq = [filtration.expect(top, k) for k in self.levels]
        self.diffs = [self.seq[0]] + [self.seq[i] - self.seq[i - 1]
                                      for i in range(1, len(self.seq))]

    @property
    def top(self) -> Op:
        return self.seq[-1]

    @property
    def algebra(self):
        return self.filtration.algebra

    def expect_before(self, i: int, x: Op) -> Op:
        """E at the level preceding position i (the zero map for i = 0)."""
        if i == 0:
            return self.algebra.zero()
        return self.filtration.expect(x, self.levels[i - 1])

    @cached_property
    def sup_l1(self) -> float:
        """max_k ||f_k||_1 from one stacked svd, computed once like
        ``spectral_floor``."""
        s = np.linalg.svd(np.stack([f.blocks for f in self.seq]),
                          compute_uv=False)
        return float((s.sum(axis=-1) @ self.algebra.weights).max())

    @cached_property
    def spectral_floor(self) -> float:
        """Smallest eigenvalue of the Hermitian parts of all f_k, from one
        stacked eigen-solve; ``seq`` never changes, so it is computed once."""
        b = np.stack([f.blocks for f in self.seq])
        return float(np.linalg.eigvalsh(
            0.5 * (b + b.conj().swapaxes(-1, -2))).min())

    def is_positive(self, tol: float = 1e-10) -> bool:
        return self.spectral_floor >= -tol


@dataclass
class CoeffMatrix:
    """Transform coefficients xi[k, m], k indexing martingale differences."""

    entries: np.ndarray  # (K_max, M_max) complex

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2:
            raise ContractViolation("coefficient matrix must be 2-D")

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


def dirac_coeffs(K: int) -> CoeffMatrix:
    return CoeffMatrix(np.eye(K, dtype=complex))


def partition_coeffs(K: int, parts: list[list[int]]) -> CoeffMatrix:
    xi = np.zeros((K, len(parts)), dtype=complex)
    for m, block in enumerate(parts):
        for k in block:
            xi[k, m] = 1.0
    return CoeffMatrix(xi)


@dataclass
class OperatorFamily:
    """Indexed finite family (g_m) of operators in one algebra."""

    ops: list[Op] = field(default_factory=list)

    def __post_init__(self):
        dims = {(g.algebra.nblocks, g.algebra.d) for g in self.ops}
        if len(dims) > 1:
            raise ContractViolation("family members must share one algebra")

    def __len__(self):
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __getitem__(self, m):
        return self.ops[m]


def transform_family(f: Martingale, xi: CoeffMatrix) -> OperatorFamily:
    """T_m f = sum_k xi[k, m] df_k (k enumerates the difference sequence)."""
    if xi.k_max > len(f.diffs):
        raise ContractViolation(
            f"coefficients use {xi.k_max} differences, martingale has {len(f.diffs)}")
    out = []
    for m in range(xi.m_max):
        acc = f.algebra.zero()
        for k in range(xi.k_max):
            c = xi.entries[k, m]
            if c != 0:
                acc = acc + c * f.diffs[k]
        out.append(acc)
    return OperatorFamily(out)


def row_square(g: OperatorFamily) -> Op:
    """(sum_m g_m g_m*)^{1/2}."""
    acc = g[0].algebra.zero()
    for gm in g:
        acc = acc + gm @ gm.H
    return _psd_sqrt(acc)


def col_square(g: OperatorFamily) -> Op:
    acc = g[0].algebra.zero()
    for gm in g:
        acc = acc + gm.H @ gm
    return _psd_sqrt(acc)


def _psd_sqrt(a: Op) -> Op:
    w, v = np.linalg.eigh(a.hermitize().blocks)
    w = np.clip(w, 0.0, None)
    return Op((v * np.sqrt(w)[:, None, :]) @ v.conj().transpose(0, 2, 1),
              a.algebra)


def lp_rc_norm(g: OperatorFamily, p: float) -> float:
    """max of the row and column square-function norms in L_p, p >= 2."""
    if p < 2:
        raise ContractViolation("lp_rc_norm requires p >= 2; "
                                "use split_upper_bound for p < 2")
    return max(schatten_norm(row_square(g), p), schatten_norm(col_square(g), p))


def split_upper_bound(row_part: OperatorFamily, col_part: OperatorFamily,
                      p: float) -> float:
    """Upper bound for the p < 2 sum-norm from one explicit splitting."""
    return schatten_norm(row_square(row_part), p) + \
        schatten_norm(col_square(col_part), p)


def l2_family_norm_sq(g: OperatorFamily) -> float:
    return float(sum(l2_norm(gm) ** 2 for gm in g))


def l2_identity_check(f: Martingale, xi: CoeffMatrix) -> float:
    """| ||(T_m f)||^2_{L2(l2)} - sum_k gamma_k ||df_k||_2^2 |.

    gamma_k are the coefficient row sums; unit rows give the plain identity.
    """
    fam = transform_family(f, xi)
    lhs = l2_family_norm_sq(fam)
    gam = xi.row_sums()
    rhs = float(sum(gam[k] * l2_norm(f.diffs[k]) ** 2 for k in range(xi.k_max)))
    return abs(lhs - rhs)


def bmo_norms(f: Martingale) -> tuple[float, float, float]:
    """Martingale BMO_r, BMO_c and their max.

    BMO_c = sup_n || [E_n( sum_{k>=n} df_k* df_k )]^{1/2} ||_inf, with the
    row version using df_k df_k*.
    """
    bmo_r = 0.0
    bmo_c = 0.0
    npos = len(f.levels)
    # the supremum starts after the coarsest level: the zeroth difference
    # is f at the first level itself, not an oscillation
    for i in range(min(1, npos - 1), npos):
        tail_r = f.algebra.zero()
        tail_c = f.algebra.zero()
        for k in range(i, npos):
            d = f.diffs[k]
            tail_r = tail_r + d @ d.H
            tail_c = tail_c + d.H @ d
        er = f.filtration.expect(tail_r, f.levels[i])
        ec = f.filtration.expect(tail_c, f.levels[i])
        bmo_r = max(bmo_r, np.sqrt(max(op_norm(er), 0.0)))
        bmo_c = max(bmo_c, np.sqrt(max(op_norm(ec), 0.0)))
    return bmo_r, bmo_c, max(bmo_r, bmo_c)


def function_bmo(filtration: GridFiltration, fs) -> tuple[float, float]:
    """Function-BMO of a (family of) grid functions.

    For each dyadic cube Q (every level, dyadic grid plus the 2^n half-side
    shifted grids on the torus) computes the block norm of
    (1/|Q|) int_Q sum_m (f_m - (f_m)_Q)(f_m - (f_m)_Q)* dx  (row flavor)
    and the adjoint-ordered column flavor; returns the square-root suprema.
    """
    if isinstance(fs, Op):
        fs = [fs]
    n, K, d = filtration.n, filtration.K, filtration.d
    side = filtration.side
    bmo_r = 0.0
    bmo_c = 0.0
    for k in filtration.levels:
        L = 2 ** (K - k)
        shifts = [0] if L == 1 else [0, L // 2]
        for shift in shifts:
            acc_r = None
            acc_c = None
            for f in fs:
                sp = filtration._spatial(f.blocks)
                sp = np.roll(sp, shift=(-shift,) * n, axis=tuple(range(n)))
                if n == 1:
                    resh = sp.reshape(2 ** k, L, d, d)
                    mean = resh.mean(axis=1, keepdims=True)
                    dev = resh - mean
                    g_r = np.einsum("qlab,qlcb->qac", dev, dev.conj()) / L
                    g_c = np.einsum("qlba,qlbc->qac", dev.conj(), dev) / L
                else:
                    resh = sp.reshape(2 ** k, L, 2 ** k, L, d, d)
                    mean = resh.mean(axis=(1, 3), keepdims=True)
                    dev = resh - mean
                    g_r = np.einsum("qlrmab,qlrmcb->qrac", dev, dev.conj()) / L ** 2
                    g_c = np.einsum("qlrmba,qlrmbc->qrac", dev.conj(), dev) / L ** 2
                g_r = g_r.reshape(-1, d, d)
                g_c = g_c.reshape(-1, d, d)
                acc_r = g_r if acc_r is None else acc_r + g_r
                acc_c = g_c if acc_c is None else acc_c + g_c
            bmo_r = max(bmo_r, float(np.sqrt(
                np.linalg.norm(acc_r, ord=2, axis=(1, 2)).max())))
            bmo_c = max(bmo_c, float(np.sqrt(
                np.linalg.norm(acc_c, ord=2, axis=(1, 2)).max())))
    return bmo_r, bmo_c
