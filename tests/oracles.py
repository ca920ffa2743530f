"""Reference operators, coefficients, projection meets, cube maps and
kernel checks that only the tests compute."""
import math
from dataclasses import dataclass

import numpy as np

from nclp.errors import ContractViolation, NumericError
from nclp.martingale import CoeffMatrix
from nclp.opcore import (Op, _per_entry, eigvalsh, hermitian_part,
                         null_projection, op_norm, psd_sqrt, schatten_norm)
from nclp.pseudoloc import (_cube_cells, _cube_starts, _ekt_delta_cols,
                            _haar_levels, _on_rows, ihaar, phi_s_hat)


def abs_op(a: Op) -> Op:
    """|a| = (a* a)^{1/2}."""
    return psd_sqrt(a.H @ a)


def dirac_coeffs(K: int) -> CoeffMatrix:
    return CoeffMatrix(np.eye(K, dtype=complex))


def partition_coeffs(K: int, parts: list[list[int]]) -> CoeffMatrix:
    xi = np.zeros((K, len(parts)), dtype=complex)
    for m, block in enumerate(parts):
        for k in block:
            xi[k, m] = 1.0
    return CoeffMatrix(xi)


def level_sup_l1(f):
    """max_k ||f_k||_1 per entry of a Martingale, level by level."""
    return _per_entry(np.max(schatten_norm(f.seq, 1), axis=-1))


def level_sup_linf(f):
    """max_k ||f_k||_inf per entry, level by level."""
    return _per_entry(np.max(op_norm(f.seq), axis=-1))


def level_spectral_floor(f):
    """The smallest eigenvalue of the Hermitian parts of all f_k per entry,
    from one eigen-solve of every level."""
    return _per_entry(eigvalsh(f.seq.hermitize().blocks).min(
        axis=(-3, -2, -1)))


def is_projection(p: Op, tol: float = 1e-10):
    """Per entry, p = p* = p^2 up to tol times max(1, its largest entry)."""
    axes = (-3, -2, -1)
    cut = tol * np.maximum(np.abs(p.blocks).max(axis=axes), 1.0)
    herm = np.abs(p.blocks - p.H.blocks).max(axis=axes) <= cut
    idem = np.abs((p @ p).blocks - p.blocks).max(axis=axes) <= cut
    return _per_entry(herm & idem)


def proj_meet(ps: Op) -> Op:
    """Meet of the projections along the first batch axis of ps (range =
    intersection of ranges): the null space of sum_i (1 - p_i)."""
    if not ps.batch or len(ps) == 0:
        raise ContractViolation("proj_meet needs a non-empty batch")
    return null_projection((ps.algebra.unit() - ps).sum())


def proj_join(ps: Op) -> Op:
    """Join of projections: 1 - meet(1 - p_i)."""
    one = ps.algebra.unit()
    return one - proj_meet(one - ps)


# -- dyadic cubes of a GridFiltration, one at a time --------------------------

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


def cubes_at_level(filt, k: int) -> list:
    """All dyadic cubes of level k, in the raster order of the filtration's
    level-k blocks."""
    side = 2 ** k
    if filt.n == 1:
        return [DyadicCube(k, (c,), 1) for c in range(side)]
    return [DyadicCube(k, (a, b), 2) for a in range(side) for b in range(side)]


def cube_cells(filt, Q: DyadicCube) -> np.ndarray:
    """Flat cell indices of a dyadic cube."""
    L = 2 ** (filt.K - Q.level)
    axes = [np.arange(c * L, (c + 1) * L) for c in Q.corner]
    if filt.n == 1:
        return axes[0]
    return (axes[0][:, None] * filt.side + axes[1][None, :]).ravel()


def cube_of_cell(filt, cell: int, k: int) -> DyadicCube:
    L = 2 ** (filt.K - k)
    if filt.n == 1:
        return DyadicCube(k, (cell // L,), 1)
    i, j = divmod(cell, filt.side)
    return DyadicCube(k, (i // L, j // L), 2)


def concentric_mask(filt, Q: DyadicCube, delta: int) -> np.ndarray:
    """Boolean cell mask of the concentric dilation delta*Q (torus wrap),
    built one axis at a time from the cube's cell range."""
    L = 2 ** (filt.K - Q.level)
    r = (delta - 1) // 2
    mask_axes = []
    for c in Q.corner:
        m = np.zeros(filt.side, dtype=bool)
        lo = c * L - r * L
        m[np.arange(lo, lo + delta * L) % filt.side] = True
        mask_axes.append(m)
    if filt.n == 1:
        return mask_axes[0]
    return (mask_axes[0][:, None] & mask_axes[1][None, :]).ravel()


def dilation_masks(filt, k: int, delta: int) -> np.ndarray:
    """(cubes, cells) boolean incidence of the concentric dilations delta*Q,
    one row per level-k cube: the pairs of ``filt.dilation_cubes``."""
    cubes = filt.dilation_cubes(k, delta)
    mask = np.zeros((2 ** (filt.n * k), cubes.shape[1]), dtype=bool)
    mask[cubes, np.arange(cubes.shape[1])] = True
    return mask


def dyadic_father(Q: DyadicCube) -> DyadicCube:
    if Q.level == 0:
        raise ContractViolation("the level-0 cube has no dyadic father")
    return DyadicCube(Q.level - 1, tuple(c // 2 for c in Q.corner), Q.n)


def zeta_cube_inequalities_pairs(zd) -> dict:
    """``zeta_cube_inequalities`` as it was first written: every (cube, cell)
    pair of every 9Q in one array, from ``dilation_masks``, and one stacked
    eigvalsh over all of them."""
    filt, qs = zd.parts.filtration, zd.parts.qs.blocks
    strong, weak = [], []
    for pos, k in enumerate(zd.parts.martingale.levels[1:], start=1):
        # the father of the cube at corner c is the level-(k-1) cube at
        # corner c // 2
        cube, cell = np.nonzero(dilation_masks(filt, k, 9))
        corner = np.unravel_index(cube, (2 ** k,) * filt.n)
        father = np.ravel_multi_index(tuple(c // 2 for c in corner),
                                      (2 ** (k - 1),) * filt.n)
        xi_q = qs[..., pos, filt.first_cells(k)[cube], :, :]
        xi_hat = qs[..., pos - 1, filt.first_cells(k - 1)[father], :, :]
        zb = zd.zeta.blocks[..., cell, :, :]
        strong.append(np.eye(filt.d) - xi_hat + xi_q - zb)
        weak.append(xi_q - zb)
    h = np.stack([np.concatenate(strong, axis=-3),
                  np.concatenate(weak, axis=-3)])
    w = eigvalsh(hermitian_part(h))
    return {"strong_min_eig": w[0].min(axis=(-2, -1)),
            "weak_min_eig": w[1].min(axis=(-2, -1))}


# -- the two-bump kernel identity, one pair at a time -------------------------

def ksk_check_per_pair(T, s: int, k: int, n_pairs: int, rng) -> dict:
    """``ksk_check`` as it was first written: one ``T.apply`` of the pair's
    two-bump function psi_{Qhat_y} per sampled pair (x_i, y_j), and the
    residual and size ratio accumulated pair by pair."""
    N = T.N
    cols = _ekt_delta_cols(T, k, k + s)
    Lr = N // (1 << k)            # cells per level-k cube
    Lq = N // (1 << (k + s))      # cells per level-(k+s) cube
    resid, ratios = 0.0, []
    mids = (np.arange(N) + 0.5) / N
    ij = np.array([(rng.integers(0, N), rng.integers(0, N))
                   for _ in range(n_pairs)]).reshape(-1, 2)
    lhs_all = ihaar(np.moveaxis(cols[:, :, ij[:, 1]], -1, 0), N)[
        np.arange(n_pairs), :, ij[:, 0]] / T.measure   # (M,) per pair
    for (i, j), lhs in zip(ij.tolist(), lhs_all):
        qy = j // Lq
        sib = qy ^ 1
        psi = np.zeros(N)
        scale = 1.0 / (2.0 * Lq / N)      # 1/|Qhat_y|
        psi[qy * Lq:(qy + 1) * Lq] = scale
        psi[sib * Lq:(sib + 1) * Lq] = -scale
        tpsi = T.apply(psi)               # (M, N)
        rx = i // Lr
        rhs = tpsi[:, rx * Lr:(rx + 1) * Lr].mean(axis=1)
        resid = max(resid, float(np.abs(lhs - rhs).max()))
        # size sanity for y outside 3R_x
        d = abs(mids[i] - mids[j])
        d = min(d, 1.0 - d)
        if d > 1.5 * Lr / N:
            norm = float(np.linalg.norm(lhs))
            bound = 2.0 ** (-T.gamma * (k + s)) / d ** (1 + T.gamma)
            ratios.append(norm / max(bound, 1e-300))
    # NaN when no sampled pair is far
    return {"max_residual": resid,
            "size_constant": max(ratios, default=math.nan)}


# -- Phi_s on the two parities of the half shift, and T0 ----------------------
# ``pseudoloc-decay`` split T0's Haar block by the parities of the shift S by
# half the torus, and took T0 = T - Pi_rho* off T's; ``phi_s_blocks``
# continues the split down every dyadic period, and T0 = T for a circulant.
# In Haar coordinates S fixes h_0, negates h_1 and swaps h_i, h_{i+2^{l-1}}
# at each level l >= 1, so its eigenvectors keep the level of h_i.

def _parity(x: np.ndarray) -> np.ndarray:
    """(2, ..., n/2): the even coordinates h_0, (h_i + h_{i+2^{l-1}})/sqrt(2)
    and the odd ones h_1, (h_i - h_{i+2^{l-1}})/sqrt(2) of x (..., n)."""
    out = np.empty((2,) + x.shape[:-1] + (x.shape[-1] // 2,), dtype=x.dtype)
    out[:, ..., 0] = x[..., 0], x[..., 1]
    for h in 1 << np.arange(x.shape[-1].bit_length() - 2):   # h = 2^{l-1}
        a, b = x[..., 2 * h:3 * h], x[..., 3 * h:4 * h]
        out[:, ..., h:2 * h] = (a + b) / np.sqrt(2), (a - b) / np.sqrt(2)
    return out


def half_shift_split(t_hat: np.ndarray) -> np.ndarray:
    """(2, ..., rows/2, N/2): the even and odd blocks of Haar-coefficient
    matrices (..., rows >= 2, N) that commute with S, the larger norm being
    theirs; NumericError when a cross block exceeds 1e-12 max|t_hat|."""
    parts = _parity(_on_rows(_parity, t_hat))     # [col parity, row parity]
    cross = np.abs(parts[[0, 1], [1, 0]]).max()
    if not cross <= 1e-12 * np.abs(t_hat).max():
        raise NumericError(f"does not commute with the half shift: {cross:g}")
    return parts[[0, 1], [0, 1]]


def split_phi_s_hat(split: np.ndarray, s: int) -> np.ndarray:
    """``phi_s_hat`` of the even and odd blocks of ``half_shift_split``,
    each in its own level order: h_0 (level -1) first in the even block,
    h_1 (level 0) in the odd, then 2^{l-1} pairs at each level l >= 1."""
    odd = _haar_levels(split.shape[-1].bit_length() - 1) + 1
    return np.stack([phi_s_hat(part, s, lev) for part, lev
                     in zip(split, (np.r_[-1, odd[1:]], odd))])


def paraproduct_correction(t_hat: np.ndarray) -> np.ndarray:
    """The Haar-coefficient matrices of T0 = T - Pi_rho* with rho = T*1,
    read off those of T, t_hat = H T H^T (..., rows, N), the first rows
    (row 0 at least) or all, without forming Pi_rho*; t_hat is
    overwritten.

    Row 0 of H is the constant N^{-1/2}, so conj(rho_i) = sqrt(N) t[0, i],
    and column i >= 1 of H Pi_rho* H^T is conj(rho_i) / #Q_i times the Haar
    coefficients of 1_{Q_i}.  With a[r, i] = sqrt(N) <1_{Q_i} / #Q_i, h_r>,
    T0 has the coefficients t - t[0] a.  The paraproduct drops the
    constant, so column 0 of a is 0; on column i >= 1, a is
    +-sqrt(N) / sqrt(#Q_r) on row 0 (+) and on the rows r whose cube Q_r
    strictly contains Q_i (+ on the first half), and 0 elsewhere: only
    the rows of t_hat are formed."""
    rows, N = t_hat.shape[-2:]
    K = N.bit_length() - 1
    lev, cells, start = _haar_levels(K), _cube_cells(K), _cube_starts(K)
    r_lev, r_cells, r_start = (x[:rows, None] for x in (lev, cells, start))
    inside = (r_lev < lev) & (r_start <= start) & (start < r_start + r_cells)
    first = (r_lev < 0) | (start < r_start + r_cells // 2)
    a = np.sqrt(N) * np.where(inside, np.where(first, 1.0, -1.0)
                              / np.sqrt(r_cells), 0.0)
    t_hat -= t_hat[..., :1, :] * a
    return t_hat
