"""Hilbert-space-valued kernels on the dyadic torus grid (n = 1), their
discretized singular-integral operators, shifted quasi-orthogonal pieces,
kernel-identity and almost-orthogonality bounds, the paraproduct reduction,
and the commutative and semicommutative localization checks."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .czkit import zeta_fs
from .errors import ContractViolation, NumericError
from .filtration import GridFiltration
from .martingale import Martingale
from .opcore import (Op, _op, annihilation_check, dense_algebra,
                     l2_norm, opnorm, psd_sqrt)

# ---------------------------------------------------------------------------
# grid functions and the Haar transform
# ---------------------------------------------------------------------------

def grid_l2(f: np.ndarray, K: int) -> float:
    """L2 norm with the cell measure 2^{-K} (all axes summed)."""
    return float(np.sqrt(2.0 ** (-K) * (np.abs(f) ** 2).sum()))


# -- orthonormal Haar transform ----------------------------------------------
# Coefficient 0 is the constant N^{-1/2} (level -1); 2^l .. 2^{l+1} - 1 are the
# level-l wavelets +-|Q|^{-1/2} on the halves of each level-l cube Q.  E_k
# spans the first 2^k coefficients and Delta_j (j >= 1) the level-(j-1) block,
# so E_k T Delta_j is a block of H T H^T (Beylkin-Coifman-Rokhlin's
# non-standard form).

def haar(x: np.ndarray) -> np.ndarray:
    """Haar coefficients along the last axis in O(N) per vector."""
    N = x.shape[-1]
    out = np.empty(x.shape, dtype=np.result_type(x, float))
    sums = x
    for lev in range(N.bit_length() - 2, -1, -1):  # level-(lev+1) sums -> lev
        even, odd = sums[..., 0::2], sums[..., 1::2]
        out[..., 1 << lev:2 << lev] = (even - odd) / np.sqrt(N >> lev)
        sums = even + odd
    out[..., :1] = sums / np.sqrt(N)
    return out


def ihaar(c: np.ndarray, N: int) -> np.ndarray:
    """Inverse of ``haar`` along the last axis: the length-N function whose
    first 2^k Haar coefficients are c and the rest zero."""
    vals = c[..., :1] / np.sqrt(N)
    for lev in range(c.shape[-1].bit_length() - 1):   # cube values -> lev+1
        d = c[..., 1 << lev:2 << lev] / np.sqrt(N >> lev)
        vals = np.stack([vals + d, vals - d], -1).reshape(d.shape[:-1] + (-1,))
    return np.repeat(vals, N // c.shape[-1], axis=-1)


def _on_rows(f, x: np.ndarray, *args) -> np.ndarray:
    return f(x.swapaxes(-1, -2), *args).swapaxes(-1, -2)


# -- coefficients as cubes ---------------------------------------------------
# Coefficient i >= 1 belongs to the cube Q_i of its wavelet (#Q_i = N >> l
# cells at level l); the cubes of 2i and 2i + 1 are the halves of Q_i.

def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False       # one cached array serves every caller
    return a


@functools.cache
def _haar_levels(K: int) -> np.ndarray:
    """The level of each Haar coefficient (the constant's: -1)."""
    return _frozen(np.repeat(np.arange(-1, K), np.r_[1, 1 << np.arange(K)]))


@functools.cache
def _cube_cells(K: int) -> np.ndarray:
    """#Q_i of each Haar coefficient (the constant's: all 2^K cells)."""
    return _frozen(1 << (K - np.maximum(_haar_levels(K), 0)))


@functools.cache
def _cube_starts(K: int) -> np.ndarray:
    """The first cell of Q_i for each Haar coefficient (the constant's: 0)."""
    i = np.arange(1 << K)
    first = (i - (1 << np.maximum(_haar_levels(K), 0))) * _cube_cells(K)
    return _frozen(np.where(i > 0, first, 0))


def _subtree_sums(w: np.ndarray) -> np.ndarray:
    """For i >= 1 along the last axis, the sum of w over the cubes in Q_i."""
    S = w.copy()
    for lev in range(w.shape[-1].bit_length() - 3, -1, -1):
        below = S[..., 2 << lev:4 << lev]
        S[..., 1 << lev:2 << lev] += below[..., 0::2] + below[..., 1::2]
    return S


def _ancestor_sums(a: np.ndarray) -> np.ndarray:
    """x -> the sum of a_i over the cubes Q_i containing x, with i (in, from
    1) and x (out) on axis -2."""
    N = a.shape[-2]
    out = np.zeros_like(a)
    for lev in range(N.bit_length() - 1):
        L = N >> lev            # a level-lev cube's sum so far is on its row 0
        out[..., ::L, :] += a[..., 1 << lev:2 << lev, :]
        out[..., L // 2::L, :] = out[..., ::L, :]     # copied to its halves
    return out


def support_cubes(f: np.ndarray, s: int, K: int) -> list[np.ndarray]:
    """For k = 0..K-s, the level-k cubes on which Delta_{k+s} f is nonzero:
    those over a level-(k+s-1) Q with |f_Q| / sqrt(#Q) > 1e-12 max|f|."""
    scale = max(np.abs(f).max(), 1e-300)
    big = np.abs(haar(f)) / np.sqrt(_cube_cells(K)) > 1e-12 * scale
    return [big[1 << (k + s - 1):2 << (k + s - 1)].reshape(1 << k, -1)
            .any(axis=1) for k in range(K - s + 1)]


# -- Haar coefficients of a circulant ----------------------------------------
# Row i of C[i, j] = c[(i - j) mod N] read along j from a is the reversed
# column read from (a - i) mod N, so its coefficient over the cube Q at a
# depends on (a - i) mod N only.  Read along i from a', that sequence is
# in turn reversed, and the (row cube a', column cube a) coefficient
# depends on (a' - a) mod N only: a column level's block of H C H^T is
# one ``np.take`` from an (M, K+1, N) table of window sums, added in the
# order ``haar`` adds them.  A negacyclic C (wrap = -1) is the same with
# c extended by c[t + N] = -c[t]: every sequence read past its end, and
# every entry with a' < a, changes sign.

def _ahead(x: np.ndarray, h: int, wrap: int) -> np.ndarray:
    """x[u + h] along the last axis, x extended by x[t + N] = wrap x[t]."""
    head = x[..., :h]
    return np.concatenate((x[..., h:], head if wrap > 0 else -head), axis=-1)


def _reversed(x: np.ndarray, wrap: int) -> np.ndarray:
    """x[-t] along the last axis, x extended by x[t + N] = wrap x[t]."""
    rest = x[..., :0:-1]                # x[N - t] for t >= 1
    return np.concatenate((x[..., :1], rest if wrap > 0 else -rest), axis=-1)


def _haar_table(x: np.ndarray, wrap: int) -> np.ndarray:
    """(..., K+1, N): entry [r, u] is the coefficient of level r - 1 (r = 0:
    the constant) of x read from u on, x[u], x[u+1], ... (x extended by
    x[t + N] = wrap x[t]), equal bit for bit to ``haar`` of that sequence."""
    N = x.shape[-1]
    K = N.bit_length() - 1
    W = [x]              # W[e][u] = x[u] + ... + x[u + 2^e - 1], as paired
    for e in range(K):   # by haar: first half + second half
        W.append(W[-1] + _ahead(W[-1], 1 << e, wrap))
    rows = [W[K] / np.sqrt(N)]
    for lev in range(K):
        half = W[K - lev - 1]
        rows.append((half - _ahead(half, N >> (lev + 1), wrap))
                    / np.sqrt(N >> lev))
    return np.stack(rows, axis=-2)


def circulant_haar(col: np.ndarray, lo: int, hi: int,
                   rows: int | None = None, wrap: int = 1) -> np.ndarray:
    """The first ``rows`` rows (default: all) and columns lo..hi-1 of the
    Haar-coefficient matrices H C H^T of the circulants C[m, i, j] =
    col[m, (i - j) mod N] (wrap = 1), equal bit for bit to transforming
    the columns of the dense C with ``haar`` and then its rows, without
    forming C; with wrap = -1, of the negacyclic C, whose entries with
    i < j are -col[m, i - j + N]."""
    N = col.shape[-1]
    K = N.bit_length() - 1
    lev, start = _haar_levels(K) + 1, _cube_starts(K)
    r = np.arange(N if rows is None else rows)[:, None]
    q = np.arange(lo, hi)
    table = _haar_table(_reversed(col, wrap), wrap)[
        ..., lev[lo]:lev[hi - 1] + 1, :]
    table = _haar_table(_reversed(table, wrap), wrap)
    idx = (((lev[q] - lev[lo]) * (K + 1) + lev[r]) * N
           + (start[r] - start[q]) % N)
    out = np.take(table.reshape(col.shape[:-1] + (-1,)), idx, axis=-1)
    if wrap < 0:
        out *= np.where(start[r] < start[q], -1.0, 1.0)
    return out


# ---------------------------------------------------------------------------
# kernel families
# ---------------------------------------------------------------------------

def _torus_offsets(N: int) -> np.ndarray:
    """Signed torus offsets t_n = n/N of cell midpoints, in [-1/2, 1/2)."""
    return (np.arange(N) / N + 0.5) % 1.0 - 0.5


@dataclass(frozen=True)
class HilbertKernel:
    """M-component convolution kernel t -> C^M on the torus with declared
    size/smoothness data."""

    family: str                  # "lp-bumps" | "hilbert" | "annuli"
    M: int
    gamma: float
    cutoff: float = 0.0          # only used by the Hilbert-type family

    def column(self, N: int) -> np.ndarray:
        """(M, N) kernel values at the offsets ``_torus_offsets(N)``."""
        t = _torus_offsets(N)
        if self.family == "lp-bumps":
            # k_m(t) = 2^m b(2^m t), b(u) = u (1 - u^2)^2 on |u| < 1
            scale = 2.0 ** np.arange(1, self.M + 1)[:, None]
            u = scale * t
            return scale * np.where(np.abs(u) < 1.0, u * (1.0 - u * u) ** 2,
                                    0.0)
        if self.family == "hilbert":
            # 1/t on 0 < |t| <= cutoff, tapered by min(1, 2 (1 - |t|/cutoff))
            inv = np.divide(1.0, t, out=np.zeros(N), where=t != 0.0)
            vals = np.where(np.abs(t) > self.cutoff, 0.0, inv)
            taper = np.clip(2.0 * (1.0 - np.abs(t) / self.cutoff), 0.0, 1.0)
            return (vals * taper)[None, :]
        if self.family == "annuli":
            # the multipliers of the annuli 2^k <= |xi| < 2^{k+1}
            xi = np.abs(np.fft.fftfreq(N, d=1.0 / N))
            lo = 2.0 ** np.arange(self.M)[:, None]
            return np.fft.ifft(((xi >= lo) & (xi < 2.0 * lo)).astype(float))
        raise ContractViolation(f"unknown kernel family {self.family!r}")


def lp_bumps_kernel(M: int) -> HilbertKernel:
    """Mean-zero dilated odd bumps k_m = 2^m phi(2^m t), gamma = 1."""
    return HilbertKernel("lp-bumps", M, gamma=1.0)


def hilbert_kernel(cutoff: float = 0.25) -> HilbertKernel:
    """Single-component truncated odd 1/t kernel with a Lipschitz taper."""
    return HilbertKernel("hilbert", 1, gamma=1.0, cutoff=cutoff)


def annuli_kernel(K: int) -> HilbertKernel:
    """Dyadic frequency multipliers, one per annulus 2^k <= |xi| < 2^{k+1}."""
    return HilbertKernel("annuli", K, gamma=1.0)


# ---------------------------------------------------------------------------
# discretized operators
# ---------------------------------------------------------------------------

@dataclass
class DiscOp:
    """Circulant realization of L2(grid) -> L2(grid) (x) C^M: the kernel
    matrices are C[m, i, j] = column[m, (i - j) mod N].

    ``column`` includes the quadrature measure 2^{-K}; the kernel value at
    (x_i, y_j) is C[m, i, j] * 2^K.
    """

    column: np.ndarray           # (M, N)
    K: int
    kernel: HilbertKernel | None

    @property
    def N(self) -> int:
        return 2 ** self.K

    @property
    def M(self) -> int:
        return self.column.shape[0]

    @property
    def measure(self) -> float:
        return 2.0 ** (-self.K)

    @property
    def gamma(self) -> float:
        """The kernel's declared smoothness exponent, 1 without a kernel."""
        return self.kernel.gamma if self.kernel else 1.0

    @property
    def mats(self) -> np.ndarray:
        """The dense (M, N, N) kernel matrices, built on every read; no
        experiment reads them, only dense test oracles and array counts."""
        i = np.arange(self.N)
        return np.take(self.column, (i[:, None] - i) % self.N, axis=1)

    def apply(self, f: np.ndarray) -> np.ndarray:
        """(M, N, ...) result of T f for cellwise data f of shape (N, ...):
        the circular convolution of each component with f, by FFT."""
        dtype = np.result_type(self.column, f)
        c = self.column[(...,) + (None,) * (np.ndim(f) - 1)]
        if dtype.kind == "c":
            out = np.fft.ifft(np.fft.fft(c, axis=1) * np.fft.fft(f, axis=0),
                              axis=1)
        else:
            out = np.fft.irfft(np.fft.rfft(c, axis=1)
                               * np.fft.rfft(f, axis=0), self.N, axis=1)
        return out.astype(dtype, copy=False)


def assemble(kernel: HilbertKernel, K: int) -> DiscOp:
    """The circulant with first column ``kernel.column(2^K)``.  Except for
    the ``annuli`` multipliers (left as they are) it is a midpoint
    quadrature: scaled by 2^{-K}, with hard zero on the diagonal."""
    if K < 2:
        raise ContractViolation("grid depth K >= 2 required")
    N = 2 ** K
    col = kernel.column(N)
    if not np.all(np.isfinite(col)):
        bad = np.argwhere(~np.isfinite(col))[0]
        raise NumericError(f"kernel evaluation not finite at {tuple(bad)}")
    if kernel.family != "annuli":
        col *= 2.0 ** (-K)
        col[:, 0] = 0.0
    return DiscOp(col, K, kernel)


# -- operator norms ----------------------------------------------------------

def symbol_norm(T: DiscOp) -> float:
    """||T|| from the column: the DFT diagonalizes every circulant, so
    ||T||^2 = max_xi sum_m |fft(column_m)(xi)|^2 (P. J. Davis, Circulant
    Matrices, 1979)."""
    if not np.all(np.isfinite(T.column)):
        raise NumericError("symbol of a non-finite operator column")
    with np.errstate(over="ignore"):                    # checked below
        top = (np.abs(np.fft.fft(T.column, axis=-1)) ** 2).sum(axis=0).max()
    if not np.isfinite(top):
        raise NumericError("symbol norm overflows")
    return float(np.sqrt(top))


def normalized(T: DiscOp) -> DiscOp:
    """T / ||T||, the norm from ``symbol_norm``."""
    est = symbol_norm(T)
    if est <= 0:
        raise NumericError("cannot normalize a zero operator")
    return DiscOp(T.column / est, T.K, T.kernel)


# ---------------------------------------------------------------------------
# shifted quasi-orthogonal pieces, as blocks of Haar-coefficient matrices
# ---------------------------------------------------------------------------

def _check_s(K: int, s: int):
    if not 1 <= s < K:
        raise ContractViolation(f"shift s = {s} outside 1..{K - 1}")


def _ekt_delta_cols(T: DiscOp, k: int, j: int) -> np.ndarray:
    """E_k T Delta_j (j >= 1), (M, 2^k, N), with its columns in cells and
    its rows still the Haar coefficients below level k."""
    half = 1 << (j - 1)
    block = circulant_haar(T.column, half, 2 * half, 1 << k)
    return ihaar(np.pad(block, [(0, 0), (0, 0), (half, 0)]), T.N)


def ekt_delta(T: DiscOp, k: int, j: int) -> np.ndarray:
    """E_k T Delta_j (j >= 1) as kernel matrices (M, N, N)."""
    return _on_rows(ihaar, _ekt_delta_cols(T, k, j), T.N)


def phi_s_hat(t_hat: np.ndarray, s: int,
              lev: np.ndarray | None = None) -> np.ndarray:
    """Haar coefficients of Phi_s from those of T (``circulant_haar`` of
    its column, or any Haar-coefficient matrices with at least 2^{K-s}
    rows): the entries with row level <= column level - s.  Phi_s maps
    into E_{K-s}, so only the rows below level K - s, the ones that can be
    nonzero, are returned.  ``lev`` gives the ascending levels of the rows
    and columns of a block of ``phi_s_blocks`` (default: the Haar levels);
    the finest columns are at level K - 1 in either case."""
    if lev is None:
        lev = _haar_levels(t_hat.shape[-1].bit_length() - 1)
    K = int(lev[-1]) + 1
    _check_s(K, s)
    rows = np.count_nonzero(lev < K - s)
    return np.where(lev[:rows, None] <= lev - s, t_hat[..., :rows, :], 0.0)


def phi_s_blocks(T: DiscOp, s: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(Haar block, levels of its coefficients) of T on the dyadic periods
    (README), which Phi_s keeps: on V_j, j = 1..K-s, the functions of period
    N/2^{j-1} and antiperiod N/2^j, the first 2^{K-s-j} rows of the
    negacyclic matrix of o_j on N/2^j cells, its constant at level j - 1
    and its level-l wavelets at level l + j; then row 0 (h_0, level -1) of
    the cyclic c_{K-s} on W_{K-s}, the functions of period 2^s.  o_j and c_j
    are the difference and the sum of the halves of c_{j-1}, c_0 = T.column.
    Phi_s at every shift >= s is ``phi_s_hat`` of each block."""
    _check_s(T.K, s)
    if not np.all(np.isfinite(T.column)):
        raise NumericError("Phi_s of a non-finite operator column")
    blocks, c = [], T.column
    for j in range(1, T.K - s + 1):
        n = c.shape[-1] // 2
        c, o = c[..., :n] + c[..., n:], c[..., :n] - c[..., n:]
        blocks.append((circulant_haar(o, 0, n, 1 << (T.K - s - j), wrap=-1),
                       _haar_levels(T.K - j) + j))
    lev = _haar_levels(s) + T.K - s
    blocks.append((circulant_haar(c, 0, 1 << s, 1), np.r_[-1, lev[1:]]))
    return blocks


def phi_s_norm(blocks: list[tuple[np.ndarray, np.ndarray]], s: int) -> float:
    """||Phi_s||, the largest norm of its blocks (an empty one reads 0), from
    ``phi_s_blocks`` built at a shift <= s."""
    hats = (phi_s_hat(b, s, lev) for b, lev in blocks)
    return float(max(opnorm(h.reshape(-1, h.shape[-1])) for h in hats))


def psi_s_symbol(T: DiscOp, s: int) -> np.ndarray | None:
    """The symbol C_m(w) = sum_b C_m[b] e^{-2 pi i b w/16}, (M, 16, L, c), of
    Psi_s on its wavelet columns (README): C_m[a - b mod 16] is Psi_s h_Q =
    (1 - E_k) T_k h_Q on the L = N/16 cells of cube a, for the c = L - 2^{s-1}
    level-(k+s-1) h_Q of cube b, level-major; None when K - s < 4."""
    _check_s(T.K, s)
    if T.K - s < 4:
        return None
    if not np.all(np.isfinite(T.column)):
        raise NumericError("Psi_s of a non-finite operator column")
    M, N, L, p, cells = T.M, T.N, T.N >> 4, 1 << (s - 1), np.arange(T.N)
    C = np.empty((M, 16, L, L - p), dtype=np.result_type(T.column, float))
    for k in range(4, T.K - s + 1):      # (1 - E_k) T_k h_Q, Q in cube 0
        w, n = N >> (k + s - 1), 1 << (k + s - 5)   # cells per Q, Qs per cube
        h = np.where(cells < w // 2, 1.0, -1.0) * (cells < w) / np.sqrt(w)
        tk = np.where(np.abs(_torus_offsets(N)) > 4 * 2.0 ** -k, T.column, 0)
        y = DiscOp(tk, T.K, None).apply(h)      # T_k h_Q, moved by j w < L:
        y = y[:, (cells.reshape(1 << k, -1, 1) - w * np.arange(n)) % N]
        np.subtract(y, y.mean(axis=2, keepdims=True),
                    out=C.reshape(M, 1 << k, N >> k, -1)[..., n - p:2 * n - p])
    if np.iscomplexobj(C):
        return np.fft.fft(C, axis=1)
    out = np.empty(C.shape, dtype=complex)         # C(16 - w) = conj C(w)
    out[:, :9] = np.fft.rfft(C, axis=1)
    np.conjugate(out[:, 7:0:-1], out=out[:, 9:])
    return out


def psi_s_norm(T: DiscOp, s: int) -> float:
    """||Psi_s|| = max_w ||C(w)|| over its symbol (``psi_s_symbol``; P. J.
    Davis, Circulant Matrices, 1979); 0.0 when K - s < 4.  A real column
    has C(16 - w) = conj C(w), of the same norm: w = 0..8 suffice."""
    C, w = psi_s_symbol(T, s), 9 if np.isrealobj(T.column) else 16
    return 0.0 if C is None else float(max(
        opnorm(C[:, i].reshape(-1, C.shape[-1])) for i in range(w)))


def phi_psi_hat(T: DiscOp, s: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(``phi_s_hat``, ``psi_s_symbol``) of Phi_s and Psi_s, computed once
    per (T, s) for any number of ``phi_psi_apply`` calls."""
    _check_s(T.K, s)
    t_hat = circulant_haar(T.column, 0, T.N, 1 << (T.K - s))
    return phi_s_hat(t_hat, s), psi_s_symbol(T, s)


def phi_psi_apply(hat: tuple[np.ndarray, np.ndarray | None],
                  x: np.ndarray) -> np.ndarray:
    """(Phi_s + Psi_s) x, shaped (M, N, ...), for x with cells on axis 0
    (scalar or matrix-valued), from ``hat = phi_psi_hat(T, s)``: Phi_s
    through its Haar block, Psi_s through its symbol on the same one."""
    phi, psi = hat
    M, N = phi.shape[0], phi.shape[-1]
    hx = _on_rows(haar, x.reshape(N, -1))
    y = _on_rows(ihaar, phi @ hx, N)                    # (M, N, cols)
    if psi is not None:
        z = np.hstack([hx[n:2 * n].reshape(16, n >> 4, -1) for n in 16 << (
            np.arange(N.bit_length() - 5))])[:, -psi.shape[-1]:]  # s+3..K-1
        z = np.fft.ifft(psi @ np.fft.fft(z, axis=0), axis=1).reshape(y.shape)
        y += z if np.iscomplexobj(y) else z.real
    return y.reshape((M,) + x.shape)


def lambda_family(T: DiscOp, s: int) -> list[np.ndarray]:
    """The Cotlar family Lambda_{s,k} = E_k T Delta_{k+s}."""
    _check_s(T.K, s)
    return [ekt_delta(T, k, k + s) for k in range(0, T.K - s + 1)]


# ---------------------------------------------------------------------------
# kernel identity and Schur data for E_k T Delta_{k+s}
# ---------------------------------------------------------------------------

def ksk_check(T: DiscOp, s: int, k: int, n_pairs: int,
              rng: np.random.Generator) -> dict:
    """Compare assembled E_k T Delta_{k+s} entries with the two-bump formula
    <T psi_{Qhat_y}, phi_{R_x}> on sampled pairs, each from its column.
    psi_{Qhat_y} is one of 2^{k+s}, so T is applied once, to all of them."""
    _check_s(T.K, s)
    N = T.N
    cols = _ekt_delta_cols(T, k, k + s)
    Lr = N // (1 << k)            # cells per level-k cube
    Lq = N // (1 << (k + s))      # cells per level-(k+s) cube
    i, j = np.array([(rng.integers(0, N), rng.integers(0, N))
                     for _ in range(n_pairs)]).reshape(-1, 2).T
    lhs = ihaar(np.moveaxis(cols[:, :, j], -1, 0), N)[
        np.arange(n_pairs), :, i] / T.measure   # per pair: (M,) kernel
    # column q: +-1/|Qhat| on the level-(k+s) cube q and on its sibling
    cube, q = np.arange(N)[:, None] // Lq, np.arange(1 << (k + s))
    psi = ((cube == q) * 1.0 - (cube == q ^ 1)) / (2.0 * Lq / N)
    means = T.apply(psi).reshape(T.M, 1 << k, Lr, -1).mean(axis=2)
    rhs = means[:, i // Lr, j // Lq].T
    # size sanity for y outside 3R_x (cell midpoints are |i - j| / N apart)
    d = np.abs(i - j) / N
    d = np.minimum(d, 1.0 - d)
    far = d > 1.5 * Lr / N
    bound = 2.0 ** (-T.gamma * (k + s)) / d[far] ** (1 + T.gamma)
    ratio = np.linalg.norm(lhs[far], axis=1) / np.maximum(bound, 1e-300)
    # NaN when no sampled y lies outside 3R_x (always so for k <= 1)
    return {"max_residual": float(np.abs(lhs - rhs).max(initial=0.0)),
            "size_constant": float(ratio.max()) if far.any() else math.nan}


def _schur_integrals(mats: np.ndarray) -> tuple[float, float]:
    """||S1||_inf, ||S2||_inf: sup row/column sums of component-l2 norms."""
    norms = np.sqrt((np.abs(mats) ** 2).sum(axis=0))
    return float(norms.sum(axis=1).max()), float(norms.sum(axis=0).max())


def schur_bound(mats: np.ndarray) -> float:
    """sqrt(||S1||_inf ||S2||_inf) of kernel matrices (M, N, N)."""
    s1, s2 = _schur_integrals(mats)
    return float(np.sqrt(s1 * s2))


def cotlar_bound(family: list[np.ndarray]) -> float:
    """sum over offsets d of sqrt(max pairwise composition norm at offset d).

    For maps L2 -> L2(H) the two compositions are L_i* L_j, a block of the
    cross Gram, and L_i L_j*, whose norm is that of G_j^{1/2} G_i^{1/2} with
    G_i = L_i* L_i (polar decomposition); one ``opnorm`` takes all pairs."""
    F = len(family)
    if F == 0:
        return 0.0
    N = family[0].shape[-1]
    stack = np.concatenate([A.reshape(-1, N) for A in family], axis=1)
    with np.errstate(invalid="ignore", over="ignore"):  # opnorm checks
        x = (stack.conj().T @ stack).reshape(F, N, F, N)  # [i,:,j]: L_i* L_j
    n1 = opnorm(x.swapaxes(1, 2))                 # and checks x is finite
    diag = _op(x[np.arange(F), :, np.arange(F)][:, None], dense_algebra(N))
    roots = psd_sqrt(diag).blocks[:, 0]           # G_i^{1/2}
    best = np.maximum(n1, opnorm(roots[None] @ roots[:, None]))
    return float(sum(np.sqrt(np.diagonal(best, d).max())
                     for d in range(1 - F, F)))


def schur_integrals_decay(T: DiscOp, s_range, k_range) -> dict:
    """Row/column kernel integrals of E_k T Delta_{k+s} across shifts."""
    rows = []
    for s in s_range:
        for k in k_range:
            if k + s > T.K:
                continue
            s1, s2 = _schur_integrals(ekt_delta(T, k, k + s))
            rows.append({"s": s, "k": k,
                         "S1": s1, "S2": s2,
                         "S1_normalized": (2.0 ** (T.gamma * s)) * s1 / s,
                         "S2_normalized": s2 / s})
    return {"rows": rows,
            "max_S1_normalized": max(r["S1_normalized"] for r in rows),
            "max_S2_normalized": max(r["S2_normalized"] for r in rows)}


# ---------------------------------------------------------------------------
# paraproduct
# ---------------------------------------------------------------------------

def adjoint_one(T: DiscOp) -> np.ndarray:
    """rho = T*1 componentwise, (N, M): rho[y, m] = int conj(k_m(x, y)) dx,
    the conjugate column sum, the same at every y."""
    return np.tile(T.column.sum(axis=-1).conj(), (T.N, 1))


def paraproduct(rho: np.ndarray, f: np.ndarray, K: int) -> np.ndarray:
    """Pi_rho(f) = sum_j Delta_j(rho) E_{j-1}(f), H-valued output (N, M):
    its Haar coefficient at Q is rho_Q <f>_Q, and 0 for the constant."""
    N = 1 << K
    heap = np.concatenate([np.zeros_like(f), f])      # cells below the cubes
    means = _subtree_sums(heap)[:N] / _cube_cells(K)
    return ihaar(haar(rho.T) * means, N).T


def rho_bmo(rho: np.ndarray, K: int) -> float:
    """Dyadic BMO of the scalarized R = sum_j ||d_j rho(x)|| r_j: the square
    root of the max over cubes R of (1/#R) sum_{Q in R} sum_m |rho_{Q,m}|^2."""
    w = (np.abs(haar(rho.T)) ** 2).sum(axis=0)
    return float(np.sqrt((_subtree_sums(w) / _cube_cells(K))[1:].max()))


def paraproduct_bound_report(T: DiscOp, f: np.ndarray) -> dict:
    rho = adjoint_one(T)
    lhs = grid_l2(paraproduct(rho, f, T.K), T.K)
    bound = rho_bmo(rho, T.K) * grid_l2(f, T.K)
    return {"lhs": lhs, "bound": bound, "slack": bound - lhs}


# ---------------------------------------------------------------------------
# localization sets and checks
# ---------------------------------------------------------------------------

_grids = functools.cache(GridFiltration)    # one per (n, K, d)


def sigma_set(f: np.ndarray, s: int, K: int) -> np.ndarray:
    """Cell mask of Sigma_{f,s}: the union over k of the 9-fold dilations
    of the level-k cubes that carry Delta_{k+s} f (``support_cubes``)."""
    filt = _grids(1, K, 1)
    return np.any([bad[filt.dilation_cubes(k, 9)].any(axis=0) for k, bad
                   in enumerate(support_cubes(f, s, K))], axis=0)


def commutative_pseudoloc_check(T: DiscOp, f: np.ndarray, s: int) -> dict:
    """||Tf||_{L2(H)} outside Sigma_{f,s} against s 2^{-gamma s/2} ||f||_2."""
    _check_s(T.K, s)
    tf = T.apply(f)
    out = ~sigma_set(f, s, T.K)
    val = grid_l2(tf[:, out], T.K)
    f2 = grid_l2(f, T.K)
    denom = s * 2.0 ** (-T.gamma * s / 2.0) * max(f2, 1e-300)
    return {"outside_norm": val, "ratio": val / denom,
            "outside_fraction": float(out.mean())}


def vanish_sum(rho: np.ndarray, f: np.ndarray, s: int, K: int) -> np.ndarray:
    """sum_{k=0}^{K-s} E_k Pi_rho* Delta_{k+s} f, shaped (N, M): on a
    level-k cube R the k-th term is (1/#R) sum conj(rho_Q) f_Q over the
    level-(k+s-1) cubes Q in R, a run of 2^{s-1} coefficients."""
    run = 1 << (s - 1)
    prod = haar(rho.T).conj().T * haar(f)[:, None]   # (N, M)
    a = np.zeros_like(prod)
    a[1:(1 << K) // run] = prod[run:].reshape(-1, run, prod.shape[1]).sum(1)
    return _ancestor_sums(a / _cube_cells(K)[:, None])


def vanish_check(rho: np.ndarray, f: np.ndarray, s: int) -> float:
    """sup outside Sigma_{f,s} of | sum_k E_k Pi_rho* Delta_{k+s} f | for
    rho (N, M) and f (N,), normalized by ||f||_2 (0.0 on an empty
    outside)."""
    K = len(f).bit_length() - 1
    _check_s(K, s)
    outside = vanish_sum(rho, f, s, K)[~sigma_set(f, s, K)]
    return float(np.abs(outside).max(initial=0.0)
                 / max(grid_l2(f, K), 1e-300))


def restriction_identity_residual(T: DiscOp, f: np.ndarray, s: int,
                                  hat: tuple[np.ndarray, np.ndarray]) -> float:
    """Residual of 1_outside * Tf = 1_outside * (Phi_s + Psi_s) f, with
    ``hat = phi_psi_hat(T, s)``.

    Meaningful when the differences of f below level s vanish (the finite
    grid truncates the bi-infinite telescope at level 0).  An empty
    outside gives 0.0.
    """
    _check_s(T.K, s)
    lhs = T.apply(f)
    resid = (lhs - phi_psi_apply(hat, f))[:, ~sigma_set(f, s, T.K)]
    return float(np.abs(resid).max(initial=0.0)
                 / max(np.abs(lhs).max(), 1e-300))


def localization_check(T: DiscOp, x0: float, r1: float, r2: float) -> dict:
    """| int T(1_{B_r1}) 1_{B_r2} |_H against r1^n log(r2/r1)."""
    if r2 <= 2.0 * r1:
        raise ContractViolation("localization requires r2 > 2 r1")
    N = T.N
    mids = (np.arange(N) + 0.5) / N
    d = np.abs(mids - x0)
    d = np.minimum(d, 1.0 - d)
    fmask = (d <= r1).astype(float)
    gmask = (d <= r2).astype(float)
    tf = T.apply(fmask)
    pair = T.measure * tf @ gmask
    val = float(np.linalg.norm(pair))
    denom = r1 * np.log(r2 / r1)
    return {"value": val, "ratio": val / denom}


# ---------------------------------------------------------------------------
# semicommutative localization (matrix-valued f)
# ---------------------------------------------------------------------------

def nc_pseudoloc_check(T: DiscOp, f: Op, s: int, filt: GridFiltration,
                       q_list: Op, hat: tuple | None = None) -> dict:
    """Compressed-norm localization for matrix-valued f; given
    ``hat = phi_psi_hat(T, s)``, also the residual of the restriction
    identity zeta T f zeta = zeta (Phi_s + Psi_s) f zeta.

    Preconditions: T normalized; q_list[k] in the level-k subalgebra with
    q_k df_{k+s} q_k = 0 (certified here; violations raise).
    """
    _check_s(T.K, s)
    dfs = Martingale(filt, f).diffs[s:]             # df_{k+s}, k = 0..K-s
    levels = list(range(len(dfs)))
    q = q_list[:len(levels)]
    bad = (np.abs(dfs.blocks).max(axis=(1, 2, 3)) > 1e-13) \
        & ~annihilation_check(q, dfs, tol=1e-9)
    if bad.any():
        k = int(np.argmax(bad))
        raise ContractViolation(
            f"q_{k} does not annihilate df_{k + s}: containment uncertified")
    z = zeta_fs(filt, q, levels)
    tf = _op(T.apply(f.blocks), f.algebra)         # (T_m f)_m, batched
    comp = z @ tf @ z
    val = float(np.sqrt((l2_norm(comp) ** 2).sum()))
    f2 = l2_norm(f)
    denom = s * 2.0 ** (-T.gamma * s / 2.0) * max(f2, 1e-300)
    out = {"compressed_norm": val, "ratio": val / denom,
           "zeta_trace": float(z.trace().real)}
    if hat is not None:
        rhs = z @ _op(phi_psi_apply(hat, f.blocks), f.algebra) @ z
        out["identity_residual"] = (comp - rhs).max_abs() / max(
            tf.max_abs(), 1e-300)
    return out
