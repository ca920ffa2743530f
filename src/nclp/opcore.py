"""Finite-dimensional operator calculus.

Every algebra handled here is a finite von Neumann algebra presented as
block-diagonal complex matrices: ``nblocks`` blocks of size ``d x d`` with a
trace ``tau(a) = sum_b w_b * tr(a_b)``.  A dense matrix algebra has a single
block with weight ``1/d`` (normalized trace); a grid of matrix values over a
measure space has one block per cell with weight ``measure(cell)/d``.

All operations are pure: operators are never mutated after construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, NumericError

# Tolerances, fixed once so every test is reproducible.
ENDPOINT_TOL = 1e-9      # endpoint snapping for spectral cuts
MEET_NULL_TOL = 1e-8     # null-space eigenvalue cut in null_projection
HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class Algebra:
    """Block-diagonal matrix algebra with trace weights summing to tau(1)=1."""

    nblocks: int
    d: int
    weights: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.nblocks < 1 or self.d < 1:
            raise ContractViolation("algebra dimensions must be >= 1")
        w = self.weights
        if w is None:
            w = np.full(self.nblocks, 1.0 / (self.nblocks * self.d))
        w = np.asarray(w, dtype=float)
        if w.shape != (self.nblocks,):
            raise ContractViolation("one trace weight per block required")
        if np.any(w <= 0):
            raise ContractViolation("trace weights must be positive")
        if abs(w.sum() * self.d - 1.0) > 1e-9:
            raise ContractViolation("trace weights must give tau(1) = 1")
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.nblocks * self.d

    def unit(self) -> "Op":
        return _op(np.tile(np.eye(self.d), (self.nblocks, 1, 1)), self)

    def zero(self) -> "Op":
        return _op(np.zeros((self.nblocks, self.d, self.d), dtype=complex), self)


def dense_algebra(d: int) -> Algebra:
    """Full matrix algebra M_d with the normalized trace."""
    return Algebra(1, d)


class Op:
    """An element of a block-diagonal algebra, or a batch of them.

    ``blocks`` has shape (*batch, nblocks, d, d): an indexed family of
    operators (the martingale f_k, the projections q_k, a transform family
    T_m f) is one Op with leading batch axes.  Arithmetic is blockwise and
    broadcasts over the batch; ``len``, indexing and iteration run over the
    first batch axis.  Norms and traces give one value per entry (a Python
    scalar when unbatched); ``max_abs`` is the max over everything.  The
    objects are small value types, so we keep them immutable by convention.
    """

    __slots__ = ("blocks", "algebra")
    __array_ufunc__ = None      # numpy scalars defer to Op's reflected operators

    def __init__(self, blocks: np.ndarray, algebra: Algebra):
        blocks = np.asarray(blocks, dtype=complex)
        if blocks.shape[-3:] != (algebra.nblocks, algebra.d, algebra.d):
            raise ContractViolation(
                f"block shape {blocks.shape} does not match algebra "
                f"({algebra.nblocks},{algebra.d},{algebra.d})")
        if not np.isfinite(blocks).all():   # complex: both parts finite
            raise NumericError("operator entries must be finite")
        self.blocks = blocks
        self.algebra = algebra

    @property
    def batch(self) -> tuple:
        return self.blocks.shape[:-3]

    # -- the first batch axis -----------------------------------------------
    def __len__(self) -> int:
        if not self.batch:
            raise TypeError("an unbatched Op has no length")
        return self.blocks.shape[0]

    def __getitem__(self, i) -> "Op":
        if not self.batch:
            raise TypeError("an unbatched Op cannot be indexed")
        return _op(self.blocks[i], self.algebra)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def sum(self) -> "Op":
        """Sum over the first batch axis."""
        return _op(self.blocks.sum(axis=0), self.algebra)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "Op") -> "Op":
        return _op(self.blocks + other.blocks, _same_algebra(self, other))

    def __sub__(self, other: "Op") -> "Op":
        return _op(self.blocks - other.blocks, _same_algebra(self, other))

    def __mul__(self, c) -> "Op":
        return _op(self.blocks * c, self.algebra)

    __rmul__ = __mul__

    def __matmul__(self, other: "Op") -> "Op":
        return _op(block_matmul(self.blocks, other.blocks),
                   _same_algebra(self, other))

    @property
    def H(self) -> "Op":
        return _op(_adjoint(self.blocks), self.algebra)

    # -- scalars ----------------------------------------------------------
    def trace(self):
        # an elementwise product summed along the block axis rounds each
        # entry alike whatever it is stacked with, and a BLAS np.dot over
        # the stack does not; schatten_norm and l2_norm sum the same way
        diag = np.einsum("...bii->...b", self.blocks)
        return _per_entry((diag * self.algebra.weights).sum(axis=-1))

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        """Every entry Hermitian, relative to its own largest entry."""
        scale = np.maximum(np.abs(self.blocks).max(axis=_BLOCK_AXES), 1e-300)
        dev = np.abs(self.blocks - self.H.blocks).max(axis=_BLOCK_AXES)
        return bool(np.all(dev <= tol * scale + 1e-300))

    def hermitize(self) -> "Op":
        return _op(hermitian_part(self.blocks), self.algebra)

    def max_abs(self) -> float:
        return float(np.abs(self.blocks).max(initial=0.0))


def _op(blocks, algebra: Algebra) -> Op:
    """The Op of blocks computed from checked operands: complex as in ``Op``,
    with no shape or finiteness pass (README: where finiteness is checked)."""
    out = object.__new__(Op)
    out.blocks, out.algebra = np.asarray(blocks, dtype=complex), algebra
    return out


def _same_algebra(a: Op, b: Op) -> Algebra:
    """The algebra of a and b, which must have the same block shape."""
    x, y = a.algebra, b.algebra
    if x is not y and (x.nblocks, x.d) != (y.nblocks, y.d):
        raise ContractViolation(f"operands of algebras ({x.nblocks},{x.d}) "
                                f"and ({y.nblocks},{y.d})")
    return x


_BLOCK_AXES = (-3, -2, -1)


def block_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of d x d blocks, the batch axes broadcast as in
    ``np.matmul``.

    A stacked ``matmul`` makes one BLAS call per block, about 0.45 us each,
    so for d <= 2 the product is summed from d broadcast outer products
    (column k of a times row k of b): from about 10 blocks on that is
    faster, 3x on 80 blocks of side 2 and 5x on 400, and on one block it
    loses a few microseconds.  At d = 3 the outer products win only from
    about 80 blocks, and from d = 4 on BLAS wins.  The broadcasts of a
    2 x 2 outer product run numpy's inner loops two entries at a time, so
    from an operand of 768 blocks on, where it was faster in every case
    timed (README), the product is summed entry by entry instead: one loop
    over the whole stack per entry, the same operations in the same order,
    so the same bits, and 2x faster on 3200 blocks.
    """
    d = a.shape[-1]
    if d > 2:
        return a @ b
    if d == 1 or max(a.size, b.size) < 4 * 768:
        out = a[..., :, :1] * b[..., :1, :]
        if d == 2:
            out += a[..., :, 1:] * b[..., 1:, :]
        return out
    out = np.empty(np.broadcast_shapes(a.shape, b.shape),
                   dtype=np.result_type(a, b))
    for i in range(2):
        for j in range(2):
            np.multiply(a[..., i, 0], b[..., 0, j], out=out[..., i, j])
            out[..., i, j] += a[..., i, 1] * b[..., 1, j]
    return out


def _per_entry(x):
    """One value per batch entry; a Python scalar for an unbatched Op."""
    return x.item() if np.ndim(x) == 0 else x


# ---------------------------------------------------------------------------
# spectral calculus
# ---------------------------------------------------------------------------

def _adjoint(x: np.ndarray) -> np.ndarray:
    return x.conj().swapaxes(-1, -2)


def hermitian_part(x: np.ndarray) -> np.ndarray:
    """(x + x*)/2 of each stacked block."""
    h = x + _adjoint(x)
    h *= 0.5
    return h


def _eigh(h: np.ndarray):
    """Blockwise Hermitian eigendecomposition (ascending eigenvalues)."""
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def _hermitian2(h: np.ndarray):
    """m = (a + d)/2, r = hypot((a - d)/2, |b|), x = (a - d)/2 and b of
    Hermitian 2 x 2 blocks [[a, *], [b, d]]: the eigenvalues are m -+ r."""
    a, d, b = h[..., 0, 0].real, h[..., 1, 1].real, h[..., 1, 0]
    x = 0.5 * (a - d)
    return 0.5 * (a + d), np.hypot(x, np.abs(b)), x, b


def eigvalsh(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of stacked Hermitian d x d blocks, read from
    the lower triangle as ``np.linalg.eigvalsh`` reads it.

    A stacked LAPACK call costs about 0.7 us per block, so for d <= 2 the
    eigenvalues are the closed form m -+ r (``_hermitian2``), as in
    LAPACK's own zlaev2; larger (and empty) blocks go to
    ``np.linalg.eigvalsh``."""
    d = h.shape[-1]
    if d == 1:
        return h[..., 0].real
    if d == 2:
        m, r, _, _ = _hermitian2(h)
        return np.stack([m - r, m + r], axis=-1)
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"eigvalsh failed: {exc}") from exc


def opnorm(a: np.ndarray) -> np.ndarray:
    """The operator norm of each stacked matrix (*batch, rows, cols): the
    square root of the top eigenvalue (``eigvalsh``) of the smaller Gram,
    a* a when rows >= cols and a a* otherwise, clipped at 0, so that a zero
    matrix reads 0 and not a NaN from a rounding-negative eigenvalue; 0 for
    an empty matrix."""
    rows, cols = a.shape[-2:]
    if rows == 0 or cols == 0:
        return np.zeros(a.shape[:-2])
    with np.errstate(invalid="ignore", over="ignore"):   # checked below
        g = _adjoint(a) @ a if rows >= cols else a @ _adjoint(a)
    if not np.isfinite(g).all():
        raise NumericError("Gram matrix of a non-finite operator stack")
    return np.sqrt(eigvalsh(g).max(axis=-1, initial=0.0))


def kept_projection(h: np.ndarray, keep) -> np.ndarray:
    """The projection onto the eigenvectors of each stacked Hermitian block
    whose eigenvalue w has ``keep(w)`` true; ``keep`` maps the ascending
    eigenvalues (*batch, d) elementwise to booleans of the same shape, so
    equal eigenvalues are kept alike.

    For d <= 2 the projection is 0 or 1 when both eigenvalues are dropped
    or both kept; when one is kept it is (h - w_other)/(w_kept - w_other)
    = (1 -+ (h - m)/r)/2, the sign + when the larger is kept, from the
    lower triangle.  Larger blocks sum v v* over the kept eigenvectors of
    ``np.linalg.eigh``."""
    d = h.shape[-1]
    if d > 2:
        w, v = _eigh(h)
        v = np.where(keep(w)[..., None, :], v, 0.0)
        return block_matmul(v, _adjoint(v))
    if d == 1:
        return keep(h[..., 0].real)[..., None].astype(float)
    m, r, x, b = _hermitian2(h)
    kept = keep(np.stack([m - r, m + r], axis=-1)).astype(float)
    lo, hi = kept[..., 0], kept[..., 1]
    # z = +-1/(2r) when only the larger or only the smaller is kept, else
    # 0; r = 0 means equal eigenvalues, kept alike
    z = 0.5 * (hi - lo) / np.where(r > 0, r, 1.0)
    t = 0.5 * (lo + hi)
    out = np.empty(h.shape, dtype=np.result_type(h, float))
    out[..., 0, 0], out[..., 1, 1] = t + z * x, t - z * x
    out[..., 1, 0] = z * b
    out[..., 0, 1] = np.conj(out[..., 1, 0])
    return out


def psd_sqrt(h: Op) -> Op:
    """h^{1/2} for a positive h, from its Hermitian part (eigenvalues below
    zero, rounding, are clipped)."""
    w, v = _eigh(h.hermitize().blocks)
    return _op(block_matmul(v * np.sqrt(np.clip(w, 0.0, None))[..., None, :],
                            _adjoint(v)), h.algebra)


def singular_values(a: Op, hermitian: bool = False):
    """Per-block singular values (*batch, nblocks, d), descending, each
    carrying its block weight.  With ``hermitian`` the caller guarantees
    Hermitian blocks, and the values are the moduli of their eigenvalues
    (``eigvalsh``, one triangle), as in ``np.linalg.svd``.

    For d <= 2 they are closed forms.  A general 2 x 2 block A has
    sigma_1 = sqrt(m + r) from the eigenvalues m -+ r of A*A (the column
    norms and the columns' inner product), and sigma_2 = |det A| / sigma_1,
    at most sigma_1; the textbook
    (sqrt(|A|_F^2 + 2|det A|) -+ sqrt(|A|_F^2 - 2|det A|))/2 loses half
    the digits of sigma_2 when the two are close."""
    x = a.blocks
    d = x.shape[-1]
    if d > 2:
        try:
            return np.linalg.svd(x, compute_uv=False, hermitian=hermitian)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise NumericError(f"SVD failed: {exc}") from exc
    if d == 1:
        return np.abs(x[..., 0].real if hermitian else x[..., 0])
    if hermitian:               # |m -+ r|, the larger first
        m, r, _, _ = _hermitian2(x)
        return np.stack([np.abs(m) + r, np.abs(np.abs(m) - r)], axis=-1)
    m, r, _, _ = _hermitian2(block_matmul(_adjoint(x), x))
    s1 = np.sqrt(m + r)
    det = np.abs(x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0])
    return np.stack([s1, np.minimum(det / np.where(s1 > 0, s1, 1.0), s1)],
                    axis=-1)


def tail_trace(f: Op, lam, hermitian: bool = False):
    """tau( chi_(lam, inf)(|f|) ), the distribution function of |f|, per
    entry of f and per threshold of a 1-D lam (from one SVD); a scalar lam
    gives one value per entry; ``hermitian`` as in ``singular_values``."""
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1 or not np.all(lams > 0):
        raise ContractViolation("tail_trace requires lambda > 0, a number or "
                                f"a 1-D vector, got {lam!r}")
    s = singular_values(f, hermitian)                   # (*batch, nblocks, d)
    counts = (s[..., None] > lams.reshape(-1) + ENDPOINT_TOL).sum(axis=-2)
    tails = np.einsum("...bl,b->...l", counts, f.algebra.weights)
    return _per_entry(tails.reshape(f.batch + lams.shape))


def weak_l1(f: Op, hermitian: bool = False) -> float:
    """sup_{lam>0} lam * tau{|f| > lam}, ``hermitian`` as in ``tail_trace``.

    The map lam -> lam*tau{|f|>lam} is piecewise linear between singular
    values, so the sup is attained just below one of them.
    """
    s = singular_values(f, hermitian)
    vals = np.unique(s[s > 0])
    if vals.size == 0:
        return 0.0
    best = 0.0
    w = f.algebra.weights
    for lam in vals:
        meas = float(np.dot(w, (s >= lam - ENDPOINT_TOL).sum(axis=1)))
        best = max(best, lam * meas)
    return best


@dataclass(frozen=True)
class MuFunction:
    """Right-continuous nonincreasing step function on (0, tau(1))."""

    breakpoints: np.ndarray  # increasing cumulative weights, ends at tau(1)
    values: np.ndarray       # value on [break_{i-1}, break_i)

    def integral(self) -> float:
        widths = np.diff(np.concatenate([[0.0], self.breakpoints]))
        return float(np.dot(widths, self.values))

    def sup_t_mu(self) -> float:
        """sup_t t * mu_t, evaluated just below each breakpoint."""
        return float(max((self.breakpoints * self.values).max(initial=0.0), 0.0))


def mu_function(a: Op) -> MuFunction:
    """Generalized singular values mu_t(a) as a step function."""
    s = singular_values(a)
    w = a.algebra.weights
    pairs = sorted(((float(s[b, i]), float(w[b]))
                    for b in range(a.algebra.nblocks)
                    for i in range(a.algebra.d)), reverse=True)
    vals = np.array([p[0] for p in pairs])
    cum = np.cumsum([p[1] for p in pairs])
    return MuFunction(cum, vals)


def schatten_norm(a: Op, p: float, hermitian: bool = False) -> float:
    """||a||_p = tau(|a|^p)^{1/p} per entry; p = inf gives the operator
    norm.  ``hermitian`` is passed to ``singular_values``."""
    if p < 1:
        raise ContractViolation("schatten_norm requires p >= 1")
    s = singular_values(a, hermitian)
    if np.isinf(p):
        return _per_entry(s.max(axis=(-2, -1), initial=0.0))
    return _per_entry(((s ** p).sum(axis=-1) * a.algebra.weights).sum(axis=-1)
                      ** (1.0 / p))


def op_norm(a: Op, hermitian: bool = False) -> float:
    return schatten_norm(a, np.inf, hermitian)


def l2_norm(a: Op) -> float:
    """||a||_2 = tau(a* a)^{1/2} per entry: the weighted Frobenius sum."""
    sq = (a.blocks.real ** 2 + a.blocks.imag ** 2).sum(axis=(-2, -1))
    return _per_entry(np.sqrt((sq * a.algebra.weights).sum(axis=-1)))


def l2_inner(a: Op, b: Op) -> complex:
    """tau(a* b)."""
    return (a.H @ b).trace()


# ---------------------------------------------------------------------------
# projection lattice
# ---------------------------------------------------------------------------

def null_projection(h: Op) -> Op:
    """Projection onto the null space of a positive h, with the documented
    eigenvalue cut MEET_NULL_TOL, from its Hermitian part."""
    return _op(kept_projection(hermitian_part(h.blocks),
                               lambda w: w <= MEET_NULL_TOL + ENDPOINT_TOL),
               h.algebra)


def annihilation_check(p: Op, f: Op, tol: float = 1e-10,
                       hermitian: bool = False, f_norm=None):
    """Per entry, ||p f p||_inf <= tol * ||f||_inf (certifies
    supp* f <= 1-p); ``hermitian`` as in ``tail_trace``, and a caller that
    has ||f||_inf per entry passes it as ``f_norm``."""
    if p.algebra.dim != f.algebra.dim:
        raise ContractViolation("dimension mismatch")
    f_norm = op_norm(f, hermitian) if f_norm is None else f_norm
    return _per_entry(np.asarray(op_norm(p @ f @ p, hermitian))
                      <= tol * np.maximum(f_norm, 1e-300))
