"""Recursive maximal-level projections for positive martingales, the
lambda-indexed meets q(lambda), the pi_k partition, triangular splits and
their truncations.

The recursion compresses each martingale value by the previous projection and
keeps the spectral part at or below lambda, endpoints closed:
q_n = chi_{[0,lambda]}(q_{n-1} f_n q_{n-1}) meet q_{n-1}.  Kernel directions
inside range(q_{n-1}) satisfy the bound and are kept, which preserves
monotonicity for degenerate inputs.

The threshold is a leading batch axis (a scalar lambda adds none): one
stacked eigen-solve per level diagonalizes q_{n-1} f_n q_{n-1}, shifted to
lambda + 1 on the complement of range(q_{n-1}), for every (lambda, block)
pair.  q_n <= q_{n-1} holds up to rounding, so q(lambda) is the last q_n.
Each q_n is kept in M_n's coordinates only: its readers bring q_{n-1} into
M_n by ``refine`` and extend one level at a time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .martingale import POSITIVE_TOL, Martingale
from .opcore import (ENDPOINT_TOL, Op, _op, block_matmul as mm, eigvalsh,
                     hermitian_part, kept_projection, null_projection)


@dataclass
class CuculescuSequence:
    """The recursion at every threshold of ``lam``, a leading axis unless lam
    is a scalar: ``restricted[n]`` is q_n in M_n's coordinates, the only
    form of q_n kept; a reader that needs q_{n-1} in M_n brings it there
    by ``refine``."""

    lam: np.ndarray | float
    restricted: tuple[Op, ...]
    martingale: Martingale

    def __getitem__(self, i) -> "CuculescuSequence":
        """The recursion at the thresholds lam[i]: lam and every level are
        indexed together along the threshold axis."""
        return CuculescuSequence(np.asarray(self.lam)[i], tuple(
            q[i] for q in self.restricted), self.martingale)


def lam_axes(lam, f: Martingale, trailing: int = 0) -> np.ndarray:
    """lam with a unit axis for each batch axis of f and ``trailing`` more,
    so that it broadcasts with the thresholds in front of f's batch axes."""
    lam = np.asarray(lam)
    return lam.reshape(lam.shape + (1,) * (len(f.batch) + trailing))


def cuculescu(f: Martingale, lam):
    """Run the recursion along all levels of a positive martingale, or of
    each entry of a batched one, at a threshold or at each entry of a 1-D
    threshold vector; the threshold axes come first."""
    lam = np.asarray(lam, dtype=float)[()]      # a 0-d lam: np.float64
    if np.ndim(lam) > 1 or np.size(lam) == 0 \
            or not np.all(np.isfinite(lam) & (lam > 0)):
        raise ContractViolation("lambda must be a positive number or a "
                                f"non-empty 1-D vector of them, got {lam!r}")
    if not f.is_positive():
        # name the first entry below -tol; with none, the top is not Hermitian
        bad = np.argwhere(np.asarray(f.spectral_floor) < -POSITIVE_TOL)
        raise ContractViolation(
            "cuculescu requires a positive martingale"
            + (f" (entry {', '.join(map(str, bad[0]))} is not)" if bad.size
               else "" if len(bad) else " (its top is not Hermitian)"))
    filt = f.filtration
    # q f_n q + (lam+1)(1 - q) has the spectrum of the compression on
    # range(q) and lam + 1 on its complement, so one stacked solve per level
    # keeps exactly the directions of range(q) at or below lam.  q_{n-1} and
    # f_n lie in M_n, so the solve runs in M_n's coordinates, and q_{n-1}
    # reaches them from M_{n-1}'s by ``refine``.
    cut = lam_axes(lam, f, 2)

    def keep(w):
        return w <= cut + ENDPOINT_TOL

    q, qs = filt.level_algebra(f.levels[0]).unit(), []
    for n, k in enumerate(f.levels):
        q = filt.refine(q, k)
        fk, qk = f.restricted[n].blocks, q.blocks
        h = mm(mm(qk, fk), qk) \
            + (cut[..., None] + 1.0) * (np.eye(fk.shape[-1]) - qk)
        q = _op(kept_projection(hermitian_part(h), keep),
                filt.level_algebra(k))
        qs.append(q)
    return CuculescuSequence(lam, tuple(qs), f)


def q_lambda(seq: CuculescuSequence) -> Op:
    """q(lambda) = meet of all q_n, which is the last q_n, in the full
    algebra, because the chain decreases (``proj_meet`` in the tests)."""
    return seq.restricted[-1]


def cuculescu_report(seq: CuculescuSequence) -> dict:
    """Measured versions of the three classical properties, each shaped
    (*lam.shape, *martingale.batch), from one eigvalsh per level over every
    threshold and entry."""
    f = seq.martingale
    filt = f.filtration
    lams = lam_axes(seq.lam, f, 3)
    comm = excess = -np.inf
    # q_{n-1}, q_n and f_n lie in M_n: both checks run in M_n's coordinates,
    # and q_{n-1} comes there from M_{n-1}'s by ``refine``
    qs = seq.restricted
    for n, k in enumerate(f.levels):
        qp = filt.refine(qs[n - 1], k) if n else filt.level_algebra(k).unit()
        q, qp, fk = qs[n].blocks, qp.blocks, f.restricted[n].blocks
        comp = mm(mm(qp, fk), qp)
        # i[q_n, comp] is Hermitian, so its eigenvalues give the commutator's
        # singular values; with q_n f_n q_n - lam q_n it is one eigvalsh
        h = np.stack([1j * (mm(q, comp) - mm(comp, q)),
                      mm(mm(q, fk), q) - lams * q])
        w = eigvalsh(hermitian_part(h))
        comm = np.maximum(comm, np.abs(w[0]).max(axis=(-2, -1)))
        excess = np.maximum(excess, w[1].max(axis=(-2, -1)))
    return {"commutator": comm, "compression_excess": excess,
            "tail_trace": 1.0 - q_lambda(seq).trace().real}


@dataclass
class PiFamily:
    """Ordered orthogonal blocks pi_l, l = l_min..l_max, batched over l.

    ``w`` is the meet ladder W_l = meet_{s>=l} q_s and ``blocks`` its
    increments: blocks[0] = W_{l_min} is the residual meet over all computed
    scales, blocks[i] = W_l - W_{l-1} for l = l_min + i.  The ladder serves
    the absorption identities.
    """

    l_min: int
    blocks: Op
    w: Op

    @property
    def l_max(self) -> int:
        return self.l_min + len(self.w) - 1


def meet_ladder(qs: Op, l_min: int) -> PiFamily:
    """The PiFamily of projections qs batched over l = l_min..: every
    W_l is the null space of sum_{s>=l} (1 - q_s), a reverse cumulative sum,
    so one batched spectral projection gives the whole ladder."""
    lost = np.cumsum((qs.algebra.unit() - qs).blocks[::-1], axis=0)[::-1]
    w = null_projection(_op(lost, qs.algebra))
    return PiFamily(l_min, _op(np.diff(w.blocks, axis=0, prepend=0.0),
                               qs.algebra), w)


def ladder_top(f: Martingale, l_max: int | None = None) -> int:
    """The top level l_max of a dyadic threshold ladder 2^l for f.  Above
    sup_n ||f_n||_inf every q_n is 1, so the ladder is complete only when
    2^{l_max} exceeds it; by default l_max is the least such level, the
    exponent of ``np.frexp(sup)``, and a given l_max is checked."""
    sup = f.sup_linf
    if l_max is None:
        l_max = int(np.frexp(sup)[1])
    if 2.0 ** l_max <= sup:
        raise ContractViolation(
            f"l_max too small: 2^{l_max} <= sup ||f_n||_inf = {sup:.6g}")
    return l_max


def pi_family(seq: CuculescuSequence) -> PiFamily:
    """The pi blocks of a recursion solved at the ladder 2^l,
    l = l_min..l_max, whose top ``ladder_top`` accepts."""
    lam = np.atleast_1d(seq.lam)
    l_min = int(np.log2(lam[0]))
    if np.ndim(seq.lam) != 1 or not np.array_equal(
            lam, 2.0 ** np.arange(l_min, l_min + len(lam), dtype=float)):
        raise ContractViolation("pi_family needs the thresholds 2^l of "
                                f"consecutive levels l, got {seq.lam!r}")
    ladder_top(seq.martingale, l_min + len(lam) - 1)
    return meet_ladder(q_lambda(seq), l_min)


def delta_split(x: Op, pi: PiFamily) -> tuple[Op, Op]:
    """Triangular split of x along the pi blocks.

    Delta_r collects pi_i x pi_j for i >= j (the residual block, carrying the
    lowest index, joins this part); Delta_c collects i < j.  The two parts
    sum to x exactly when the family is complete.
    """
    dr = delta_trunc(x, pi, pi.l_max)
    return dr, x - dr


def delta_trunc(x: Op, pi: PiFamily, ell) -> Op:
    """Delta_{r,ell}(x) = sum_{j <= i <= ell} pi_i x pi_j, which is
    sum_{i <= ell} pi_i x w_i because sum_{j <= i} pi_j = w_i; each entry
    of a batched x is truncated, at the one ell or, for a 1-D ell, at the
    ell of its index along the first batch axis."""
    ell = np.asarray(ell)
    sel = (slice(None),) + (None,) * len(x.batch)
    # the terms above ell are exact zeros, and adding them changes nothing
    keep = np.arange(pi.l_min, pi.l_max + 1).reshape(
        (-1,) + (1,) * ell.ndim) <= ell
    keep = keep.reshape(keep.shape + (1,) * (len(x.batch) - ell.ndim + 3))
    terms = (pi.blocks[sel] @ x @ pi.w[sel]).blocks
    return _op(np.where(keep, terms, 0.0).sum(axis=0), x.algebra)
