"""Recursive maximal-level projections for positive martingales, the
lambda-indexed meets q(lambda), the pi_k partition, triangular splits and
their truncations.

The recursion compresses each martingale value by the previous projection and
keeps the spectral part at or below lambda.  Two endpoint conventions exist:

* ``"closed"`` (default): q_n = chi_{[0,lambda]}(q_{n-1} f_n q_{n-1}) meet
  q_{n-1}.  Kernel directions inside range(q_{n-1}) satisfy the bound and are
  kept, which preserves monotonicity for degenerate inputs.
* ``"half-open"``: chi_{(0,lambda]} taken literally, which expels those
  kernel directions.

Both are implemented by diagonalizing q_{n-1} f_n q_{n-1} shifted to
lambda + 1 on the complement of range(q_{n-1}), one stacked eigen-solve over
all blocks per level; q_n <= q_{n-1} holds up to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .martingale import Martingale
from .opcore import ENDPOINT_TOL, Op, op_norm, proj_meet


@dataclass
class CuculescuSequence:
    lam: float
    convention: str
    qs: list[Op]           # aligned with martingale positions
    martingale: Martingale

    def q_at(self, i: int) -> Op:
        """q at position i; i = -1 gives the conventional starting unit."""
        if i < 0:
            return self.martingale.algebra.unit()
        return self.qs[i]


def cuculescu(f: Martingale, lam: float,
              convention: str = "closed") -> CuculescuSequence:
    """Run the recursion along all levels of a positive martingale."""
    if lam <= 0:
        raise ContractViolation("cuculescu requires lambda > 0")
    if convention not in ("closed", "half-open"):
        raise ContractViolation(f"unknown endpoint convention {convention!r}")
    if not f.is_positive():
        raise ContractViolation("cuculescu requires a positive martingale")
    alg = f.algebra
    # q f_n q + (lam+1)(1 - q) has the spectrum of the compression on
    # range(q) and lam + 1 on its complement, so one stacked eigh per level
    # keeps exactly the directions of range(q) at or below lam.
    one = np.eye(alg.d)
    q = np.broadcast_to(one, (alg.nblocks, alg.d, alg.d))
    qs = []
    for fn in f.seq:
        h = q @ fn.blocks @ q + (lam + 1.0) * (one - q)
        w, u = np.linalg.eigh(0.5 * (h + h.conj().swapaxes(1, 2)))
        keep = w <= lam + ENDPOINT_TOL
        if convention == "half-open":
            keep &= w > ENDPOINT_TOL
        u = u * keep[:, None, :]
        q = u @ u.conj().swapaxes(1, 2)
        qs.append(Op(q, alg))
    return CuculescuSequence(float(lam), convention, qs, f)


def q_lambda(seq: CuculescuSequence) -> Op:
    """q(lambda) = meet of all q_n; the chain is decreasing so this is the
    last projection, but it is computed through the lattice meet on purpose
    so the documented null-space cut applies uniformly."""
    return proj_meet(seq.qs)


def cuculescu_report(seq: CuculescuSequence) -> dict:
    """Measured versions of the three classical properties."""
    f = seq.martingale
    lam = seq.lam
    fs = np.stack([fn.blocks for fn in f.seq])
    qs = np.stack([q.blocks for q in seq.qs])
    qprev = np.concatenate([f.algebra.unit().blocks[None], qs[:-1]])
    comp = qprev @ fs @ qprev
    comm = np.linalg.svd(qs @ comp - comp @ qs, compute_uv=False)
    # largest eigenvalue of q_n f_n q_n - lam q_n over all levels
    h = qs @ fs @ qs - lam * qs
    excess = np.linalg.eigvalsh(0.5 * (h + h.conj().swapaxes(-1, -2))).max()
    tail = float((f.algebra.unit() - q_lambda(seq)).trace().real)
    return {
        "commutator": float(comm.max(initial=0.0)),
        "compression_excess": float(excess),
        "tail_trace": tail,
        "tail_bound_ratio": lam * tail / max(f.sup_l1(), 1e-300),
    }


@dataclass
class PiFamily:
    """Ordered orthogonal blocks pi_k, k = l_min..l_max.

    blocks[l_min] is the residual meet over all computed scales; for
    k > l_min, blocks[k] = W_k - W_{k-1} with W_l = meet_{s>=l} q(2^s).
    The meets cache w[l] serves the absorption identities.
    """

    l_min: int
    l_max: int
    blocks: dict
    w: dict

    def indices(self):
        return range(self.l_min, self.l_max + 1)

    def w_ell(self, ell: int) -> Op:
        return self.w[ell]


def pi_family(f: Martingale, l_range: tuple[int, int],
              convention: str = "closed") -> PiFamily:
    l_min, l_max = l_range
    if l_min > l_max:
        raise ContractViolation("empty ell-range")
    sup = max(op_norm(fn) for fn in f.seq)
    if 2.0 ** l_max <= sup:
        raise ContractViolation(
            f"l_max too small: 2^{l_max} <= sup ||f_n||_inf = {sup:.6g}")
    q_of = {ell: q_lambda(cuculescu(f, 2.0 ** ell, convention))
            for ell in range(l_min, l_max + 1)}
    w = {l_max: q_of[l_max]}
    for ell in range(l_max - 1, l_min - 1, -1):
        w[ell] = proj_meet([w[ell + 1], q_of[ell]])
    blocks = {l_min: w[l_min]}
    for ell in range(l_min + 1, l_max + 1):
        blocks[ell] = w[ell] - w[ell - 1]
    return PiFamily(l_min, l_max, blocks, w)


def w_ell(pi: PiFamily, ell: int) -> Op:
    return pi.w_ell(ell)


def delta_split(x: Op, pi: PiFamily) -> tuple[Op, Op]:
    """Triangular split of x along the pi blocks.

    Delta_r collects pi_i x pi_j for i >= j (the residual block, carrying the
    lowest index, joins this part); Delta_c collects i < j.  The two parts
    sum to x exactly when the family is complete.
    """
    dr = delta_trunc(x, pi, pi.l_max)
    return dr, x - dr


def delta_trunc(x: Op, pi: PiFamily, ell: int) -> Op:
    """Delta_{r,ell}(x) = sum_{j <= i <= ell} pi_i x pi_j."""
    out = x.algebra.zero()
    idx = [k for k in pi.indices() if k <= ell]
    for i in idx:
        for j in idx:
            if i >= j:
                out = out + pi.blocks[i] @ x @ pi.blocks[j]
    return out
