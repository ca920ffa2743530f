"""Reference operators, coefficients and cube maps that only the tests
compute."""
import numpy as np

from nclp.errors import ContractViolation
from nclp.filtration import DyadicCube
from nclp.martingale import CoeffMatrix
from nclp.opcore import Op, eigvalsh, psd_sqrt


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
        cube, cell = np.nonzero(filt.dilation_masks(k, 9))
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
    w = eigvalsh(0.5 * (h + h.conj().swapaxes(-1, -2)))
    return {"strong_min_eig": w[0].min(axis=(-2, -1)),
            "weak_min_eig": w[1].min(axis=(-2, -1))}
