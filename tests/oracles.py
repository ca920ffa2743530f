"""Reference operators, coefficients and cube maps that only the tests
compute."""
import numpy as np

from nclp.errors import ContractViolation
from nclp.filtration import DyadicCube
from nclp.martingale import CoeffMatrix
from nclp.opcore import Op, psd_sqrt


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
