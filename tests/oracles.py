"""Reference operators that only the tests compute."""
from nclp.opcore import Op, psd_sqrt


def abs_op(a: Op) -> Op:
    """|a| = (a* a)^{1/2}."""
    return psd_sqrt(a.H @ a)
