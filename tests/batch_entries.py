"""The entries of the lambda-batched results, and their comparison with the
scalar call at each threshold."""
import dataclasses

import numpy as np

from nclp.opcore import Op


def entry(x, i):
    """The entry at index i of the threshold axis of a lambda-batched
    result: every Op and array field is indexed at i, nested dataclasses,
    dicts and tuples field by field; scalars, which no threshold shapes,
    stay."""
    if dataclasses.is_dataclass(x):
        return dataclasses.replace(x, **{
            f.name: entry(getattr(x, f.name), i) for f in dataclasses.fields(x)})
    if isinstance(x, dict):
        return {k: entry(v, i) for k, v in x.items()}
    if isinstance(x, tuple):
        return tuple(entry(v, i) for v in x)
    if isinstance(x, Op) or np.ndim(x) > 0:
        return x[i]
    return x


def assert_same(got, want, tol=1e-12):
    """got equals want field by field: Ops and numbers to tol (relative
    above 1), everything else exactly, and shapes exactly."""
    if dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name), tol)
    elif isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_same(got[key], want[key], tol)
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w, tol)
    elif isinstance(want, Op):
        assert got.blocks.shape == want.blocks.shape
        assert np.abs(got.blocks - want.blocks).max(initial=0.0) <= tol
    elif isinstance(want, (float, complex, np.floating, np.ndarray)):
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(np.subtract(got, want))
                      <= tol * np.maximum(np.abs(want), 1.0))
    else:
        assert got == want


def assert_entries_match_scalar_calls(batch, lams, call):
    """Each entry of ``batch``, computed at the thresholds ``lams``, equals
    ``call(lam)`` at its own threshold."""
    for i, lam in enumerate(lams):
        assert_same(entry(batch, i), call(lam))
