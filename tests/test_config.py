"""Contracts of the tolerance table and of the shared row helpers."""
import pathlib
import re

import numpy as np
import pytest

import equimorse
from equimorse import config
from equimorse.config import TOLERANCES, row_lstsq, tol


def test_every_tolerance_entry_is_read():
    # an entry nothing reads would accept an EQUIMORSE_TOL_* override that
    # changes nothing
    src = pathlib.Path(equimorse.__file__).parent
    read = set()
    for path in src.glob("*.py"):
        read.update(re.findall(r'tol\("(\w+)"\)', path.read_text()))
    assert set(TOLERANCES) <= read, sorted(set(TOLERANCES) - read)


def test_override_replaces_a_single_entry(monkeypatch):
    monkeypatch.setenv("EQUIMORSE_TOL_DEDUP", "0.5")
    assert tol("dedup") == 0.5
    assert tol("newton_grad") == TOLERANCES["newton_grad"]


def _stacks(rng, n):
    """Regular, rank-deficient and zero (P, n, n) stacks with their rows."""
    regular = rng.standard_normal((6, n, n))
    rank_one = rng.standard_normal((4, n, 1)) * rng.standard_normal((4, 1, n))
    repeated = rng.standard_normal((3, n, n))
    repeated[:, :, -1] = repeated[:, :, 0]
    zero = np.zeros((3, n, n))
    for H in (regular, rank_one, repeated, zero, np.concatenate([regular, zero, rank_one])):
        yield H, rng.standard_normal((len(H), n))


@pytest.mark.parametrize("n", range(1, 9))
def test_row_lstsq_is_bitwise_the_one_matrix_lstsq(n):
    rng = np.random.default_rng(n)
    for H, G in _stacks(rng, n):
        X = row_lstsq(H, G)
        assert X.shape == G.shape
        for h, g, x in zip(H, G, X):
            assert np.array_equal(x, np.linalg.lstsq(h, g, rcond=None)[0])


def test_row_lstsq_of_an_empty_stack_makes_no_lapack_call(monkeypatch):
    class NoKernel:
        def lstsq(self, *args, **kwargs):
            raise AssertionError("LAPACK called on an empty stack")

    monkeypatch.setattr(config, "_umath_linalg", NoKernel())
    assert row_lstsq(np.empty((0, 3, 3)), np.empty((0, 3))).shape == (0, 3)


def test_row_lstsq_raises_on_a_nan_row_like_lstsq():
    rng = np.random.default_rng(0)
    H, G = rng.standard_normal((3, 2, 2)), rng.standard_normal((3, 2))
    H[1, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(H[1], G[1], rcond=None)
    with pytest.raises(np.linalg.LinAlgError):
        row_lstsq(H, G)
