"""Contracts of the tolerance table and of the shared row helpers."""
import pathlib
import re

import numpy as np
import pytest

import equimorse
from equimorse import config, lochom
from equimorse.config import TOLERANCES, lockstep_newton, row_lstsq, tol
from equimorse.lochom import CallableFunction, critical_points


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


# -- the lockstep Newton driver on x^2 = t, one target t per row --

class Unresolved(Exception):
    pass


def _square_root(targets, calls):
    """residual(rows, X) of x^2 = t, recording each batch of rows; a row
    whose iterate drops below -1.5 raises Unresolved naming its target."""
    t = np.asarray(targets, dtype=float)

    def residual(rows, X):
        calls.append(rows.tolist())
        low = X[:, 0] < -1.5
        if low.any():
            raise Unresolved(f"target {t[rows][low.argmax()]} at x = {X[low.argmax(), 0]!r}")
        return X * X - t[rows][:, None], 2.0 * X

    return residual


def _quotient(F, J):
    return F / J


def test_a_raising_row_retires_with_its_own_error_beside_bitwise_batch_mates():
    # the seed -1 heads for the root -2 and is unresolved below -1.5
    targets, seeds = [2.0, 4.0, 9.0, 0.5], [[1.0], [-1.0], [5.0], [3.0]]
    calls = []
    X, converged, errors, (F, J) = lockstep_newton(
        _square_root(targets, calls), seeds, _quotient, 1e-12, 50, retry=(Unresolved,))
    assert converged.tolist() == [True, False, True, True]
    assert [len(rows) for rows in calls].count(1) >= len(seeds)  # the row-by-row retry
    for i, (t, seed) in enumerate(zip(targets, seeds)):
        alone = lockstep_newton(_square_root([t], []), [seed], _quotient, 1e-12, 50,
                                retry=(Unresolved,))
        assert np.array_equal(X[i], alone[0][0]) and converged[i] == alone[1][0]
        if converged[i]:
            assert errors[i] is None and np.array_equal(F[i], alone[3][0][0])
        else:
            assert str(errors[i]) == str(alone[2][0]) and "target 4.0" in str(errors[i])
    # an error not listed in retry propagates
    with pytest.raises(Unresolved):
        lockstep_newton(_square_root(targets, []), seeds, _quotient, 1e-12, 50)


def test_a_row_that_never_converges_costs_exactly_max_iter_evaluations():
    calls, steps = [], []

    def residual(rows, X):
        calls.append(len(rows))
        return (np.ones_like(X),)

    def step(F):
        steps.append(len(F))
        return F

    X, converged, errors, _ = lockstep_newton(residual, [[0.0], [3.0]], step, 1e-12, 7)
    assert calls == [2] * 7 and steps == [2] * 7
    # each row retires at the point its last step reached
    assert X[:, 0].tolist() == [-7.0, -4.0]
    assert not converged.any() and errors == [None, None]


def test_an_empty_batch_makes_no_call():
    def never(*args):
        raise AssertionError("called on an empty batch")

    X, converged, errors, kept = lockstep_newton(never, np.empty((0, 2)), never, 1e-12, 50,
                                                 leaves=never)
    assert X.shape == (0, 2) and converged.shape == (0,) and errors == [] and kept is None


def test_a_batch_converged_at_its_first_evaluation_makes_one_call_and_no_step():
    calls = []

    def never(*args):
        raise AssertionError("a converged batch asked for a step")

    X, converged, _, (F, J) = lockstep_newton(
        _square_root([4.0, 9.0], calls), [[2.0], [3.0]], never, 1e-12, 50)
    assert calls == [[0, 1]] and converged.all()
    assert X[:, 0].tolist() == [2.0, 3.0] and J[:, 0].tolist() == [4.0, 6.0]


def test_critical_points_of_a_linear_function_make_max_iter_grad_and_hess_calls():
    # grad f = e1 never vanishes and the lstsq step of H = 0 is zero, so no
    # row converges or leaves the ball: every iteration asks for one jet,
    # whose gradient and Hessian are read together, and nothing more is
    # evaluated after the last one
    calls = []

    def jet(Z):
        calls.append(len(Z))
        return np.zeros(len(Z)), np.tile([1.0, 0.0], (len(Z), 1)), np.zeros((len(Z), 2, 2))

    f = CallableFunction(2, jet)
    assert critical_points(f, [[0.1, 0.2], [-0.3, 0.0]], 1.0) == []
    assert calls == [2] * lochom._MAX_ITER
