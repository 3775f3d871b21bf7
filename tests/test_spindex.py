"""Index computations against closed-form linear flows."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equimorse.config import rotation, standard_symplectic
from equimorse.errors import AmbiguityError, DomainError, ResolutionError, ValidationError
from equimorse.spindex import (
    SymplecticPath,
    classify_iteration,
    cz_index,
    iterate_path,
    maslov_loop_index,
    mean_index,
    nullity,
)

J2 = standard_symplectic(1)


def rot_path(alpha, T=1.0, num=None):
    return SymplecticPath.from_generator_matrix(2 * np.pi * alpha * J2, T, num=num)


def hyp_path(lam=math.log(2.0), T=1.0):
    B = np.array([[lam, 0.0], [0.0, -lam]])
    return SymplecticPath.from_generator_matrix(B, T)


def product_path(S1, S2, T=1.0):
    from scipy.linalg import expm

    B1, B2 = J2 @ S1, J2 @ S2

    def fn(t):
        return expm(t * B1) @ expm(t * B2)

    return SymplecticPath.from_function(1, fn, T, num=65)


def direct_sum_path(p: SymplecticPath, q: SymplecticPath):
    assert abs(p.T - q.T) < 1e-12

    def assemble(A, B):
        M = np.zeros((4, 4))
        M[np.ix_([0, 2], [0, 2])] = A
        M[np.ix_([1, 3], [1, 3])] = B
        return M

    if p.source is not None and q.source is not None:
        return SymplecticPath.from_function(
            2, lambda t: assemble(p.source(t), q.source(t)), p.T, num=129)
    ts = sorted({t for t, _ in p.samples} | {t for t, _ in q.samples})

    def at(path, t):
        return min(path.samples, key=lambda s: abs(s[0] - t))[1]

    return SymplecticPath(2, [(t, assemble(at(p, t), at(q, t))) for t in ts])


def test_cz_rotation_normalization():
    assert cz_index(rot_path(0.3)) == 1
    assert cz_index(rot_path(0.7)) == 1
    assert cz_index(rot_path(1.3)) == 3
    assert cz_index(rot_path(-0.3)) == -1


def test_cz_rotation_fourth_iterate():
    assert cz_index(rot_path(0.3, T=4.0)) == 3
    assert cz_index(iterate_path(rot_path(0.3), 4)) == 3


def test_cz_constant_identity():
    for n in (1, 2):
        I = np.eye(2 * n)
        path = SymplecticPath(n, [(0.0, I), (1.0, I)])
        assert cz_index(path) == -n


def test_cz_hyperbolic():
    assert cz_index(hyp_path()) == 0


def test_cz_negative_hyperbolic():
    # rotate to R(pi), then open up along the axes; endpoint diag(-2, -1/2)
    samples = []
    for t in np.linspace(0.0, 1.0, 65):
        samples.append((t, rotation(math.pi * t)))
    D = np.diag([2.0, 0.5])
    for s in np.linspace(0.0, 1.0, 33)[1:]:
        Ds = np.diag([2.0**s, 0.5**s])
        samples.append((1.0 + s, rotation(math.pi) @ Ds))
    assert cz_index(SymplecticPath(1, samples)) == 1


def test_cz_direct_sum_catalog():
    p, q = rot_path(0.3), hyp_path()
    assert cz_index(direct_sum_path(p, q)) == cz_index(p) + cz_index(q) == 1


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["rot", "hyp", "prod"]),
    st.sampled_from(["rot", "hyp", "prod"]),
    st.data(),
)
def test_cz_direct_sum_additivity(kind1, kind2, data):
    def draw_path(kind):
        if kind == "rot":
            alpha = data.draw(st.floats(-1.6, 1.6))
            assume(abs(alpha - round(alpha)) > 0.05)
            return rot_path(alpha)
        if kind == "hyp":
            return hyp_path(data.draw(st.floats(0.2, 1.5)))
        entries = [data.draw(st.floats(-1.5, 1.5)) for _ in range(6)]
        S1 = np.array([[entries[0], entries[1]], [entries[1], entries[2]]])
        S2 = np.array([[entries[3], entries[4]], [entries[4], entries[5]]])
        return product_path(S1, S2)

    p, q = draw_path(kind1), draw_path(kind2)
    assume(nullity(p.endpoint()) == 0 and nullity(q.endpoint()) == 0)
    assert cz_index(direct_sum_path(p, q)) == cz_index(p) + cz_index(q)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.data())
def test_parity_under_good_admissible_iteration(k, data):
    entries = [data.draw(st.floats(-1.2, 1.2)) for _ in range(3)]
    S = np.array([[entries[0], entries[1]], [entries[1], entries[2]]])
    path = SymplecticPath.from_generator_matrix(J2 @ S, 1.0)
    M = path.endpoint()
    assume(nullity(M) == 0)
    try:
        cls = classify_iteration(M, k)
    except AmbiguityError:
        assume(False)
    assume(cls.admissible and cls.good)
    it = iterate_path(path, k)
    assume(nullity(it.endpoint()) == 0)
    assert (cz_index(it) - cz_index(path)) % 2 == 0


def test_long_hyperbolic_iterate_passes_sample_check():
    # M(1)^6 has entries near 1e4, so M^T J0 M - J0 rounds to about 1e-8
    # absolute; the sample check must scale with |M|^2 to accept it.
    S = np.array([[1.125, -1.1875], [-1.1875, -1.1875]])
    path = SymplecticPath.from_generator_matrix(J2 @ S, 1.0)
    it = iterate_path(path, 6)
    assert np.abs(it.endpoint()).max() > 1e4
    assert (cz_index(it) - cz_index(path)) % 2 == 0


def test_nullity_examples():
    assert nullity(np.eye(2)) == 2
    assert nullity(rotation(2 * np.pi * 0.3)) == 0
    M = np.zeros((4, 4))
    M[np.ix_([0, 2], [0, 2])] = np.eye(2)
    M[np.ix_([1, 3], [1, 3])] = np.diag([2.0, 0.5])
    assert nullity(M) == 2


def test_classify_examples():
    R = rotation(2 * np.pi * 0.3)
    c3 = classify_iteration(R, 3)
    assert (c3.admissible, c3.good) == (True, True)
    c10 = classify_iteration(R, 10)
    assert (c10.admissible, c10.good) == (False, True)
    M = np.diag([-0.5, -2.0])
    c2 = classify_iteration(M, 2)
    assert (c2.admissible, c2.good) == (True, False)


@settings(max_examples=20, deadline=None)
@given(st.floats(-1.4, 1.4), st.floats(-1.4, 1.4), st.floats(-1.4, 1.4))
def test_classify_k_one_always_trivial(a, b, c):
    from scipy.linalg import expm

    S = np.array([[a, b], [b, c]])
    M = expm(J2 @ S)
    cls = classify_iteration(M, 1)
    assert cls.admissible and cls.good


def test_classify_ambiguity_guard():
    theta = 2 * np.pi / 3 + 3e-8
    with pytest.raises(AmbiguityError):
        classify_iteration(rotation(theta), 3)


def test_maslov_loop():
    loop = SymplecticPath.from_function(1, lambda t: rotation(2 * np.pi * t), 1.0, num=65)
    assert maslov_loop_index(loop) == 1
    const = SymplecticPath(1, [(0.0, np.eye(2)), (1.0, np.eye(2))])
    assert maslov_loop_index(const) == 0
    samples = [(t, rotation(2 * np.pi * t)) for t in np.linspace(0, 1, 65)]
    samples += [(1 + t, rotation(2 * np.pi * (1 - t))) for t in np.linspace(0, 1, 65)[1:]]
    assert maslov_loop_index(SymplecticPath(1, samples)) == 0


def test_maslov_needs_identity_endpoint():
    with pytest.raises(DomainError):
        maslov_loop_index(rot_path(0.3))


def test_mean_index_rotation():
    val, mf = mean_index(rot_path(0.3))
    assert abs(val - 0.6) <= 2.0 / mf


def test_mean_index_identity_and_hyperbolic():
    I = np.eye(2)
    path = SymplecticPath(1, [(0.0, I), (1.0, I)])
    assert mean_index(path) == (0.0, 1)
    val, mf = mean_index(hyp_path())
    assert abs(val) <= 2.0 / mf


def test_cz_interval_contains_iterates():
    for path, delta in ((rot_path(0.3), 0.6), (hyp_path(), 0.0)):
        val, mf = mean_index(path)
        slack = 2.0 / mf
        for k in range(1, 7):
            it = iterate_path(path, k)
            if nullity(it.endpoint()) > 0:
                continue
            cz = cz_index(it)
            assert k * (val - slack) - 1 <= cz <= k * (val + slack) + 1


def test_resolution_error_on_coarse_samples():
    path = SymplecticPath(1, [(0.0, np.eye(2)), (1.0, rotation(2 * np.pi * 0.3))])
    with pytest.raises(ResolutionError, match="resample"):
        cz_index(path)


def test_degenerate_endpoint_needs_linearization_source():
    with pytest.raises(ValidationError, match="linearization"):
        cz_index(rot_path(1.0))


def test_samples_must_be_symplectic():
    bad = np.diag([2.0, 2.0])
    with pytest.raises(ValidationError):
        SymplecticPath(1, [(0.0, np.eye(2)), (1.0, bad)])
