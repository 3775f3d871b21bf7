"""Index computations against closed-form linear flows."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equimorse.config import rotation, standard_symplectic
from equimorse.dact import bott_data
from equimorse.errors import AmbiguityError, ResolutionError, ValidationError
from equimorse.hamflow import HamiltonianGerm, linearized_path
from equimorse.spindex import SymplecticPath, cz_index, nullity

J2 = standard_symplectic(1)
ROT03 = HamiltonianGerm.rotation(0.3)


def rot_path(alpha, T=1.0, num=None):
    return SymplecticPath.from_generator_matrix(2 * np.pi * alpha * J2, T, num=num)


def hyp_path(lam=math.log(2.0), T=1.0):
    B = np.array([[lam, 0.0], [0.0, -lam]])
    return SymplecticPath.from_generator_matrix(B, T)


def quadratic_germ(S):
    """The germ H = -z.Sz/2, whose linearized flow is exp(t J0 S)."""
    return HamiltonianGerm.make(1, [(-0.5 * S[0, 0], (2, 0)), (-S[0, 1], (1, 1)),
                                    (-0.5 * S[1, 1], (0, 2))])


def negative_hyperbolic_germ(a=0.3):
    """A half turn with a hyperbolic term co-rotating at frequency 1,
    H = -(pi/2)|z|^2 + a (cos 2 pi t xy + sin 2 pi t (y^2 - x^2) / 2): its
    monodromy has the eigenvalues -e^(+-a)."""
    return HamiltonianGerm.make(1, [(-math.pi / 2, (2, 0)), (-math.pi / 2, (0, 2)),
                                    (-a / 2, (2, 0), "sin", 1), (a / 2, (0, 2), "sin", 1),
                                    (a, (1, 1), "cos", 1)])


def on_plane(germ, i):
    """The terms of a germ on R^2 moved to the (x_i, y_i) plane of R^4."""
    terms = []
    for t in germ.terms:
        m = [0, 0, 0, 0]
        m[i], m[2 + i] = t.m
        terms.append((t.c, tuple(m), t.mode, t.freq))
    return terms


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
    assert bott_data(ROT03).cz(4) == 3


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


def test_nullity_adds_over_a_direct_sum_near_the_cut():
    # the product endpoint's smallest singular value of M - I is 1.49e-8,
    # between 1e-8 and 1e-8 |M| of the sum with the hyperbolic block e^(+-1)
    a = 6.103515625e-05
    p = product_path(np.array([[0.0, a], [a, 0.0]]), np.diag([0.25, 0.0]))
    q = hyp_path(1.0)
    s = direct_sum_path(p, q)
    assert nullity(p.endpoint()) == nullity(q.endpoint()) == nullity(s.endpoint()) == 0
    assert cz_index(s) == cz_index(p) + cz_index(q)


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
        bd = bott_data(quadratic_germ(S))
        admissible, good = bd.admissible(k), bd.good(k)
    except AmbiguityError:
        assume(False)
    assume(admissible and good)
    it = SymplecticPath.from_generator_matrix(J2 @ S, k)
    assume(nullity(it.endpoint()) == 0)
    assert (cz_index(it) - cz_index(path)) % 2 == 0


def test_long_hyperbolic_iterate_passes_sample_check():
    # M(1)^6 has entries near 1e4, so M^T J0 M - J0 rounds to about 1e-8
    # absolute; the sample check must scale with |M|^2 to accept it.
    S = np.array([[1.125, -1.1875], [-1.1875, -1.1875]])
    path = SymplecticPath.from_generator_matrix(J2 @ S, 1.0)
    it = SymplecticPath.from_generator_matrix(J2 @ S, 6.0)
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
    rot = bott_data(ROT03)
    assert (rot.admissible(3), rot.good(3)) == (True, True)
    assert (rot.admissible(10), rot.good(10)) == (False, True)
    # the monodromy is conjugate to diag(-1/2, -2)
    neg = bott_data(negative_hyperbolic_germ(math.log(2.0)))
    assert (neg.admissible(2), neg.good(2)) == (True, False)


@settings(max_examples=20, deadline=None)
@given(st.floats(-1.4, 1.4), st.floats(-1.4, 1.4), st.floats(-1.4, 1.4))
def test_classify_k_one_always_trivial(a, b, c):
    # near a threshold (an eigenvalue of a twisted block inside the band, or
    # two eigenvalues of the monodromy too close to resolve) bott_data
    # refuses, as the parity test's verdicts do
    try:
        bd = bott_data(quadratic_germ(np.array([[a, b], [b, c]])))
    except AmbiguityError:
        assume(False)
    assert bd.admissible(1) and bd.good(1)


def test_classify_ambiguity_guard():
    # the eigenvalue sits 3e-7 or 3e-8 rad past the cube root of unity: its
    # block eigenvalue falls inside the threshold band, above or below the
    # cut (at 3e-9 it reads as zero)
    for offset in (3e-7, 3e-8):
        bd = bott_data(HamiltonianGerm.rotation(1.0 / 3.0 + offset / (2 * np.pi)))
        with pytest.raises(AmbiguityError):
            bd.admissible(3)


def test_an_eigenvalue_just_below_the_cut_is_refused():
    # H_1 of this germ has the eigenvalue -7.4e-9, within a factor of ten
    # below the cut 1e-8: counted as null it gave cz(k) = -1 at every k
    S = np.array([[-0.014920650476540568, -3.986628205656941e-07],
                  [-3.986628205656941e-07, 7.409705335253066e-09]])
    with pytest.raises(AmbiguityError):
        bd = bott_data(quadratic_germ(S), 1)
        [bd.cz(k) for k in (1, 2, 3)]


def test_mean_index_rotation():
    # the jumps are the monodromy's eigen-angles, so the mean index is exact
    for alpha in (0.3, math.sqrt(2.0) - 1.0, 1.0 / math.pi, math.e / 2.0):
        assert abs(bott_data(HamiltonianGerm.rotation(alpha)).mean_index - 2 * alpha) < 1e-9
    assert bott_data(HamiltonianGerm.rotation(math.e / 2.0)).action.N == 6


def test_mean_index_identity_and_hyperbolic():
    assert bott_data(HamiltonianGerm.zero(1)).mean_index == 0.0
    assert bott_data(HamiltonianGerm.make(1, [(math.log(2.0), (1, 1))])).mean_index == 0.0


_CATALOG = {
    "rotation03": ROT03, "rotation13": HamiltonianGerm.rotation(1.0 / 3.0),
    "rotation1": HamiltonianGerm.rotation(1.0), "zero": HamiltonianGerm.zero(1),
    "log2xy": HamiltonianGerm.make(1, [(math.log(2.0), (1, 1))]),
    "quartic": HamiltonianGerm.make(1, [(-0.25, (4, 0)), (-0.5, (2, 2)), (-0.25, (0, 4))]),
    "negative_hyperbolic": negative_hyperbolic_germ(),
}


def test_cz_interval_contains_iterates():
    # |cz(k) - k Delta| <= n on the catalog, and Bott's cz(k) is the winding
    # index of the k-th iterate (lower semicontinuous where it is degenerate)
    for name, germ in _CATALOG.items():
        bd = bott_data(germ)
        for k in range(1, 9):
            assert abs(bd.cz(k) - k * bd.mean_index) <= germ.n, (name, k)
            assert bd.cz(k) == cz_index(linearized_path(germ, k)), (name, k)


def test_full_turn_and_the_half_turn_iterate():
    # rotation(1.0): M = I up to rounding, one jump at 0 after the two
    # eigen-angles 0 and 0.999... are merged
    full = bott_data(HamiltonianGerm.rotation(1.0))
    assert len(full.jumps) == 1 and abs(full.mean_index - 2.0) < 1e-9 and full.cz(1) == 1
    # rotation(0.3) at k = 5: M^5 = -I, still admissible and good
    rot = bott_data(ROT03)
    assert (rot.admissible(5), rot.good(5), rot.cz(5)) == (True, True, 3)
    assert cz_index(linearized_path(ROT03, 5)) == 3


def test_negative_hyperbolic_germ_has_bad_even_iterates():
    germ = negative_hyperbolic_germ()
    bd = bott_data(germ)
    assert bd.action.N == 3 and bd.jumps == () and abs(bd.mean_index - 1.0) < 1e-9
    assert bd.index(-1.0)[0] % 2 == 1
    assert not bd.good(2) and not bd.good(4)
    assert bd.good(1) and bd.good(3)
    for k in range(1, 5):
        assert bd.admissible(k)
        assert bd.cz(k) == cz_index(linearized_path(germ, k)) == k


@pytest.mark.parametrize("term, index1, cz", [((-0.5, (0, 2)), (0, 1), 0),
                                              ((0.7, (2, 0)), (-1, 1), -1)],
                         ids=["shear_y", "shear_x"])
def test_a_jordan_block_monodromy(term, index1, cz):
    # a shear: M has the double eigenvalue 1, but ker(M - I) is a line
    germ = HamiltonianGerm.make(1, [term])
    M = linearized_path(germ).endpoint()
    assert np.allclose(np.linalg.eigvals(M), [1.0, 1.0], atol=1e-12)
    assert nullity(M) == 1
    bd = bott_data(germ)
    assert bd.jumps == (0.0,) and bd.mean_index == 0.0
    assert bd.index(1.0) == index1
    for k in range(1, 4):
        assert bd.cz(k) == cz_index(linearized_path(germ, k)) == cz, k
        assert bd.admissible(k) and bd.good(k)


@pytest.mark.parametrize("first, good_even", [("rotation03", False), ("negative_hyperbolic", True)])
def test_bott_data_of_direct_sums(first, good_even):
    # (first) + (negative hyperbolic) on R^4: the mean indices add, the odd
    # index(-1) of one negative hyperbolic block makes even iterates bad and
    # two of them make them good again
    bad = negative_hyperbolic_germ()
    germ = HamiltonianGerm.make(2, on_plane(_CATALOG[first], 0) + on_plane(bad, 1))
    bd = bott_data(germ)
    assert abs(bd.mean_index - bott_data(_CATALOG[first]).mean_index - 1.0) < 1e-9
    for k in range(1, 5):
        assert bd.good(k) == (k % 2 == 1 or good_even)
        assert bd.cz(k) == cz_index(linearized_path(germ, k))
        assert abs(bd.cz(k) - k * bd.mean_index) <= germ.n


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


def test_a_path_half_dimension_must_be_an_integer():
    # int() would read 1.5 as the plane
    for n in (1.5, True):
        with pytest.raises(ValidationError, match="half-dimension n must be an integer"):
            SymplecticPath(n, [(0.0, np.eye(2))])
    assert SymplecticPath(1.0, [(0.0, np.eye(2))]).n == 1
