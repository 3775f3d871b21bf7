"""Exact chain-complex algebra against hand-computed fixtures and the dense oracle."""
from __future__ import annotations

import doctest
import json
from fractions import Fraction

import pytest
from dense_oracle import (
    DenseComplex,
    column_space_basis,
    identity,
    kernel_basis,
    mat_add,
    mat_mul,
    rank,
    rref,
    zeros,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from equimorse import exactalg
from equimorse.errors import ConfigurationError, ValidationError
from equimorse.exactalg import (
    GradedChainComplex,
    euler_characteristic,
    format_rational,
    homology_betti,
    invariant_homology_betti,
    parse_rational,
    sparse_rank,
    tensor_with_shift,
)

# Bifurcation fixture: one maximum splitting into a pair of saddles swapped-free
# under the reflection; the action negates every generator.
def pitchfork_saddles():
    return GradedChainComplex(
        k=2,
        generators={2: ["x"], 1: ["y", "z"]},
        differential={"x": {"y": 1, "z": -1}},
        action={"x": {"x": -1}, "y": {"y": -1}, "z": {"z": -1}},
    )


# Ring-bifurcation fixture: maximum over a pair of saddles swapped by the
# reflection over two fixed minima.
def ring_minima():
    return GradedChainComplex(
        k=2,
        generators={2: ["x"], 1: ["u", "v"], 0: ["y", "z"]},
        differential={"x": {"u": 1, "v": 1}, "u": {"y": 1, "z": -1}, "v": {"y": -1, "z": 1}},
        action={
            "x": {"x": -1},
            "u": {"v": -1},
            "v": {"u": -1},
            "y": {"y": 1},
            "z": {"z": 1},
        },
    )


# Nine-generator fixture: two swapped maxima, five index-1 points (one fixed),
# two fixed minima.
def two_max_cell():
    return GradedChainComplex(
        k=2,
        generators={2: ["y", "z"], 1: ["x", "a", "b", "c", "d"], 0: ["u", "v"]},
        differential={
            "y": {"b": 1, "a": -1, "x": 1},
            "z": {"d": 1, "c": -1, "x": -1},
            "x": {"u": 1, "v": -1},
            "a": {"v": -1},
            "b": {"u": -1},
            "c": {"v": 1},
            "d": {"u": 1},
        },
        action={
            "y": {"z": -1},
            "z": {"y": -1},
            "x": {"x": 1},
            "a": {"c": -1},
            "c": {"a": -1},
            "b": {"d": -1},
            "d": {"b": -1},
            "u": {"u": 1},
            "v": {"v": 1},
        },
    )


# Flat-torus fixture: zero differential, orientation-reversing involution.
def torus_cells():
    return GradedChainComplex(
        k=2,
        generators={2: ["M"], 1: ["s1", "s2"], 0: ["m"]},
        differential={},
        action={"M": {"M": -1}, "s1": {"s1": 1}, "s2": {"s2": -1}, "m": {"m": 1}},
    )


def test_rational_round_trip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(8, 2)) == "4"


def test_rref_rank_kernel():
    A = [[Fraction(v) for v in row] for row in [[1, 2, 3], [2, 4, 6], [0, 1, 1]]]
    R, pivots = rref(A)
    assert pivots == [0, 1]
    assert rank(A) == 2
    ker = kernel_basis(A)
    assert len(ker) == 1
    for row in A:
        assert sum(a * x for a, x in zip(row, ker[0])) == 0
    cols = column_space_basis(A)
    assert len(cols) == 2


def test_betti_pitchfork():
    assert homology_betti(pitchfork_saddles()) == {1: 1}


def test_betti_zero_differential():
    cx = GradedChainComplex(k=1, generators={0: ["a"], 1: ["b"], 2: ["c"]})
    assert homology_betti(cx) == {0: 1, 1: 1, 2: 1}


def test_betti_two_max_cell():
    assert homology_betti(two_max_cell()) == {1: 1}


def test_invariant_betti_ring_minima():
    cx = ring_minima()
    assert homology_betti(cx) == {0: 1}
    assert invariant_homology_betti(cx) == {0: 1}


def test_invariant_betti_torus():
    cx = torus_cells()
    assert homology_betti(cx) == {0: 1, 1: 2, 2: 1}
    assert invariant_homology_betti(cx) == {0: 1, 1: 1}


def test_invariant_betti_pitchfork_vanishes():
    assert invariant_homology_betti(pitchfork_saddles()) == {}


def test_invariant_betti_two_max_cell_vanishes():
    assert invariant_homology_betti(two_max_cell()) == {}


def test_invariant_requires_action():
    cx = GradedChainComplex(k=2, generators={0: ["a"]})
    with pytest.raises(ConfigurationError):
        invariant_homology_betti(cx)


def test_euler_characteristic():
    assert euler_characteristic({1: 1}) == -1
    assert euler_characteristic({0: 1, 1: 1}) == 0
    assert euler_characteristic({2: 3, 1: 1, 0: 2}) == 4


def test_tensor_shift_moves_betti():
    shifted = tensor_with_shift(pitchfork_saddles(), 3, sign_flip=False)
    assert homology_betti(shifted) == {4: 1}


def test_tensor_sign_flip_kills_invariants():
    cx = GradedChainComplex(k=2, generators={0: ["e"]}, action={"e": {"e": 1}})
    assert invariant_homology_betti(cx) == {0: 1}
    flipped = tensor_with_shift(cx, 0, sign_flip=True)
    assert invariant_homology_betti(flipped) == {}


def test_tensor_shift_ring_minima():
    shifted = tensor_with_shift(ring_minima(), 2, sign_flip=False)
    assert invariant_homology_betti(shifted) == {2: 1}


def test_sign_flip_without_action_rejected():
    cx = GradedChainComplex(k=2, generators={0: ["a"]})
    with pytest.raises(ConfigurationError):
        tensor_with_shift(cx, 1, sign_flip=True)


def test_differential_must_square_to_zero():
    with pytest.raises(ValidationError):
        GradedChainComplex(
            k=1,
            generators={2: ["x"], 1: ["y"], 0: ["w"]},
            differential={"x": {"y": 1}, "y": {"w": 1}},
        )


def test_action_must_commute():
    with pytest.raises(ValidationError):
        GradedChainComplex(
            k=2,
            generators={1: ["y", "z"], 0: ["w"]},
            differential={"y": {"w": 1}},
            action={"y": {"z": 1}, "z": {"y": 1}, "w": {"w": 1}},
        )


def test_action_must_be_signed_permutation():
    with pytest.raises(ValidationError):
        GradedChainComplex(
            k=2,
            generators={0: ["a", "b"]},
            action={"a": {"a": 1, "b": 1}, "b": {"b": -1}},
        )


def test_action_order_must_divide_k():
    with pytest.raises(ValidationError):
        GradedChainComplex(
            k=3,
            generators={0: ["a"]},
            action={"a": {"a": -1}},
        )


def test_differential_degree_checked():
    with pytest.raises(ValidationError):
        GradedChainComplex(
            k=1,
            generators={2: ["x"], 0: ["w"]},
            differential={"x": {"w": 1}},
        )


def test_json_round_trip():
    for cx in (pitchfork_saddles(), ring_minima(), two_max_cell(), torus_cells()):
        doc = cx.to_json()
        back = GradedChainComplex.from_json(doc)
        assert homology_betti(back) == homology_betti(cx)
        assert invariant_homology_betti(back) == invariant_homology_betti(cx)


def test_json_round_trip_is_byte_identical():
    for cx in (pitchfork_saddles(), ring_minima(), two_max_cell(), torus_cells()):
        text = json.dumps(cx.to_json())
        assert json.dumps(GradedChainComplex.from_json(json.loads(text)).to_json()) == text


def test_an_order_and_a_degree_must_be_integers():
    # int() would read k = 2.7 as a Z_2 complex and the degree 1.9 as 1
    with pytest.raises(ValidationError, match="order k must be an integer"):
        GradedChainComplex(k=2.7, generators={1: ["a"]})
    for degree in (1.9, True, "1.0"):
        with pytest.raises(ValidationError, match="degree must be an integer"):
            GradedChainComplex(k=2, generators={degree: ["a"]})
    # JSON object keys carry degrees as strings
    cx = GradedChainComplex(k=2.0, generators={"1": ["a"], 0: ["b"]})
    assert cx.k == 2 and cx.generators == {1: ["a"], 0: ["b"]}


def _signed_cycle_action(names, cycle_lengths, signs, k):
    """Action made of signed cycles; orders are forced to divide k."""
    action = {}
    pos = 0
    for L, sgn in zip(cycle_lengths, signs):
        cyc = names[pos : pos + L]
        for i, src in enumerate(cyc):
            dst = cyc[(i + 1) % L]
            s = sgn if i == L - 1 else 1
            action[src] = {dst: s}
        pos += L
    return action


def _draw_cycles(draw, k, prefix):
    """Generator names and a signed-cycle action on them of order dividing k."""
    divisors = [L for L in range(1, k + 1) if k % L == 0]
    lengths, signs = [], []
    for _ in range(draw(st.integers(1, 4))):
        L = draw(st.sampled_from(divisors))
        if (k // L) % 2 == 1:
            s = 1  # odd power of the cycle sign must be trivial for T^k = I
        else:
            s = draw(st.sampled_from([1, -1]))
        lengths.append(L)
        signs.append(s)
    names = [f"{prefix}{i}" for i in range(sum(lengths))]
    return names, _signed_cycle_action(names, lengths, signs, k)


@st.composite
def zero_diff_action_complexes(draw):
    k = draw(st.sampled_from([1, 2, 2, 4, 6]))
    names, action = _draw_cycles(draw, k, "g")
    deg = draw(st.integers(0, 3))
    return GradedChainComplex(k=k, generators={deg: names}, differential={}, action=action), deg


def _perm_matrix(names, action):
    T = zeros(len(names), len(names))
    for j, src in enumerate(names):
        (dst, s), = action[src].items()
        T[names.index(dst)][j] = Fraction(s)
    return T


def _power(T, n):
    P = identity(len(T))
    for _ in range(n):
        P = mat_mul(T, P)
    return P


@st.composite
def averaged_two_term_complexes(draw):
    # differential sum_i T^i M T^-i for a random integer M commutes with T
    k = draw(st.sampled_from([1, 2, 3, 4, 6]))
    top, top_action = _draw_cycles(draw, k, "a")
    low, low_action = _draw_cycles(draw, k, "b")
    M = [[Fraction(draw(st.integers(-2, 2))) for _ in top] for _ in low]
    T1, T0 = _perm_matrix(top, top_action), _perm_matrix(low, low_action)
    D = zeros(len(low), len(top))
    for i in range(k):
        D = mat_add(D, mat_mul(mat_mul(_power(T0, i), M), _power(T1, k - i)))
    diff = {src: {dst: D[i][j] for i, dst in enumerate(low) if D[i][j]}
            for j, src in enumerate(top)}
    deg = draw(st.integers(1, 3))
    return GradedChainComplex(k=k, generators={deg: top, deg - 1: low},
                              differential=diff, action={**top_action, **low_action})


FIXTURES = (pitchfork_saddles, ring_minima, two_max_cell, torus_cells)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    averaged_two_term_complexes(),
    st.builds(tensor_with_shift, st.sampled_from(FIXTURES).map(lambda make: make()),
              st.integers(-2, 3), st.booleans())))
def test_betti_numbers_match_the_dense_oracle(cx):
    oracle = DenseComplex.from_json(cx.to_json())
    assert homology_betti(cx) == oracle.homology_betti()
    assert invariant_homology_betti(cx) == oracle.invariant_homology_betti()


def test_invariant_betti_is_cross_checked_against_averaging(monkeypatch):
    # a wrong count from the orbit-sum subcomplex is caught by the rank of
    # averaging on homology, which walks no orbits
    real = exactalg.betti_from_columns
    monkeypatch.setattr(exactalg, "betti_from_columns",
                        lambda cols: {q: b + 1 for q, b in real(cols).items()})
    with pytest.raises(ValidationError, match="averaging"):
        invariant_homology_betti(ring_minima())


def _ring_doc(edit):
    doc = ring_minima().to_json()
    edit(doc)
    return doc


MALFORMED = {
    "nan coefficient": lambda: GradedChainComplex.from_json(
        _ring_doc(lambda doc: doc["differential"][0].update(coeff="nan"))),
    "non-numeric coefficient": lambda: GradedChainComplex.from_json(
        _ring_doc(lambda doc: doc["action"][0].update(coeff="abc"))),
    "non-integer degree": lambda: GradedChainComplex.from_json(
        _ring_doc(lambda doc: doc["generators"].update(a=doc["generators"].pop("0")))),
    "missing order": lambda: GradedChainComplex.from_json(_ring_doc(lambda doc: doc.pop("k"))),
    "float nan coefficient": lambda: GradedChainComplex(
        k=1, generators={1: ["y"], 0: ["w"]}, differential={"y": {"w": float("nan")}}),
    "float inf coefficient": lambda: GradedChainComplex(
        k=1, generators={1: ["y"], 0: ["w"]}, differential={"y": {"w": float("inf")}}),
}


@pytest.mark.parametrize("build", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_complex_raises_validation_error(build):
    with pytest.raises(ValidationError):
        build()


def test_json_document_keeps_its_entry_order():
    assert ring_minima().to_json() == {
        "k": 2,
        "generators": {"2": ["x"], "1": ["u", "v"], "0": ["y", "z"]},
        "differential": [
            {"from": "u", "to": "y", "coeff": "1"}, {"from": "u", "to": "z", "coeff": "-1"},
            {"from": "v", "to": "y", "coeff": "-1"}, {"from": "v", "to": "z", "coeff": "1"},
            {"from": "x", "to": "u", "coeff": "1"}, {"from": "x", "to": "v", "coeff": "1"}],
        "action": [
            {"from": "y", "to": "y", "coeff": "1"}, {"from": "z", "to": "z", "coeff": "1"},
            {"from": "u", "to": "v", "coeff": "-1"}, {"from": "v", "to": "u", "coeff": "-1"},
            {"from": "x", "to": "x", "coeff": "-1"}],
    }


@settings(max_examples=60, deadline=None)
@given(zero_diff_action_complexes())
def test_averaging_idempotent_and_bounded(cx_deg):
    cx, deg = cx_deg
    A = DenseComplex.from_json(cx.to_json()).averaging(deg)
    assert mat_mul(A, A) == A
    plain = homology_betti(cx)
    inv = invariant_homology_betti(cx)
    for d, b in inv.items():
        assert b <= plain.get(d, 0)
    if cx.k == 1:
        assert inv == plain


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_sparse_rank_matches_dense(nrows, ncols, data):
    entries = [
        [Fraction(data.draw(st.integers(-3, 3))) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    dense = rank(entries)
    columns = [
        {i: entries[i][j] for i in range(nrows) if entries[i][j]}
        for j in range(ncols)
    ]
    assert sparse_rank(columns) == dense
    assert sparse_rank([{i: int(v) for i, v in col.items()} for col in columns]) == dense


def test_sparse_rank_empty():
    assert sparse_rank([]) == 0
    assert sparse_rank([{}, {}]) == 0


def test_exactalg_doctest():
    results = doctest.testmod(exactalg)
    assert results.failed == 0
    assert results.attempted >= 1
