"""Local homology: function specs, sublevel pairs, trajectory complexes, splitting."""
import doctest
import math

import numpy as np
import pytest
from dense_oracle import DenseComplex
from split_oracle import sample_cloud, straightening_map

from equimorse import dact, exactalg, lochom
from equimorse.config import tol
from equimorse.dact import DiscreteAction, bott_data
from equimorse.equiperturb import squeezed_ring_model
from equimorse.errors import (
    BoundaryError,
    ConfigurationError,
    DegeneracyError,
    IsolationError,
    MorseSmaleError,
    ParameterError,
    ResolutionError,
    ShapeError,
    TrustRegionError,
    ValidationError,
)
from equimorse.hamflow import HamiltonianGerm
from equimorse.lochom import (
    CallableFunction,
    CyclicAction,
    FunctionSpec,
    critical_points,
    discrete_action_function,
    equivariant_split,
    gromoll_meyer_pair,
    local_homology,
    morse_complex_2d,
    relative_homology,
    signed_permutation_data,
    sublevel_homology,
)
from equimorse.regdist import ClosedSetSpec


def reflection_v():
    # (u, v) -> (u, -v)
    return CyclicAction(np.diag([1.0, -1.0]), 2)


def reflection_u():
    # (u, v) -> (-u, v)
    return CyclicAction(np.diag([-1.0, 1.0]), 2)


def rotation_action(k):
    t = 2 * math.pi / k
    A = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return CyclicAction(A, k)


def swap_saddle_model(t):
    # max at 0, two saddles at (0, +-sqrt(t)) exchanged by v -> -v,
    # unstable saddle directions along the preserved u axis
    return FunctionSpec.make(
        2, [(-1.0, (2, 0)), (-t, (0, 2)), (0.5, (0, 4))], action=reflection_v())


def axis_saddle_model(t):
    # max at 0, two saddles at (+-sqrt(t), 0) fixed by v -> -v,
    # unstable saddle directions along the reversed v axis
    return FunctionSpec.make(
        2, [(0.25, (4, 0)), (-t / 2, (2, 0)), (-0.5, (0, 2))], action=reflection_v())


def ring_model(t, eps=0.1):
    # (|z|^2 - t)^2 / 4 + eps u^2 / 2, invariant under u -> -u
    return FunctionSpec.make(
        2,
        [(0.25, (4, 0)), (0.5, (2, 2)), (0.25, (0, 4)),
         (-t / 2, (2, 0)), (-t / 2, (0, 2)), (eps / 2, (2, 0)), (t * t / 4, (0, 0))],
        action=reflection_u())


def monkey(action=None):
    # Re (u + iv)^3 = u^3 - 3 u v^2
    return FunctionSpec.make(2, [(1.0, (3, 0)), (-3.0, (1, 2))], action=action)


def sector_oracle(k=1):
    # disk whose boundary circle is cut into six arcs, alternately below and
    # above the working level; the three low arcs are the exit set, leaving the
    # disk cell and the three high arcs in the quotient
    gens = {2: ["F"], 1: ["u1", "u2", "u3"]}
    diff = {"F": {"u1": 1, "u2": 1, "u3": 1}}
    if k == 3:
        action = {"F": {"F": 1}, "u1": {"u2": 1}, "u2": {"u3": 1}, "u3": {"u1": 1}}
        return exactalg.GradedChainComplex(
            k=3, generators=gens, differential=diff, action=action)
    return exactalg.GradedChainComplex(k=1, generators=gens, differential=diff)


def quartic_germ():
    return HamiltonianGerm.make(1, [(-0.25, (4, 0)), (-0.5, (2, 2)), (-0.25, (0, 4))])


def test_polynomial_values_match_closed_forms():
    f = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 2))])
    rng = np.random.default_rng(2)
    for z in rng.uniform(-1, 1, size=(6, 2)):
        assert abs(f.value(z) - (z[0] ** 2 + z[1] ** 2)) < 1e-12
        assert np.allclose(f.grad(z), 2 * z, atol=1e-12)
        assert np.allclose(f.hess(z), 2 * np.eye(2), atol=1e-12)


@pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
def test_function_rejects_non_finite_coefficients(coeff):
    with pytest.raises(ValidationError, match="not finite"):
        FunctionSpec.make(2, [(coeff, (2, 0)), (1.0, (0, 2))])
    doc = {"d": 2, "terms": [{"coeff": coeff, "exps": [2, 0]}, {"coeff": 1.0, "exps": [0, 2]}]}
    with pytest.raises(ValidationError, match="not finite"):
        FunctionSpec.from_json(doc)


@pytest.mark.parametrize("term", [
    {"coeff": "abc", "exps": [2, 0]},
    {"coeff": 1.0, "exps": [2.7, 0]},
    {"coeff": 1.0, "exps": ["2", 0]},
    [1.0, [2, 0]],
], ids=["string coefficient", "fractional exponent", "string exponent", "term as a list"])
def test_function_from_json_refuses_malformed_terms(term):
    doc = {"d": 2, "terms": [term, {"coeff": 1.0, "exps": [0, 2]}]}
    with pytest.raises(ValidationError):
        FunctionSpec.from_json(doc)


def _malformed_documents():
    # each case edits a valid document of one decoder
    matrix = [[1.0, 0.0], [0.0, -1.0]]
    function = {"d": 2, "terms": [{"coeff": 1.0, "exps": [2, 0]},
                                  {"coeff": 1.0, "exps": [0, 2]}],
                "action": {"matrix": matrix, "k": 2}}
    closed = {"n": 2, "primitives": [{"kind": "ball", "center": [0.0, 0.0], "radius": 0.5}],
              "action": {"matrix": matrix, "k": 2}}
    cases = {}
    for name, decode, doc, size, parts in (
            ("function", FunctionSpec.from_json, function, "d", "terms"),
            ("closed set", ClosedSetSpec.from_json, closed, "n", "primitives")):
        for key in (size, parts):
            cases[f"{name} without {key}"] = (decode, {k: v for k, v in doc.items() if k != key})
        cases[f"{name} without action.k"] = (decode, {**doc, "action": {"matrix": matrix}})
        cases[f"{name} with a string {size}"] = (decode, {**doc, size: "x"})
        cases[f"{name} with a string matrix"] = (decode,
                                                  {**doc, "action": {"matrix": "abc", "k": 2}})
        cases[f"{name} as a list"] = (decode, list(doc.items()))
    ball = {"kind": "ball", "center": [0.0, 0.0]}
    cases["ball without radius"] = (ClosedSetSpec.from_json, {**closed, "primitives": [ball]})
    return cases


@pytest.mark.parametrize("case", list(_malformed_documents()))
def test_malformed_json_raises_validation_error(case):
    decode, doc = _malformed_documents()[case]
    with pytest.raises(ValidationError):
        decode(doc)


def test_function_from_json_accepts_whole_float_exponents():
    doc = {"d": 2, "terms": [{"coeff": 1.0, "exps": [2.0, 0]}, {"coeff": 1, "exps": [0, 2]}]}
    assert FunctionSpec.from_json(doc).terms == ((1.0, (2, 0)), (1.0, (0, 2)))


_MAKERS = {"function spec": (lambda terms: FunctionSpec.make(2, terms), ValidationError),
           "germ": (lambda terms: HamiltonianGerm.make(1, terms), ConfigurationError)}


def _exponents_of(f):
    return f.terms[0][1] if isinstance(f, FunctionSpec) else f.terms[0].m


@pytest.mark.parametrize("kind", list(_MAKERS))
@pytest.mark.parametrize("exps", [
    (2, 0), (2.0, 0), (np.int64(2), 0), np.array([2, 0]), (np.float64(2.0), np.uint8(0)),
    (2.5, 0), (True, 1), (np.bool_(True), 1), ("2", 0), (math.inf, 0),
], ids=["int", "whole float", "numpy int", "numpy array", "numpy whole float",
        "fraction", "bool", "numpy bool", "string", "infinity"])
def test_terms_take_integral_exponents_and_refuse_bools_and_fractions(kind, exps):
    make, error = _MAKERS[kind]
    if any(isinstance(e, (bool, np.bool_, str)) or not float(e).is_integer() for e in exps):
        with pytest.raises(error, match="exponent"):
            make([(1.0, exps)])
    else:
        got = _exponents_of(make([(1.0, exps)]))
        assert got == (2, 0) and all(type(e) is int for e in got)


@pytest.mark.parametrize("n", [1, 2])
def test_a_function_spec_is_bitwise_the_constant_germ_with_its_terms(n):
    # FunctionSpec and HamiltonianGerm evaluate one polynomial kernel
    rng = np.random.default_rng(70 + n)
    d = 2 * n
    terms = []
    while len(terms) < 8:
        m = tuple(int(e) for e in rng.integers(0, 5, d))
        if sum(m) >= 2:
            terms.append((float(rng.standard_normal()), m))
    spec = FunctionSpec.make(d, terms)
    germ = HamiltonianGerm.make(n, terms)
    Z = rng.uniform(-1.5, 1.5, size=(2000, d))
    H, grad, hess = germ.jet(Z, 0.3)
    assert np.array_equal(spec.value(Z), H)
    assert np.array_equal(spec.grad(Z), grad)
    assert np.array_equal(spec.hess(Z), hess)
    for z in Z[:20]:
        assert spec.value(z) == germ.value(z, 0.3)
        assert np.array_equal(spec.grad(z), germ.grad(z, 0.3))
        assert np.array_equal(spec.hess(z), germ.hess(z, 0.3))


def test_function_requires_critical_origin():
    with pytest.raises(ValidationError, match="critical point"):
        FunctionSpec.make(2, [(1.0, (1, 0)), (1.0, (0, 2))])


def test_action_matrix_validation():
    rotation_action(3)
    with pytest.raises(ValidationError, match="orthogonal"):
        CyclicAction(np.diag([2.0, 1.0]), 2)
    with pytest.raises(ValidationError, match="order"):
        CyclicAction(rotation_action(6).matrix, 2)


def test_function_action_invariance_checked():
    swap = CyclicAction(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
    FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 2))], action=swap)
    with pytest.raises(ValidationError, match="not invariant"):
        FunctionSpec.make(2, [(1.0, (2, 0)), (2.0, (0, 2))], action=swap)


def test_signed_permutation_detection():
    assert signed_permutation_data(np.diag([1.0, -1.0])) == [(0, 1), (1, -1)]
    quarter = rotation_action(4).matrix
    assert signed_permutation_data(quarter) == [(1, 1), (0, -1)]
    assert signed_permutation_data(rotation_action(3).matrix) is None


def test_function_json_round_trip():
    f = ring_model(0.0)
    doc = f.to_json()
    g = FunctionSpec.from_json(doc)
    assert g.d == 2 and g.action is not None and g.action.k == 2
    rng = np.random.default_rng(5)
    for z in rng.uniform(-0.7, 0.7, size=(5, 2)):
        assert abs(f.value(z) - g.value(z)) < 1e-12
    assert np.allclose(f.action.matrix, g.action.matrix)


def test_minimum_pair_homology():
    f = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 2))])
    pair = gromoll_meyer_pair(f, 1.0, a=0.1, b=0.1, h=1 / 8)
    # the well is so shallow that the exit set is empty
    assert not pair.wminus_mask.any()
    assert not (pair.wminus_mask & ~pair.w_mask).any()
    assert relative_homology(pair) == {0: 1}


def test_maximum_pair_homology():
    f = FunctionSpec.make(2, [(-1.0, (2, 0)), (-1.0, (0, 2))])
    pair = gromoll_meyer_pair(f, 1.0, a=0.1, b=0.1, h=1 / 8)
    assert pair.wminus_mask.any()
    assert relative_homology(pair) == {2: 1}


def test_monkey_saddle_pair_matches_sector_oracle():
    oracle = exactalg.homology_betti(sector_oracle())
    assert oracle == {1: 2}
    got = sublevel_homology(monkey(), 1.0)
    assert got == oracle


def test_pair_rejects_second_critical_point():
    # (u^2 - 1/4)^2 + v^2 has wells at (+-1/2, 0)
    f = FunctionSpec.make(
        2, [(1.0, (4, 0)), (-0.5, (2, 0)), (1.0, (0, 2)), (1 / 16, (0, 0))])
    with pytest.raises(IsolationError, match="besides the origin"):
        gromoll_meyer_pair(f, 1.0)


def test_pair_rejects_large_well_depth():
    # wells this deep carve an exit set that the flow drags back into the pair
    f = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 2))])
    with pytest.raises(ParameterError, match="too large"):
        gromoll_meyer_pair(f, 1.0, a=0.9, b=0.9)


def test_degenerate_swap_model_homology():
    # t = 0 member of the swapped-saddle family: -u^2 + v^4/2.  The reflection
    # exchanges the two saddles of nearby regular members and preserves the
    # unstable u direction, so the surviving degree-1 class is invariant.
    f = swap_saddle_model(0.0)
    assert sublevel_homology(f, 1.0) == {1: 1}
    assert sublevel_homology(f, 1.0, invariant=True) == {1: 1}


def test_degenerate_axis_model_homology():
    # t = 0 member of the axis-saddle family: u^4/4 - v^2/2.  The reflection
    # reverses the unstable v direction, so no invariant class survives.
    f = axis_saddle_model(0.0)
    assert sublevel_homology(f, 1.0) == {1: 1}
    assert sublevel_homology(f, 1.0, invariant=True) == {}


def test_degenerate_ring_model_homology():
    f = ring_model(0.0)
    assert sublevel_homology(f, 1.0) == {0: 1}
    assert sublevel_homology(f, 1.0, invariant=True) == {0: 1}


def test_trivial_action_invariant_equals_plain():
    f = FunctionSpec.make(
        2, [(1.0, (2, 0)), (1.0, (0, 2))], action=CyclicAction(np.eye(2), 1))
    assert sublevel_homology(f, 1.0, invariant=True) == {0: 1}


def test_grid_refinement_mismatch_is_an_error():
    with pytest.raises(ResolutionError, match="refinement"):
        sublevel_homology(monkey(), 1.0, h=0.5)


def test_invariant_mode_requires_cell_action():
    f = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 2))])
    pair = gromoll_meyer_pair(f, 1.0, a=0.1, b=0.1, h=1 / 8)
    with pytest.raises(ConfigurationError, match="action"):
        relative_homology(pair, invariant=True)


def test_polar_pair_matches_cartesian_on_quadratics():
    fmin = FunctionSpec.make(
        2, [(1.0, (2, 0)), (1.0, (0, 2))], action=rotation_action(3))
    fmax = FunctionSpec.make(
        2, [(-1.0, (2, 0)), (-1.0, (0, 2))], action=rotation_action(3))
    # the 3-fold rotation is no signed permutation: 8 rings of 12 sectors
    pmin = gromoll_meyer_pair(fmin, 1.0, a=0.1, b=0.1)
    pmax = gromoll_meyer_pair(fmax, 1.0, a=0.1, b=0.1)
    assert pmin.w_mask.shape == pmax.w_mask.shape == (8, 12)
    assert relative_homology(pmin) == {0: 1}
    assert relative_homology(pmax) == {2: 1}
    # the rotation preserves the plane orientation, so the top class survives
    assert relative_homology(pmin, invariant=True) == {0: 1}
    assert relative_homology(pmax, invariant=True) == {2: 1}


PAIRS = {
    "swap": lambda: gromoll_meyer_pair(swap_saddle_model(0.0), 1.0),
    "axis": lambda: gromoll_meyer_pair(axis_saddle_model(0.0), 1.0),
    "ring": lambda: gromoll_meyer_pair(ring_model(0.0), 1.0),
    "polar monkey": lambda: gromoll_meyer_pair(monkey(action=rotation_action(3)), 1.0),
}


@pytest.mark.parametrize("make", list(PAIRS.values()), ids=list(PAIRS))
def test_pair_homology_matches_the_dense_oracle(make):
    # the same relative chains and cell action, through dense ranks and the
    # averaging projector instead of sparse ranks and orbit sums
    pair = make()
    labels, index, cols = pair.chains
    act = {q: [(index[pair.grid.act(c)[0]][1], pair.grid.act(c)[1]) for c in cs]
           for q, cs in labels.items()}
    oracle = DenseComplex.from_columns(pair.grid.action.k, cols, act)
    assert relative_homology(pair) == oracle.homology_betti()
    assert relative_homology(pair, invariant=True) == oracle.invariant_homology_betti()


def test_polar_invariant_monkey_matches_sector_oracle():
    # the monkey saddle is invariant under the order-3 rotation; the sector
    # oracle says averaging kills both surviving degree-1 classes
    oracle = sector_oracle(3)
    assert exactalg.homology_betti(oracle) == {1: 2}
    assert exactalg.invariant_homology_betti(oracle) == {}
    f = monkey(action=rotation_action(3))
    assert sublevel_homology(f, 1.0) == {1: 2}
    assert sublevel_homology(f, 1.0, invariant=True) == {}


def test_morse_complex_single_minimum():
    f = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 2))])
    cx = morse_complex_2d(f, 1.0)
    assert cx.dim(0) == 1 and cx.degrees == [0]
    assert exactalg.homology_betti(cx) == {0: 1}


def test_morse_complex_swap_model():
    # regular member: the saddle downhill branches leave the ball cleanly and
    # contribute nothing; both saddles are exchanged with sign +1
    cx = morse_complex_2d(swap_saddle_model(0.5), 1.0)
    assert cx.dim(2) == 1 and cx.dim(1) == 2 and cx.dim(0) == 0
    # saddle downhill branches all exit: no boundary out of degree 1
    assert not any(cx.d_cols[1])
    assert sorted(cx.d_cols[2][0].values()) == [-1, 1]
    assert cx.t_perm[1] == [(1, 1), (0, 1)]
    assert cx.t_perm[2] == [(0, -1)]
    assert exactalg.homology_betti(cx) == {1: 1}
    assert exactalg.invariant_homology_betti(cx) == {1: 1}


def test_morse_complex_axis_model():
    # regular member with fixed saddles and reversed arrows: the chain action
    # is minus the identity and no invariant class survives
    cx = morse_complex_2d(axis_saddle_model(0.5), 1.0)
    assert cx.dim(2) == 1 and cx.dim(1) == 2
    assert sorted(cx.d_cols[2][0].values()) == [-1, 1]
    assert cx.t_perm[1] == [(0, -1), (1, -1)]
    assert cx.t_perm[2] == [(0, -1)]
    assert exactalg.homology_betti(cx) == {1: 1}
    assert exactalg.invariant_homology_betti(cx) == {}


def test_morse_complex_ring_model():
    cx = morse_complex_2d(ring_model(0.5), 1.0)
    assert cx.dim(0) == 2 and cx.dim(1) == 2 and cx.dim(2) == 1
    assert exactalg.homology_betti(cx) == {0: 1}
    assert exactalg.invariant_homology_betti(cx) == {0: 1}


def test_morse_complex_orientation_choice_is_isomorphism():
    base = morse_complex_2d(ring_model(0.5), 1.0)
    flipped = morse_complex_2d(ring_model(0.5), 1.0, flip={0: -1})
    assert exactalg.homology_betti(base) == exactalg.homology_betti(flipped)
    assert (exactalg.invariant_homology_betti(base)
            == exactalg.invariant_homology_betti(flipped))


def test_morse_complex_oracle_equivalence_with_pairs():
    # the trajectory count on a regular member and the sublevel pair of the
    # degenerate member of the same family see the same local homology
    for family in (swap_saddle_model, axis_saddle_model):
        cx = morse_complex_2d(family(0.5), 1.0)
        assert exactalg.homology_betti(cx) == sublevel_homology(family(0.0), 1.0)
        assert (exactalg.invariant_homology_betti(cx)
                == sublevel_homology(family(0.0), 1.0, invariant=True))


def test_morse_complex_budget_error():
    f = FunctionSpec.make(2, [(1e-3, (2, 0)), (-1e-3, (0, 2))])
    with pytest.raises(BoundaryError, match="budget"):
        morse_complex_2d(f, 1.0)


def test_morse_complex_saddle_saddle_error():
    # u^4/4 - u^2/2 + v^2 (1 - 2u^2): three saddles on the u axis, the middle
    # one feeding the outer ones along the invariant axis
    f = FunctionSpec.make(
        2, [(0.25, (4, 0)), (-0.5, (2, 0)), (1.0, (0, 2)), (-2.0, (2, 2))])
    with pytest.raises(MorseSmaleError, match="saddle-to-saddle"):
        morse_complex_2d(f, 1.3)


@pytest.mark.parametrize("flip", [{0: 0}, {0: 2}, {0: 0.5}, {7: -1}],
                         ids=["zero", "two", "half", "no saddle 7"])
def test_morse_complex_rejects_a_flip_that_is_not_a_saddle_sign(flip):
    # ring_model(0.5) has two saddles, numbered 0 and 1
    with pytest.raises(ParameterError, match="flip"):
        morse_complex_2d(ring_model(0.5), 1.0, flip=flip)


def test_shoot_returns_none_when_the_flow_leaves_the_ball():
    bowl = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 2))])
    origin = np.zeros(2)
    i, z = lochom._shoot(bowl, [0.1, 0.0], 1.0, [origin], [0], origin, 1.0)
    assert i is None
    assert np.linalg.norm(z) >= 1.0 - 1e-9


def test_shoot_rests_at_the_minimum_of_a_descending_flow():
    bowl = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 2))])
    z0 = np.array([0.5, 0.3])
    i, z = lochom._shoot(bowl, z0, -1.0, [np.zeros(2)], [0], z0, 1.0)
    assert i == 0
    assert np.linalg.norm(z) < 1e-3


def test_shoot_rests_at_a_saddle_along_its_stable_axis():
    # zdot = -grad(u^2 - v^2) = (-2u, 2v) keeps the u axis and shrinks u
    saddle = FunctionSpec.make(2, [(1.0, (2, 0)), (-1.0, (0, 2))])
    z0 = np.array([0.5, 0.0])
    i, z = lochom._shoot(saddle, z0, -1.0, [np.zeros(2)], [1], z0, 1.0)
    assert i == 0
    assert np.linalg.norm(saddle.grad(z)) < 1e-9


def test_shoot_does_not_capture_at_its_source_before_arming():
    # from 1e-12 off the saddle the gradient is below 1e-9 for the first
    # chunks: a flow whose source is the saddle leaves the ball, while the
    # same start shot from elsewhere rests at the saddle at once
    saddle = FunctionSpec.make(2, [(1.0, (2, 0)), (-1.0, (0, 2))])
    origin = np.zeros(2)
    z0 = np.array([0.0, 1e-12])
    i, _ = lochom._shoot(saddle, z0, -1.0, [origin], [1], origin, 1.0)
    assert i is None
    i, _ = lochom._shoot(saddle, z0, -1.0, [origin], [1], np.array([0.5, 0.0]), 1.0)
    assert i == 0


def test_split_already_separated():
    f = FunctionSpec.make(2, [(1.0, (4, 0)), (1.0, (0, 2))])
    out = equivariant_split(f, 1)
    assert out.signature == (1, 0)
    assert out.orientation_preserved is True
    rng = np.random.default_rng(3)
    for t in rng.uniform(-0.3, 0.3, size=6):
        assert abs(out.g.value([t]) - t ** 4) < 1e-9
    psi = straightening_map(f, out)
    for z in rng.uniform(-0.2, 0.2, size=(6, 2)):
        assert np.linalg.norm(psi(z) - z) < 1e-9


def test_split_sheared_well():
    # z1^4 + (z2 - z1^2)^2 straightens to z1^4 + z2^2 along phi(z1) = z1^2
    f = FunctionSpec.make(
        2, [(2.0, (4, 0)), (1.0, (0, 2)), (-2.0, (2, 1))])
    out = equivariant_split(f, 1)
    assert out.signature == (1, 0)
    rng = np.random.default_rng(4)
    H0 = f.hess(np.zeros(2))[1:, 1:]
    for t in rng.uniform(-0.3, 0.3, size=6):
        assert abs(out.phi([t]) - t ** 2) < 1e-9
        assert abs(out.g.value([t]) - t ** 4) < 1e-8
    psi = straightening_map(f, out)
    for z in rng.uniform(-0.25, 0.25, size=(10, 2)):
        w = psi(z)
        got = f.value(w)
        want = out.g.value(z[:1]) + 0.5 * H0[0, 0] * z[1] ** 2
        assert abs(got - want) < 1e-7


def test_split_orientation_reversal():
    f = FunctionSpec.make(
        2, [(1.0, (4, 0)), (-1.0, (0, 2))], action=reflection_v())
    out = equivariant_split(f, 1)
    assert out.signature == (0, 1)
    assert out.orientation_preserved is False
    A = f.action.matrix
    rng = np.random.default_rng(6)
    psi = straightening_map(f, out)
    for z in rng.uniform(-0.25, 0.25, size=(8, 2)):
        assert np.linalg.norm(psi(A @ z) - A @ psi(z)) < 1e-8


def test_split_rejects_coupled_blocks():
    f = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (1, 1)), (1.0, (0, 2))])
    with pytest.raises(ValidationError, match="block"):
        equivariant_split(f, 1)


def test_split_rejects_degenerate_normal_block():
    f = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 4))])
    with pytest.raises(DegeneracyError, match="normal block"):
        equivariant_split(f, 1)


def _series_germ():
    return FunctionSpec.make(2, [(1.0, (4, 0)), (1.0, (0, 2)), (-4.0, (0, 4))])


def test_split_series_radius_error():
    # the averaged normal Hessian 2 - 8 z2^2 degenerates inside the requested
    # radius, so the square-root series cannot converge there
    f = _series_germ()
    psi = straightening_map(f, equivariant_split(f, 1, radius=0.9))
    with pytest.raises(TrustRegionError, match="series"):
        for z in sample_cloud(2, 0.9):
            psi(z)


def test_split_of_the_series_germ_needs_no_series():
    # phi = 0 and the fiber Hessian on the graph is 2 at every z1, so the
    # shifting theorem's hypotheses hold where the series of psi diverges
    f = _series_germ()
    out = equivariant_split(f, 1, radius=0.9)
    assert out.signature == (1, 0)
    for t in np.linspace(-0.5, 0.5, 7):
        assert abs(out.g.value([t]) - t ** 4) < 1e-12
    assert local_homology(f, radius=0.9).plain == {0: 1}


def test_split_refuses_a_fiber_signature_change():
    # the fiber Hessian 2 - 8 z1^2 of z1^4 + z2^2 - 4 z1^2 z2^2 changes sign
    # at |z1| = 1/2, inside the sample cloud of radius 0.9 but not of 0.5
    f = FunctionSpec.make(2, [(1.0, (4, 0)), (1.0, (0, 2)), (-4.0, (2, 2))])
    with pytest.raises(TrustRegionError, match="signature"):
        equivariant_split(f, 1, radius=0.9)
    assert equivariant_split(f, 1, radius=0.5).signature == (1, 0)


def _one_point_phi(f, n1, z1):
    """The fiber Newton of one point: the reference for the lockstep phi."""
    z1 = np.asarray(z1, dtype=float)
    w = np.zeros(f.d - n1)
    for _ in range(50):
        z = np.concatenate([z1, w])
        g2 = f.grad(z)[n1:]
        if np.linalg.norm(g2) < tol("newton_grad"):
            return w
        w = w - np.linalg.solve(f.hess(z)[n1:, n1:], g2)
    raise TrustRegionError("implicit solve for the fiber critical point did not converge")


@pytest.mark.parametrize("f", [
    FunctionSpec.make(2, [(1.0, (4, 0)), (1.0, (0, 2))]),
    FunctionSpec.make(2, [(2.0, (4, 0)), (1.0, (0, 2)), (-2.0, (2, 1))]),
    FunctionSpec.make(2, [(1.0, (4, 0)), (-1.0, (0, 2))], action=reflection_v()),
    _series_germ(),
    # a fiber equation 2 z2 + 4 z2^3 = z1^2 that takes several Newton steps
    FunctionSpec.make(2, [(1.0, (4, 0)), (1.0, (0, 2)), (1.0, (0, 4)), (-1.0, (2, 1))]),
], ids=["separated", "sheared", "reflection", "series", "cubic fiber"])
def test_split_phi_of_a_batch_is_bitwise_the_one_point_newton(f):
    out = equivariant_split(f, 1)
    Z1 = np.linspace(-0.4, 0.4, 11)[:, None]
    W = out.phi(Z1)
    assert W.shape == (11, 1)
    for z1, w in zip(Z1, W):
        assert np.array_equal(w, _one_point_phi(f, 1, z1))


def test_the_jet_of_the_reduced_function_runs_one_fiber_solve():
    # the fiber equation 2 z2 + 4 z2^3 = z1^2 takes several Newton steps
    f = FunctionSpec.make(2, [(1.0, (4, 0)), (1.0, (0, 2)), (1.0, (0, 4)), (-1.0, (2, 1))])
    batches = []

    def jet(Z):
        batches.append(np.array(Z))
        return f.jet(Z)

    out = equivariant_split(CallableFunction(2, jet), 1)
    Z1 = np.linspace(-0.4, 0.4, 5)[:, None]
    del batches[:]
    out.phi(Z1)
    # one Newton iteration per batch, the first at the fiber start 0
    steps = len(batches)
    assert steps > 2 and not batches[0][:, 1:].any()
    del batches[:]
    v, g, h = out.g.jet(Z1)
    # one phi solve, whose converged rows give the jet of f on the graph
    assert len(batches) == steps
    assert sum(not Z[:, 1:].any() for Z in batches) == 1
    graph = np.concatenate([Z1, out.phi(Z1)], axis=1)
    assert np.array_equal(v, f.value(graph)) and np.array_equal(g, f.grad(graph)[:, :1])


@pytest.mark.parametrize("shape", [(4, 3), (2, 2, 2), (3,), ()])
def test_points_of_the_wrong_shape_raise_shape_error(shape):
    spec = FunctionSpec.make(2, [(1.0, (4, 0)), (1.0, (0, 2))])
    pulled = lochom._pullback(spec, np.array([[0.6, 0.8], [-0.8, 0.6]]))
    acting = discrete_action_function(DiscreteAction(quartic_germ(), 1, 1))
    for f in (spec, pulled, acting):
        assert f.d == 2
        for view in (f.jet, f.value, f.grad, f.hess):
            with pytest.raises(ShapeError, match="length 2"):
                view(np.zeros(shape))


def test_local_homology_mixed_minimum():
    f = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 4))])
    out = local_homology(f, radius=1.0)
    assert out.plain == {0: 1}
    assert out.trace["kernel_dim"] == 1 and out.trace["q"] == 0
    # independent route: rasterize the two-dimensional function directly
    assert sublevel_homology(f, 1.0) == {0: 1}


def test_local_homology_saddle_direction_shift():
    f = FunctionSpec.make(2, [(-1.0, (2, 0)), (1.0, (0, 4))])
    out = local_homology(f, radius=1.0)
    assert out.plain == {1: 1}
    assert out.trace["q"] == 1
    assert sublevel_homology(f, 1.0) == {1: 1}


def test_local_homology_nondegenerate_max():
    f = FunctionSpec.make(
        2, [(-1.0, (2, 0)), (-1.0, (0, 2)), (1.0, (4, 0)), (1.0, (0, 4))])
    out = local_homology(f, radius=0.6)
    assert out.plain == {2: 1}
    assert out.invariant == {2: 1}
    assert out.trace["kernel_dim"] == 0


def test_local_homology_reflection_models_split_route():
    # reduction to the degenerate axis plus a rank-one normal block agrees
    # with the direct two-dimensional rasterization, orientation rule included
    out = local_homology(swap_saddle_model(0.0), radius=1.0)
    assert out.plain == {1: 1}
    assert out.invariant == {1: 1}
    assert out.trace["orientation_preserved"] is True
    out = local_homology(axis_saddle_model(0.0), radius=1.0)
    assert out.plain == {1: 1}
    assert out.invariant == {}
    assert out.trace["orientation_preserved"] is False


def test_local_homology_rotation_invariant_monkey():
    out = local_homology(monkey(action=rotation_action(3)), radius=1.0)
    assert out.plain == {1: 2}
    assert out.invariant == {}
    assert out.trace["kernel_dim"] == 2


def test_local_homology_unsupported_kernel():
    f = FunctionSpec.make(4, [(1.0, (4, 0, 0, 0)), (1.0, (0, 4, 0, 0)),
                              (1.0, (0, 0, 4, 0)), (1.0, (0, 0, 0, 4))])
    with pytest.raises(ConfigurationError, match="kernel dimension"):
        local_homology(f, radius=0.8)


def test_local_homology_3d_quartic_minimum():
    f = FunctionSpec.make(3, [(1.0, (4, 0, 0)), (1.0, (0, 4, 0)), (1.0, (0, 0, 4))])
    out = local_homology(f, radius=0.8, h=0.2)
    assert out.plain == {0: 1}


def test_discrete_action_adapter_consistency():
    germ = quartic_germ()
    da = DiscreteAction(germ, 1, 1)
    f = discrete_action_function(da)
    rng = np.random.default_rng(8)
    for z in rng.uniform(-0.2, 0.2, size=(3, 2)):
        assert abs(f.value(z) - dact.evaluate(da, z)[0]) < 1e-9
        assert np.allclose(f.grad(z), dact.gradient(da, z), atol=1e-12)


def test_local_homology_orientation_is_the_diagonal_split_character():
    # the K == 0 route and Bott's blocks read one character of the shift:
    # it acts as -1 on the block H_-1, whose raw index is index(-1) + nN
    germ = HamiltonianGerm.make(1, [(math.log(2.0), (1, 1))])
    seen = set()
    for N in range(1, 5):
        raw_minus = bott_data(germ, N).index(-1.0)[0] + N
        for k in range(1, 5):
            out = local_homology(discrete_action_function(DiscreteAction(germ, k, N)))
            assert out.trace["kernel_dim"] == 0
            reverses = k % 2 == 0 and raw_minus % 2 == 1
            assert out.trace["orientation_preserved"] == (not reverses)
            seen.add(out.trace["orientation_preserved"])
    assert seen == {True, False}


def test_local_homology_refuses_an_action_that_moves_the_negative_space():
    # the quarter turn maps x^2 - y^2 to its negative, so the negative
    # eigenspace at 0 is not invariant and there is no character to read
    saddle = FunctionSpec.make(2, [(1.0, (2, 0)), (-1.0, (0, 2))])
    f = CallableFunction(2, saddle.jet, action=rotation_action(4))
    with pytest.raises(ValidationError, match="negative eigenspace"):
        local_homology(f)


def test_fine_pass_bisects_the_coarse_grid_and_reuses_its_values(monkeypatch):
    # radius / h is not a whole number, so h / 2 would not bisect the grid
    calls = [0]
    bowl = FunctionSpec.make(2, [(1.0, (4, 0)), (2.0, (2, 2)), (1.0, (0, 4))])

    def jet(z):
        # a call evaluates a batch of vertices; count the vertices
        calls[0] += len(z)
        return bowl.jet(z)

    f = CallableFunction(2, jet)
    # without the Newton sweep of the isolation check, the pairs evaluate
    # nothing but vertices: the flow leak check reads their gradients
    monkeypatch.setattr(lochom, "_check_isolated", lambda *args: None)
    assert sublevel_homology(f, 0.5, h=0.14) == {0: 1}
    # a 9 x 9 coarse grid, then the 17 x 17 fine grid minus the shared
    # vertices, each evaluated only inside the ball of radius 0.5
    axis = np.linspace(-0.5, 0.5, 17)
    in_ball = np.hypot(*np.meshgrid(axis, axis, indexing="ij")) <= 0.5 + 1e-9
    assert calls[0] == int(in_ball.sum()) == 197
    coarse = gromoll_meyer_pair(f, 0.5, h=0.14)
    fine = gromoll_meyer_pair(f, 0.5, coarse.a, coarse.b, _coarse=coarse)
    # 2 round(0.5 / 0.0625) = 16 cells per axis, evaluated afresh
    fresh = gromoll_meyer_pair(f, 0.5, coarse.a, coarse.b, h=0.0625)
    assert np.array_equal(fine.grid.points[fine.grid.even], coarse.grid.points)
    assert np.array_equal(fine.grid.points, fresh.grid.points)
    assert np.array_equal(fine.values, fresh.values)
    assert np.array_equal(fine.w_mask, fresh.w_mask)


def test_polar_pairs_take_one_jet_batch_per_grid(monkeypatch):
    # the invariant monkey saddle once made one jet call per polar vertex
    batches = []
    saddle = monkey(action=rotation_action(3))

    def jet(z):
        batches.append(len(z))
        return saddle.jet(z)

    f = CallableFunction(2, jet, action=saddle.action)
    monkeypatch.setattr(lochom, "_check_isolated", lambda *args: None)
    assert sublevel_homology(f, 1.0, invariant=True) == {}
    # the centre and 8 rings of 12 sectors, then the 16 x 24 fine vertices
    # that are not at an even ring and an even sector
    assert batches == [1 + 8 * 12, 16 * 24 - 8 * 12]
    coarse = gromoll_meyer_pair(f, 1.0)
    fine = gromoll_meyer_pair(f, 1.0, coarse.a, coarse.b, _coarse=coarse)
    ring, sector = np.indices((8, 12)).reshape(2, -1) + [[1], [0]]
    even = np.concatenate([[0], 1 + (2 * ring - 1) * 24 + 2 * sector])
    assert np.array_equal(fine.grid.even, even)
    assert np.array_equal(fine.grid.points[even], coarse.grid.points)
    assert np.array_equal(fine.values[even], coarse.values)
    # each vertex value is bitwise the value of f at that point alone
    for pair in (coarse, fine):
        assert pair.values.tolist() == [saddle.value(z) for z in pair.grid.points]


@pytest.mark.parametrize("model", [swap_saddle_model, axis_saddle_model])
def test_local_homology_builds_one_pair_and_its_bisection(model, monkeypatch):
    # the plain and the invariant group read the same two pairs, and the
    # coarse one alone runs the isolation sweep
    calls = {"pair": 0, "sweep": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(lochom, "gromoll_meyer_pair", counted("pair", lochom.gromoll_meyer_pair))
    monkeypatch.setattr(lochom, "_check_isolated", counted("sweep", lochom._check_isolated))
    out = local_homology(model(0.0), radius=1.0)
    assert calls == {"pair": 2, "sweep": 1}
    assert out.plain == {1: 1}
    assert out.invariant == ({1: 1} if model is swap_saddle_model else {})


def test_cutoff_arrays_are_bitwise_the_scalar_formula():
    radius = 0.7
    lo, hi = lochom._B0_LO, lochom._B0_HI
    r = np.concatenate([[0.0, lo * radius, hi * radius, radius],
                        np.nextafter(lo * radius, [0.0, 1.0]),
                        np.nextafter(hi * radius, [0.0, 1.0]),
                        np.linspace(0.0, 1.2 * radius, 97)])

    def scalar(ri):
        u = min(1.0, max(0.0, (ri / radius - lo) / (hi - lo)))
        return u * u * (3.0 - 2.0 * u)

    def scalar_d1(ri):
        u = (ri / radius - lo) / (hi - lo)
        return 0.0 if u <= 0.0 or u >= 1.0 else 6.0 * u * (1.0 - u) / ((hi - lo) * radius)

    assert lochom._beta0(r, radius).tolist() == [scalar(float(ri)) for ri in r]
    assert lochom._beta0_d1(r, radius).tolist() == [scalar_d1(float(ri)) for ri in r]
    ends = lochom._beta0(np.array([lo, hi]) * radius, radius)
    assert ends.tolist() == [0.0, 1.0]


def test_local_homology_discrete_action_quartic():
    # the one-period action of the radial quartic germ is a strict local max
    # of a fully degenerate critical point in dimension two
    germ = quartic_germ()
    da = DiscreteAction(germ, 1, 1)
    f = discrete_action_function(da)
    out = local_homology(f, radius=0.25, h=0.0625)
    assert out.plain == {2: 1}
    assert out.trace["kernel_dim"] == 2
    # grading bookkeeping: the top class sits n*k*N above the middle degree
    assert 2 - da.n * da.k * da.N == 1


def test_local_homology_of_the_second_iterate_of_the_quartic():
    # at k = 2 the 4-dimensional action has a 2-dimensional kernel and one
    # negative normal direction, so the split route runs on a batched phi;
    # the invariant group is left open (its parity in N is unsettled)
    f = discrete_action_function(DiscreteAction(quartic_germ(), 2, 1))
    out = local_homology(f, radius=0.25, h=0.0625)
    assert out.plain == {3: 1}
    assert out.trace["q"] == 1
    assert out.trace["reduced_dim"] == 2


def product_germ(alpha):
    # -|z1|^4/4 - pi alpha |z2|^2 on R^4, coordinates (x1, x2, y1, y2)
    return HamiltonianGerm.make(2, [
        (-0.25, (4, 0, 0, 0)), (-0.5, (2, 0, 2, 0)), (-0.25, (0, 0, 4, 0)),
        (-math.pi * alpha, (0, 2, 0, 0)), (-math.pi * alpha, (0, 0, 0, 2))])


@pytest.mark.parametrize("alpha, N, degree", [(-0.048, 1, 2), (0.3, 2, 6)])
def test_local_homology_of_a_product_germ(alpha, N, degree):
    # the rotation factor shifts the quartic's class by the index of its
    # quadratic action: {2: 1} at N = 1, and {3: 1} + 3 -> {6: 1} at N = 2
    f = discrete_action_function(DiscreteAction(product_germ(alpha), 1, N))
    out = local_homology(f, radius=0.25, h=0.0625)
    assert out.plain == {degree: 1}
    assert out.invariant == {degree: 1}


@pytest.mark.parametrize("radius, h", [
    (0.0, None), (-0.5, None), (math.nan, None), (math.inf, None),
    (0.5, 0.0), (0.5, -0.1), (0.5, math.nan)])
def test_local_homology_rejects_a_bad_radius_or_step(radius, h):
    f = FunctionSpec.make(2, [(1.0, (4, 0)), (1.0, (0, 4))])
    with pytest.raises(ParameterError, match="finite and positive"):
        local_homology(f, radius=radius, h=h)


@pytest.mark.parametrize("radius, h", [
    (0.0, None), (-0.5, None), (math.nan, None), (math.inf, None),
    (0.5, 0.0), (0.5, -0.1), (0.5, math.nan)])
def test_pair_builders_reject_a_bad_radius_or_step(radius, h):
    # a negative step once gave {} for this strict minimum, h = 0 a
    # ZeroDivisionError and a NaN radius a LAPACK error
    f = FunctionSpec.make(2, [(1.0, (4, 0)), (1.0, (0, 4))])
    with pytest.raises(ParameterError, match="finite and positive"):
        sublevel_homology(f, radius, h=h)
    with pytest.raises(ParameterError, match="finite and positive"):
        gromoll_meyer_pair(f, radius, h=h)
    # |z|^4 under the 3-fold rotation gets the polar grid, whose rings h sets
    polar = FunctionSpec.make(2, [(1.0, (4, 0)), (2.0, (2, 2)), (1.0, (0, 4))],
                              action=rotation_action(3))
    with pytest.raises(ParameterError, match="finite and positive"):
        gromoll_meyer_pair(polar, radius, h=h)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
def test_split_complex_and_sweep_reject_a_bad_radius(radius):
    # radius 0 once split on a sample cloud of zeros, gave the squeezed ring
    # the complex {2: ['p0']} and made the sweep drop or keep points silently
    f = FunctionSpec.make(2, [(1.0, (4, 0)), (1.0, (0, 2))])
    ring, _ = squeezed_ring_model(0.5, 0.1)
    with pytest.raises(ParameterError, match="finite and positive"):
        equivariant_split(f, 1, radius=radius)
    with pytest.raises(ParameterError, match="finite and positive"):
        morse_complex_2d(ring, radius)
    with pytest.raises(ParameterError, match="finite and positive"):
        critical_points(ring, lochom._grid_seeds(1.2, 7, 2), radius)


def test_lochom_doctest():
    results = doctest.testmod(lochom)
    assert results.failed == 0
    assert results.attempted >= 1


def test_critical_points_refuses_a_seed_of_the_wrong_length_by_its_index():
    # a flat reshape used to split a length-4 seed into two 2-D seeds
    f = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 2))])
    with pytest.raises(ShapeError, match="seed 0: .* length 2"):
        critical_points(f, [[0.1, 0.2, 0.3, 0.4]], 1.0)
    with pytest.raises(ShapeError, match="seed 1: .* length 2"):
        critical_points(f, [[0.1, 0.2], [0.1, 0.2, 0.3]], 1.0)
    assert [z.tolist() for z in critical_points(f, [[0.1, 0.2]], 1.0)] == [[0.0, 0.0]]


def test_an_action_order_must_be_an_integer():
    # int() would read 2.7 as 2 and True as 1
    for k in (2.7, True, "2"):
        with pytest.raises(ValidationError, match="order k must be an integer"):
            CyclicAction(-np.eye(2), k)
    assert CyclicAction(-np.eye(2), 2.0).k == 2 and CyclicAction(-np.eye(2), np.int64(4)).k == 4


def test_a_function_dimension_must_be_an_integer():
    # int() would read 2.7 as the plane
    for d in (2.7, True):
        with pytest.raises(ValidationError, match="dimension d must be an integer"):
            FunctionSpec(d, [(1.0, (2, 0))])
    assert FunctionSpec(2.0, [(1.0, (2, 0))]).d == 2
