"""Local homology: function specs, sublevel pairs, trajectory complexes, splitting."""
import doctest
import math

import numpy as np
import pytest
from dense_oracle import DenseComplex

from equimorse import dact, exactalg, lochom
from equimorse.dact import DiscreteAction
from equimorse.errors import (
    BoundaryError,
    ConfigurationError,
    DegeneracyError,
    IsolationError,
    MorseSmaleError,
    ParameterError,
    ResolutionError,
    TrustRegionError,
    ValidationError,
)
from equimorse.hamflow import HamiltonianGerm
from equimorse.lochom import (
    CallableFunction,
    CyclicAction,
    FunctionSpec,
    discrete_action_function,
    equivariant_split,
    gromoll_meyer_pair,
    gromoll_meyer_pair_polar,
    local_homology,
    morse_complex_2d,
    relative_homology,
    signed_permutation_data,
    sublevel_homology,
)


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
    pmin = gromoll_meyer_pair_polar(fmin, 1.0, a=0.1, b=0.1)
    pmax = gromoll_meyer_pair_polar(fmax, 1.0, a=0.1, b=0.1)
    assert relative_homology(pmin) == {0: 1}
    assert relative_homology(pmax) == {2: 1}
    # the rotation preserves the plane orientation, so the top class survives
    assert relative_homology(pmin, invariant=True) == {0: 1}
    assert relative_homology(pmax, invariant=True) == {2: 1}


PAIRS = {
    "swap": lambda: gromoll_meyer_pair(swap_saddle_model(0.0), 1.0),
    "axis": lambda: gromoll_meyer_pair(axis_saddle_model(0.0), 1.0),
    "ring": lambda: gromoll_meyer_pair(ring_model(0.0), 1.0),
    "polar monkey": lambda: gromoll_meyer_pair_polar(monkey(action=rotation_action(3)), 1.0),
}


@pytest.mark.parametrize("make", list(PAIRS.values()), ids=list(PAIRS))
def test_pair_homology_matches_the_dense_oracle(make):
    # the same relative chains and cell action, through dense ranks and the
    # averaging projector instead of sparse ranks and orbit sums
    pair = make()
    chain_data = lochom._polar_chain_data if pair.kind == "polar" else lochom._cubical_chain_data
    labels, index, cols = chain_data(pair)
    act = lochom._cell_action(pair, labels, index, 1)
    oracle = DenseComplex.from_columns(pair.action.k, cols, act)
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


def test_split_already_separated():
    f = FunctionSpec.make(2, [(1.0, (4, 0)), (1.0, (0, 2))])
    out = equivariant_split(f, 1)
    assert out.signature == (1, 0)
    assert out.orientation_preserved is True
    rng = np.random.default_rng(3)
    for t in rng.uniform(-0.3, 0.3, size=6):
        assert abs(out.g.value([t]) - t ** 4) < 1e-9
    for z in rng.uniform(-0.2, 0.2, size=(6, 2)):
        assert np.linalg.norm(out.psi(z) - z) < 1e-9


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
    for z in rng.uniform(-0.25, 0.25, size=(10, 2)):
        w = out.psi(z)
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
    for z in rng.uniform(-0.25, 0.25, size=(8, 2)):
        assert np.linalg.norm(out.psi(A @ z) - A @ out.psi(z)) < 1e-8


def test_split_rejects_coupled_blocks():
    f = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (1, 1)), (1.0, (0, 2))])
    with pytest.raises(ValidationError, match="block"):
        equivariant_split(f, 1)


def test_split_rejects_degenerate_normal_block():
    f = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 4))])
    with pytest.raises(DegeneracyError, match="normal block"):
        equivariant_split(f, 1)


def test_split_series_radius_error():
    # the averaged normal Hessian 2 - 8 z2^2 degenerates inside the requested
    # radius, so the square-root series cannot converge there
    f = FunctionSpec.make(2, [(1.0, (4, 0)), (1.0, (0, 2)), (-4.0, (0, 4))])
    with pytest.raises(TrustRegionError, match="series"):
        equivariant_split(f, 1, radius=0.9)


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
        assert abs(f.value(z) - dact.eval(da, z)) < 1e-9
        assert np.allclose(f.grad(z), dact.gradient(da, z), atol=1e-12)


def test_fine_pass_bisects_the_coarse_grid_and_reuses_its_values():
    # radius / h is not a whole number, so h / 2 would not bisect the grid
    calls = [0]
    bowl = FunctionSpec.make(2, [(1.0, (4, 0)), (2.0, (2, 2)), (1.0, (0, 4))])

    def value(z):
        calls[0] += 1
        return bowl.value(z)

    f = CallableFunction(d=2, value_fn=value, grad_fn=bowl.grad, hess_fn=bowl.hess)
    assert sublevel_homology(f, 0.5, h=0.14) == {0: 1}
    # a 9 x 9 coarse grid, then the 17 x 17 fine grid minus the shared
    # vertices, each evaluated only inside the ball of radius 0.5
    axis = np.linspace(-0.5, 0.5, 17)
    in_ball = np.hypot(*np.meshgrid(axis, axis, indexing="ij")) <= 0.5 + 1e-9
    assert calls[0] == int(in_ball.sum()) == 197
    coarse = gromoll_meyer_pair(f, 0.5, h=0.14)
    fine = gromoll_meyer_pair(f, 0.5, coarse.a, coarse.b, h=coarse.h / 2,
                              _skip_checks=True, _coarse=coarse)
    fresh = gromoll_meyer_pair(f, 0.5, coarse.a, coarse.b, h=coarse.h / 2, _skip_checks=True)
    assert np.array_equal(fine.values, fresh.values)
    assert np.array_equal(fine.w_mask, fresh.w_mask)
    with pytest.raises(ValidationError, match="bisect"):
        gromoll_meyer_pair(f, 0.5, coarse.a, coarse.b, h=0.07, _skip_checks=True,
                           _coarse=coarse)


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


def test_lochom_doctest():
    results = doctest.testmod(lochom)
    assert results.failed == 0
    assert results.attempted >= 1
