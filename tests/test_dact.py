"""Discrete action functionals: frozen index oracles and route agreement."""
from __future__ import annotations

import math

import numpy as np
import pytest

from equimorse import dact
from equimorse.config import tol
from equimorse.dact import (
    CriticalPoint,
    DiscreteAction,
    diagonal_split,
    find_periodic_points,
    gradient,
    hessian_at,
    hessian_at_zero,
    index_of_quadratic_action,
    inflation_index_shift,
    minimal_adapted_steps,
    nullity_at_zero,
    seed_from_point,
    shift_matrix,
)
from equimorse.errors import (
    ConfigurationError,
    DegeneracyError,
    DomainError,
    ShapeError,
    TrustRegionError,
)
from equimorse.hamflow import (
    GeneratingFunction,
    HamiltonianGerm,
    integrate_flow,
    linearized_path,
    zero_jacobian_path,
)
from equimorse.spindex import cz_index, nullity

ROT03 = HamiltonianGerm.rotation(0.3)
ZERO = HamiltonianGerm.zero(1)


def hyperbolic_germ():
    return HamiltonianGerm.make(1, [(math.log(2.0), (1, 1))])


def quartic_germ():
    return HamiltonianGerm.make(1, [(-0.25, (4, 0)), (-0.5, (2, 2)), (-0.25, (0, 4))])


def resonant_germ():
    # detuned 4:1 resonance; the time-modulated quartic breaks the circle
    # of orbits into an isolated necklace of 4-periodic points
    beta, b = 0.26, 0.1
    terms = [(math.pi * beta, (2, 0)), (math.pi * beta, (0, 2)),
             (-0.25, (4, 0)), (-0.5, (2, 2)), (-0.25, (0, 4)),
             (b, (4, 0), "cos", 1), (-6 * b, (2, 2), "cos", 1),
             (b, (0, 4), "cos", 1)]
    return HamiltonianGerm.make(1, terms)


def test_index_frozen_examples():
    assert index_of_quadratic_action(DiscreteAction(ZERO, 1, 3)) == 2
    assert index_of_quadratic_action(DiscreteAction(ROT03, 1, 5)) == 6
    assert index_of_quadratic_action(DiscreteAction(ROT03, 4, 2)) == 11
    assert index_of_quadratic_action(DiscreteAction(hyperbolic_germ(), 1, 1)) == 1
    assert index_of_quadratic_action(DiscreteAction(quartic_germ(), 1, 1)) == 0


def test_nullity_matches_linearized_flow():
    cases = [(ZERO, 1, 3), (ROT03, 1, 2), (ROT03, 4, 2), (quartic_germ(), 2, 1),
             (hyperbolic_germ(), 2, 1), (HamiltonianGerm.rotation(1.0), 1, 5)]
    for germ, k, N in cases:
        da = DiscreteAction(germ, k, N)
        M = np.linalg.matrix_power(zero_jacobian_path(germ, 1.0)(1.0), k)
        assert nullity_at_zero(da) == nullity(M)


def test_index_minus_nkN_independent_of_N_and_matches_cz():
    for germ, k, Ns in ((ROT03, 1, (2, 3, 5)), (ROT03, 2, (2, 3, 4)),
                        (hyperbolic_germ(), 1, (1, 2, 3))):
        vals = {index_of_quadratic_action(DiscreteAction(germ, k, N)) - germ.n * k * N
                for N in Ns}
        assert len(vals) == 1
        assert vals.pop() == cz_index(linearized_path(germ, periods=k))


def test_degenerate_cz_through_discrete_route():
    rot1 = HamiltonianGerm.rotation(1.0)
    assert minimal_adapted_steps(rot1) == 5
    assert index_of_quadratic_action(DiscreteAction(rot1, 1, 5)) == 6
    assert cz_index(linearized_path(rot1)) == 1
    assert cz_index(linearized_path(quartic_germ())) == -1


def test_construction_rejects_bad_steps():
    with pytest.raises(ConfigurationError):
        DiscreteAction(ROT03, 1, 1)
    with pytest.raises(ConfigurationError):
        DiscreteAction(HamiltonianGerm.rotation(0.7), 1, 2)
    with pytest.raises(ConfigurationError):
        DiscreteAction(ROT03, 0, 2)


def test_eval_zero_germ_formula():
    da = DiscreteAction(ZERO, 2, 2)
    rng = np.random.default_rng(7)
    z = 0.1 * rng.standard_normal(8)
    xs, ys = z.reshape(4, 2)[:, 0], z.reshape(4, 2)[:, 1]
    expected = sum(xs[i] * (ys[(i + 1) % 4] - ys[i]) for i in range(4))
    assert dact.eval(da, z) == pytest.approx(expected, abs=1e-12)
    assert dact.eval(da, np.zeros(8)) == 0.0


def test_shift_invariance_and_equivariance():
    da = DiscreteAction(ROT03, 3, 2)
    tau = shift_matrix(da)
    assert np.allclose(tau @ tau @ tau, np.eye(da.dim))
    rng = np.random.default_rng(11)
    z = 0.05 * rng.standard_normal(da.dim)
    assert abs(dact.eval(da, tau @ z) - dact.eval(da, z)) < 1e-9
    assert np.linalg.norm(gradient(da, tau @ z) - tau @ gradient(da, z)) < 1e-8


def test_gradient_trivial_cases():
    da = DiscreteAction(ROT03, 1, 2)
    assert np.allclose(gradient(da, np.zeros(da.dim)), 0.0, atol=1e-12)
    daz = DiscreteAction(ZERO, 2, 2)
    z = np.tile([0.2, -0.1], 4)
    assert np.allclose(gradient(daz, z), 0.0, atol=1e-14)


def test_gradient_matches_finite_differences():
    da = DiscreteAction(ROT03, 1, 2)
    rng = np.random.default_rng(3)
    z = 0.05 * rng.standard_normal(da.dim)
    g = gradient(da, z)
    h = 1e-5
    for j in range(da.dim):
        e = np.zeros(da.dim)
        e[j] = h
        fd = (dact.eval(da, z + e) - dact.eval(da, z - e)) / (2 * h)
        assert abs(fd - g[j]) < 1e-6


def test_hessian_at_zero_matches_general_assembly():
    da = DiscreteAction(ROT03, 1, 3)
    assert np.allclose(hessian_at_zero(da), hessian_at(da, np.zeros(da.dim)), atol=1e-9)


def test_diagonal_split_frozen():
    assert diagonal_split(DiscreteAction(ROT03, 3, 2), 1) == (4, True)
    assert diagonal_split(DiscreteAction(ROT03, 1, 2), 1) == (0, True)
    assert diagonal_split(DiscreteAction(hyperbolic_germ(), 2, 2), 1) == (2, True)
    assert diagonal_split(DiscreteAction(ROT03, 4, 2), 2) == (6, True)


def test_diagonal_split_degeneracy_paths():
    with pytest.raises(DegeneracyError, match="diagonal"):
        diagonal_split(DiscreteAction(ZERO, 2, 2), 1)
    with pytest.raises(DegeneracyError, match="admissible"):
        diagonal_split(DiscreteAction(HamiltonianGerm.rotation(1.0 / 3.0), 3, 2), 1)


def _split_or_error(da, m):
    try:
        return diagonal_split(da, m)
    except DegeneracyError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("make", [resonant_germ, quartic_germ], ids=["resonant", "quartic"])
def test_diagonal_split_agrees_with_the_scipy_null_space(make, monkeypatch):
    from scipy.linalg import null_space

    germ = make()
    for k in range(1, 5):
        da = DiscreteAction(germ, k, 2)
        for m in (m for m in range(1, k + 1) if k % m == 0):
            got = _split_or_error(da, m)
            with monkeypatch.context() as patch:
                # scipy's basis is one vector per column, the numpy one per row
                patch.setattr(dact, "null_space", lambda a: null_space(a).T)
                assert _split_or_error(da, m) == got


def test_inflation_index_shift():
    assert inflation_index_shift(ROT03, 1, 2) == (1, 2)
    assert inflation_index_shift(ROT03, 3, 2) == (3, 6)
    assert inflation_index_shift(ZERO, 2, 2) == (2, 4)
    assert {nullity_at_zero(DiscreteAction(ZERO, 2, N)) for N in (2, 3, 4)} == {2}
    with pytest.raises(ConfigurationError):
        inflation_index_shift(ROT03, 1, 1)


def test_find_periodic_points_flat_manifold():
    da = DiscreteAction(ZERO, 1, 3)
    rng = np.random.default_rng(5)
    seeds = [0.1 * rng.standard_normal(da.dim) for _ in range(2)]
    out = find_periodic_points(da, seeds)
    assert all(p.converged for p in out)
    for p in out:
        orbit = p.orbit
        assert np.allclose(orbit, orbit[0], atol=1e-8)
        assert p.residual < 1e-10


def test_find_periodic_points_unique_origin():
    da = DiscreteAction(ROT03, 1, 2)
    rng = np.random.default_rng(9)
    seeds = [*seed_from_point(da, [[0.1, 0.05]]), 0.05 * rng.standard_normal(da.dim)]
    out = [p for p in find_periodic_points(da, seeds) if p.converged]
    assert len(out) == 1 and len(out[0].seeds) == 2
    assert np.linalg.norm(out[0].z) < 1e-8
    assert out[0].morse_index == 3 and out[0].nullity == 0


def test_find_periodic_points_rejects_seeds_of_the_wrong_length(monkeypatch):
    da = DiscreteAction(quartic_germ(), 2, 1)
    calls = []
    evaluate = dact.evaluate

    def counted(*args, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(dact, "evaluate", counted)
    for bad in (np.zeros(da.dim + 1), np.zeros(da.dim - 1), [0.1]):
        with pytest.raises(ShapeError, match="seed 1"):
            find_periodic_points(da, [np.zeros(da.dim), bad])
    assert find_periodic_points(da, []) == []
    assert not calls


def _one_point_seed(da, w):
    # the one-point chain that the batch form replaced, kept as its oracle
    z = np.zeros(da.dim)
    cur = np.asarray(w, dtype=float)
    for i in range(da.slots):
        z[2 * da.n * i:2 * da.n * (i + 1)] = cur
        cur, _ = integrate_flow(da.germ, i / da.N, (i + 1) / da.N, cur, radius=da.radius)
    return z


def test_seed_from_point_chains_a_batch_through_each_substep(monkeypatch):
    da = DiscreteAction(resonant_germ(), 2, 2)
    W = 0.2 * np.random.default_rng(13).uniform(-1.0, 1.0, size=(5, 2))
    expected = [_one_point_seed(da, w) for w in W]
    flows = []
    integrate = dact.integrate_flow

    def counted(germ, t0, t1, z, **kwargs):
        flows.append(len(np.reshape(z, (-1, 2))))
        return integrate(germ, t0, t1, z, **kwargs)

    monkeypatch.setattr(dact, "integrate_flow", counted)
    Z = seed_from_point(da, W)
    assert Z.shape == (5, da.dim) and flows == [5] * (da.slots - 1)
    for z, e in zip(Z, expected):
        assert np.abs(z - e).max() < 1e-12
    assert np.array_equal(seed_from_point(da, W[:1]), expected[0][None])
    assert np.array_equal(seed_from_point(da, W[0]), expected[0])
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((1, 1, 2))):
        with pytest.raises(ShapeError):
            seed_from_point(da, bad)


def test_a_closing_step_leaving_the_trust_region_fails_only_its_seed():
    # the hyperbolic flow doubles x over a period: from x = 0.3 the first
    # half step ends at 0.42, inside the trust radius 0.5, and the closing
    # one at 0.6, outside it
    da = DiscreteAction(hyperbolic_germ(), 1, 2)
    starts = [[0.02, -0.03], [0.3, 0.0], [-0.05, 0.01]]
    seeds = seed_from_point(da, starts)
    assert np.abs(seeds[1] - [0.3, 0.0, 0.3 * math.sqrt(2.0), 0.0]).max() < 1e-9
    out = find_periodic_points(da, seeds)
    (alone,) = find_periodic_points(da, seeds[1:2])
    assert [p.seeds for p in out] == [[0, 2], [1]]
    assert out[0].converged and np.linalg.norm(out[0].z) < 1e-12
    assert not out[1].converged and out[1].message == alone.message
    assert "trust region" in alone.message


def _count_graph_solves(monkeypatch):
    # a call solves a batch of graph equations; count its rows
    count = [0]
    solve = GeneratingFunction.solve_graph

    def counted(self, x, *args, **kwargs):
        count[0] += len(np.reshape(x, (-1, self.m)))
        return solve(self, x, *args, **kwargs)

    monkeypatch.setattr(GeneratingFunction, "solve_graph", counted)
    return count


def test_newton_step_solves_each_slot_once(monkeypatch):
    da = DiscreteAction(ROT03, 2, 2)
    solves = _count_graph_solves(monkeypatch)
    # 0 is critical: one Newton step, whose Hessian also gives the Morse data
    (p,) = find_periodic_points(da, [np.zeros(da.dim)])
    assert p.converged and p.morse_index is not None
    assert solves[0] == da.slots
    passes = [0]
    evaluate = dact.evaluate

    def counted(da, z, *args, **kwargs):
        passes[0] += len(np.reshape(z, (-1, da.dim)))
        return evaluate(da, z, *args, **kwargs)

    monkeypatch.setattr(dact, "evaluate", counted)
    solves[0] = 0
    (p,) = find_periodic_points(da, [0.02 * np.random.default_rng(4).standard_normal(da.dim)])
    assert p.converged and passes[0] >= 2
    assert solves[0] == da.slots * passes[0]


def test_discrete_action_function_solves_each_slot_once(monkeypatch):
    from equimorse.lochom import discrete_action_function

    da = DiscreteAction(quartic_germ(), 2, 2)
    f = discrete_action_function(da)
    solves = _count_graph_solves(monkeypatch)
    z = 0.05 * np.random.default_rng(2).standard_normal(da.dim)
    # value, gradient and Hessian at z come from one pass
    f.jet(z)
    assert solves[0] == da.slots
    # so do those of each row of a batch, bitwise dact.evaluate on it
    Z = np.stack([z, -z])
    got = f.jet(Z)
    assert solves[0] == 3 * da.slots
    for part, want in zip(got, dact.evaluate(da, Z)):
        assert np.array_equal(part, want)


def test_evaluate_on_a_batch_stacks_each_substep_over_rows_and_slots(monkeypatch):
    da = DiscreteAction(quartic_germ(), 2, 2)
    Z = 0.05 * np.random.default_rng(12).standard_normal((5, da.dim))
    solves = _count_graph_solves(monkeypatch)
    total, g, H = dact.evaluate(da, Z)
    assert solves[0] == 5 * da.slots
    assert total.shape == (5,) and g.shape == (5, da.dim) and H.shape == (5, da.dim, da.dim)
    for i, z in enumerate(Z):
        ti, gi, Hi = dact.evaluate(da, z)
        assert abs(total[i] - ti) < 1e-12
        assert np.abs(g[i] - gi).max() < 1e-12 and np.abs(H[i] - Hi).max() < 1e-11


@pytest.mark.parametrize("k, N", [(2, 2), (1, 3)])
def test_an_evaluate_pass_flows_one_stack_per_graph_newton_iteration(k, N, monkeypatch):
    from equimorse import hamflow

    da = DiscreteAction(resonant_germ(), k, N)
    Z = 0.05 * np.random.default_rng(21).standard_normal((3, da.dim))
    solves = _count_graph_solves(monkeypatch)
    stacks = []
    solve = hamflow.dop853

    def counted(fun, t0, t1, y0, **kwargs):
        if "_flow_rhs" in fun.__qualname__:
            stacks.append((t0, t1, len(y0) // 6))  # d + d^2 = 6 entries a row
        return solve(fun, t0, t1, y0, **kwargs)

    monkeypatch.setattr(hamflow, "dop853", counted)
    dact.evaluate(da, Z, value=False)
    # one graph solve over every slot of every row; each of its Newton
    # iterations flows the rows still active over the first substep, so
    # the first stack holds them all and no later one holds more
    assert solves[0] == 3 * da.slots
    assert len(stacks) > 1
    assert all((t0, t1) == (0.0, 1.0 / N) for t0, t1, _ in stacks)
    rows = [P for _, _, P in stacks]
    assert rows[0] == 3 * da.slots
    assert all(a >= b for a, b in zip(rows, rows[1:]))


def test_the_step_conditions_run_once_per_germ_instance_and_N(monkeypatch):
    calls = {"adapted": 0, "positive": 0}
    adapted, positive = dact.adapted_N, dact.steps_graph_positive

    def counted_adapted(germ, N):
        calls["adapted"] += 1
        return adapted(germ, N)

    def counted_positive(germ, N):
        calls["positive"] += 1
        return positive(germ, N)

    monkeypatch.setattr(dact, "adapted_N", counted_adapted)
    monkeypatch.setattr(dact, "steps_graph_positive", counted_positive)
    germ = resonant_germ()
    for k in range(1, 5):
        DiscreteAction(germ, k, 2)
    assert calls == {"adapted": 1, "positive": 1}
    # a refused N is refused again without checking again
    rot = HamiltonianGerm.rotation(0.3)
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="N = 1: some substep family"):
            DiscreteAction(rot, 1, 1)
    assert calls == {"adapted": 2, "positive": 2}
    assert minimal_adapted_steps(rot) == 2
    assert calls == {"adapted": 3, "positive": 3}
    # an equal germ is another input
    DiscreteAction(resonant_germ(), 1, 2)
    assert calls == {"adapted": 4, "positive": 4}


def test_evaluate_rejects_points_of_the_wrong_length():
    da = DiscreteAction(quartic_germ(), 2, 1)
    for bad in (np.zeros(da.dim - 1), np.zeros(da.dim + 2), np.zeros((3, da.dim + 1)),
                np.zeros((2, 2, da.dim))):
        with pytest.raises(ShapeError):
            dact.evaluate(da, bad)


def test_non_finite_points_raise_a_domain_error_naming_the_row():
    da = DiscreteAction(quartic_germ(), 1, 1)
    with pytest.raises(DomainError, match="point 0 is not finite"):
        dact.evaluate(da, [math.nan, 0.0])
    Z = np.zeros((3, da.dim))
    Z[1, 0] = -math.inf
    with pytest.raises(DomainError, match="point 1 is not finite"):
        dact.evaluate(da, Z)
    out = find_periodic_points(da, [[math.nan, 0.0], [0.01, -0.02]])
    assert not out[0].converged and "not finite" in out[0].message
    assert out[1].converged


def test_critical_points_answers_the_rows_beside_one_that_leaves_the_trust_region():
    from equimorse.lochom import critical_points, discrete_action_function

    da = DiscreteAction(hyperbolic_germ(), 1, 1)
    f = discrete_action_function(da)
    good = np.array([[0.02, -0.03], [-0.05, 0.01]])
    # the x of (0.3, 0) doubles over the step and leaves the trust radius 0.5
    seeds = np.array([good[0], [0.3, 0.0], good[1]])
    with pytest.raises(TrustRegionError) as batch:
        f.grad(seeds)
    with pytest.raises(TrustRegionError) as alone:
        dact.evaluate(da, seeds[1])
    assert str(batch.value) == str(alone.value)
    found = critical_points(f, seeds, 0.2)
    assert len(found) == 1 and np.linalg.norm(found[0]) < 1e-12


def _direct_fourth_iterate_solve(germ, w0, radius=0.5):
    # Newton on phi^4(w) - w with one long time integration, nothing from
    # the discrete machinery
    w = np.asarray(w0, dtype=float).copy()
    for _ in range(60):
        phi, dphi = integrate_flow(germ, 0.0, 4.0, w, radius=radius)
        F = phi - w
        if np.linalg.norm(F) < 1e-11:
            return w, float(np.linalg.norm(F))
        Jm = dphi - np.eye(2)
        if np.linalg.cond(Jm) < 1e12:
            step = np.linalg.solve(Jm, F)
        else:
            step = np.linalg.lstsq(Jm, F, rcond=None)[0]
        w = w - step
    return w, float(np.linalg.norm(F))


@pytest.fixture(scope="module")
def resonant():
    # the 4:1 germ on 8 slots, four starts between its two necklaces, seeded
    # as one batch and solved in one lockstep
    da = DiscreteAction(resonant_germ(), 4, 2)
    r0 = math.sqrt(2 * math.pi * 0.01)
    angles = [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8]
    seeds = seed_from_point(da, [r0 * np.array([math.cos(t), math.sin(t)]) for t in angles])
    return da, seeds, find_periodic_points(da, seeds)


def test_resonant_orbits_match_direct_fixed_point_solve(resonant):
    da, _, points = resonant
    germ = da.germ
    out = [p for p in points if p.converged]
    nontrivial = [p for p in out if np.linalg.norm(p.orbit[0]) > 0.05]
    assert len(nontrivial) >= 2
    for p in out:
        w = p.orbit[0]
        polished, res = _direct_fourth_iterate_solve(germ, w)
        assert res < 1e-11
        assert np.linalg.norm(polished - w) < 1e-6
        assert p.morse_index is not None


def _count_flows(monkeypatch):
    from equimorse import hamflow

    count = [0]
    solve = hamflow.dop853

    def counted(fun, *args, **kwargs):
        if "_flow_rhs" in fun.__qualname__:
            count[0] += 1
        return solve(fun, *args, **kwargs)

    monkeypatch.setattr(hamflow, "dop853", counted)
    return count


def test_every_resonant_seed_lands_on_a_necklace_in_few_flows(resonant, monkeypatch):
    # each slot's graph Newton starts at the point's own y_i; from the Y =
    # y_{i+1} start the four seeds took 85 flows and the fourth left the
    # trust region
    da, seeds, points = resonant
    assert [p.seeds for p in points] == [[0, 1, 3], [2]]
    radii = sorted(np.linalg.norm(p.orbit[0]) for p in points if p.converged)
    assert np.abs(np.subtract(radii, [0.2289648053251, 0.2797652934624])).max() < 1e-9
    flows = _count_flows(monkeypatch)
    again = find_periodic_points(da, seeds)
    assert flows[0] <= 22
    _same_points(again, points, 0)


def test_a_one_slot_evaluate_is_bitwise_the_evaluate_started_at_y_next(monkeypatch):
    # with k = N = 1 the slot's own y_0 is y_{i+1}, so the start changes nothing
    da = DiscreteAction(quartic_germ(), 1, 1)
    Z = 0.05 * np.random.default_rng(17).standard_normal((4, da.dim))
    got = [dact.evaluate(da, Z), dact.evaluate(da, Z[1]), dact.evaluate(da, Z, value=False)]
    solve_slot = GeneratingFunction.solve_slot

    def started_at_y_next(self, x, Y, value=True, shift=None, start=None):
        return solve_slot(self, x, Y, value=value, shift=shift)

    monkeypatch.setattr(GeneratingFunction, "solve_slot", started_at_y_next)
    want = [dact.evaluate(da, Z), dact.evaluate(da, Z[1]), dact.evaluate(da, Z, value=False)]
    for a, b in zip(got, want):
        assert (a[0] is None and b[0] is None) or np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])


# -- the per-seed Newton loop that the lockstep replaced, kept as its oracle --

def _per_seed_newton(da, seeds):
    results = []
    tau = shift_matrix(da)
    for si, seed in enumerate(seeds):
        z = np.asarray(seed, dtype=float).reshape(da.dim).copy()
        status = None
        for _ in range(50):
            try:
                _, g, H = dact.evaluate(da, z, value=False)
            except (DomainError, TrustRegionError) as exc:
                status = CriticalPoint(z, math.inf, False, [si], str(exc))
                break
            res = float(np.linalg.norm(g))
            if res < tol("newton_grad"):
                status = CriticalPoint(z, res, True, [si])
                break
            if np.linalg.cond(H) < 1e12:
                step = np.linalg.solve(H, g)
            else:
                step = np.linalg.lstsq(H, g, rcond=None)[0]
            z = z - step
        if status is None:
            status = CriticalPoint(z, float(np.linalg.norm(gradient(da, z))),
                                   False, [si], "no convergence in 50 steps")
        if status.converged:
            merged = False
            for prev in results:
                if not prev.converged:
                    continue
                cand = status.z
                for _ in range(da.k):
                    if np.linalg.norm(cand - prev.z) < tol("dedup"):
                        prev.seeds.append(si)
                        merged = True
                        break
                    cand = tau @ cand
                if merged:
                    break
            if merged:
                continue
            neg, zero, _ = dact._signature_counts(np.linalg.eigvalsh(H))
            status.morse_index, status.nullity = neg, zero
            status.orbit = z.reshape(da.slots, 2 * da.n).copy()
        results.append(status)
    return results


def _same_points(out, oracle, atol):
    assert len(out) == len(oracle)
    for p, q in zip(out, oracle):
        assert (p.converged, p.seeds, p.message) == (q.converged, q.seeds, q.message)
        assert (p.morse_index, p.nullity) == (q.morse_index, q.nullity)
        if atol:
            assert np.abs(p.z - q.z).max() < atol
        else:
            assert np.array_equal(p.z, q.z) and p.residual == q.residual
            assert np.array_equal(p.orbit, q.orbit)


def test_lockstep_newton_matches_the_per_seed_oracle(resonant):
    da, seeds, points = resonant
    _same_points(points, _per_seed_newton(da, seeds), 1e-12)
    # a batch of one is the one-seed Newton, bitwise
    _same_points(find_periodic_points(da, seeds[:1]), _per_seed_newton(da, seeds[:1]), 0)


def test_a_seed_leaving_the_trust_region_fails_alone_beside_converging_seeds():
    da = DiscreteAction(hyperbolic_germ(), 1, 1)
    # the x of (0.3, 0) doubles over the step and leaves the trust radius 0.5
    seeds = [[0.02, -0.03], [0.3, 0.0], [-0.05, 0.01], [0.01, 0.04]]
    out = find_periodic_points(da, seeds)
    (alone,) = find_periodic_points(da, seeds[1:2])
    assert [p.seeds for p in out] == [[0, 2, 3], [1]]
    assert out[0].converged and np.linalg.norm(out[0].z) < 1e-12
    assert not out[1].converged and out[1].message == alone.message
    assert "trust region" in alone.message
    _same_points(out, _per_seed_newton(da, seeds), 1e-12)


def test_each_newton_iteration_makes_one_evaluate_over_the_active_seeds(monkeypatch):
    # a nonlinear germ, so the seeds take different numbers of steps
    germ = HamiltonianGerm.make(1, [(-0.3 * math.pi, (2, 0)), (-0.3 * math.pi, (0, 2)),
                                    (-0.25, (4, 0)), (-0.5, (2, 2)), (-0.25, (0, 4))])
    da = DiscreteAction(germ, 2, 2)
    rng = np.random.default_rng(8)
    seeds = [s * rng.standard_normal(da.dim) for s in (0.0, 0.01, 0.05, 0.1)]
    rows = []
    evaluate = dact.evaluate

    def counted(da, z, *args, **kwargs):
        rows.append(len(np.reshape(z, (-1, da.dim))))
        return evaluate(da, z, *args, **kwargs)

    monkeypatch.setattr(dact, "evaluate", counted)
    steps = []
    for seed in seeds:
        rows.clear()
        (p,) = find_periodic_points(da, [seed])
        assert p.converged
        steps.append(len(rows))
    assert len(set(steps)) > 2
    rows.clear()
    out = find_periodic_points(da, seeds)
    assert rows == [sum(n > j for n in steps) for j in range(max(steps))]
    assert [p.seeds for p in out] == [[0, 1, 2, 3]]


def test_discrete_action_doctest():
    import doctest

    import equimorse.dact as mod

    results = doctest.testmod(mod)
    assert results.failed == 0 and results.attempted >= 1


def test_lockstep_newton_takes_the_lstsq_step_where_h_is_singular(monkeypatch):
    # the shear x^2/2 fixes the whole line x = 0, so every H is singular
    # (cond H = inf) and every step is the minimum-norm lstsq step
    da = DiscreteAction(HamiltonianGerm.make(1, [(0.5, (2, 0))]), 1, 1)
    seeds = [[0.1, 0.2], [-0.05, 0.1], [0.02, -0.3], [0.15, 0.0]]
    rows = []
    row_lstsq, evaluate = dact.row_lstsq, dact.evaluate

    def counted(H, g):
        rows.append(len(H))
        return row_lstsq(H, g)

    def one_row_at_a_time(da, z, value=True):
        # batch mates move the rows of a stacked flow below the ODE
        # tolerance; evaluating each row alone leaves the stacked step as
        # the only batch operation, so the oracle can be matched bitwise
        if np.ndim(z) == 1:
            return evaluate(da, z, value)
        parts = zip(*(evaluate(da, zi, value) for zi in z))
        return tuple(None if part[0] is None else np.array(part) for part in parts)

    monkeypatch.setattr(dact, "row_lstsq", counted)
    monkeypatch.setattr(dact, "evaluate", one_row_at_a_time)
    out = find_periodic_points(da, seeds)
    assert rows and rows[0] == len(seeds)
    assert all(p.converged for p in out) and len(out) == len(seeds)
    _same_points(out, _per_seed_newton(da, seeds), 0)
