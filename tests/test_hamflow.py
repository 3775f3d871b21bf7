"""Flows and generating functions against closed-form oracles."""
from __future__ import annotations

import doctest
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from equimorse import hamflow, ode
from equimorse.config import rotation, standard_symplectic, symplectic_residual, tol
from equimorse.errors import (
    ConfigurationError,
    DomainError,
    ShapeError,
    StiffnessError,
    TrustRegionError,
    ValidationError,
)
from equimorse.hamflow import (
    FlowMap,
    GeneratingFunction,
    HamiltonianGerm,
    eval_S,
    hessian_S_at_zero,
    integrate_flow,
    linearized_path,
    steps_graph_positive,
    zero_jacobian_path,
)
from equimorse.ode import REACHED, RTOL_FLOOR, UNDERFLOW

J2 = standard_symplectic(1)


def hyperbolic_germ():
    return HamiltonianGerm.make(1, [(math.log(2.0), (1, 1))])


def quartic_germ(sign=-1.0):
    # sign * |z|^4 / 4; the flow rotates each circle |z| = r by angle sign * r^2 t
    s = sign / 4.0
    return HamiltonianGerm.make(1, [(s, (4, 0)), (2 * s, (2, 2)), (s, (0, 4))])


def cos_germ(c=0.1 * math.pi):
    return HamiltonianGerm.make(1, [(c, (2, 0), "cos", 1), (c, (0, 2), "cos", 1)])


def test_flow_rotation_catalog_orientation():
    g = HamiltonianGerm.rotation(0.3)
    phi, dphi = integrate_flow(g, 0.0, 1.0, [0.1, 0.0])
    assert np.allclose(dphi, rotation(0.6 * math.pi), atol=1e-9)
    assert np.allclose(phi, rotation(0.6 * math.pi) @ [0.1, 0.0], atol=1e-10)


def test_flow_positive_quadratic_rotates_clockwise():
    g = HamiltonianGerm.make(1, [(0.3 * math.pi, (2, 0)), (0.3 * math.pi, (0, 2))])
    _, dphi = integrate_flow(g, 0.0, 1.0, [0.1, 0.0])
    assert np.allclose(dphi, rotation(-0.6 * math.pi), atol=1e-9)


def test_flow_zero_germ_is_identity():
    g = HamiltonianGerm.zero(1)
    phi, dphi = integrate_flow(g, 0.0, 1.0, [0.2, -0.1])
    assert np.array_equal(phi, [0.2, -0.1])
    assert np.array_equal(dphi, np.eye(2))


def test_flow_quartic_origin_and_offset():
    g = quartic_germ()
    phi, dphi = integrate_flow(g, 0.0, 1.0, [0.0, 0.0])
    assert np.allclose(phi, 0.0, atol=1e-12)
    assert np.allclose(dphi, np.eye(2), atol=1e-10)
    # closed form at z = (r, 0): phi = R(r^2 t) z, dphi = R(theta) (I + J0 z (2z)^T t)
    z = np.array([0.2, 0.0])
    theta = 0.04
    phi, dphi = integrate_flow(g, 0.0, 1.0, z)
    assert np.allclose(phi, rotation(theta) @ z, atol=1e-10)
    expected = rotation(theta) @ (np.eye(2) + J2 @ np.outer(z, 2 * z))
    assert np.allclose(dphi, expected, atol=1e-9)


def test_flow_hyperbolic():
    g = hyperbolic_germ()
    phi, dphi = integrate_flow(g, 0.0, 1.0, [0.1, 0.2])
    assert np.allclose(phi, [0.2, 0.1], atol=1e-10)
    assert np.allclose(dphi, np.diag([2.0, 0.5]), atol=1e-9)


def test_flow_time_dependent_oracle():
    # H = c cos(2 pi t) |z|^2 integrates to the rotation by -c sin(2 pi t) / pi
    Phi = zero_jacobian_path(cos_germ())
    for t in (0.25, 0.4, 1.0):
        assert np.allclose(Phi(t), rotation(-0.1 * math.sin(2 * math.pi * t)), atol=1e-9)
    g = HamiltonianGerm.make(1, [(0.1 * math.pi, (2, 0), "sin", 1),
                                 (0.1 * math.pi, (0, 2), "sin", 1)])
    _, dphi = integrate_flow(g, 0.0, 0.5, [0.0, 0.0])
    assert np.allclose(dphi, rotation(-0.2), atol=1e-9)


def test_flow_composition():
    for g in (quartic_germ(), cos_germ()):
        z = np.array([0.15, 0.1])
        mid, _ = integrate_flow(g, 0.0, 0.25, z)
        end_two, _ = integrate_flow(g, 0.25, 0.6, mid)
        end_one, _ = integrate_flow(g, 0.0, 0.6, z)
        assert np.allclose(end_two, end_one, atol=1e-8)


def test_flow_backwards_inverts():
    g = quartic_germ()
    z = np.array([0.1, -0.2])
    fwd, _ = integrate_flow(g, 0.0, 1.0, z)
    back, _ = integrate_flow(g, 1.0, 0.0, fwd)
    assert np.allclose(back, z, atol=1e-9)


@settings(max_examples=10, deadline=None)
@given(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2))
def test_flow_symplecticity(zx, zy):
    for g in (quartic_germ(), cos_germ(), hyperbolic_germ()):
        _, dphi = integrate_flow(g, 0.0, 1.0, [zx, zy])
        assert symplectic_residual(dphi) < 1e-7


def test_trust_region_errors():
    with pytest.raises(DomainError):
        integrate_flow(hyperbolic_germ(), 0.0, 1.0, [0.6, 0.0])
    with pytest.raises(DomainError):
        integrate_flow(hyperbolic_germ(), 0.0, 2.0, [0.45, 0.0])


def test_stiffness_error_on_blowup():
    g = HamiltonianGerm.make(1, [(1.0, (2, 1))])  # xdot = x^2 blows up at t = 1/x0
    with pytest.raises(StiffnessError):
        integrate_flow(g, 0.0, 20.0, [0.1, 0.0], radius=np.inf)


def test_germ_validation():
    with pytest.raises(ConfigurationError):
        HamiltonianGerm.make(1, [(1.0, (1, 0))])
    with pytest.raises(ConfigurationError):
        HamiltonianGerm.make(1, [(1.0, (2, 0, 0))])
    with pytest.raises(ConfigurationError):
        HamiltonianGerm.make(1, [(1.0, (2, 0), "tan")])


def test_germ_json_round_trip():
    for g in (HamiltonianGerm.rotation(0.3), cos_germ(), HamiltonianGerm.zero(1)):
        assert HamiltonianGerm.from_json(g.to_json()) == g
    with pytest.raises(ConfigurationError):
        HamiltonianGerm.from_json({"n": 1})


def test_check_gen1_examples():
    # the graph condition of one substep flow, checked as its generating
    # function is built
    GeneratingFunction(FlowMap(HamiltonianGerm.zero(1), 0.0, 1.0))
    GeneratingFunction(FlowMap(HamiltonianGerm.rotation(0.3), 0.0, 1.0))
    with pytest.raises(ValidationError, match="graph condition"):
        GeneratingFunction(FlowMap(HamiltonianGerm.rotation(0.25), 0.0, 1.0))


def test_adapted_N_examples():
    from equimorse.dact import DiscreteAction

    rot3 = HamiltonianGerm.rotation(3.0)
    assert not steps_graph_positive(rot3, 1)
    with pytest.raises(ConfigurationError, match="N = 1: some substep family"):
        DiscreteAction(rot3, 1, 1)


def test_steps_graph_positive_quarter_turn_rule():
    rot03, rot07 = HamiltonianGerm.rotation(0.3), HamiltonianGerm.rotation(0.7)
    assert not steps_graph_positive(rot03, 1)
    assert steps_graph_positive(rot03, 2)
    assert steps_graph_positive(rot03, 3)
    assert not steps_graph_positive(rot07, 1)
    assert not steps_graph_positive(rot07, 2)
    assert steps_graph_positive(rot07, 3)
    assert steps_graph_positive(HamiltonianGerm.zero(1), 1)
    assert steps_graph_positive(hyperbolic_germ(), 1)
    assert steps_graph_positive(quartic_germ(), 1)


def test_hessian_S_rotation_closed_form():
    gf = GeneratingFunction(FlowMap(HamiltonianGerm.rotation(0.3), 0.0, 1.0))
    c, s = math.cos(0.6 * math.pi), math.sin(0.6 * math.pi)
    expected = np.array([[-s, 1 - c], [1 - c, -s]]) / c
    H = hessian_S_at_zero(gf)
    assert np.allclose(H, expected, atol=1e-9)
    assert np.allclose(gf.solve_slot([0.0], [0.0], value=False)[2], expected, atol=1e-9)


def test_hessian_S_lemma_identity_hyperbolic():
    gf = GeneratingFunction(FlowMap(hyperbolic_germ(), 0.0, 1.0))
    M = gf.psi.jacobian_at_zero
    H = hessian_S_at_zero(gf)
    dT = np.zeros((2, 2))
    dT[0, 0] = 1.0
    dT[1, :] = M[1, :]
    assert np.abs((M - np.eye(2)) - (-J2) @ H @ dT).max() < 1e-10
    assert np.allclose(gf.solve_slot([0.0], [0.0], value=False)[2], H, atol=1e-9)


def test_hessian_S_identity_and_kernel_dims():
    for germ, expected_dim in ((HamiltonianGerm.zero(1), 2), (quartic_germ(), 2),
                               (HamiltonianGerm.rotation(0.3), 0), (hyperbolic_germ(), 0)):
        gf = GeneratingFunction(FlowMap(germ, 0.0, 1.0))
        H = hessian_S_at_zero(gf)
        M = gf.psi.jacobian_at_zero
        sv_h = np.linalg.svdvals(H)
        sv_m = np.linalg.svdvals(M - np.eye(2))
        assert int(np.sum(sv_h < 1e-8)) == int(np.sum(sv_m < 1e-8)) == expected_dim


def test_gen1_violation_rejected_at_construction():
    with pytest.raises(ValidationError):
        GeneratingFunction(FlowMap(HamiltonianGerm.rotation(0.25), 0.0, 1.0))


def test_eval_S_zero_germ():
    gf = GeneratingFunction(FlowMap(HamiltonianGerm.zero(1), 0.0, 1.0))
    S, g1, g2 = eval_S(gf, [0.2], [-0.1])
    assert S == 0.0
    assert np.allclose(g1, 0.0) and np.allclose(g2, 0.0)


def test_eval_S_quadratic_form_matches_hessian():
    gf = GeneratingFunction(FlowMap(HamiltonianGerm.rotation(0.3), 0.0, 1.0))
    H = hessian_S_at_zero(gf)
    # the fiber point y = (Y - x sin) / cos must stay inside the trust region
    for x, Y in ((0.2, 0.1), (-0.1, -0.05), (0.15, 0.12)):
        S, g1, g2 = eval_S(gf, [x], [Y])
        w = np.array([x, Y])
        assert abs(S - 0.5 * w @ H @ w) < 1e-8
        assert np.allclose(np.concatenate([g1, g2]), H @ w, atol=1e-8)


def slot_gradient(gf, x, Y):
    """(grad_1 S, grad_2 S) at (x, Y) from one graph solve."""
    g = gf.solve_slot(x, Y, value=False)[1]
    return g[:gf.m], g[gf.m:]


@settings(max_examples=8, deadline=None)
@given(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05))
def test_gen2_round_trip_quartic(x, Y):
    gf = GeneratingFunction(FlowMap(quartic_germ(), 0.0, 1.0))
    g1, g2 = slot_gradient(gf, [x], [Y])
    y = Y + g1
    X = x + g2
    phi, _ = integrate_flow(quartic_germ(), 0.0, 1.0, np.concatenate([[x], y]))
    assert np.allclose(phi, np.concatenate([X, [Y]]), atol=1e-8)


def test_eval_S_path_independence():
    gf = GeneratingFunction(FlowMap(quartic_germ(), 0.0, 1.0))
    x, Y = 0.2, 0.1
    S, _, _ = eval_S(gf, [x], [Y])
    nodes, weights = np.polynomial.legendre.leggauss(32)
    s_vals = 0.5 * (nodes + 1.0)
    leg1 = 0.5 * sum(w * (slot_gradient(gf, [s * x], [0.0])[0] @ [x])
                     for w, s in zip(weights, s_vals))
    leg2 = 0.5 * sum(w * (slot_gradient(gf, [x], [s * Y])[1] @ [Y])
                     for w, s in zip(weights, s_vals))
    assert abs(S - (leg1 + leg2)) < 1e-8


def resonant_germ():
    # the detuned 4:1 germ whose quartic part carries a cos time mode
    beta, b = 0.26, 0.1
    return HamiltonianGerm.make(1, [
        (math.pi * beta, (2, 0)), (math.pi * beta, (0, 2)),
        (-0.25, (4, 0)), (-0.5, (2, 2)), (-0.25, (0, 4)),
        (b, (4, 0), "cos", 1), (-6 * b, (2, 2), "cos", 1), (b, (0, 4), "cos", 1)])


def test_eval_S_action_identity_time_dependent_substep():
    # S from the action integral on a substep with t0 != 0 against an
    # independent radial Gauss-Legendre quadrature of grad S (oracle only)
    gf = GeneratingFunction(FlowMap(resonant_germ(), 0.5, 1.0))
    nodes, weights = np.polynomial.legendre.leggauss(10)
    for x, Y in ((0.1, 0.05), (0.2, -0.1)):
        S, _, _ = eval_S(gf, [x], [Y])
        radial = 0.5 * sum(
            w * (np.concatenate(slot_gradient(gf, [s * x], [s * Y])) @ [x, Y])
            for w, s in zip(weights, 0.5 * (nodes + 1.0)))
        assert abs(S - radial) < 1e-12
    # and the gradient and Hessian of the same solve are its derivatives
    x, Y, h = -0.12, 0.08, 1e-5
    _, g1, g2 = eval_S(gf, [x], [Y])
    g, H = np.concatenate([g1, g2]), gf.solve_slot([x], [Y], value=False)[2]
    for j, e in enumerate(np.eye(2) * h):
        Sp, gp1, gp2 = eval_S(gf, [x + e[0]], [Y + e[1]])
        Sm, gm1, gm2 = eval_S(gf, [x - e[0]], [Y - e[1]])
        assert abs((Sp - Sm) / (2 * h) - g[j]) < 1e-9
        dg = (np.concatenate([gp1, gp2]) - np.concatenate([gm1, gm2])) / (2 * h)
        assert np.allclose(dg, H[:, j], atol=1e-8)


def test_substep_jacobians():
    g = HamiltonianGerm.rotation(0.3)
    for i in range(5):
        M = FlowMap(g, i / 5, (i + 1) / 5).jacobian_at_zero
        assert np.allclose(M, rotation(0.12 * math.pi), atol=1e-9)


def test_linearized_path_feeds_index():
    from equimorse.spindex import cz_index

    assert cz_index(linearized_path(HamiltonianGerm.rotation(0.3))) == 1
    path = linearized_path(HamiltonianGerm.rotation(0.3), periods=4)
    assert path.periods == 4 and path.germ is not None
    assert cz_index(path) == 3


def test_hamflow_doctest():
    results = doctest.testmod(hamflow)
    assert results.failed == 0
    assert results.attempted >= 1


def test_germ_rejects_non_finite_coefficients():
    # a NaN or infinite coefficient used to build a germ whose flow never returned
    for c in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigurationError):
            HamiltonianGerm.make(1, [(c, (2, 0))])
        with pytest.raises(ConfigurationError):
            HamiltonianGerm.from_json({"n": 1, "terms": [{"c": str(c), "m": [2, 0]}]})


@pytest.mark.parametrize("term", [
    {"c": 1.0, "m": [2.7, 0]},
    {"c": 1.0, "m": [2, 0], "time": {"mode": "cos", "freq": 1.5}},
    {"c": 1.0, "m": [2, 0], "time": "cos"},
    {"c": 1.0, "m": [2, 0], "time": {"mode": ["cos"]}},
    "c=1, m=(2, 0)",
])
def test_from_json_rejects_malformed_terms(term):
    with pytest.raises(ConfigurationError):
        HamiltonianGerm.from_json({"n": 1, "terms": [term]})


def test_from_json_reads_whole_floats_as_integers():
    with pytest.raises(ConfigurationError):
        HamiltonianGerm.from_json({"n": 1.5, "terms": []})
    g = HamiltonianGerm.from_json({"n": 1.0, "terms": [
        {"c": 1, "m": [2.0, 0], "time": {"mode": "sin", "freq": 2.0}}]})
    assert g == HamiltonianGerm.make(1, [(1.0, (2, 0), "sin", 2)])


def test_linearized_path_refuses_periods_that_are_not_integers():
    # int() would read True as one period; 1.5 periods made no path
    for periods in (1.5, True):
        with pytest.raises(ValidationError, match="periods must be an integer"):
            linearized_path(HamiltonianGerm.rotation(0.3), periods)
    assert linearized_path(HamiltonianGerm.rotation(0.3), 2.0).periods == 2


# -- the per-term loops that HamiltonianGerm.jet replaced, kept as its oracle --

def _time_factor(term, t):
    if term.mode == "const":
        return 1.0
    w = 2.0 * math.pi * term.freq * t
    return math.cos(w) if term.mode == "cos" else math.sin(w)


def _monomial(z, m):
    out = 1.0
    for zi, mi in zip(z, m):
        if mi:
            out *= zi**mi
    return out


def loop_value(germ, z, t):
    return sum(term.c * _time_factor(term, t) * _monomial(z, term.m) for term in germ.terms)


def loop_grad(germ, z, t):
    d = 2 * germ.n
    g = np.zeros(d)
    for term in germ.terms:
        cf = term.c * _time_factor(term, t)
        for j in range(d):
            if term.m[j]:
                m = list(term.m)
                m[j] -= 1
                g[j] += cf * term.m[j] * _monomial(z, m)
    return g


def loop_hess(germ, z, t):
    d = 2 * germ.n
    h = np.zeros((d, d))
    for term in germ.terms:
        cf = term.c * _time_factor(term, t)
        for j in range(d):
            if not term.m[j]:
                continue
            for l in range(j, d):
                mult = term.m[j] * (term.m[l] - (1 if l == j else 0))
                if not mult:
                    continue
                m = list(term.m)
                m[j] -= 1
                m[l] -= 1
                v = cf * mult * _monomial(z, m)
                h[j, l] += v
                if l != j:
                    h[l, j] += v
    return h


def sin_germ_n2():
    # sin modes of frequency 2 beside constant and cos terms; mixed monomials
    # exercise off-diagonal Hessian entries of R^4
    return HamiltonianGerm.make(2, [
        (0.4, (2, 0, 0, 0)), (0.3, (0, 0, 0, 2)),
        (-0.2, (0, 1, 1, 0), "sin", 2), (0.15, (1, 0, 1, 1), "sin", 2),
        (0.25, (0, 2, 0, 2), "sin", 2), (-0.1, (3, 0, 0, 1), "cos", 1),
        (0.05, (1, 1, 1, 1)), (0.07, (0, 0, 4, 0), "sin", 2)])


KERNEL_GERMS = {
    "rotation": lambda: HamiltonianGerm.rotation(0.3),
    "quartic": quartic_germ,
    "cos": cos_germ,
    "hyperbolic": hyperbolic_germ,
    "resonant_4_1": resonant_germ,
    "sin_n2": sin_germ_n2,
    "zero_n1": lambda: HamiltonianGerm.zero(1),
    "zero_n2": lambda: HamiltonianGerm.zero(2),
}


@pytest.mark.parametrize("name", sorted(KERNEL_GERMS))
def test_jet_matches_the_loop_oracle(name):
    germ = KERNEL_GERMS[name]()
    d = 2 * germ.n
    rng = np.random.default_rng(17)
    for _ in range(40):
        u = rng.standard_normal(d)
        z = rng.uniform(0.0, 0.5) * u / np.linalg.norm(u)
        t = float(rng.uniform(-1.0, 2.0))
        H, g, h = germ.jet(z, t)
        assert np.allclose(H, loop_value(germ, z, t), rtol=1e-13, atol=1e-14)
        assert np.allclose(g, loop_grad(germ, z, t), rtol=1e-13, atol=1e-14)
        assert np.allclose(h, loop_hess(germ, z, t), rtol=1e-13, atol=1e-14)
        assert np.array_equal(h, h.T)
        assert germ.value(z, t) == H
        assert np.array_equal(germ.grad(z, t), g) and np.array_equal(germ.hess(z, t), h)
    # a batch is its rows, each bitwise its one-point jet
    Z = 0.3 * rng.uniform(-1.0, 1.0, size=(7, d))
    H, g, h = germ.jet(Z, 0.3)
    assert H.shape == (7,) and g.shape == (7, d) and h.shape == (7, d, d)
    for i, z in enumerate(Z):
        Hi, gi, hi = germ.jet(z, 0.3)
        assert H[i] == Hi and np.array_equal(g[i], gi) and np.array_equal(h[i], hi)


@pytest.mark.parametrize("name", ["quartic", "resonant_4_1", "sin_n2", "hyperbolic"])
def test_the_monomial_table_is_the_left_fold_of_float_products(name):
    # z_i^p is z_i * ... * z_i from 1.0 and a row multiplies its coordinates'
    # powers from z_0 on, so no entry depends on how a pow call rounds
    k = KERNEL_GERMS[name]()._kernel
    d = k.flat.shape[1]
    exps = k.flat - np.arange(d) * (k.degree + 1)
    Z = 0.4 * np.random.default_rng(41).uniform(-1.0, 1.0, size=(9, d))
    table = k.monomials(Z)
    assert table.shape == (len(Z), len(exps))
    for p, z in enumerate(Z.tolist()):
        for r, row in enumerate(exps.tolist()):
            out = None
            for zi, e in zip(z, row):
                power = 1.0
                for _ in range(e):
                    power *= zi
                out = power if out is None else out * power
            assert table[p, r] == out


def test_flows_evaluate_the_germ_only_through_jet(monkeypatch):
    germ = resonant_germ()
    expected = integrate_flow(germ, 0.0, 0.5, [0.1, 0.05], action=True)
    Phi_expected = zero_jacobian_path(germ)(0.7)

    def refuse(self, z, t):
        raise AssertionError("the flow evaluated the germ outside jet")

    for name in ("value", "grad", "hess"):
        monkeypatch.setattr(HamiltonianGerm, name, refuse)
    phi, dphi, s = integrate_flow(germ, 0.0, 0.5, [0.1, 0.05], action=True)
    assert np.array_equal(phi, expected[0]) and np.array_equal(dphi, expected[1])
    assert s == expected[2]
    # a fresh instance, since the path of germ was solved before the patch
    assert np.array_equal(zero_jacobian_path(resonant_germ())(0.7), Phi_expected)


# -- the dense solve over [0, T] that the one-period path replaced, kept as its oracle --

def _direct_zero_jacobian_path(germ, T):
    d = 2 * germ.n
    minus_J = -standard_symplectic(germ.n)
    origin = np.zeros(d)

    def rhs(t, y):
        return (minus_J @ germ.jet(origin, t)[2] @ y.reshape(d, d)).ravel()

    sol = solve_ivp(rhs, (0.0, float(T)), np.eye(d).ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-13, dense_output=True, first_step=float(T))
    assert sol.success
    return lambda t: sol.sol(t).reshape(d, d)


def floquet_germ():
    # quadratic terms in both time modes, so the variational equation at 0
    # is not autonomous
    return HamiltonianGerm.make(1, [(0.4, (2, 0)), (0.3, (1, 1), "cos", 1),
                                    (0.2, (0, 2), "sin", 2)])


@pytest.mark.parametrize("make", [resonant_germ, lambda: HamiltonianGerm.rotation(0.3),
                                  floquet_germ], ids=["resonant", "rot03", "floquet"])
def test_one_period_path_matches_a_direct_solve_over_several_periods(make):
    germ = make()
    for T in (0.6, 1.0, 2.5, 4.0):
        Phi, oracle = zero_jacobian_path(germ), _direct_zero_jacobian_path(germ, T)
        assert np.array_equal(Phi(0.0), np.eye(2))
        for t in np.linspace(0.0, T, 41)[1:]:
            assert np.abs(Phi(t) - oracle(t)).max() < 1e-10


def _count_variational_solves(monkeypatch):
    count = [0]
    solve = hamflow.dop853

    def counted(fun, *args, **kwargs):
        # every solve that is not a stacked flow integrates the variational equation
        if "_flow_rhs" not in fun.__qualname__:
            count[0] += 1
        return solve(fun, *args, **kwargs)

    monkeypatch.setattr(hamflow, "dop853", counted)
    return count


def test_one_variational_solve_per_germ_instance(monkeypatch):
    from equimorse.dact import DiscreteAction, index_of_quadratic_action
    from equimorse.spindex import cz_index

    solves = _count_variational_solves(monkeypatch)
    germ = resonant_germ()
    for k in range(1, 5):
        index_of_quadratic_action(DiscreteAction(germ, k, 2))
        cz_index(linearized_path(germ, k))
    assert solves[0] == 1
    # an equal germ is another input: nothing carries over between instances
    other = resonant_germ()
    assert other == germ
    linearized_path(other, 2)
    assert solves[0] == 2
    # the degenerate CZ fallback tries N = 1, ..., 5 on the same path
    rot1 = HamiltonianGerm.rotation(1.0)
    assert cz_index(linearized_path(rot1)) == 1
    assert solves[0] == 3


def _count_flow_solves(monkeypatch):
    count = [0]
    solve = hamflow.dop853

    def counted(fun, *args, **kwargs):
        if "_flow_rhs" in fun.__qualname__:
            count[0] += 1
        return solve(fun, *args, **kwargs)

    monkeypatch.setattr(hamflow, "dop853", counted)
    return count


def test_jacobians_at_zero_integrate_no_flow(monkeypatch):
    from equimorse.dact import DiscreteAction, index_of_quadratic_action

    flows = _count_flow_solves(monkeypatch)
    germ = resonant_germ()
    for k in range(1, 5):
        index_of_quadratic_action(DiscreteAction(germ, k, 2))
    assert flows[0] == 0
    # the counter sees a flow
    FlowMap(germ, 0.0, 0.5)(np.zeros(2))
    assert flows[0] == 1


@pytest.mark.parametrize("make", [resonant_germ, lambda: HamiltonianGerm.rotation(0.3),
                                  floquet_germ, hyperbolic_germ, quartic_germ, cos_germ],
                         ids=["resonant", "rot03", "floquet", "hyperbolic", "quartic", "cos"])
def test_jacobian_at_zero_matches_a_one_row_flow(make):
    germ = make()
    for t0, t1 in ((0.0, 0.5), (0.5, 1.0), (0.25, 1.75), (1.0, 0.25)):
        _, direct = integrate_flow(germ, t0, t1, np.zeros(2))
        assert np.abs(FlowMap(germ, t0, t1).jacobian_at_zero - direct).max() < 1e-10


def test_jacobian_at_zero_keeps_the_symplectic_check(monkeypatch):
    # a path that scales by 1 + t is not symplectic
    monkeypatch.setattr(hamflow, "zero_jacobian_path",
                        lambda germ: (lambda t: (1.0 + t) * np.eye(2)))
    with pytest.raises(ValidationError, match="symplecticity residual"):
        FlowMap(HamiltonianGerm.rotation(0.3), 0.0, 1.0).jacobian_at_zero


def test_jacobian_at_zero_of_a_strongly_hyperbolic_germ_passes_the_relative_check():
    # exp(J0 S) has entries of 3.0e5, so rounding alone leaves an absolute
    # residual of 1.4e-6 in M^T J0 M - J0; relative to |M|^2 it is 1.6e-17
    germ = HamiltonianGerm.make(1, [(1.3436, (2, 0)), (13.1603, (1, 1)), (2.7631, (0, 2))])
    S = -np.array([[2.0 * 1.3436, 13.1603], [13.1603, 2.0 * 2.7631]])
    want = expm(J2 @ S)
    M = FlowMap(germ, 0.0, 1.0).jacobian_at_zero
    assert np.abs(want).max() > 2.9e5
    assert np.abs(M - want).max() < 1e-10 * np.abs(want).max()
    assert symplectic_residual(M) < 1e-15


# -- the one-point flow that the stacked flow replaced, kept as its oracle --

def _one_point_rhs(germ, J, action):
    n = germ.n
    d = 2 * n
    minus_J = -J
    jet = germ.jet

    def rhs(t, y):
        z = y[:d]
        Phi = y[d:d + d * d].reshape(d, d)
        H, g, h = jet(z, t)
        dz = minus_J @ g
        dPhi = minus_J @ h @ Phi
        if not action:
            return np.concatenate([dz, dPhi.ravel()])
        ds = z[:n] @ dz[n:] + H
        return np.concatenate([dz, dPhi.ravel(), [ds]])

    return rhs


def _one_point_flow(germ, t0, t1, z, action=False, radius=0.5):
    d = 2 * germ.n

    def exit_event(t, y):
        return float(np.linalg.norm(y[:d]) - radius)

    exit_event.terminal = True
    exit_event.direction = 1.0
    y0 = np.concatenate([z, np.eye(d).ravel(), [0.0] if action else []])
    sol = solve_ivp(_one_point_rhs(germ, standard_symplectic(germ.n), action), (t0, t1), y0,
                    method="DOP853", rtol=1e-12, atol=1e-13, events=exit_event,
                    first_step=abs(t1 - t0))
    assert sol.status == 0
    yf = sol.y[:, -1]
    phi, dphi = yf[:d], yf[d:d + d * d].reshape(d, d)
    return (phi, dphi, float(yf[-1])) if action else (phi, dphi)


@pytest.mark.parametrize("name", ["quartic", "cos", "hyperbolic", "resonant_4_1", "sin_n2"])
def test_one_point_flow_is_bitwise_the_one_point_oracle(name):
    germ = KERNEL_GERMS[name]()
    d = 2 * germ.n
    rng = np.random.default_rng(23)
    for _ in range(3):
        z = 0.15 * rng.uniform(-1.0, 1.0, size=d)
        for action in (False, True):
            got = integrate_flow(germ, 0.1, 0.6, z, action=action)
            want = _one_point_flow(germ, 0.1, 0.6, z, action=action)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            assert got[0].shape == (d,) and got[1].shape == (d, d)
            if action:
                assert isinstance(got[2], float)


@pytest.mark.parametrize("rows", [1, 8, 148])
@pytest.mark.parametrize("name", ["quartic", "rotation", "resonant_4_1"])
def test_every_row_of_a_stack_is_its_one_point_flow(name, rows):
    germ = KERNEL_GERMS[name]()
    Z = 0.4 * np.random.default_rng(rows).uniform(-1.0, 1.0, size=(rows, 2)) / math.sqrt(2)
    phi, dphi, s = integrate_flow(germ, 0.0, 0.5, Z, action=True)
    assert phi.shape == (rows, 2) and dphi.shape == (rows, 2, 2) and s.shape == (rows,)
    for i, z in enumerate(Z):
        one = integrate_flow(germ, 0.0, 0.5, z, action=True)
        assert np.abs(phi[i] - one[0]).max() < 1e-12
        assert np.abs(dphi[i] - one[1]).max() < 1e-12
        assert abs(s[i] - one[2]) < 1e-12
        assert symplectic_residual(dphi[i]) < tol("symplectic_flow")


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("name", ["resonant_4_1", "sin_n2"])
def test_every_row_of_a_shifted_stack_is_its_own_substep_flow(name, N):
    germ = KERNEL_GERMS[name]()
    d = 2 * germ.n
    Z = 0.15 * np.random.default_rng(N).uniform(-1.0, 1.0, size=(3 * N, d))
    j = np.arange(3 * N) % N
    phi, dphi, s = integrate_flow(germ, 0.0, 1.0 / N, Z, action=True, shift=j / N)
    for i, z in enumerate(Z):
        one = FlowMap(germ, j[i] / N, (j[i] + 1) / N)(z, action=True)
        assert np.abs(phi[i] - one[0]).max() < 1e-12
        assert np.abs(dphi[i] - one[1]).max() < 1e-12
        assert abs(s[i] - one[2]) < 1e-12
    # a row with shift 0 reads the germ at t itself: alone, it is the
    # unshifted flow bitwise
    for action in (False, True):
        got = integrate_flow(germ, 0.0, 1.0 / N, Z[0], action=action, shift=0.0)
        want = integrate_flow(germ, 0.0, 1.0 / N, Z[0], action=action)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_a_large_batch_is_integrated_in_capped_stacks(monkeypatch):
    germ = quartic_germ()
    Z = 0.3 * np.random.default_rng(3).uniform(-1.0, 1.0, size=(hamflow._MAX_STACK + 6, 2))
    stacks = []
    solve = hamflow.dop853

    def counted(fun, t0, t1, y0, **kwargs):
        stacks.append((len(y0) // 6, kwargs["rtol"], kwargs["atol"]))
        return solve(fun, t0, t1, y0, **kwargs)

    monkeypatch.setattr(hamflow, "dop853", counted)
    phi, dphi = integrate_flow(germ, 0.0, 0.25, Z)
    # the RMS error norm of a stack of P rows bounds each row's at 1/sqrt(P)
    # of the one-point tolerances
    assert stacks == [(P, 1e-12 / math.sqrt(P), 1e-13 / math.sqrt(P))
                      for P in (hamflow._MAX_STACK, 6)]
    assert stacks[0][1] > 100 * np.finfo(float).eps
    for i in (0, hamflow._MAX_STACK - 1, hamflow._MAX_STACK, len(Z) - 1):
        one = integrate_flow(germ, 0.0, 0.25, Z[i])
        assert np.abs(phi[i] - one[0]).max() < 1e-12
        assert np.abs(dphi[i] - one[1]).max() < 1e-12


# -- scipy's DOP853 as the oracle of the package's own --

def test_the_dop853_table_is_bitwise_scipys():
    from scipy.integrate._ivp import dop853_coefficients as table

    for ours, theirs in ((ode._A, table.A), (ode._B, table.B), (ode._C, table.C),
                         (ode._E3, table.E3), (ode._E5, table.E5), (ode._D, table.D)):
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("make", [resonant_germ, lambda: HamiltonianGerm.rotation(0.3),
                                  floquet_germ], ids=["resonant", "rot03", "floquet"])
def test_period_path_dense_output_is_bitwise_scipys(make):
    germ = make()
    one_period, monodromy = germ._period_path
    oracle = _direct_zero_jacobian_path(germ, 1.0)
    for t in np.linspace(0.0, 1.0, 41):
        assert np.array_equal(one_period(t), oracle(t))
    assert np.array_equal(monodromy, oracle(1.0))


@pytest.mark.parametrize("name", ["quartic", "cos", "resonant_4_1", "sin_n2"])
def test_a_backward_span_is_bitwise_the_one_point_oracle(name):
    germ = KERNEL_GERMS[name]()
    z = 0.15 * np.random.default_rng(29).uniform(-1.0, 1.0, size=2 * germ.n)
    for action in (False, True):
        got = integrate_flow(germ, 0.6, 0.1, z, action=action)
        want = _one_point_flow(germ, 0.6, 0.1, z, action=action)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("t0, t1", [(-0.5, 1.0), (1.0, -0.5)], ids=["forward", "backward"])
def test_dense_output_is_bitwise_scipys_on_either_direction(t0, t1):
    y0 = np.concatenate([[0.2, -0.1], np.eye(2).ravel()])
    rhs = _one_point_rhs(cos_germ(), J2, False)
    run = ode.dop853(rhs, t0, t1, y0, rtol=1e-12, atol=1e-13, dense=True)
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=1e-12, atol=1e-13,
                    dense_output=True)
    assert run.t == sol.t[-1] and np.array_equal(run.y, sol.y[:, -1])
    # the step ends too, where two interpolants meet and the earlier one answers
    for t in np.concatenate([np.linspace(t0, t1, 41), sol.t]):
        assert np.array_equal(run.sol(t), sol.sol(t))


def test_dense_output_on_an_array_of_times_is_bitwise_each_time():
    y0 = np.concatenate([[0.2, -0.1], np.eye(2).ravel()])
    rhs = _one_point_rhs(cos_germ(), J2, False)
    for t0, t1 in ((-0.5, 1.0), (1.0, -0.5)):
        run = ode.dop853(rhs, t0, t1, y0, rtol=1e-12, atol=1e-13, dense=True)
        sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=1e-12, atol=1e-13,
                        dense_output=True)
        ts = np.concatenate([np.linspace(t0, t1, 41), sol.t])
        stacked = run.sol(ts)
        assert stacked.shape == (len(ts), len(y0))
        assert np.array_equal(stacked, [run.sol(t) for t in ts])
        assert np.array_equal(stacked, sol.sol(ts).T)


@pytest.mark.parametrize("make", [resonant_germ, lambda: HamiltonianGerm.rotation(0.3),
                                  floquet_germ, HamiltonianGerm.zero],
                         ids=["resonant", "rot03", "floquet", "zero"])
def test_the_linearized_path_samples_every_time_in_one_pass(make):
    germ = make()
    Phi = zero_jacobian_path(germ)
    ts = np.linspace(0.0, 4.0, 4 * 64 + 1)
    stacked = Phi(ts)
    assert stacked.shape == (len(ts), 2, 2)
    # each sample is the one-time call, the period ends and t = 0 included
    assert np.array_equal(stacked, [Phi(t) for t in ts])
    assert np.array_equal(stacked[0], np.eye(2))
    path = linearized_path(germ, 4)
    assert [t for t, _ in path.samples] == ts.tolist()
    assert np.array_equal([M for _, M in path.samples], stacked)


def _scipy_exit_row(germ, t0, t1, Z, radius=0.5):
    # the stacked flow's exit as a terminal scipy event, located by root finding
    P, d = Z.shape
    width = d + d * d

    def exit_event(t, y):
        return float(np.linalg.norm(y.reshape(P, width)[:, :d], axis=1).max() - radius)

    exit_event.terminal = True
    exit_event.direction = 1.0
    y0 = np.concatenate([Z, np.tile(np.eye(d).ravel(), (P, 1))], axis=1).ravel()
    scale = math.sqrt(P)
    sol = solve_ivp(hamflow._flow_rhs(germ, standard_symplectic(germ.n), P, False), (t0, t1),
                    y0, method="DOP853", rtol=1e-12 / scale, atol=1e-13 / scale,
                    events=exit_event, first_step=abs(t1 - t0))
    assert sol.status == 1
    return int(np.argmax(np.linalg.norm(sol.y_events[0][0].reshape(P, width)[:, :d], axis=1)))


@pytest.mark.parametrize("Z", [[[0.05, 0.02], [0.3, 0.0]], [[0.3, 0.0], [0.05, 0.02]]],
                         ids=["second", "first"])
def test_the_row_leaving_a_stack_is_the_one_scipys_event_names(Z):
    Z = np.array(Z)
    row = _scipy_exit_row(hyperbolic_germ(), 0.0, 1.0, Z)
    with pytest.raises(DomainError, match=f"^row {row}: flow left the trust region"):
        integrate_flow(hyperbolic_germ(), 0.0, 1.0, Z)


def test_a_blow_up_underflows_the_step_where_scipys_does():
    def square(t, y):
        return y * y

    run = ode.dop853(square, 0.0, 2.0, np.array([1.0]), rtol=1e-12, atol=1e-13)
    sol = solve_ivp(square, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-12, atol=1e-13)
    assert run.status == UNDERFLOW and sol.status == -1
    assert run.t == sol.t[-1] and np.array_equal(run.y, sol.y[:, -1])
    assert abs(run.t - 1.0) < 1e-6 and run.y[0] > 1e10
    # a NaN slope gives a NaN step, which ends the solve the same way
    run = ode.dop853(lambda t, y: np.full_like(y, math.nan), 0.0, 2.0, np.array([1.0]),
                     rtol=1e-12, atol=1e-13)
    assert run.status == UNDERFLOW and run.t == 0.0
    # H = x^2 y gives xdot = x^2, the same blow-up, which the flow reports
    g = HamiltonianGerm.make(1, [(1.0, (2, 1))])
    with pytest.raises(StiffnessError, match="underflowed its step"):
        integrate_flow(g, 0.0, 2.0, [1.0, 0.0], radius=np.inf)


@pytest.mark.parametrize("rtol, atol", [(50 * np.finfo(float).eps, 1e-13), (0.0, 1e-13),
                                        (math.nan, 1e-13), (1e-12, -1e-13)])
def test_dop853_refuses_tolerances_it_cannot_honour(rtol, atol):
    with pytest.raises(ConfigurationError, match="tolerance"):
        ode.dop853(lambda t, y: -y, 0.0, 1.0, np.ones(2), rtol=rtol, atol=atol)
    # the floor itself is accepted
    run = ode.dop853(lambda t, y: -y, 0.0, 1.0, np.ones(2), rtol=RTOL_FLOOR, atol=0.0)
    assert run.status == REACHED and np.abs(run.y - math.exp(-1.0)).max() < 1e-12


@pytest.mark.parametrize("first_step", ["span", 0.1, 1e-3])
@pytest.mark.parametrize("t0, t1", [(-0.5, 1.0), (1.0, -0.5)], ids=["forward", "backward"])
def test_a_given_first_step_is_bitwise_scipys(t0, t1, first_step):
    first_step = abs(t1 - t0) if first_step == "span" else first_step
    y0 = np.concatenate([[0.2, -0.1], np.eye(2).ravel()])
    rhs = _one_point_rhs(cos_germ(), J2, False)
    run = ode.dop853(rhs, t0, t1, y0, rtol=1e-12, atol=1e-13, dense=True,
                     first_step=first_step)
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=1e-12, atol=1e-13,
                    dense_output=True, first_step=first_step)
    assert run.status == REACHED and run.t == sol.t[-1]
    assert np.array_equal(run.y, sol.y[:, -1])
    ts = np.concatenate([np.linspace(t0, t1, 41), sol.t])
    assert np.array_equal(run.sol(ts), sol.sol(ts).T)


@pytest.mark.parametrize("first_step", [0.0, -1.0, 1.0 + 1e-12, math.inf, math.nan])
def test_dop853_refuses_a_first_step_outside_the_span(first_step):
    with pytest.raises(ConfigurationError, match="first step"):
        ode.dop853(lambda t, y: -y, 0.0, 1.0, np.ones(2), rtol=1e-12, atol=1e-13,
                   first_step=first_step)
    with pytest.raises(ConfigurationError, match="first step"):
        ode.dop853(lambda t, y: -y, 1.0, 0.0, np.ones(2), rtol=1e-12, atol=1e-13,
                   first_step=first_step)
    # the whole span is accepted either way
    for t0, t1 in ((0.0, 1.0), (1.0, 0.0)):
        run = ode.dop853(lambda t, y: -y, t0, t1, np.ones(2), rtol=1e-12, atol=1e-13,
                         first_step=1.0)
        assert run.status == REACHED and run.t == t1


@pytest.mark.parametrize("first_step", [None, "span", 0.01])
@pytest.mark.parametrize("t0, t1", [(-0.5, 1.0), (1.0, -0.5)], ids=["forward", "backward"])
def test_the_reported_step_is_the_one_scipys_controller_proposes(t0, t1, first_step):
    from scipy.integrate import DOP853

    first_step = abs(t1 - t0) if first_step == "span" else first_step
    y0 = np.concatenate([[0.2, -0.1], np.eye(2).ravel()])
    rhs = _one_point_rhs(cos_germ(), J2, False)
    run = ode.dop853(rhs, t0, t1, y0, rtol=1e-12, atol=1e-13, first_step=first_step)
    solver = DOP853(rhs, t0, y0, t1, rtol=1e-12, atol=1e-13, first_step=first_step)
    while solver.status == "running":
        solver.step()
    assert solver.status == "finished" and run.status == REACHED
    assert run.t == solver.t and np.array_equal(run.y, solver.y)
    assert run.h == solver.h_abs
    # an empty span takes no step and proposes none
    assert math.isnan(ode.dop853(rhs, t0, t0, y0, rtol=1e-12, atol=1e-13).h)


@pytest.mark.parametrize("z", [[0.2, 0.1], [0.3, -0.2]])
def test_a_run_started_at_the_reported_step_rejects_none(z):
    # the resonant flow over the first half period, then over the second
    # from where it stopped: started at the step the first run proposed, the
    # second run accepts every step it tries, one slope and 12 fun calls a
    # step; started at its whole span it pays rejected steps
    germ = resonant_germ()
    rhs = _one_point_rhs(germ, J2, False)
    y0 = np.concatenate([z, np.eye(2).ravel()])
    first = ode.dop853(rhs, 0.0, 0.5, y0, rtol=1e-12, atol=1e-13, first_step=0.5)
    assert 0.0 < first.h < 0.5

    def go_on(first_step):
        calls, steps = [0], [-1]  # exit is read at the start and after every step

        def counted(t, y):
            calls[0] += 1
            return rhs(t, y)

        def each_step(y):
            steps[0] += 1
            return -1.0

        run = ode.dop853(counted, 0.5, 1.0, first.y, rtol=1e-12, atol=1e-13, exit=each_step,
                         first_step=first_step)
        assert run.status == REACHED
        return calls[0], steps[0]

    calls, steps = go_on(first.h)
    assert calls == 12 * steps + 1
    restarted, _ = go_on(0.5)
    assert restarted > calls and (restarted - 1) % 12 == 0


def _count_rhs_calls(monkeypatch):
    calls = [0]
    solve = hamflow.dop853

    def counted(fun, *args, **kwargs):
        def rhs(t, y):
            calls[0] += 1
            return fun(t, y)

        return solve(rhs, *args, **kwargs)

    monkeypatch.setattr(hamflow, "dop853", counted)
    return calls


def test_a_slow_stack_takes_the_whole_span_in_one_step(monkeypatch):
    # |z| <= 0.25 turns each circle of the quartic flow by at most 1/16 rad
    # over [0, 1]; one accepted step is the slope at t0 and 12 stages
    rng = np.random.default_rng(43)
    u = rng.standard_normal((12, 2))
    Z = 0.25 * rng.uniform(0.0, 1.0, size=(12, 1)) * u / np.linalg.norm(u, axis=1)[:, None]
    calls = _count_rhs_calls(monkeypatch)
    phi, dphi = integrate_flow(quartic_germ(), 0.0, 1.0, Z)
    assert calls[0] == 13
    # the closed form phi = R(|z|^2) z, dphi = R(|z|^2) (I + J0 z (2z)^T)
    for i, z in enumerate(Z):
        R = rotation(z @ z)
        assert np.abs(phi[i] - R @ z).max() < 1e-13
        assert np.abs(dphi[i] - R @ (np.eye(2) + J2 @ np.outer(z, 2 * z))).max() < 1e-13


def test_a_resonant_flow_over_half_a_period_is_the_one_point_oracle():
    germ = resonant_germ()
    rng = np.random.default_rng(47)
    for _ in range(3):
        z = 0.25 * rng.uniform(-1.0, 1.0, size=2)
        for action in (False, True):
            got = integrate_flow(germ, 0.0, 0.5, z, action=action)
            want = _one_point_flow(germ, 0.0, 0.5, z, action=action)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


def test_an_orbit_that_leaves_the_ball_and_returns_within_the_span_is_caught():
    # H = -pi (x^2 + 4 y^2) turns (0, 0.3) through (-0.6, 0) at t = 1/8 back
    # to (0, -0.3) at t = 1/4; the exit is read at the end of each accepted
    # step, and no accepted step spans the excursion
    germ = HamiltonianGerm.make(1, [(-math.pi, (2, 0)), (-4 * math.pi, (0, 2))])
    phi, _ = integrate_flow(germ, 0.0, 0.25, [0.0, 0.3], radius=np.inf)
    assert np.abs(phi - [0.0, -0.3]).max() < 1e-10
    with pytest.raises(DomainError, match="flow left the trust region"):
        integrate_flow(germ, 0.0, 0.25, [0.0, 0.3], radius=0.5)


def test_non_finite_starts_raise_a_domain_error_naming_the_row():
    with pytest.raises(DomainError, match="start point 0 is not finite"):
        integrate_flow(quartic_germ(), 0.0, 1.0, [math.nan, 0.0])
    Z = np.zeros((4, 2))
    Z[2, 1] = math.inf
    with pytest.raises(DomainError, match="start point 2 is not finite"):
        integrate_flow(quartic_germ(), 0.0, 1.0, Z, action=True)


def test_a_row_leaving_the_trust_region_fails_the_batch_with_its_own_error():
    gf = GeneratingFunction(FlowMap(hyperbolic_germ(), 0.0, 1.0))
    # the row (0.3, 0) doubles its x over the substep and leaves radius 0.5
    x, Y = np.array([[0.05], [0.3], [-0.1]]), np.array([[0.02], [0.0], [0.1]])
    with pytest.raises(TrustRegionError) as alone:
        gf.solve_graph(x[1], Y[1])
    with pytest.raises(TrustRegionError) as batch:
        gf.solve_graph(x, Y)
    assert str(batch.value) == str(alone.value)
    assert "flow left the trust region" in str(batch.value)
    good = gf.solve_graph(x[[0, 2]], Y[[0, 2]])
    for i, j in enumerate((0, 2)):
        one = gf.solve_graph(x[j], Y[j])
        assert np.abs(good[0][i] - one[0]).max() < 1e-12
        assert np.abs(good[2][i] - one[2]).max() < 1e-12


def test_batched_graph_solves_match_one_point_solves():
    gf = GeneratingFunction(FlowMap(resonant_germ(), 0.5, 1.0))
    rng = np.random.default_rng(31)
    x, Y = 0.2 * rng.uniform(-1, 1, size=(9, 1)), 0.2 * rng.uniform(-1, 1, size=(9, 1))
    S, g, H = gf.solve_slot(x, Y)
    assert S.shape == (9,) and g.shape == (9, 2) and H.shape == (9, 2, 2)
    for i in range(9):
        Si, gi, Hi = gf.solve_slot(x[i], Y[i])
        assert abs(S[i] - Si) < 1e-12
        assert np.abs(g[i] - gi).max() < 1e-12 and np.abs(H[i] - Hi).max() < 1e-11


def test_graph_solves_refuse_mismatched_rows_and_shifts():
    gf = GeneratingFunction(FlowMap(resonant_germ(), 0.5, 1.0))
    with pytest.raises(ShapeError, match="3 x rows, 2 Y rows"):
        gf.solve_graph(np.zeros((3, 1)), np.zeros((2, 1)))
    with pytest.raises(ShapeError, match=r"shifts of shape \(2,\)"):
        gf.solve_graph(np.zeros((3, 1)), np.zeros((3, 1)), shift=[0.0, 0.5])
    # a number, or one shift per row, is accepted
    y, X, _, _ = gf.solve_graph(np.zeros((3, 1)), np.zeros((3, 1)), shift=0.5)
    assert np.array_equal(y, np.zeros((3, 1))) and np.array_equal(X, np.zeros((3, 1)))
    assert gf.solve_graph(np.zeros((3, 1)), np.zeros((3, 1)), shift=[0.0, 0.5, 0.0])[0].shape == (3, 1)


def test_a_graph_solve_started_at_its_solution_takes_one_flow(monkeypatch):
    gf = GeneratingFunction(FlowMap(resonant_germ(), 0.5, 1.0))
    rng = np.random.default_rng(37)
    x, Y = 0.2 * rng.uniform(-1, 1, size=(6, 1)), 0.2 * rng.uniform(-1, 1, size=(6, 1))
    y, X, dpsi, _ = gf.solve_graph(x, Y)
    y0, X0, dpsi0, s0 = gf.solve_graph(x[0], Y[0], action=True)
    flows = _count_flow_solves(monkeypatch)
    got = gf.solve_graph(x, Y, start=y)
    assert flows[0] == 1
    assert np.array_equal(got[0], y) and np.abs(got[1] - X).max() < 1e-12
    # one row flows alone either way, so its start gives back every bit
    one = gf.solve_graph(x[0], Y[0], action=True, start=y0)
    assert flows[0] == 2
    assert np.array_equal(one[0], y0) and np.array_equal(one[1], X0)
    assert np.array_equal(one[2], dpsi0) and one[3] == s0
    # solve_slot passes the start through
    _, g, _ = gf.solve_slot(x, Y, start=y)
    assert flows[0] == 3 and np.array_equal(g[:, :1], y - Y)


def test_a_newton_start_of_another_shape_is_refused():
    gf = GeneratingFunction(FlowMap(resonant_germ(), 0.5, 1.0))
    x = Y = np.zeros((3, 1))
    for bad in (np.zeros((2, 1)), np.zeros(3), np.zeros((3, 2)), np.zeros((1, 3, 1))):
        with pytest.raises(ShapeError, match="Newton start"):
            gf.solve_graph(x, Y, start=bad)
        with pytest.raises(ShapeError, match="Newton start"):
            gf.solve_slot(x, Y, start=bad)
    with pytest.raises(ShapeError, match="Newton start"):
        gf.solve_graph(x[0], Y[0], start=np.zeros((1, 1)))
    y, _, _, _ = gf.solve_graph(x[0], Y[0], start=np.full(1, 0.01))
    assert y.shape == (1,) and np.abs(y).max() < 1e-12


@pytest.mark.parametrize("shift", [None, [0.0, 0.25, 0.5]], ids=["unshifted", "shifted"])
@pytest.mark.parametrize("action", [False, True])
def test_a_flow_rhs_call_returns_a_new_array_that_later_calls_leave_alone(action, shift):
    # the closure reuses its power table from call to call; no result may
    # share it, and a later call must leave an earlier result as it was
    germ = KERNEL_GERMS["resonant_4_1"]()
    width = 6 + int(action)
    rng = np.random.default_rng(59)
    y1, y2 = (0.2 * rng.uniform(-1.0, 1.0, size=3 * width) for _ in range(2))
    rhs = hamflow._flow_rhs(germ, J2, 3, action, shift)
    first = rhs(0.1, y1)
    kept = first.copy()
    second = rhs(0.3, y2)
    assert second is not first and not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    # each call is the call of a new closure
    assert np.array_equal(second, hamflow._flow_rhs(germ, J2, 3, action, shift)(0.3, y2))


# -- flow_chain: flows back to back, each started at its predecessor's step --

def _record_flows(monkeypatch):
    # (rows, first step tried, step proposed) of every stacked flow
    runs = []
    solve = hamflow.dop853

    def recorded(fun, t0, t1, y0, **kwargs):
        run = solve(fun, t0, t1, y0, **kwargs)
        runs.append((len(y0) // 6, kwargs["first_step"], run.h))
        return run

    monkeypatch.setattr(hamflow, "dop853", recorded)
    return runs


def test_a_chain_starts_each_flow_at_the_step_its_predecessor_proposed(monkeypatch):
    germ = resonant_germ()
    Z = 0.2 * np.random.default_rng(61).uniform(-1.0, 1.0, size=(5, 2))
    times = [0.0, 0.5, 1.0, 1.5, 2.0]
    # two stacks of 2 rows and one of 1, each carrying its own step
    monkeypatch.setattr(hamflow, "_MAX_STACK", 2)
    runs = _record_flows(monkeypatch)
    chain = hamflow.flow_chain(germ, times, Z)
    assert chain.shape == (5, len(times), 2) and np.array_equal(chain[:, 0], Z)
    assert [P for P, _, _ in runs] == [2, 2, 1] * (len(times) - 1)
    for link in range(1, len(times) - 1):
        for stack in range(3):
            _, tried, _ = runs[3 * link + stack]
            assert tried == min(runs[3 * (link - 1) + stack][2], 0.5)
    assert all(tried == 0.5 for _, tried, _ in runs[:3])
    # the first link is integrate_flow's flow, bitwise, stack by stack
    for rows in (slice(0, 2), slice(2, 4), slice(4, 5)):
        assert np.array_equal(chain[rows, 1], integrate_flow(germ, 0.0, 0.5, Z[rows])[0])
    # and every later link is its flow below the ODE tolerance
    for j in range(2, len(times)):
        want, _ = integrate_flow(germ, times[j - 1], times[j], chain[:, j - 1])
        assert np.abs(chain[:, j] - want).max() < 1e-12


def test_a_chain_of_no_flow_leaves_the_points_where_they_are(monkeypatch):
    runs = _record_flows(monkeypatch)
    Z = np.array([[0.15, -0.1], [0.0, 0.2]])
    for germ, times in ((HamiltonianGerm.zero(), [0.0, 0.5, 1.0]), (resonant_germ(), [0.5, 0.5])):
        chain = hamflow.flow_chain(germ, times, Z)
        assert np.array_equal(chain, np.repeat(Z[:, None], len(times), axis=1))
    assert runs == []


def test_a_chain_refuses_a_start_that_is_not_finite(monkeypatch):
    runs = _record_flows(monkeypatch)
    Z = np.full((3, 2), 0.1)
    Z[2, 0] = math.nan
    with pytest.raises(DomainError, match="start point 2 is not finite"):
        hamflow.flow_chain(quartic_germ(), [0.0, 0.5, 1.0], Z)
    with pytest.raises(DomainError, match="start point 0 is not finite"):
        hamflow.flow_chain(quartic_germ(), [0.0, 0.5], [[math.inf, 0.0]])
    assert runs == []


def test_a_chain_refuses_a_start_outside_the_trust_radius(monkeypatch):
    runs = _record_flows(monkeypatch)
    Z = np.array([[0.1, 0.0], [0.0, 0.6], [0.2, 0.2]])
    with pytest.raises(DomainError,
                       match=r"^row 1: start point has \|z\| = 0.6 > trust radius 0.5"):
        hamflow.flow_chain(quartic_germ(), [0.0, 0.5, 1.0], Z)
    with pytest.raises(DomainError, match=r"^start point has \|z\| = 0.6"):
        hamflow.flow_chain(quartic_germ(), [0.0, 0.5], Z[1:2])
    assert runs == []


def test_a_chain_names_the_row_that_leaves_the_trust_region_mid_chain(monkeypatch):
    # the hyperbolic flow doubles x over a period: the row at x = 0.3 is at
    # 0.42 after the first link and at 0.6, outside radius 0.5, in the second
    runs = _record_flows(monkeypatch)
    Z = np.array([[0.02, -0.03], [0.3, 0.0], [-0.05, 0.01]])
    with pytest.raises(DomainError, match="^row 1: flow left the trust region"):
        hamflow.flow_chain(hyperbolic_germ(), [0.0, 0.5, 1.0, 1.5], Z)
    assert len(runs) == 2


def test_a_chain_refuses_an_underflow_mid_chain(monkeypatch):
    # H = x^2 y gives xdot = x^2, which blows up from x = 1 at t = 1
    runs = _record_flows(monkeypatch)
    g = HamiltonianGerm.make(1, [(1.0, (2, 1))])
    with pytest.raises(StiffnessError, match="underflowed its step"):
        hamflow.flow_chain(g, [0.0, 0.5, 2.0], [[1.0, 0.0]], radius=np.inf)
    assert len(runs) == 2


def test_a_chain_keeps_the_symplectic_check_on_every_flow(monkeypatch):
    # a tolerance that every Jacobian fails from the second flow on
    runs = _record_flows(monkeypatch)
    monkeypatch.setattr(hamflow, "tol", lambda name: (
        -1.0 if name == "symplectic_flow" and len(runs) > 1 else tol(name)))
    Z = 0.2 * np.random.default_rng(67).uniform(-1.0, 1.0, size=(3, 2))
    with pytest.raises(ValidationError, match="^row 0: flow Jacobian symplecticity residual"):
        hamflow.flow_chain(resonant_germ(), [0.0, 0.5, 1.0, 1.5], Z)
    assert len(runs) == 2
