"""Tests for symmetric stratifications and invariant Morse perturbation."""

import doctest
import json
import math

import numpy as np
import pytest

from equimorse import equiperturb
from equimorse.equiperturb import (
    _MORSE_FLOOR,
    _bump_poly_term,
    _monomials,
    double_well_ring_model,
    normal_decreasing_extension,
    normal_well,
    obstruction_demo,
    perturb_invariant_morse,
    squeezed_ring_model,
    strata,
    verify_morse_smale_2d,
)
from equimorse.errors import (
    DegeneracyError,
    IsolationError,
    ResolutionError,
    ValidationError,
)
from equimorse.lochom import CyclicAction, FunctionSpec, _poly_grad, _poly_hess, _poly_value
from equimorse.regdist import ClosedSetSpec


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def reflection2():
    return CyclicAction(np.diag([1.0, -1.0]), 2)


def quartic_bowl():
    # (u^2 + v^2)^2, totally degenerate at the origin
    return FunctionSpec.make(2, [(1.0, (4, 0)), (2.0, (2, 2)), (1.0, (0, 4))])


def axes_quartic():
    return FunctionSpec.make(2, [(1.0, (4, 0)), (1.0, (0, 4))])


def newton_sweep(func, radius, extra_seeds=(), grid=9, fine=0.16, tol=1e-11):
    """Independent critical point finder used to cross-check pipeline output."""
    axes = np.linspace(-radius, radius, grid)
    seeds = [np.array([u, v]) for u in axes for v in axes]
    fine_axes = np.linspace(-fine, fine, 7)
    seeds += [np.array([u, v]) for u in fine_axes for v in fine_axes]
    seeds += [np.asarray(s, dtype=float) for s in extra_seeds]
    found = []
    for seed in seeds:
        x = seed.copy()
        ok = False
        for _ in range(80):
            g = np.asarray(func.grad(x))
            if np.linalg.norm(g) < tol:
                ok = True
                break
            h = np.asarray(func.hess(x))
            try:
                step = np.linalg.solve(h, g)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(h, g, rcond=None)[0]
            size = np.linalg.norm(step)
            if size > 0.25:
                step *= 0.25 / size
            x = x - step
            if np.linalg.norm(x) > 3.0 * radius:
                break
        if not ok or np.linalg.norm(x) > radius:
            continue
        if all(np.linalg.norm(x - y) > 1e-6 for y in found):
            found.append(x)
    return found


class TestStrata:
    def test_reflection_fixed_line(self):
        s = strata(np.diag([1.0, -1.0]), 2)
        assert s.divisors == (1, 2)
        assert s.dim(1) == 1
        assert s.dim(2) == 2
        assert np.allclose(s.projection(1), np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(s.projection(2), np.eye(2), atol=1e-12)

    def test_rotation_has_no_fixed_directions(self):
        s = strata(rotation(2 * math.pi / 3), 3)
        assert s.dim(1) == 0
        assert s.dim(3) == 2
        assert np.allclose(s.projection(1), np.zeros((2, 2)), atol=1e-12)

    def test_four_dim_reflection_matches_kernel_oracle(self):
        a = np.diag([1.0, -1.0, -1.0, 1.0])
        s = strata(a, 2)
        assert s.dim(1) == 2
        # oracle: projector assembled from an SVD nullspace of A - I
        u, sing, vt = np.linalg.svd(a - np.eye(4))
        basis = vt[sing < 1e-10]
        proj = basis.T @ basis
        assert np.allclose(s.projection(1), proj, atol=1e-12)

    def test_projection_identities_across_catalog(self):
        catalog = [
            (np.diag([1.0, -1.0]), 2),
            (rotation(2 * math.pi / 3), 3),
            (rotation(math.pi / 2), 4),
            (np.block([
                [rotation(2 * math.pi / 3), np.zeros((2, 1))],
                [np.zeros((1, 2)), -np.ones((1, 1))],
            ]), 6),
        ]
        for mat, k in catalog:
            s = strata(mat, k)
            n = mat.shape[0]
            for i in s.divisors:
                p = s.projection(i)
                assert np.linalg.norm(p @ mat - mat @ p) < 1e-10
                for j in s.divisors:
                    q = s.projection(j)
                    g = math.gcd(i, j)
                    # intersection projector via a stacked kernel oracle
                    stacked = np.vstack([np.eye(n) - p, np.eye(n) - q])
                    _, sing, vt = np.linalg.svd(stacked)
                    sing = np.concatenate([sing, np.zeros(n - len(sing))])
                    inter = vt[sing < 1e-10]
                    pi = inter.T @ inter if len(inter) else np.zeros((n, n))
                    assert np.linalg.norm(pi - s.projection(g)) < 1e-9

    def test_moved_directions_are_orthogonal_to_other_strata(self):
        mat = np.block([
            [rotation(2 * math.pi / 3), np.zeros((2, 1))],
            [np.zeros((1, 2)), -np.ones((1, 1))],
        ])
        s = strata(mat, 6)
        # F_2 is the z axis, F_3 is the xy plane, F_1 is the origin
        assert s.dim(1) == 0
        assert s.dim(2) == 1
        assert s.dim(3) == 2
        report = s.verify()
        assert report["gcd_residual"] < 1e-9
        assert report["commutation_residual"] < 1e-10
        assert report["orthogonality_residual"] < 1e-9

    def test_strata_rejects_bad_actions(self):
        with pytest.raises(ValidationError):
            strata(np.array([[1.0, 1.0], [0.0, 1.0]]), 2)
        with pytest.raises(ValidationError):
            strata(rotation(2 * math.pi / 3), 2)


class TestNormalDecreasingExtension:
    def test_quartic_on_axis_extends_to_saddle(self):
        s = strata(np.diag([1.0, -1.0]), 2)
        f = FunctionSpec.make(2, [(1.0, (4, 0))])
        ext = normal_decreasing_extension(f, s, 1)
        for u in (-0.8, -0.3, 0.0, 0.5, 1.1):
            for v in (-0.7, 0.0, 0.4):
                want = u ** 4 - v ** 2
                assert abs(ext.value(np.array([u, v])) - want) < 1e-13

    def test_extension_critical_points_stay_on_the_stratum(self):
        s = strata(np.diag([1.0, -1.0]), 2)
        for terms in ([(1.0, (4, 0))], [(1.0, (4, 0)), (-0.1, (2, 0))]):
            ext = normal_decreasing_extension(FunctionSpec.make(2, terms), s, 1)
            crits = newton_sweep(ext, 1.2)
            assert crits
            for c in crits:
                assert abs(c[1]) < 1e-8

    def test_extension_keeps_block_diagonal_hessians(self):
        s = strata(np.diag([1.0, -1.0]), 2)
        ext = normal_decreasing_extension(FunctionSpec.make(2, [(1.0, (2, 0))]), s, 1)
        assert np.allclose(ext.hess(np.zeros(2)), np.diag([2.0, -2.0]), atol=1e-10)
        mat = np.diag([1.0, 1.0, -1.0])
        s3 = strata(mat, 2)
        f3 = FunctionSpec.make(3, [(1.0, (2, 0, 0)), (3.0, (0, 2, 0))])
        ext3 = normal_decreasing_extension(f3, s3, 1)
        assert np.allclose(ext3.hess(np.zeros(3)), np.diag([2.0, 6.0, -2.0]), atol=1e-10)

    def test_extension_requires_invariance_on_the_stratum(self):
        s = strata(rotation(math.pi / 2), 4)
        good = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 2))])
        normal_decreasing_extension(good, s, 4)
        bad = FunctionSpec.make(2, [(1.0, (2, 0))])
        with pytest.raises(ValidationError):
            normal_decreasing_extension(bad, s, 4)


class TestNormalWell:
    def test_well_vanishes_near_the_inner_set_and_matches_distance_squared(self):
        action = reflection2()
        inner = ClosedSetSpec.ball([0.0, 0.0], 0.3)
        g, info = normal_well(inner, 2, [[1.0, 0.0]], action, delta=0.01)
        # inside and just outside the inner set the well is identically zero
        for pt in ([0.0, 0.0], [0.2, 0.1], [0.3, 0.0], [0.0, 0.301]):
            assert g.value(np.array(pt)) == 0.0
        # far from the inner set the well equals squared distance to the stratum
        for u, v in ((0.9, 0.04), (1.3, -0.02), (-1.1, 0.05)):
            assert abs(g.value(np.array([u, v])) - v * v) < 1e-12
        assert info["delta"] == pytest.approx(0.01)
        assert info["rho0"] > 0

    def test_well_is_invariant_and_twice_differentiable(self):
        action = reflection2()
        inner = ClosedSetSpec.ball([0.0, 0.0], 0.3)
        g, _ = normal_well(inner, 2, [[1.0, 0.0]], action, delta=0.01)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(40):
            q = rng.uniform(-1.6, 1.6, size=2)
            worst = max(worst, abs(g.value(action.matrix @ q) - g.value(q)))
        assert worst < 1e-10
        # finite difference curvature stays bounded across the transition zone
        for u in np.linspace(0.32, 1.2, 12):
            h = g.hess(np.array([u, 0.1]))
            assert np.all(np.isfinite(h))
            assert np.max(np.abs(h)) < 1e3


class TestPerturbPipeline:
    def test_degenerate_bowl_with_reflection(self):
        action = reflection2()
        f = quartic_bowl()
        out, cert = perturb_invariant_morse(f, action, epsilon=0.05, seed=0)
        assert cert["passed"]
        c1 = cert["stages"][0]["c"]
        assert c1 == pytest.approx(0.05 / 4)
        crits = newton_sweep(out, 1.0)
        on_axis = [c for c in crits if abs(c[1]) < 1e-6]
        off_axis = [c for c in crits if abs(c[1]) >= 1e-6]
        assert len(on_axis) % 2 == 1
        assert len(off_axis) == 2
        # the off axis pair is swapped by the reflection
        a, b = off_axis
        assert np.linalg.norm(action.matrix @ a - b) < 1e-8
        for c in crits:
            eigs = np.linalg.eigvalsh(np.asarray(out.hess(c)))
            assert np.min(np.abs(eigs)) > 1e-8
        # on axis points keep a strictly negative normal hessian with margin
        for c in on_axis:
            assert out.hess(c)[1, 1] <= -0.9 * c1 * (1 - 1e-9)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            q = rng.uniform(-1.0, 1.0, size=2)
            worst = max(worst, abs(out.value(action.matrix @ q) - out.value(q)))
        assert worst < 1e-9
        # the output stays within epsilon of the input up to second order
        for _ in range(60):
            q = rng.uniform(-1.0, 1.0, size=2)
            assert abs(out.value(q) - f.value(q)) < 0.05
            assert np.linalg.norm(np.asarray(out.grad(q)) - f.grad(q)) < 0.05
            dh = np.asarray(out.hess(q)) - f.hess(q)
            assert np.linalg.norm(dh, 2) < 0.05

    def test_already_morse_function_with_trivial_action(self):
        f = FunctionSpec.make(2, [(1.0, (2, 0)), (-1.0, (0, 2))])
        action = CyclicAction(np.eye(2), 1)
        out, cert = perturb_invariant_morse(f, action, epsilon=0.05, seed=0)
        assert cert["passed"]
        crits = newton_sweep(out, 1.0)
        assert len(crits) == 1
        assert np.linalg.norm(crits[0]) < 1e-6
        eigs = np.linalg.eigvalsh(np.asarray(out.hess(crits[0])))
        assert eigs[0] < 0 < eigs[1]
        assert cert["items"]["c2_distance"]["measured"] < 0.05

    def test_quarter_turn_quartic_gets_nine_critical_points(self):
        action = CyclicAction(rotation(math.pi / 2), 4)
        f = axes_quartic()
        out, cert = perturb_invariant_morse(f, action, epsilon=0.05, seed=0)
        assert cert["passed"]
        assert cert["items"]["invariance"]["residual"] < 1e-9
        crits = newton_sweep(out, 1.0)
        assert len(crits) == 9
        hist = {0: 0, 1: 0, 2: 0}
        for c in crits:
            eigs = np.linalg.eigvalsh(np.asarray(out.hess(c)))
            assert np.min(np.abs(eigs)) > 1e-8
            hist[int(np.sum(eigs < 0))] += 1
        assert hist == {0: 4, 1: 4, 2: 1}
        # the eight off origin points form two orbits of the quarter turn
        others = [c for c in crits if np.linalg.norm(c) > 1e-8]
        for c in others:
            image = action.matrix @ c
            assert min(np.linalg.norm(image - d) for d in others) < 1e-6

    def test_antipodal_symmetry_needs_a_free_perturbation(self):
        action = CyclicAction(-np.eye(2), 2)
        f = quartic_bowl()
        out, cert = perturb_invariant_morse(f, action, epsilon=0.05, seed=0)
        assert cert["passed"]
        assert any(s["alpha_scale"] for s in cert["stages"] if not s.get("skipped"))
        crits = newton_sweep(out, 1.0, grid=11, fine=0.09)
        assert len(crits) >= 5
        assert len(crits) % 2 == 1
        others = [c for c in crits if np.linalg.norm(c) > 1e-8]
        for c in others:
            assert min(np.linalg.norm(-c - d) for d in others) < 1e-8
        origin = min(crits, key=np.linalg.norm)
        assert np.linalg.norm(origin) < 1e-8
        c1 = cert["stages"][0]["c"]
        eigs = np.linalg.eigvalsh(np.asarray(out.hess(origin)))
        assert eigs[-1] <= -0.9 * c1 * (1 - 1e-9)
        # the certificate's census sum and margins agree with the Hessians
        census = cert["items"]["critical_points_on_strata"]
        euler = 0
        for p in census["points"]:
            eigs = np.linalg.eigvalsh(np.asarray(out.hess(np.asarray(p["point"]))))
            euler += (-1) ** int(np.sum(eigs < 0))
            assert p["min_abs_eig"] == pytest.approx(np.min(np.abs(eigs)), rel=1e-12)
        assert census["euler"] == euler

    def test_certificate_serializes_to_json(self):
        f = FunctionSpec.make(2, [(1.0, (2, 0)), (-1.0, (0, 2))])
        action = CyclicAction(np.eye(2), 1)
        _, cert = perturb_invariant_morse(f, action, epsilon=0.05, seed=0)
        blob = json.loads(json.dumps(cert))
        assert set(blob["items"]) == {
            "invariance",
            "critical_points_on_strata",
            "normal_hessian_margin",
            "c2_distance",
        }
        for item in blob["items"].values():
            assert isinstance(item["passed"], bool)
        # report-only fields: one saddle with Hessian diag(2, -2)
        census = blob["items"]["critical_points_on_strata"]
        assert census["euler"] == -1
        assert census["morse_floor"] == _MORSE_FLOOR
        assert [p["min_abs_eig"] for p in census["points"]] == [pytest.approx(2.0)]

    def test_pipeline_rejects_functions_that_break_the_symmetry(self):
        f = FunctionSpec.make(2, [(1.0, (2, 0)), (0.5, (1, 1)), (1.0, (0, 2))])
        with pytest.raises(ValidationError):
            perturb_invariant_morse(f, reflection2(), epsilon=0.05)

    def test_pipeline_rejects_nonisolated_origins(self):
        f = FunctionSpec.make(2, [(1.0, (2, 0))])
        with pytest.raises(IsolationError):
            perturb_invariant_morse(f, reflection2(), epsilon=0.05)

    def test_unresolvable_margins_fail_naming_the_stage(self):
        action = reflection2()
        with pytest.raises(ResolutionError, match="stage"):
            perturb_invariant_morse(quartic_bowl(), action, epsilon=1e-10, seed=0)


class TestVerifyMorseSmale:
    def test_squeezed_ring_has_no_saddle_connections(self):
        f, action = squeezed_ring_model(0.5, 0.1)
        report = verify_morse_smale_2d(f, action, radius=1.2)
        pts = {tuple(np.round(c["point"], 6)): c["index"]
               for c in report["critical_points"]}
        r_min = math.sqrt(0.5)
        r_sad = math.sqrt(0.4)
        want = {
            (0.0, 0.0): 2,
            (0.0, round(r_min, 6)): 0,
            (0.0, round(-r_min, 6)): 0,
            (round(r_sad, 6), 0.0): 1,
            (round(-r_sad, 6), 0.0): 1,
        }
        got = {(round(p[0], 6), round(p[1], 6)): i for p, i in pts.items()}
        assert got == want
        assert report["saddle_connections"] == []
        assert report["tangency_residual"] < 1e-9
        # every saddle separatrix lands on one of the two minima
        for sep in report["separatrices"]:
            assert sep["terminus"] is not None
            terminus = report["critical_points"][sep["terminus"]]
            assert terminus["index"] == 0

    def test_double_well_ring_forces_connections_on_the_fixed_axis(self):
        f, action = double_well_ring_model()
        report = verify_morse_smale_2d(f, action, radius=2.0)
        assert len(report["critical_points"]) == 7
        conns = report["saddle_connections"]
        assert len(conns) == 2
        targets = []
        for conn in conns:
            src = report["critical_points"][conn["from"]]
            dst = report["critical_points"][conn["to"]]
            assert src["index"] == 1 and dst["index"] == 1
            # both ends sit on the fixed axis of the reflection
            assert abs(src["point"][1]) < 1e-8
            assert abs(dst["point"][1]) < 1e-8
            assert np.linalg.norm(src["point"]) < 1e-8
            targets.append(round(dst["point"][0], 6))
        assert sorted(targets) == [-1.0, 1.0]
        assert report["tangency_residual"] < 1e-9

    def test_pure_bowl_reports_nothing(self):
        f = FunctionSpec.make(2, [(1.0, (2, 0)), (1.0, (0, 2))])
        report = verify_morse_smale_2d(f, reflection2(), radius=1.0)
        assert len(report["critical_points"]) == 1
        assert report["saddle_connections"] == []
        assert report["separatrices"] == []

    def test_degenerate_input_is_rejected(self):
        with pytest.raises((DegeneracyError, ValidationError)):
            verify_morse_smale_2d(quartic_bowl(), reflection2(), radius=1.0)

    def test_obstruction_demo_reports_the_forced_connection(self):
        demo = obstruction_demo()
        report = demo["report"]
        assert len(report["saddle_connections"]) == 2
        assert demo["connections_on_fixed_stratum"] == 2
        blob = json.dumps(demo)
        assert "saddle_connections" in blob


class TestGradientTangency:
    def test_invariant_gradients_are_tangent_to_every_stratum(self):
        z6 = np.block([
            [rotation(2 * math.pi / 3), np.zeros((2, 1))],
            [np.zeros((1, 2)), -np.ones((1, 1))],
        ])
        catalog = [
            (quartic_bowl(), reflection2()),
            (axes_quartic(), CyclicAction(rotation(math.pi / 2), 4)),
            (squeezed_ring_model(0.5, 0.1)[0], squeezed_ring_model(0.5, 0.1)[1]),
            (double_well_ring_model()[0], double_well_ring_model()[1]),
            (FunctionSpec.make(3, [(1.0, (2, 0, 2)), (1.0, (0, 2, 2)), (1.0, (0, 0, 4))]),
             CyclicAction(z6, 6)),
        ]
        worst = 0.0
        for f, action in catalog:
            s = strata(action.matrix, action.k)
            for j in s.divisors:
                m = s.dim(j)
                if m == 0 or m == f.d:
                    continue
                basis = s.basis(j)
                proj = s.projection(j)
                ts = np.linspace(-1.0, 1.0, 9)
                if m == 1:
                    samples = [t * basis[0] for t in ts]
                else:
                    samples = [a * basis[0] + b * basis[1] for a in ts for b in ts]
                for y in samples:
                    g = np.asarray(f.grad(y))
                    worst = max(worst, np.linalg.norm(g - proj @ g))
        assert worst < 1e-9


# Per-center oracle for the bump sum: the scalar profile and its radial chain
# rule, evaluated one center at a time.

_LO, _HI = 0.5, 0.55


def _oracle_profile(t):
    if t <= _LO:
        return 1.0, 0.0, 0.0
    if t >= _HI:
        return 0.0, 0.0, 0.0
    w = _HI - _LO
    u = (_HI - t) / w
    v = u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)
    d1 = -30.0 * u * u * (1.0 - u) ** 2 / w
    d2 = 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u) / w ** 2
    return v, d1, d2


def _oracle_bump_parts(z, center, scale):
    w = z - center
    r = float(np.linalg.norm(w))
    t = r / scale
    v, d1, d2 = _oracle_profile(t)
    m = len(z)
    if t <= _LO or t >= _HI:
        return v, np.zeros(m), np.zeros((m, m))
    u = w / r
    g = (d1 / scale) * u
    outer = np.outer(u, u)
    h = (d2 / scale ** 2) * outer + (d1 / (scale * r)) * (np.eye(m) - outer)
    return v, g, h


def _oracle_bump_poly(z, centers, scale, coeffs, mons):
    m = len(z)
    bv, bg, bh = 0.0, np.zeros(m), np.zeros((m, m))
    for c in centers:
        v, g, h = _oracle_bump_parts(z, np.asarray(c, dtype=float), scale)
        bv, bg, bh = bv + v, bg + g, bh + h
    terms = list(zip(coeffs, mons))
    pv = _poly_value(z, terms)
    pg = _poly_grad(z, terms)
    cross = np.outer(pg, bg)
    return (pv * bv, bv * pg + pv * bg,
            bv * _poly_hess(z, terms) + cross + cross.T + pv * bh)


def _unit(rng, m):
    v = rng.standard_normal(m)
    return v / np.linalg.norm(v)


def _bump_cases(m, rng, scale=0.4):
    """(kind, z, centers) at the four kinds of point of a bump sum."""
    z = rng.uniform(-0.3, 0.3, size=m)
    far = [z + 3.0 * scale * _unit(rng, m) for _ in range(3)]
    return [
        ("plateau", z, [z + 0.3 * scale * _unit(rng, m)] + far),
        ("ramp", z, far[:1] + [z + 0.52 * scale * _unit(rng, m)] + far[1:]),
        ("overlap", z, [z + t * scale * _unit(rng, m) for t in (0.51, 0.53, 0.545)] + far),
        ("outside", z, far + [z + 0.56 * scale * _unit(rng, m)]),
    ]


def _close(got, want, rel=1e-12):
    want = np.asarray(want, dtype=float)
    return np.allclose(got, want, rtol=rel, atol=rel * max(1.0, float(np.abs(want).max())))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_bump_term_matches_the_per_center_oracle(m):
    rng = np.random.default_rng(40 + m)
    mons = _monomials(m, max_degree=3, min_degree=0)
    coeffs = rng.standard_normal(len(mons))
    scale = 0.4
    for kind, z, centers in _bump_cases(m, rng, scale):
        term = _bump_poly_term(centers, scale, coeffs, mons)
        want = _oracle_bump_poly(z, centers, scale, coeffs, mons)
        got = (term["value"](z), term["grad"](z), term["hess"](z))
        for a, b in zip(got, want):
            assert _close(a, b), kind
        if kind == "outside":
            assert got[0] == 0.0 and not got[1].any() and not got[2].any()
        if kind == "plateau":
            assert got[0] == pytest.approx(_poly_value(z, list(zip(coeffs, mons))), rel=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_bump_term_cache_hands_out_fresh_arrays(m):
    # grad and hess reuse the bump sum cached at z; a caller that writes into
    # a result, or evaluates at more points than the cache holds, must not
    # change a later result at z
    rng = np.random.default_rng(60 + m)
    mons = _monomials(m, max_degree=3, min_degree=0)
    coeffs = rng.standard_normal(len(mons))
    for kind, z, centers in _bump_cases(m, rng):
        term = _bump_poly_term(centers, 0.4, coeffs, mons)
        want = _oracle_bump_poly(z, centers, 0.4, coeffs, mons)
        for _ in range(2):
            g, h = term["grad"](z), term["hess"](z)
            assert _close(g, want[1], rel=1e-12) and _close(h, want[2], rel=1e-12), kind
            g[:] = np.nan
            h[:] = np.nan
        for w in rng.uniform(-0.3, 0.3, size=(12, m)):
            term["hess"](w)
        assert _close(term["value"](z), want[0]) and _close(term["grad"](z), want[1]), kind


@pytest.mark.parametrize("m", [1, 2, 3])
def test_bump_term_derivatives_match_central_differences_on_the_ramp(m):
    rng = np.random.default_rng(50 + m)
    mons = _monomials(m, max_degree=3, min_degree=0)
    coeffs = rng.standard_normal(len(mons))
    scale = 0.4
    for kind, z, centers in _bump_cases(m, rng, scale)[1:3]:
        term = _bump_poly_term(centers, scale, coeffs, mons)
        h = 1e-6
        fd_g = np.zeros(m)
        fd_h = np.zeros((m, m))
        for i in range(m):
            e = np.zeros(m)
            e[i] = h
            fd_g[i] = (term["value"](z + e) - term["value"](z - e)) / (2.0 * h)
            fd_h[:, i] = (term["grad"](z + e) - term["grad"](z - e)) / (2.0 * h)
        g, hs = term["grad"](z), term["hess"](z)
        assert np.abs(g).max() > 1.0, kind  # the ramp term dominates
        assert np.allclose(g, fd_g, rtol=1e-6, atol=1e-6 * np.abs(g).max()), kind
        assert np.allclose(hs, fd_h, rtol=1e-6, atol=1e-6 * np.abs(hs).max()), kind


@pytest.mark.parametrize("m", [1, 2, 3])
def test_single_center_bump_of_the_base_stage_matches_the_oracle(m):
    # the base stage bumps one center at the origin with a degree 1..3 polynomial
    rng = np.random.default_rng(60 + m)
    mons = _monomials(m, max_degree=3, min_degree=1)
    coeffs = rng.standard_normal(len(mons))
    scale = 2.0 * 0.45
    centers = [np.zeros(m)]
    term = _bump_poly_term(centers, scale, coeffs, mons)
    for t in (0.0, 0.2, 0.5, 0.505, 0.52, 0.549, 0.55, 0.8):
        z = t * scale * _unit(rng, m)
        want = _oracle_bump_poly(z, centers, scale, coeffs, mons)
        got = (term["value"](z), term["grad"](z), term["hess"](z))
        for a, b in zip(got, want):
            assert _close(a, b), t


def test_equiperturb_doctest():
    results = doctest.testmod(equiperturb)
    assert results.failed == 0
    assert results.attempted >= 1
