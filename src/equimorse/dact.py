"""Discrete action functionals for Hamiltonian germs under cyclic symmetry.

The functional on R^{2nkN} is A(z) = sum_i x_i (y_{i+1} - y_i) + S_i(x_i, y_{i+1})
with indices mod kN and the step generating functions S_i repeating with
period N.  The last N slots moving to the front generates the Z_k symmetry.

Each S_i comes from the action identity of hamflow.GeneratingFunction,
S_i(x, Y) = x . (y - Y) + int (x . ydot + H_t) dt along the solved substep
trajectory from (x, y) to (X, Y), under the sign convention
i_{X_H} omega0 = dH.  One graph solve per slot therefore gives the value,
the gradient and the Hessian of A together (`evaluate`).

At 0 the Hessian splits over the roots omega^k = 1 into the twisted one-period
blocks `hessian_at_zero(da, omega)` (Bott's iteration formula: Bott 1956; Long
2002, ch. 9-10).  `bott_data` reads the iteration theory of the rest point
from the blocks of one period: the Conley-Zehnder index of every iterate, the
good and admissible verdicts and the mean index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .config import _integer, lockstep_newton, row_dots, row_lstsq, rows_or_errors, tol
from .errors import (
    AmbiguityError,
    ConfigurationError,
    DomainError,
    ResolutionError,
    ShapeError,
    TrustRegionError,
    ValidationError,
)
from .hamflow import (
    FlowMap,
    GeneratingFunction,
    HamiltonianGerm,
    flow_chain,
    hessian_S_at_zero,
    integrate_flow,  # noqa: F401  (perfbench/selftest.py checks this binding)
    steps_graph_positive,
)


def _step_refusal(germ: HamiltonianGerm, N: int):
    """Why N fails the step condition of germ, or None where it passes.

    steps_graph_positive decides it once per germ instance and N; the
    verdict is kept on the germ, as the link Jacobians it reads are.
    """
    verdicts = germ._step_verdicts
    if N not in verdicts:
        verdicts[N] = None if steps_graph_positive(germ, N) else (
            f"N = {N}: some substep family crosses the graph-condition boundary; increase N")
    return verdicts[N]


_MAX_STEPS = 64  # the largest N that minimal_adapted_steps tries


def minimal_adapted_steps(germ: HamiltonianGerm) -> int:
    """Smallest N whose substep family passes the step condition."""
    for N in range(1, _MAX_STEPS + 1):
        if _step_refusal(germ, N) is None:
            return N
    raise ResolutionError(f"no adapted N up to {_MAX_STEPS}")


@dataclass(frozen=True)
class DiscreteAction:
    """The functional A for a germ, iterate count k, and N steps per period.

    >>> da = DiscreteAction(HamiltonianGerm.zero(1), 1, 3)
    >>> da.dim
    6
    >>> index_of_quadratic_action(da)
    2
    """
    germ: HamiltonianGerm
    k: int
    N: int

    def __post_init__(self):
        object.__setattr__(self, "k", _integer(self.k, "iterate count k", ConfigurationError))
        object.__setattr__(self, "N", _integer(self.N, "step count N", ConfigurationError))
        if self.k < 1 or self.N < 1:
            raise ConfigurationError("k and N must be positive integers")
        refusal = _step_refusal(self.germ, self.N)
        if refusal is not None:
            raise ConfigurationError(refusal)

    @property
    def n(self) -> int:
        return self.germ.n

    @property
    def slots(self) -> int:
        return self.k * self.N

    @property
    def dim(self) -> int:
        return 2 * self.n * self.slots

    @cached_property
    def S_list(self):
        return tuple(
            GeneratingFunction(FlowMap(self.germ, i / self.N, (i + 1) / self.N))
            for i in range(self.N))

    def step_gf(self, i: int) -> GeneratingFunction:
        return self.S_list[i % self.N]


def shift_matrix(da: DiscreteAction) -> np.ndarray:
    """Permutation moving the last N slots to the front."""
    return np.roll(np.eye(da.dim), 2 * da.n * da.N, axis=0)


def evaluate(da: DiscreteAction, z, value: bool = True):
    """(A(z), grad A(z), D^2 A(z)) from one graph solve per slot.

    z is one point (dim,) or a batch (P, dim); a batch gives (P,), (P, dim)
    and (P, dim, dim).  Every slot of every row is solved in one stacked
    solve_slot, so each graph-Newton iteration integrates one stacked flow.
    Slot i steps over the substep i mod N, which is the first substep
    [0, 1/N] of the germ shifted in time by (i mod N)/N; the stack flows over
    [0, 1/N] and the rows of slot i carry that shift (see integrate_flow).
    The graph Newton of slot i starts at the point's own y_i.  Its solution
    y'_i of psi(x_i, y'_i) = (X, y_{i+1}) satisfies y'_i - y_i = dA/dx_i
    (the x_i-block of grad A below), so the start is exact at a critical
    point and at every unbroken slot of a seed chain, and off by the
    gradient elsewhere.  A(z) is None when value is unset; the flows then
    skip the action integral.  Raises ShapeError for points of the wrong length and
    DomainError for a row that is not finite.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != da.dim:
        raise ShapeError(f"points of the discrete action have length {da.dim}, "
                         f"got an array of shape {z.shape}")
    Z = z.reshape(-1, da.dim)
    bad = ~np.isfinite(Z).all(axis=1)
    if bad.any():
        raise DomainError(f"point {int(bad.argmax())} is not finite")
    n, P, slots = da.n, len(Z), da.slots
    pairs = Z.reshape(P, slots, 2, n)
    xs, ys = pairs[:, :, 0], pairs[:, :, 1]
    ys1 = np.roll(ys, -1, axis=1)  # y_{i+1}, indices mod kN
    shift = np.tile(np.arange(slots) % da.N / da.N, P)
    S, gS, HS = da.S_list[0].solve_slot(xs.reshape(-1, n), ys1.reshape(-1, n), value=value,
                                        shift=shift, start=ys.reshape(-1, n))
    S = S.reshape(P, slots) if value else None
    gS, HS = gS.reshape(P, slots, 2 * n), HS.reshape(P, slots, 2 * n, 2 * n)
    total = np.zeros(P) if value else None
    g = np.zeros((P, da.dim))
    for i in range(slots):
        xi, yi, yi1 = xs[:, i], ys[:, i], ys1[:, i]
        if value:
            total += row_dots(xi, yi1 - yi) + S[:, i]
        bx = 2 * n * i
        by1 = 2 * n * ((i + 1) % slots) + n
        g[:, bx:bx + n] += (yi1 - yi) + gS[:, i, :n]
        g[:, bx + n:bx + 2 * n] += -xi
        g[:, by1:by1 + n] += xi + gS[:, i, n:]
    H = _assemble_hessian(da, HS)
    if z.ndim == 1:
        return (None if total is None else float(total[0])), g[0], H[0]
    return total, g, H


def gradient(da: DiscreteAction, z) -> np.ndarray:
    return evaluate(da, z, value=False)[1]


def _assemble_hessian(da: DiscreteAction, blocks, omega=1.0) -> np.ndarray:
    # blocks[..., i, :, :] = D^2 S_i at the step's own point, acting on
    # (x_i, y_{i+1}); leading batch axes carry through to the result
    n, dim = da.n, da.dim
    blocks = np.asarray(blocks)
    H = np.zeros(blocks.shape[:-3] + (dim, dim), dtype=np.result_type(blocks, omega))
    eye = np.eye(n)
    for i in range(da.slots):
        bx = 2 * n * i
        byy = bx + n
        by1 = 2 * n * ((i + 1) % da.slots) + n
        B = blocks[..., i, :, :]
        w = omega if i == da.slots - 1 else 1.0
        H[..., bx:bx + n, bx:bx + n] += B[..., :n, :n]
        H[..., bx:bx + n, by1:by1 + n] += w * (B[..., :n, n:] + eye)
        H[..., by1:by1 + n, bx:bx + n] += np.conj(w) * (B[..., n:, :n] + eye)
        H[..., by1:by1 + n, by1:by1 + n] += B[..., n:, n:]
        H[..., bx:bx + n, byy:byy + n] += -eye
        H[..., byy:byy + n, bx:bx + n] += -eye
    return H


def hessian_at_zero(da: DiscreteAction, omega=1.0) -> np.ndarray:
    """D^2 A(0) with the coupling of x_{kN-1} to y_0 multiplied by omega, a
    point of the unit circle, and its transpose by conj(omega).

    omega = 1 gives D^2 A(0) itself and omega = -1 a real matrix; any other
    omega gives a complex Hermitian one.
    """
    blocks = [hessian_S_at_zero(da.step_gf(i)) for i in range(da.slots)]
    return _assemble_hessian(da, blocks, omega)


def hessian_at(da: DiscreteAction, z) -> np.ndarray:
    return evaluate(da, z, value=False)[2]


def _signature_counts(eigs: np.ndarray):
    """(negative, zero, positive) with the 1e-8 threshold relative to the
    largest magnitude or to 1, whichever is larger: 1 is the scale of the
    coupling x_i (y_{i+1} - y_i), whose entries -1 sit in every Hessian of two
    or more slots.  Eigenvalues inside the band [thr / 10, 10 thr) are
    refused, on either side of the cut: the integer invariants must not
    depend on it.
    """
    eigs = np.asarray(eigs, dtype=float)
    mags = np.abs(eigs)
    thr = tol("eig_threshold") * max(mags.max(initial=0.0), 1.0)
    if np.any((mags >= thr / 10) & (mags < 10 * thr)):
        raise AmbiguityError(
            "eigenvalue magnitudes fall inside the threshold band; the "
            "signature is not trustworthy at this resolution")
    neg = int(np.sum(eigs <= -thr))
    zero = int(np.sum(mags < thr))
    return neg, zero, eigs.size - neg - zero


def index_of_quadratic_action(da: DiscreteAction) -> int:
    """Morse index of 0; equals the Conley-Zehnder index plus n k N."""
    neg, _, _ = _signature_counts(np.linalg.eigvalsh(hessian_at_zero(da)))
    return neg


def nullity_at_zero(da: DiscreteAction) -> int:
    _, zero, _ = _signature_counts(np.linalg.eigvalsh(hessian_at_zero(da)))
    return zero


def _roots(k: int) -> np.ndarray:
    """The k-th roots of unity, omega = 1 first."""
    if k < 1:
        raise ValidationError("k must be positive")
    return np.exp(2j * np.pi * np.arange(k) / k)


def _omega_index(action: DiscreteAction, omega):
    neg, zero, _ = _signature_counts(np.linalg.eigvalsh(hessian_at_zero(action, omega)))
    return neg - action.n * action.N, zero


@dataclass(frozen=True)
class BottData:
    """Bott's iteration data of the rest point 0, read from the twisted blocks
    H_omega = hessian_at_zero(action, omega) of the one-period action.

    jumps are the angles / 2 pi in [0, 1) of the monodromy's eigenvalues on
    the unit circle, the only omega where H_omega is singular.  arcs are
    (start, end, index) for the arcs between consecutive jumps, in turns (the
    last one wraps past 1), each with the index of its midpoint block; the
    index is constant on an arc.  mean_index is the length-weighted sum of
    the arcs' indices, the mean of index(omega) over the circle.
    """
    action: DiscreteAction
    jumps: tuple
    arcs: tuple
    mean_index: float

    def index(self, omega):
        """(index H_omega - nN, nullity H_omega); AmbiguityError for an
        eigenvalue inside the threshold band."""
        return _omega_index(self.action, omega)

    def cz(self, k: int) -> int:
        """Conley-Zehnder index of the k-th iterate (lower semicontinuous
        where it is degenerate): index(omega) summed over omega^k = 1."""
        return sum(self.index(w)[0] for w in _roots(k))

    def admissible(self, k: int) -> bool:
        """H_omega is nondegenerate at every omega^k = 1 other than 1."""
        return all(self.index(w)[1] == 0 for w in _roots(k)[1:])

    def good(self, k: int) -> bool:
        """cz(k) and cz(1) have equal parity: conjugate roots carry equal
        indices, so k is odd or index(-1) is even."""
        return _roots(k).size % 2 == 1 or self.index(-1.0)[0] % 2 == 0


def bott_data(germ: HamiltonianGerm, N: int | None = None) -> BottData:
    """BottData of germ from its one-period action with N steps, by default
    minimal_adapted_steps.

    Eigenvalues of the monodromy within tol("eig_threshold") of the unit
    circle give the jumps, and angles that close in turns are one jump; the
    monodromy is the product of the N substep Jacobians at 0 that the blocks
    read.  Raises ValidationError where a jump's block is nondegenerate, and
    AmbiguityError where an arc's midpoint block is degenerate: the arc lies
    between eigenvalues too close to resolve, or the blocks miss one.

    >>> bd = bott_data(HamiltonianGerm.rotation(0.3))
    >>> [round(t, 9) for t in bd.jumps], round(bd.mean_index, 9), bd.cz(1), bd.cz(4)
    ([0.3, 0.7], 0.6, 1, 3)
    """
    action = DiscreteAction(germ, 1, minimal_adapted_steps(germ) if N is None else N)
    thr = tol("eig_threshold")
    monodromy = reduce(np.matmul, [gf.psi.jacobian_at_zero for gf in reversed(action.S_list)])
    lam = np.linalg.eigvals(monodromy)
    jumps = []
    for t in np.sort(np.angle(lam[np.abs(np.abs(lam) - 1.0) < thr]) / (2 * np.pi) % 1.0):
        if not jumps or t - jumps[-1] >= thr:
            jumps.append(float(t))
    if len(jumps) > 1 and jumps[0] + 1.0 - jumps[-1] < thr:
        jumps.pop()
    for t in jumps:
        if _omega_index(action, np.exp(2j * np.pi * t))[1] == 0:
            raise ValidationError(f"H_omega is nondegenerate at the jump {t:.12g} turns, "
                                  "an eigenvalue of the monodromy")
    ends = jumps + [jumps[0] + 1.0] if jumps else [0.0, 1.0]
    arcs = []
    for a, b in zip(ends, ends[1:]):
        index, zero = _omega_index(action, np.exp(1j * np.pi * (a + b)))
        if zero:
            raise AmbiguityError(f"H_omega is degenerate at {(a + b) / 2 % 1.0:.12g} turns, "
                                 "between eigenvalues of the monodromy")
        arcs.append((a, b, index))
    return BottData(action, tuple(jumps), tuple(arcs),
                    float(sum((b - a) * index for a, b, index in arcs)))


@dataclass
class CriticalPoint:
    z: np.ndarray
    residual: float
    converged: bool
    seeds: list
    message: str = ""
    morse_index: int | None = None
    nullity: int | None = None
    orbit: np.ndarray | None = None


def seed_from_point(da: DiscreteAction, w) -> np.ndarray:
    """Seed vector whose slots chain w through the substep flows.

    w is one point (2n,) or a batch (P, 2n); a batch gives (P, dim), its
    rows chained through each substep as one stacked flow by
    hamflow.flow_chain, with every check of integrate_flow on every slot.
    The first substep tries its whole span as its first step and every later
    one starts at the step that the flow before it proposed, so no substep
    restarts at the whole span.  The rows share the adaptive steps of each
    flow, so a row depends on its batch mates below the ODE tolerance; a
    batch of one is the one-point seed.

    The closing slot kN - 1 -> kN is not flowed: its image is no slot of
    the seed.  The first flow of that slot's graph solve in evaluate is the
    same flow, so a start whose closing step leaves the trust region gives
    a seed, and find_periodic_points reports the error for that seed alone.

    >>> da = DiscreteAction(HamiltonianGerm.rotation(0.3), 1, 2)
    >>> Z = seed_from_point(da, [[0.1, 0.0], [0.0, 0.05]])
    >>> Z.shape
    (2, 4)
    >>> c, s = math.cos(0.3 * math.pi), math.sin(0.3 * math.pi)
    >>> bool(np.allclose(Z[:, 2:], [[0.1 * c, 0.1 * s], [-0.05 * s, 0.05 * c]], atol=1e-12))
    True
    """
    w = np.asarray(w, dtype=float)
    b = 2 * da.n
    if w.ndim not in (1, 2) or w.shape[-1] != b:
        raise ShapeError(f"points of the phase space have length {b}, "
                         f"got an array of shape {w.shape}")
    times = [i / da.N for i in range(da.slots)]
    z = flow_chain(da.germ, times, w.reshape(-1, b)).reshape(-1, da.dim)
    return z[0] if w.ndim == 1 else z


def _newton_steps(g, H):
    """Per row, np.linalg.solve(h, g) where cond h < 1e12 and
    np.linalg.lstsq(h, g, rcond=None)[0] elsewhere, in stacked calls; each
    stacked call is bitwise the one-matrix call on every row."""
    step = np.empty(g.shape)
    well = np.linalg.cond(H) < 1e12
    if well.any():
        step[well] = np.linalg.solve(H[well], g[well][:, :, None])[:, :, 0]
    step[~well] = row_lstsq(H[~well], g[~well])
    return step


def find_periodic_points(da: DiscreteAction, seeds):
    """Newton on the gradient from each seed; deduplicated by shift orbit.

    config.lockstep_newton runs 50 iterations, each one `evaluate` pass (one
    stacked graph solve over every slot) over the seeds still active and one
    stacked _newton_steps call over the rows not yet converged.  Each slot's
    graph Newton starts at the iterate's own y_i, off its solution by
    exactly dA/dx_i (y'_i - y_i = dA/dx_i, see evaluate); after one Newton
    step that gradient, and with it the start error, is quadratically
    small, so late passes take few flows per graph solve.  A seed
    whose point raises DomainError or TrustRegionError reports the message
    it would get alone while its batch mates go on.  Non-convergence is
    reported per seed, not raised: a seed still active after 50 steps
    reports the residual of one more pass at its last point, inf if that
    point fails.  The rows share the adaptive steps of the stacked flows, so
    a seed's point depends on its batch mates below the ODE tolerance; a
    single seed is the one-seed Newton.

    Converged points carry the orbit samples and local Morse data, which
    reuse the H of their last step; they are deduplicated in seed order.
    Raises ShapeError, naming the seed, for a seed of the wrong length.
    """
    seeds = [np.asarray(seed, dtype=float) for seed in seeds]
    for si, seed in enumerate(seeds):
        if seed.size != da.dim:
            raise ShapeError(f"seed {si}: points of the discrete action have length "
                             f"{da.dim}, got an array of shape {seed.shape}")
    if not seeds:
        return []

    def residual(rows, Z):
        return evaluate(da, Z, value=False)[1:]

    fails = (DomainError, TrustRegionError)
    Z, converged, errors, kept = lockstep_newton(
        residual, [seed.reshape(da.dim) for seed in seeds], _newton_steps, tol("newton_grad"), 50,
        retry=fails)
    res = [float(np.linalg.norm(kept[0][i])) if ok else math.inf for i, ok in enumerate(converged)]
    rest = np.flatnonzero([exc is None and not ok for exc, ok in zip(errors, converged)])
    if len(rest):
        # the residual after the last step; inf where that point fails
        last, failed = rows_or_errors(residual, rest, Z[rest], fails)
        answered = [si for i, si in enumerate(rest.tolist()) if i not in failed]
        for si, g in zip(answered, last[0] if last else ()):
            res[si] = float(np.linalg.norm(g))
    results: list[CriticalPoint] = []
    tau = shift_matrix(da)
    for si, exc in enumerate(errors):
        if not converged[si]:
            message = "no convergence in 50 steps" if exc is None else str(exc)
            results.append(CriticalPoint(Z[si].copy(), res[si], False, [si], message))
            continue
        images = [Z[si].copy()]
        for _ in range(da.k - 1):
            images.append(tau @ images[-1])
        twin = next((prev for prev in results if prev.converged and any(
            np.linalg.norm(z - prev.z) < tol("dedup") for z in images)), None)
        if twin is not None:
            twin.seeds.append(si)
            continue
        point = CriticalPoint(images[0], res[si], True, [si])
        try:
            point.morse_index, point.nullity, _ = _signature_counts(np.linalg.eigvalsh(kept[1][si]))
        except AmbiguityError as err:
            point.message = str(err)
        point.orbit = point.z.reshape(da.slots, 2 * da.n).copy()
        results.append(point)
    return results
