"""Sampled symplectic paths, their nullity and their Conley-Zehnder index by winding.

Paths that split into planar blocks (all catalog linearizations do) get an
exact index: the polar winding stays within pi/2 of the true rotation number,
and the endpoint pins the rotation number mod 2pi, so snapping is exact.
Coupled blocks in dimension four and up fall back to parity-correct rounding
of the polar winding.

The iteration theory of a germ's rest point (the index of every iterate, the
good and admissible verdicts and the mean index) comes from Bott's twisted
blocks, `dact.bott_data`.  `cz_index` is the route it is checked against: a
winding number, or at a degenerate endpoint the index of the whole iterate's
Hessian rather than its blocks.
"""
from __future__ import annotations

import math

import numpy as np

from .config import _integer, standard_symplectic, symplectic_residual, tol
from .errors import DegeneracyError, ResolutionError, ValidationError

MAX_SAMPLES = 1 << 14


class SymplecticPath:
    """Sampled path in Sp(2n) starting at the identity.

    source, when present, is a callable t -> M(t) used for refinement.  germ
    and periods tie the path to a Hamiltonian linearization so a degenerate
    endpoint can be graded through the discrete-action route.
    """

    def __init__(self, n, samples, source=None, germ=None, periods=None):
        self.n = _integer(n, "half-dimension n")
        self.samples = [(float(t), np.asarray(M, dtype=float)) for t, M in samples]
        self.samples.sort(key=lambda p: p[0])
        self.source = source
        self.germ = germ
        self.periods = periods
        if len(self.samples) < 1:
            raise ValidationError("path needs at least one sample")
        t0, M0 = self.samples[0]
        if t0 != 0.0 or np.abs(M0 - np.eye(2 * self.n)).max() > tol("symplectic_sample"):
            raise ValidationError("path must start at the identity at t = 0")
        for t, M in self.samples:
            if M.shape != (2 * self.n, 2 * self.n):
                raise ValidationError(f"sample at t={t} has shape {M.shape}")
        res = symplectic_residual(np.stack([M for _, M in self.samples]))
        bad = res > tol("symplectic_sample")
        if bad.any():
            i = int(bad.argmax())
            raise ValidationError(f"sample at t={self.samples[i][0]} has symplectic residual "
                                  f"{res[i]:.2e}")

    @property
    def T(self) -> float:
        return self.samples[-1][0]

    def endpoint(self) -> np.ndarray:
        return self.samples[-1][1]

    @classmethod
    def from_function(cls, n, fn, T, num=129, **kw):
        ts = np.linspace(0.0, float(T), num)
        return cls(n, [(t, fn(t)) for t in ts], source=fn, **kw)

    @classmethod
    def from_generator_matrix(cls, B, T, num=None, **kw):
        """Path exp(tB) for a Hamiltonian matrix B (J0 B symmetric)."""
        B = np.asarray(B, dtype=float)
        n = B.shape[0] // 2
        J = standard_symplectic(n)
        if np.abs(J @ B - (J @ B).T).max() > 1e-9 * max(1.0, np.abs(B).max()):
            raise ValidationError("generator is not a Hamiltonian matrix")
        if num is None:
            num = max(33, int(32 * float(T)) + 1)
        from scipy.linalg import expm

        return cls.from_function(n, lambda t: expm(t * B), T, num=num, **kw)

    def refined(self):
        """The path resampled from its source at half the sample spacing, at
        most MAX_SAMPLES samples."""
        if self.source is None:
            raise ResolutionError(
                f"samples too coarse; resample with at least {2 * len(self.samples)} points")
        num = min(MAX_SAMPLES, 2 * (len(self.samples) - 1) + 1)
        ts = np.linspace(0.0, self.T, num)
        return SymplecticPath(self.n, [(t, self.source(t)) for t in ts],
                              source=self.source, germ=self.germ, periods=self.periods)


def nullity(M) -> int:
    """dim ker(M - I), singular values of M - I below tol("eig_threshold").

    The cut is absolute, not scaled by |M|, so the count adds over direct
    sums: the singular values of a block-diagonal M - I are those of its
    blocks.  A cut scaled by |M| counted a block's 1.5e-8 as nonzero alone
    and as zero beside a block of norm e.  The rounding of M - I, about
    eps |M|, stays far below the cut for the |M| up to 1e4 of the long
    hyperbolic iterates.
    """
    M = np.asarray(M, dtype=float)
    sv = np.linalg.svd(M - np.eye(M.shape[0]), compute_uv=False)
    return int(np.sum(sv < tol("eig_threshold")))


def _polar_angle_full(M: np.ndarray) -> complex:
    """det over C of the unitary polar part, as a unit complex number."""
    n = M.shape[0] // 2
    U, _, Vt = np.linalg.svd(M)
    Q = U @ Vt
    A, B = Q[:n, :n], Q[n:, :n]
    if max(np.abs(Q[:n, n:] + B).max(), np.abs(Q[n:, n:] - A).max()) > 1e-6:
        raise ValidationError("polar part is not symplectic-orthogonal; input path corrupt")
    d = np.linalg.det(A + 1j * B)
    return d / abs(d)


def _winding(dets) -> float:
    """Total winding of a list of unit complex numbers; steps must stay under pi/2."""
    w = 0.0
    for a, b in zip(dets, dets[1:]):
        step = np.angle(b / a)
        if abs(step) >= 0.5 * np.pi:
            raise ResolutionError("refine")
        w += step
    return float(w)


def _components(path: SymplecticPath):
    """Partition of {0..n-1} into blocks never coupled by any sample."""
    n = path.n
    adj = [[False] * n for _ in range(n)]
    for _, M in path.samples:
        for i in range(n):
            for j in range(i + 1, n):
                rows = np.ix_([i, n + i], [j, n + j])
                cols = np.ix_([j, n + j], [i, n + i])
                if np.abs(M[rows]).max() > 1e-10 or np.abs(M[cols]).max() > 1e-10:
                    adj[i][j] = adj[j][i] = True
    seen, comps = set(), []
    for i in range(n):
        if i in seen:
            continue
        stack, comp = [i], []
        seen.add(i)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in range(n):
                if adj[v][u] and u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def _sub_samples(path: SymplecticPath, comp):
    n = path.n
    idx = [i for i in comp] + [n + i for i in comp]
    return [(t, M[np.ix_(idx, idx)]) for t, M in path.samples]


def _planar_cz(samples) -> int:
    thetas = [math.atan2(M[1, 0] - M[0, 1], M[0, 0] + M[1, 1]) for _, M in samples]
    dets = [complex(math.cos(t), math.sin(t)) for t in thetas]
    w = _winding(dets)
    M = samples[-1][1]
    trace = M[0, 0] + M[1, 1]
    if trace >= 2.0:
        r = 0.0
        odd = False
    elif trace > -2.0:
        sigma = 1.0 if (M[1, 0] - M[0, 1]) > 0 else -1.0
        r = sigma * math.acos(max(-1.0, min(1.0, trace / 2.0)))
        odd = True
    else:
        r = math.pi
        odd = True
    rho = w + ((r - w + math.pi) % (2 * math.pi)) - math.pi
    x = rho / math.pi
    if odd:
        return 2 * round((x - 1.0) / 2.0) + 1
    return 2 * round(x / 2.0)


def _fallback_cz(samples, n) -> int:
    dets = [_polar_angle_full(M) for _, M in samples]
    w = _winding(dets) / math.pi
    M = samples[-1][1]
    parity = n % 2 if np.linalg.det(np.eye(2 * n) - M) > 0 else (n + 1) % 2
    cand = round(w)
    if cand % 2 != parity:
        cand = cand + 1 if w > cand else cand - 1
    return int(cand)


def _cz_nondegenerate(path: SymplecticPath) -> int:
    if nullity(path.endpoint()) > 0:
        raise DegeneracyError("endpoint has eigenvalue 1")
    attempt = path
    while True:
        try:
            total = 0
            for comp in _components(attempt):
                sub = _sub_samples(attempt, comp)
                if len(comp) == 1:
                    total += _planar_cz(sub)
                else:
                    total += _fallback_cz(sub, len(comp))
            return total
        except ResolutionError:
            if attempt.source is None or len(attempt.samples) >= MAX_SAMPLES:
                raise ResolutionError(
                    f"samples too coarse for crossing detection; resample with at least "
                    f"{2 * len(attempt.samples)} points") from None
            attempt = attempt.refined()


def cz_index(path: SymplecticPath) -> int:
    """Conley-Zehnder index; rotation by 2*pi*alpha over one period has index
    2*floor(alpha)+1, the constant identity path has index -n, and degenerate
    endpoints take the lower-semicontinuous value through the discrete action."""
    I = np.eye(2 * path.n)
    if all(np.abs(M - I).max() <= tol("symplectic_sample") for _, M in path.samples):
        return -path.n
    if nullity(path.endpoint()) == 0:
        return _cz_nondegenerate(path)
    if path.germ is None or path.periods is None:
        raise ValidationError(
            "degenerate endpoint: lower-semicontinuous index needs a Hamiltonian "
            "linearization source")
    from . import dact

    N = dact.minimal_adapted_steps(path.germ)
    da = dact.DiscreteAction(path.germ, path.periods, N)
    idx = dact.index_of_quadratic_action(da)
    return idx - path.n * path.periods * N
