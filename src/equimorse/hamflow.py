"""Hamiltonian germs, their flows with Jacobians, and generating functions.

Sign convention (see config.SIGN_CONVENTION): X_H = -J0 grad H, so
xdot = dH/dy, ydot = -dH/dx.  Every germ is polynomial with monomials of
total degree >= 2 and 1-periodic time factors, hence 0 is a rest point.

Every ODE of the package (lochom and equiperturb included) is integrated by
the package's own numpy DOP853, ode.dop853, which this module names as
dop853 so that tests can count its solves.  No flow loads scipy: scipy.linalg
loads on the first spindex.SymplecticPath.from_generator_matrix call, and
nothing else loads scipy.  Every Jacobian at 0 is a product of links that
integrate_flow integrates at z = 0 from the identity (_zero_links).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .config import (
    DEFAULT_TRUST_RADIUS,
    _integer,
    lockstep_newton,
    row_dots,
    row_norms,
    standard_symplectic,
    symplectic_residual,
    tol,
)
from .errors import (
    ConfigurationError,
    DomainError,
    ResolutionError,
    ShapeError,
    StiffnessError,
    TrustRegionError,
    ValidationError,
)
from .ode import EXITED, REACHED, dop853


# time mode -> its 1-periodic factor f(2 pi freq t); a constant mode has none
_MODES = {"const": None, "cos": math.cos, "sin": math.sin}


@dataclass(frozen=True)
class Term:
    """One monomial c * z^m * f(t) with f(t) in {1, cos(2 pi freq t), sin(2 pi freq t)}."""
    c: float
    m: tuple
    mode: str = "const"
    freq: int = 1


def _exponents(m, d: int, error) -> tuple:
    """The exponents of one monomial on R^d as a tuple of d nonnegative ints.

    HamiltonianGerm and lochom.FunctionSpec check their terms here, each
    raising its own error type, before their monomial kernels are built.
    """
    m = tuple(_integer(e, "monomial exponent", error) for e in m)
    if len(m) != d or any(e < 0 for e in m):
        raise error(f"monomial exponents {m} must be {d} nonnegative integers")
    return m


def _json_object(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise ConfigurationError(f"{what} must be an object, got {x!r}")
    return x


@dataclass(frozen=True)
class _Kernel:
    """The package's one polynomial kernel: a monomial table and its weights.

    Built by _polynomial_kernel, it evaluates every polynomial of the
    package: the germs of HamiltonianGerm.jet and the flow right-hand side,
    lochom.FunctionSpec, and the polynomial factor of equiperturb's bump
    terms.  Row r is one monomial prod_i z_i^e_ri times the time factor of
    mode mode_of[r], one row per distinct (exponents, time mode) among the
    polynomial and its first and second partial derivatives.  The power
    table holds z_i^p at [i, p], so flat[r, i] = i * (degree + 1) + e_ri.
    W[k, r] is the sum of coefficient times derivative multiplicity with
    which row r enters output k: 0..d-1 are the gradient, d + j d + l is the
    (j, l) entry of the Hessian and the last one, d + d^2, is the value.
    Since the rows (j, l) and (l, j) of W are equal, so are the Hessian
    entries.  The value comes last: W has an odd number 1 + d + d^2 of rows,
    so a blocked matrix-vector product over all rows but the last (the flow
    without its action integral) groups, and rounds, each of them as the
    product over all rows does.
    """
    flat: np.ndarray  # (R, d)
    degree: int  # the largest exponent
    mode_of: np.ndarray  # (R,)
    times: tuple  # (f or None, 2 pi freq) per distinct time mode
    W: np.ndarray  # (d + d^2 + 1, R)

    def mode_factors(self, t: float) -> np.ndarray:
        """The factor of every distinct time mode at time t."""
        return np.array([1.0 if f is None else f(w * t) for f, w in self.times])

    def time_factors(self, t: float) -> np.ndarray:
        """(R,): the time factor of every row at time t."""
        return self.mode_factors(t)[self.mode_of]

    def power_table(self, P: int) -> np.ndarray:
        """A (P, d, degree + 1) power table for monomials, column 0 ones."""
        table = np.empty((P, self.flat.shape[1], self.degree + 1))
        table[:, :, 0] = 1.0
        return table

    def monomials(self, Z, table=None) -> np.ndarray:
        """(P, R): the monomial of every row at every point of Z (P, d).

        z_i^p is the running product 1 * z_i * ... * z_i and a row multiplies
        the powers of its coordinates from z_0 to z_{d-1}, so every entry is
        the left fold of float products, with no pow call whose rounding
        depends on the library or its SIMD dispatch.  table, a power_table(P)
        that a caller keeps between calls, is refilled and folded in place;
        without it a new one is built.
        """
        P, d = Z.shape
        if table is None:
            table = self.power_table(P)
        table[:, :, 1:] = Z[:, :, None]
        powers = np.multiply.accumulate(table, axis=2, out=table).reshape(P, -1)
        out = powers[:, self.flat[:, 0]]
        for i in range(1, d):
            out *= powers[:, self.flat[:, i]]
        return out

    def jet(self, z, factors=None):
        """(value, gradient, Hessian) at one point (d,) or at every row of a batch (P, d).

        factors holds the time factor of every row (time_factors); without
        it every factor is 1, as for a polynomial of constant terms.  One
        power table, one gather and product per monomial row and one
        matrix-vector product per point, so a row's jet does not depend on
        its batch mates.  One point is a batch of one and gives (float, (d,),
        (d, d)); a batch gives ((P,), (P, d), (P, d, d)).
        """
        d = self.flat.shape[1]
        z = np.asarray(z, dtype=float)
        Z = z.reshape(-1, d)
        rows = self.monomials(Z)
        if factors is not None:
            rows = rows * factors
        out = (self.W @ rows[:, :, None])[:, :, 0]
        grad, hess, H = out[:, :d], out[:, d:-1].reshape(-1, d, d), out[:, -1]
        if z.ndim == 1:
            return float(H[0]), grad[0], hess[0]
        return H, grad, hess


def _polynomial_kernel(d: int, terms) -> _Kernel:
    """The kernel of the polynomial sum c z^m f(t) on R^d.

    A term is (c, m) or (c, m, mode, freq), m a tuple of d nonnegative ints;
    a term without a time mode is constant.  HamiltonianGerm, FunctionSpec
    and equiperturb's bump terms build their kernels here, after their own
    checks of the terms.
    """
    mode_ids, rows, entries = {}, {}, []

    def add(out, exps, mode, coef):
        entries.append((out, rows.setdefault((exps, mode), len(rows)), coef))

    for c, m, *time in terms:
        kind, freq = time or ("const", 0)
        mode = mode_ids.setdefault((kind, freq if kind != "const" else 0), len(mode_ids))
        add(d + d * d, m, mode, c)
        for j in range(d):
            if not m[j]:
                continue
            mj = m[:j] + (m[j] - 1,) + m[j + 1:]
            add(j, mj, mode, c * m[j])
            for l in range(d):
                if mj[l]:
                    mjl = mj[:l] + (mj[l] - 1,) + mj[l + 1:]
                    add(d + j * d + l, mjl, mode, c * m[j] * mj[l])
    W = np.zeros((d + d * d + 1, len(rows)))
    for out, r, coef in entries:
        W[out, r] += coef
    exps = np.array([e for e, _ in rows], dtype=np.intp).reshape(len(rows), d)
    degree = int(exps.max(initial=0))
    times = tuple((_MODES[mode], 2.0 * math.pi * freq) for mode, freq in mode_ids)
    return _Kernel(flat=np.arange(d) * (degree + 1) + exps, degree=degree,
                   mode_of=np.array([mode for _, mode in rows], dtype=np.intp),
                   times=times, W=W)


@dataclass(frozen=True)
class HamiltonianGerm:
    """Polynomial Hamiltonian germ on R^{2n}, 1-periodic in t, dH_t(0) = 0.

    >>> g = HamiltonianGerm.rotation(0.25)
    >>> phi, dphi = integrate_flow(g, 0.0, 1.0, [0.1, 0.0])
    >>> bool(np.allclose(dphi, [[0.0, -1.0], [1.0, 0.0]], atol=1e-9))
    True
    """
    n: int
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "half-dimension n", ConfigurationError))
        if self.n < 1:
            raise ConfigurationError("half-dimension n must be positive")
        terms = []
        for term in self.terms:
            if not math.isfinite(term.c):
                raise ConfigurationError(f"coefficient {term.c!r} is not finite")
            m = _exponents(term.m, 2 * self.n, ConfigurationError)
            if sum(m) < 2:
                raise ConfigurationError("every monomial needs total degree >= 2")
            if not isinstance(term.mode, str) or term.mode not in _MODES:
                raise ConfigurationError(f"unknown time mode {term.mode!r}")
            freq = term.freq if term.mode == "const" else \
                _integer(term.freq, "time frequency", ConfigurationError)
            terms.append(Term(term.c, m, term.mode, freq))
        # exponents and frequencies as ints, so that equal germs compare equal
        object.__setattr__(self, "terms", tuple(terms))

    @classmethod
    def make(cls, n, terms):
        """Terms given as (c, exponents) or (c, exponents, mode) or (c, exponents, mode, freq)."""
        built = []
        for t in terms:
            c, m = t[0], tuple(t[1])
            mode = t[2] if len(t) > 2 else "const"
            freq = t[3] if len(t) > 3 else 1
            built.append(Term(float(c), m, mode, freq))
        return cls(n, tuple(built))

    @classmethod
    def rotation(cls, alpha: float):
        """H = -pi alpha |z|^2 on R^2; flow is the rotation by angle 2 pi alpha t."""
        a = -math.pi * alpha
        return cls.make(1, [(a, (2, 0)), (a, (0, 2))])

    @classmethod
    def zero(cls, n=1):
        return cls(n, ())

    @cached_property
    def _kernel(self) -> _Kernel:
        return _polynomial_kernel(2 * self.n, [(t.c, t.m, t.mode, t.freq) for t in self.terms])

    @cached_property
    def _link_jacobians(self) -> dict:
        """(t0, t1, count) -> the link Jacobians of _zero_links, kept so that
        each is integrated once per germ instance."""
        return {}

    @cached_property
    def _step_verdicts(self) -> dict:
        """N -> why N fails the step condition, or None where it passes;
        filled by dact, so that it runs once per germ instance and N."""
        return {}

    def jet(self, z, t: float):
        """(H_t, grad H_t, D^2 H_t) at one point (d,) or at every row of a batch (P, d).

        The germ's kernel (_Kernel.jet) with one time factor per distinct
        mode, so a row's jet does not depend on its batch mates.  One point
        gives (float, (d,), (d, d)); a batch gives ((P,), (P, d), (P, d, d)).

        >>> g = HamiltonianGerm.make(1, [(1.0, (3, 0)), (0.5, (1, 1), "cos", 2)])
        >>> H, grad, hess = g.jet([2.0, 1.0], 0.25)
        >>> H, grad.tolist(), hess.tolist()
        (7.0, [11.5, -1.0], [[12.0, -0.5], [-0.5, 0.0]])
        """
        k = self._kernel
        return k.jet(z, k.time_factors(t))

    def value(self, z, t: float) -> float:
        return self.jet(z, t)[0]

    def grad(self, z, t: float) -> np.ndarray:
        return self.jet(z, t)[1]

    def hess(self, z, t: float) -> np.ndarray:
        return self.jet(z, t)[2]

    def to_json(self) -> dict:
        out = []
        for term in self.terms:
            time = {"mode": term.mode}
            if term.mode != "const":
                time["freq"] = term.freq
            out.append({"c": term.c, "m": list(term.m), "time": time})
        return {"n": self.n, "terms": out}

    @classmethod
    def from_json(cls, data: dict):
        try:
            n = _integer(data["n"], "n", ConfigurationError)
            terms = []
            for raw in data["terms"]:
                raw = _json_object(raw, "term")
                time = _json_object(raw.get("time", {"mode": "const"}), "term time")
                terms.append(Term(float(raw["c"]), tuple(raw["m"]), time.get("mode", "const"),
                                  _integer(time.get("freq", 1), "time frequency",
                                           ConfigurationError)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed Hamiltonian description: {exc}") from exc
        return cls(n, tuple(terms))


# rows per stacked flow; the tolerances below shrink with the stack and the
# relative one stays above dop853's floor ode.RTOL_FLOOR = 100 eps at this size
_MAX_STACK = 1024


def _flow_rhs(germ: HamiltonianGerm, J: np.ndarray, rows: int, action: bool, shift=None):
    """Right-hand side of rows stacked flows, each with its Jacobian and, with
    action set, its action integral.

    One product of the germ's monomial kernel over all rows per evaluation
    gives -J grad H_t and -J D^2 H_t at every row, and H_t only with action
    set.  -J is a signed permutation, entry i of -J v being
    sign_i v_{source_i}; so the weights of the kernel's rows are negated
    where the sign is -1 and the product is read through one gather.  For one
    row that rounds exactly as -J @ grad and -J @ D^2H from
    HamiltonianGerm.jet; the rows of a stack share one matrix product, which
    may round each of them differently from its one-row product.  Row i
    reads the time factors of H at t + shift[i], and at t itself without a
    shift.

    The closure builds its gather, its weights, the time modes of its shifts
    and one power table once, and a call only does arithmetic.  The power
    table is refilled and folded in place (_Kernel.monomials) on every call;
    each call returns a new array, which no later call writes.
    """
    n = germ.n
    d = 2 * n
    k = germ._kernel
    width = d + d * d + int(action)
    minus_J = -J
    source = np.abs(minus_J).argmax(axis=1)
    sign = minus_J[np.arange(d), source]
    # -J grad H, the rows of -J D^2H, then H_t, as rows of the kernel's output
    read = np.concatenate([source, d + (source[:, None] * d + np.arange(d)).ravel(),
                           [d + d * d]])[:width]
    W = k.W[:width].copy()
    W[read[:d + d * d]] *= np.concatenate([sign, np.repeat(sign, d)])[:, None]
    WT = W.T
    table = k.power_table(rows)
    timed = any(f is not None for f, _ in k.times)
    factors = k.time_factors
    if timed and np.any(shift):
        offsets, group = np.unique(shift, return_inverse=True)
        modes = [(f, w, s) for s in offsets.tolist() for f, w in k.times]
        # (rows, R): where each row's time factors sit among those of the offsets
        where = group[:, None] * len(k.times) + k.mode_of

        def factors(t):
            return np.array([1.0 if f is None else f(w * (t + s)) for f, w, s in modes])[where]

    def rhs(t, y):
        Y = y.reshape(rows, width)
        z = Y[:, :d]
        Phi = Y[:, d:d + d * d].reshape(rows, d, d)
        # every factor of a germ without time modes is 1.0, whose product is
        # exact; the product must be a new array and not an in-place one,
        # whose memory order would change how the matrix product rounds
        terms = k.monomials(z, table) * factors(t) if timed else k.monomials(z, table)
        F = (terms @ WT)[:, read]
        parts = [F[:, :d], (F[:, d:d + d * d].reshape(rows, d, d) @ Phi).reshape(rows, d * d)]
        if action:
            # integrand of the action integral: x . ydot + H_t
            parts.append((row_dots(z[:, :n], F[:, n:d]) + F[:, -1])[:, None])
        return np.concatenate(parts, axis=1).ravel()

    return rhs


def integrate_flow(germ: HamiltonianGerm, t0: float, t1: float, z, radius=None,
                   action: bool = False, shift=None):
    """Flow z from time t0 to t1; returns (phi(z), dphi(z)).

    z is one point (d,) or a batch (P, d) whose rows are flowed together as
    one stacked state, up to _MAX_STACK rows per integration; a batch gives
    (P, d) images and (P, d, d) Jacobians.  The package's own DOP853
    (ode.dop853, bitwise scipy's DOP853 at the same tolerances and first
    step) controls the step by an RMS error norm over the whole stacked
    state, so the tolerances of a stack of P rows are rtol = 1e-12 / sqrt(P)
    and atol = 1e-13 / sqrt(P), which bound each row's error norm by that of
    its flow alone.  The rows share the adaptive steps, so a row's result
    depends on its batch mates below the ODE tolerance; a batch of one is
    the one-point flow.

    Each integration tries the whole span |t1 - t0| as its first step, as
    scipy's first_step would, and keeps it only if it passes the error test:
    a slow flow takes one step (13 RHS calls), while a fast one pays one
    rejected step (12 RHS calls) before the controller shrinks the step to
    its usual size.  Flows that run back to back, as the slots of a seed,
    go through flow_chain instead, which starts each flow after the first at
    the step that its predecessor's controller proposed.  The trust radius
    is read at the end of every accepted step, so an excursion out of the
    ball and back within one accepted step goes unseen; a long step is
    accepted only where the flow is slow and smooth over it, and an orbit
    that turns out of the ball and back within the span is still caught
    (see the tests).

    shift, one start-time shift per row, lets one stack hold flows over
    different time intervals: row i is flowed from t0 + shift[i] to
    t1 + shift[i].  The stack integrates over [t0, t1], and row i reads the
    time factors of H_t at t + shift[i]; a row with shift 0 reads them at t
    itself, as without a shift.

    With action set, the action integral s = int_{t0}^{t1} (x . ydot + H_t) dt
    along the trajectory rides along as one more ODE state, and the return
    value is (phi(z), dphi(z), s).

    Raises DomainError if a row is not finite, starts outside the trust
    radius or ends an integration step outside it, StiffnessError if the
    integrator underflows its step size and ValidationError if a row's
    Jacobian fails the symplectic check.
    """
    radius = DEFAULT_TRUST_RADIUS if radius is None else float(radius)
    d = 2 * germ.n
    z = np.asarray(z, dtype=float)
    Z = z.reshape(-1, d)
    shift = np.broadcast_to(np.asarray(0.0 if shift is None else shift, dtype=float), (len(Z),))
    _check_starts(Z, radius)
    phi, dphi, s = Z.copy(), np.tile(np.eye(d), (len(Z), 1, 1)), np.zeros(len(Z))
    if t0 != t1 and germ.terms:
        for lo in range(0, len(Z), _MAX_STACK):
            part = slice(lo, lo + _MAX_STACK)
            phi[part], dphi[part], s[part], _ = _stacked_flow(germ, t0, t1, Z[part], radius,
                                                              action, shift[part], lo, len(Z))
    if z.ndim == 1:
        phi, dphi, s = phi[0], dphi[0], float(s[0])
    return (phi, dphi, s) if action else (phi, dphi)


def flow_chain(germ: HamiltonianGerm, times, Z, radius=None) -> np.ndarray:
    """(P, len(times), d): from each row z of Z (P, d), the chain z_0 = z,
    z_j = phi^{times[j-1] -> times[j]}(z_{j-1}).

    Each link is the flow of integrate_flow with every one of its checks:
    the start of every link is refused where it is not finite or lies
    outside the trust radius, and each link's stacked integration (up to
    _MAX_STACK rows, at the tolerances scaled by 1 / sqrt(P)) refuses an
    exit from the trust radius, an underflow of its step and a Jacobian,
    integrated from the identity, that fails the symplectic check.  Errors
    name the row of the batch.

    The links run back to back: the first one tries its whole span as its
    first step, as integrate_flow does, and every later one starts at the
    step that the controller of the one before proposed (ode.Integration.h,
    capped at the link's span), so a link pays no rejected whole-span step
    where the flow is fast.  A link's result therefore differs from its
    integrate_flow below the ODE tolerance, and a row's chain depends on its
    stack mates below it.
    """
    radius = DEFAULT_TRUST_RADIUS if radius is None else float(radius)
    Z = np.asarray(Z, dtype=float)
    times = [float(t) for t in times]
    chain = np.empty((len(Z), len(times), Z.shape[1]))
    chain[:, 0] = Z
    unshifted = np.zeros(len(Z))
    steps = {}  # first row of a stack -> the step its last integration proposed
    for j, (t0, t1) in enumerate(zip(times, times[1:]), 1):
        cur = chain[:, j - 1]
        _check_starts(cur, radius)
        chain[:, j] = cur
        if t0 == t1 or not germ.terms:
            continue
        span = abs(t1 - t0)
        for lo in range(0, len(Z), _MAX_STACK):
            part = slice(lo, lo + _MAX_STACK)
            chain[part, j], _, _, steps[lo] = _stacked_flow(
                germ, t0, t1, cur[part], radius, False, unshifted[part], lo, len(Z),
                first_step=min(steps.get(lo, span), span))
    return chain


def _check_starts(Z, radius):
    """Refuse, naming the first such row, a start that is not finite or lies
    outside the trust radius."""
    bad = ~np.isfinite(Z).all(axis=1)
    if bad.any():
        i = int(bad.argmax())
        raise DomainError(f"start point {i} is not finite: {Z[i].tolist()}")
    norms = row_norms(Z)
    far = norms > radius * (1 + 1e-12)
    if far.any():
        i = int(far.argmax())
        raise DomainError(f"{_row(i, len(Z))}start point has |z| = {norms[i]:.3g} "
                          f"> trust radius {radius}")


def _row(i, rows):
    """The prefix naming row i of a batch in an error message; none for one row."""
    return "" if rows == 1 else f"row {i}: "


def _stacked_flow(germ, t0, t1, Z, radius, action, shift, first, total, first_step=None):
    # one DOP853 integration of the rows of Z, each shifted in time by its
    # entry of shift, from first_step or else the whole span; first and total
    # place the rows in the caller's batch for error messages.  Returns the
    # images, the Jacobians, the action integrals (0.0 without action) and
    # the step the controller proposes next
    P, d = Z.shape
    width = d + d * d + int(action)

    def exit_norm(y):
        return float(row_norms(y.reshape(P, width)[:, :d]).max() - radius)

    y0 = np.zeros((P, width))
    y0[:, :d] = Z
    y0[:, d:d + d * d] = np.eye(d).ravel()
    scale = math.sqrt(P)
    run = dop853(_flow_rhs(germ, standard_symplectic(germ.n), P, action, shift), t0, t1,
                 y0.ravel(), rtol=1e-12 / scale, atol=1e-13 / scale, exit=exit_norm,
                 first_step=abs(t1 - t0) if first_step is None else first_step)
    if run.status == EXITED:
        # the row farthest out at the end of the step in which the largest
        # norm crossed the radius
        i = int(np.argmax(row_norms(run.y.reshape(P, width)[:, :d])))
        raise DomainError(f"{_row(first + i, total)}flow left the trust region "
                          "before the final time")
    if run.status != REACHED:
        raise StiffnessError(f"flow integration underflowed its step at t = {run.t}")
    yf = run.y.reshape(P, width)
    dphi = yf[:, d:d + d * d].reshape(P, d, d)
    res = symplectic_residual(dphi)
    if (res > tol("symplectic_flow")).any():
        i = int((res > tol("symplectic_flow")).argmax())
        raise ValidationError(f"{_row(first + i, total)}flow Jacobian symplecticity "
                              f"residual {res[i]:.3g}")
    return yf[:, :d], dphi, (yf[:, -1] if action else 0.0), run.h


_LINKS_PER_STEP = 8  # links of a substep's Jacobian at 0, and spans per step of the step check
_SAMPLES_PER_PERIOD = 64  # links of the period grid, and samples per period of linearized_path


def _zero_links(germ: HamiltonianGerm, t0: float, t1: float, count: int) -> np.ndarray:
    """(count, d, d): dphi(0) over each of count equal links of [t0, t1].

    0 is a rest point, so one stacked integrate_flow at z = 0 integrates
    every link from the identity over its own span (row i shifted to start
    at t0 + i h, h = (t1 - t0) / count, negative for a backward span), with
    the flow's symplectic check on every row.  Kept on the germ instance,
    so a key is integrated once per instance; callers multiply links and
    never invert one.
    """
    key = (t0, t1, count)
    links = germ._link_jacobians
    if key not in links:
        h = (t1 - t0) / count
        links[key] = integrate_flow(germ, 0.0, h, np.zeros((count, 2 * germ.n)),
                                    shift=t0 + h * np.arange(count))[1]
    return links[key]


def _running_products(links: np.ndarray) -> np.ndarray:
    """L_j ... L_1 L_0 for every j along axis -3 of the links (..., count, d, d)."""
    return np.stack(list(accumulate(np.moveaxis(links, -3, 0), lambda P, L: L @ P)), axis=-3)


def zero_jacobian_path(germ: HamiltonianGerm):
    """Callable t -> dphi^{0->t}(0) for t >= 0.

    On the grid j / _SAMPLES_PER_PERIOD of the period [0, 1], Phi is the
    running product of the links of _zero_links(germ, 0, 1,
    _SAMPLES_PER_PERIOD), one stacked flow per germ instance; a time off
    the grid adds one flow at 0 from the grid point below it.  Every germ is
    1-periodic in t, so the Floquet identity Phi(t + m) = Phi(t) Phi(1)^m
    holds exactly for whole m, and whole periods come from the powers of
    the monodromy Phi(1): the path is accurate to the ODE tolerance times
    the number of periods.

    t is one time, giving (d, d), or an array of times, giving (..., d, d)
    with one matrix power per whole period; each sample is bitwise the
    one-time call.
    """
    d = 2 * germ.n
    grid = np.concatenate([np.eye(d)[None], _running_products(
        _zero_links(germ, 0.0, 1.0, _SAMPLES_PER_PERIOD))])
    monodromy = grid[-1]

    def Phi(t):
        t = np.asarray(t, dtype=float)
        # t - m in (0, 1], or t = m = 0; scaling by a power of two is exact
        m = np.maximum(np.ceil(t) - 1, 0).astype(int)
        s = ((t - m) * _SAMPLES_PER_PERIOD).reshape(-1)
        j = np.floor(s).astype(int)
        within = grid[j]
        for i in np.flatnonzero(s != j):
            within[i] = integrate_flow(germ, j[i] / _SAMPLES_PER_PERIOD,
                                       s[i] / _SAMPLES_PER_PERIOD, np.zeros(d))[1] @ within[i]
        first = m.min()
        powers = np.array([np.linalg.matrix_power(monodromy, p)
                           for p in range(first, m.max() + 1)])
        return within.reshape(t.shape + (d, d)) @ powers[m - first]

    return Phi


@dataclass(frozen=True)
class FlowMap:
    """Flow phi_H^{t0 -> t1} evaluable with Jacobian near 0, within the trust
    radius config.DEFAULT_TRUST_RADIUS."""
    germ: HamiltonianGerm
    t0: float
    t1: float

    def __call__(self, z, action: bool = False, shift=None):
        return integrate_flow(self.germ, self.t0, self.t1, z, action=action, shift=shift)

    @cached_property
    def jacobian_at_zero(self) -> np.ndarray:
        """dphi^{t0 -> t1}(0), the ordered product of the _LINKS_PER_STEP
        links of _zero_links, each integrated from the identity, so no
        inverse is taken and a germ instance integrates each substep's links
        once; raises ValidationError if the product fails the symplectic
        check of integrated flow Jacobians."""
        dphi = _running_products(_zero_links(self.germ, self.t0, self.t1, _LINKS_PER_STEP))[-1]
        res = symplectic_residual(dphi)
        if res > tol("symplectic_flow"):
            raise ValidationError(f"flow Jacobian symplecticity residual {res:.3g}")
        return dphi


def steps_graph_positive(germ: HamiltonianGerm, N: int) -> bool:
    """The step condition: does every substep family of N steps stay graph-like?

    The links of _zero_links over each substep [k/N, (k+1)/N] are those
    whose product FlowMap(germ, k/N, (k+1)/N).jacobian_at_zero reads.  From
    each start i/4N, det dpsi(0)_yy of the substep flow psi (the graph
    condition, see GeneratingFunction) is sampled at _LINKS_PER_STEP growing
    spans up to a full step 1/N, dpsi the product of the links from the
    start, wrapped past 1 by 1-periodicity.  It equals 1 at span 0, so a
    sample below gen1_det certifies that some substep crosses the
    graph-condition boundary even when the endpoints of the family pass it.
    """
    if N < 1:
        raise ConfigurationError("N must be a positive integer")
    m = germ.n
    links = np.concatenate([_zero_links(germ, k / N, (k + 1) / N, _LINKS_PER_STEP)
                            for k in range(N)])
    starts = _LINKS_PER_STEP // 4 * np.arange(4 * N)
    dpsi = _running_products(links[(starts[:, None] + np.arange(_LINKS_PER_STEP)) % len(links)])
    return bool((np.linalg.det(dpsi[..., m:, m:]) > tol("gen1_det")).all())


@dataclass(frozen=True)
class GeneratingFunction:
    """Generating function S of one substep flow psi = phi^{t0 -> t1}.

    Conventions: psi(x, y) = (X, Y) with y - Y = grad_1 S(x, Y) and
    X - x = grad_2 S(x, Y); S(0) = 0.  Under the package sign convention
    i_{X_H} omega0 = dH with lambda = x dy, S is the action identity

        S(x, Y) = x . (y - Y) + int_{t0}^{t1} (x . ydot + H_t) dt

    taken along the trajectory from (x, y) to (X, Y): varying the start
    point, the integral changes by X dY - x dy, which gives dS above.
    """
    psi: FlowMap

    def __post_init__(self):
        # the graph condition R^{2m} = (R^m x 0) + dpsi(0)(0 x R^m): dpsi(0)_yy is invertible
        m = self.m
        if abs(np.linalg.det(self.psi.jacobian_at_zero[m:, m:])) <= tol("gen1_det"):
            raise ValidationError("substep flow fails the graph condition")

    @property
    def m(self) -> int:
        return self.psi.germ.n

    def solve_graph(self, x, Y, action: bool = False, shift=None, start=None):
        """Solve psi(x, y) = (X, Y) for (y, X) by Newton.

        Newton starts at y = start, of the shape of Y, and at y = Y without
        one.  A start of another shape raises ShapeError.  dact.evaluate
        starts each slot at the point's own y_i, which differs from the
        solution y'_i by exactly the x_i-block of grad A (y'_i - y_i =
        dA/dx_i), so the start is exact at a critical point of A.

        Returns (y, X, dpsi at (x, y), s), where s is the action integral
        int (x . ydot + H_t) dt along the solved trajectory when action is
        set and None otherwise; each Newton flow then carries it.

        (x, Y) is one point, two arrays (m,), or a batch, two arrays (P, m),
        solved by config.lockstep_newton: one stacked flow and one plain
        solve on the y block of dpsi per step, and a row converges once its
        residual is below gen2_newton.  The first row that fails raises its
        own error: TrustRegionError if its flow leaves the trust region or
        it does not converge in 50 steps.

        shift, a number or one start-time shift per row, solves row i for
        the substep shifted by shift[i], phi^{t0 + shift[i] -> t1 + shift[i]};
        each Newton flow carries the rows' shifts (see integrate_flow), so
        graph equations of different substeps share one lockstep solve.  x
        and Y of different row counts, or a shift of another length, raise
        ShapeError.
        """
        m = self.m
        one = np.ndim(x) == 1
        x = np.asarray(x, dtype=float).reshape(-1, m)
        Y = np.asarray(Y, dtype=float).reshape(-1, m)
        shift = np.asarray(0.0 if shift is None else shift, dtype=float)
        if len(Y) != len(x) or shift.shape not in ((), (len(x),)):
            raise ShapeError(f"graph equations of {len(x)} x rows, {len(Y)} Y rows and "
                             f"shifts of shape {shift.shape}")
        shift = np.broadcast_to(shift, (len(x),))
        if start is None:
            start = Y
        elif np.shape(start) != ((m,) if one else Y.shape):
            raise ShapeError(f"a Newton start of shape {np.shape(start)} for graph "
                             f"equations of {len(x)} rows of length {m}")

        def residual(rows, y):
            try:
                phi, dphi, *flow_s = self.psi(np.concatenate([x[rows], y], axis=1),
                                              action=action, shift=shift[rows])
            except DomainError as exc:
                raise TrustRegionError(f"graph solve left the trust region: {exc}") from exc
            return phi[:, m:] - Y[rows], phi[:, :m], dphi, (flow_s[0] if action else None)

        def step(F, X, dphi, s):
            return np.linalg.solve(dphi[:, m:, m:], F[:, :, None])[:, :, 0]

        y, converged, errors, kept = lockstep_newton(residual, np.reshape(start, Y.shape), step,
                                                     tol("gen2_newton"), 50,
                                                     retry=(ResolutionError, ValidationError))
        if not converged.all():
            exc = errors[int(np.argmin(converged))]
            raise exc or TrustRegionError("no convergence solving the graph equations")
        # only an empty batch keeps nothing
        _, X, dpsi, s = kept or (None, y, np.empty((0, 2 * m, 2 * m)), y[:, 0] if action else None)
        if one:
            return y[0], X[0], dpsi[0], (None if s is None else float(s[0]))
        return y, X, dpsi, s

    def solve_slot(self, x, Y, value: bool = True, shift=None, start=None):
        """(S, grad S, D^2 S) at (x, Y) from one graph solve started at start
        (see solve_graph; y = Y without one).

        grad S = (grad_1 S, grad_2 S) = (y - Y, X - x) as one vector of
        length 2m; S comes from the action identity in the class docstring
        and is None when value is unset, which spares the flows the H_t
        evaluations the integral needs.  D^2 S is _slot_hessians of dpsi at
        the solved point.  A batch (P, m) of (x, Y) gives (P,), (P, 2m) and
        (P, 2m, 2m) from one lockstep graph solve, whose rows may be shifted
        in time as in solve_graph.
        """
        m = self.m
        one = np.ndim(x) == 1
        y, X, dphi, s = self.solve_graph(x, Y, action=value, shift=shift, start=start)
        x, Y, y, X = (np.asarray(a, dtype=float).reshape(-1, m) for a in (x, Y, y, X))
        S = row_dots(x, y - Y) + s if value else None
        H = _slot_hessians(dphi.reshape(-1, 2 * m, 2 * m))
        g = np.concatenate([y - Y, X - x], axis=1)
        if one:
            return (None if S is None else float(S[0])), g[0], H[0]
        return S, g, H


def _slot_hessians(dpsi: np.ndarray) -> np.ndarray:
    """D^2 S, symmetrized, from each dpsi = [[A, B], [C, D]] (P, 2m, 2m) at a
    solved point: [[-D^-1 C, D^-1 - I], [A - B D^-1 C - I, B D^-1]].  Raises
    ValidationError, naming the row, where the asymmetry exceeds hessian_sym."""
    m = dpsi.shape[-1] // 2
    A, B = dpsi[:, :m, :m], dpsi[:, :m, m:]
    C, D = dpsi[:, m:, :m], dpsi[:, m:, m:]
    Dinv = np.linalg.inv(D)
    eye = np.eye(m)
    H = np.concatenate([np.concatenate([-Dinv @ C, Dinv - eye], axis=2),
                        np.concatenate([A - B @ Dinv @ C - eye, B @ Dinv], axis=2)], axis=1)
    asym = np.abs(H - np.swapaxes(H, 1, 2)).max(axis=(1, 2))
    if (asym > tol("hessian_sym")).any():
        i = int((asym > tol("hessian_sym")).argmax())
        raise ValidationError(f"{_row(i, len(dpsi))}generating-function Hessian "
                              f"asymmetry {asym[i]:.3g}")
    return 0.5 * (H + np.swapaxes(H, 1, 2))


def eval_S(gf: GeneratingFunction, x, Y):
    """(S, grad_1 S, grad_2 S) at (x, Y) from one graph solve.

    S(x, Y) = x . (y - Y) + int_{t0}^{t1} (x . ydot + H_t) dt along the
    solved trajectory (see GeneratingFunction), exact up to the ODE
    tolerance of the flow.
    """
    m = gf.m
    x = np.asarray(x, dtype=float).reshape(m)
    Y = np.asarray(Y, dtype=float).reshape(m)
    if np.linalg.norm(np.concatenate([x, Y])) > DEFAULT_TRUST_RADIUS * (1 + 1e-12):
        raise DomainError("(x, Y) outside the trust region")
    S, g, _ = gf.solve_slot(x, Y)
    return S, g[:m], g[m:]


def hessian_S_at_zero(gf: GeneratingFunction) -> np.ndarray:
    """D^2 S(0): _slot_hessians of dpsi(0), as solve_slot assembles it at a solved point."""
    return _slot_hessians(gf.psi.jacobian_at_zero[None])[0]


def linearized_path(germ: HamiltonianGerm, periods: int = 1):
    """The linearized flow at 0 over [0, periods] as a spindex.SymplecticPath."""
    from .spindex import SymplecticPath

    periods = _integer(periods, "periods")
    Phi = zero_jacobian_path(germ)
    ts = np.linspace(0.0, float(periods), _SAMPLES_PER_PERIOD * periods + 1)
    return SymplecticPath(germ.n, zip(ts, Phi(ts)), source=Phi, germ=germ, periods=periods)
