"""The package's one ODE integrator: explicit Runge-Kutta DOP853 in numpy.

DOP853 is the 8(5,3) embedded pair of Dormand and Prince (Hairer, Norsett
and Wanner, Solving Ordinary Differential Equations I, sec. II.10).  The
step control, initial step and error norm repeat the arithmetic of
scipy.integrate's DOP853 operation for operation, so a solve here ends
bitwise where the scipy solve with method="DOP853" and the same tolerances
and first_step ends, with the same proposed next step; the tests keep scipy
as that oracle.  There is no dense output: a caller that needs the solution
at a time integrates to it.  The coefficients are the stepping rows of
scipy/integrate/_ivp/dop853_coefficients.py at full precision (SciPy,
BSD-3-Clause license).
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError

_STAGES = 12  # stages of one step; the slope at its end makes 13

_C = np.array([0.0,
               0.526001519587677318785587544488e-01,
               0.789002279381515978178381316732e-01,
               0.118350341907227396726757197510,
               0.281649658092772603273242802490,
               0.333333333333333333333333333333,
               0.25,
               0.307692307692307692307692307692,
               0.651282051282051282051282051282,
               0.6,
               0.857142857142857142857142857142,
               1.0,
               1.0])

# row s holds the weights of the stages before s; row 12 is the solution weights
_A = np.zeros((_STAGES + 1, _STAGES))
_A[1, [0]] = [5.26001519587677318785587544488e-2]
_A[2, [0, 1]] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
_A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
                    9.24834003261792003115737966543e-1]
_A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
                    1.25467687566822425016691814123e-1]
_A[6, [0, 3, 4, 5]] = [3.7109375e-2, 1.70252211019544039314978060272e-1,
                       6.02165389804559606850219397283e-2, -1.7578125e-2]
_A[7, [0, 3, 4, 5, 6]] = [3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
                          1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
                          8.27378916381402288758473766002e-3]
_A[8, [0, 3, 4, 5, 6, 7]] = [6.24110958716075717114429577812e-1,
                             -3.36089262944694129406857109825,
                             -8.68219346841726006818189891453e-1,
                             2.75920996994467083049415600797e1,
                             2.01540675504778934086186788979e1,
                             -4.34898841810699588477366255144e1]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [4.77662536438264365890433908527e-1,
                                -2.48811461997166764192642586468,
                                -5.90290826836842996371446475743e-1,
                                2.12300514481811942347288949897e1,
                                1.52792336328824235832596922938e1,
                                -3.32882109689848629194453265587e1,
                                -2.03312017085086261358222928593e-2]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-9.3714243008598732571704021658e-1,
                                    5.18637242884406370830023853209,
                                    1.09143734899672957818500254654,
                                    -8.14978701074692612513997267357,
                                    -1.85200656599969598641566180701e1,
                                    2.27394870993505042818970056734e1,
                                    2.49360555267965238987089396762,
                                    -3.0467644718982195003823669022]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [2.27331014751653820792359768449,
                                        -1.05344954667372501984066689879e1,
                                        -2.00087205822486249909675718444,
                                        -1.79589318631187989172765950534e1,
                                        2.79488845294199600508499808837e1,
                                        -2.85899827713502369474065508674,
                                        -8.87285693353062954433549289258,
                                        1.23605671757943030647266201528e1,
                                        6.43392746015763530355970484046e-1]
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [5.42937341165687622380535766363e-2,
                                      4.45031289275240888144113950566,
                                      1.89151789931450038304281599044,
                                      -5.8012039600105847814672114227,
                                      3.1116436695781989440891606237e-1,
                                      -1.52160949662516078556178806805e-1,
                                      2.01365400804030348374776537501e-1,
                                      4.47106157277725905176885569043e-2]
_B = _A[_STAGES, :_STAGES]

# the 5th- and 3rd-order error estimators, over the stages and the new slope
_E5 = np.zeros(_STAGES + 1)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.1312004499419488073250102996e-1,
                                   -0.1225156446376204440720569753e+1,
                                   -0.4957589496572501915214079952,
                                   0.1664377182454986536961530415e+1,
                                   -0.3503288487499736816886487290,
                                   0.3341791187130174790297318841,
                                   0.8192320648511571246570742613e-1,
                                   -0.2235530786388629525884427845e-1]
_E3 = np.zeros(_STAGES + 1)
_E3[:-1] = _B
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1

_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / 8  # -1 / (error estimator order + 1)

# below this relative tolerance a double cannot resolve the error estimate
RTOL_FLOOR = 100 * np.finfo(float).eps

REACHED, EXITED, UNDERFLOW = 0, 1, -1


class Integration(NamedTuple):
    """Where a dop853 solve stopped.

    status is REACHED (t == t1), EXITED (the exit function crossed 0 upward
    in the step that ended at t) or UNDERFLOW (the step size fell below ten
    spacings of t; y is the last accepted state).  h is the size of the
    step that the controller proposes after the last accepted one, the
    first_step of a solve that goes on from (t, y); it is nan where
    t0 == t1, and the step that fell too small on UNDERFLOW.
    """
    status: int
    t: float
    y: np.ndarray
    h: float


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t1, f0, direction, rtol, atol):
    # Hairer-Norsett-Wanner II.4, as scipy's select_initial_step
    span = abs(t1 - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, span)


def _error_norm(K, h, scale):
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    # np.linalg.norm(.) ** 2, not a dot product, keeps the rounding of scipy
    err5_2 = np.linalg.norm(err5) ** 2
    err3_2 = np.linalg.norm(err3) ** 2
    if err5_2 == 0 and err3_2 == 0:
        return 0.0
    return np.abs(h) * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2) * len(scale))


def dop853(fun, t0, t1, y0, rtol, atol, exit=None, first_step=None) -> Integration:
    """Integrate y' = fun(t, y) from y(t0) = y0 (1-D) to t1 with DOP853.

    The local error of each step is held below atol + rtol |y| in the RMS
    norm over y.  With exit set, exit(y) is read at the end of every accepted
    step and the solve stops after the first step across which it goes from
    <= 0 to >= 0; the crossing is not located inside the step.

    The first step tried is first_step when it is given, as scipy's
    first_step, and else the Hairer-Norsett-Wanner estimate, which costs one
    more fun call.  A step is kept only if it passes the error test, so a
    first step that is too long costs one rejected step (12 fun calls)
    before the controller shrinks it by a factor of at least 0.2.  The
    result's h, the step the controller proposes after the last accepted
    one, is a first_step for a solve that goes on from where this one
    stopped.

    Raises ConfigurationError if rtol is below RTOL_FLOOR, atol is negative
    or first_step is not a finite number in (0, |t1 - t0|].
    """
    if not rtol >= RTOL_FLOOR:
        raise ConfigurationError(f"relative tolerance {rtol!r} is below the floor "
                                 f"100 eps = {RTOL_FLOOR:.3g}")
    if not atol >= 0:
        raise ConfigurationError(f"absolute tolerance {atol!r} is negative")
    t0, t1 = float(t0), float(t1)
    if first_step is not None and not 0 < first_step <= abs(t1 - t0):
        raise ConfigurationError(f"first step {first_step!r} is not in (0, {abs(t1 - t0)!r}]")
    t, y = t0, np.asarray(y0, dtype=float)
    h_abs = np.nan  # no step proposed yet

    def stop(status):
        return Integration(status, t, y, float(h_abs))

    if t0 == t1:
        return stop(REACHED)
    direction = np.sign(t1 - t0)
    f = fun(t, y)
    g = None if exit is None else exit(y)
    if first_step is None:
        h_abs = _initial_step(fun, t, y, t1, f, direction, rtol, atol)
    else:
        h_abs = float(first_step)
    K = np.empty((_STAGES + 1, len(y)))
    while direction * (t - t1) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step, from a NaN slope, underflows too
                return stop(UNDERFLOW)
            t_new = t + h_abs * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, _STAGES):
                K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:_STAGES].T, _B)
            f_new = fun(t + h, y_new)
            K[_STAGES] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _error_norm(K[:_STAGES + 1], h, scale)
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err**_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
        if exit is not None:
            g, g_old = exit(y), g
            if g_old <= 0 <= g:
                return stop(EXITED)
    return stop(REACHED)
