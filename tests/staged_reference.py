"""Reference DP5(4) stepper for the tests: the seven stages at every step, on the true time t.

This is the loop that ``toptrap.integrate`` ran for the lab frame before both ODE routes stepped with cached step
matrices: the stages and the non-cached branch of the step loop, copied unchanged, with the derivative at each
accepted point carried into the next step (FSAL).  It needs no property of the rhs beyond the signature
``rhs(t, a, b) -> (da, db)``, so the tests compare the cached stepper with it on both routes.  It keeps the adaptive
step-size controller that the package dropped (its three constants are defined here): at the routes' caps the
controller never acts, so the reference and the package take the same steps.
"""

import math

import numpy as np

from toptrap.integrate import (
    _A21,
    _A31,
    _A32,
    _A41,
    _A42,
    _A43,
    _A51,
    _A52,
    _A53,
    _A54,
    _A61,
    _A62,
    _A63,
    _A64,
    _A65,
    _B1,
    _B3,
    _B4,
    _B5,
    _B6,
    _C2,
    _C3,
    _C4,
    _C5,
    _E1,
    _E3,
    _E4,
    _E5,
    _E6,
    _E7,
    IntegrationError,
    _hermite,
)

_SAFETY = 0.9  # the step-size controller's constants
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def staged_step(rhs, t, y, f, h):
    """One DP5(4) step of size h from (t, y) with derivative f: (y1 - y, the derivative at y1, the error estimate)."""
    a, b = y
    fa1, fb1 = f
    ya = a + h * _A21 * fa1
    yb = b + h * _A21 * fb1
    fa2, fb2 = rhs(t + _C2 * h, ya, yb)
    ya = a + h * (_A31 * fa1 + _A32 * fa2)
    yb = b + h * (_A31 * fb1 + _A32 * fb2)
    fa3, fb3 = rhs(t + _C3 * h, ya, yb)
    ya = a + h * (_A41 * fa1 + _A42 * fa2 + _A43 * fa3)
    yb = b + h * (_A41 * fb1 + _A42 * fb2 + _A43 * fb3)
    fa4, fb4 = rhs(t + _C4 * h, ya, yb)
    ya = a + h * (_A51 * fa1 + _A52 * fa2 + _A53 * fa3 + _A54 * fa4)
    yb = b + h * (_A51 * fb1 + _A52 * fb2 + _A53 * fb3 + _A54 * fb4)
    fa5, fb5 = rhs(t + _C5 * h, ya, yb)
    ya = a + h * (_A61 * fa1 + _A62 * fa2 + _A63 * fa3 + _A64 * fa4 + _A65 * fa5)
    yb = b + h * (_A61 * fb1 + _A62 * fb2 + _A63 * fb3 + _A64 * fb4 + _A65 * fb5)
    fa6, fb6 = rhs(t + h, ya, yb)
    da = h * (_B1 * fa1 + _B3 * fa3 + _B4 * fa4 + _B5 * fa5 + _B6 * fa6)
    db = h * (_B1 * fb1 + _B3 * fb3 + _B4 * fb4 + _B5 * fb5 + _B6 * fb6)
    fa7, fb7 = rhs(t + h, a + da, b + db)
    err_a = h * (_E1 * fa1 + _E3 * fa3 + _E4 * fa4 + _E5 * fa5 + _E6 * fa6 + _E7 * fa7)
    err_b = h * (_E1 * fb1 + _E3 * fb3 + _E4 * fb4 + _E5 * fb5 + _E6 * fb6 + _E7 * fb7)
    return (da, db), (fa7, fb7), (err_a, err_b)


def staged_dp45(rhs, sample_ts, y0, rel_tol, abs_tol, h_cap):
    """Adaptive DP5(4) from t = 0 through sample_ts[-1] with the same step control; returns 2xN complex samples."""
    n = len(sample_ts)
    out = np.empty((2, n), dtype=complex)
    sample_ts = sample_ts.tolist()  # Python floats: the same values, without numpy-scalar arithmetic per step
    t_end = sample_ts[-1]
    sample_ts.append(math.inf)  # a sentinel: the next sample time is always sample_ts[idx]
    t, (a, b) = 0.0, y0
    f = rhs(t, a, b)
    idx = 0
    while sample_ts[idx] <= t:
        out[:, idx] = y0
        idx += 1
    t_next = sample_ts[idx]
    h_min = 1e-14 * t_end
    h = min(h_cap, t_end)
    f_new = None
    abs_a, abs_b = abs(a), abs(b)  # |y|, carried over from the step that reached y
    while idx < n:
        remainder = t_end - t
        if remainder - h < h_min:
            h = remainder  # take the whole remainder rather than leave a sliver below h_min
        if h < h_min:
            raise IntegrationError("step size underflow", t)
        (da, db), f_new, (err_a, err_b) = staged_step(rhs, t, (a, b), f, h)
        a1, b1 = a + da, b + db
        abs_a1, abs_b1 = abs(a1), abs(b1)
        scale_a = abs_tol + rel_tol * (abs_a1 if abs_a1 > abs_a else abs_a)  # max(abs_a, abs_a1), NaN alike
        scale_b = abs_tol + rel_tol * (abs_b1 if abs_b1 > abs_b else abs_b)
        err = math.sqrt(0.5 * (abs(err_a / scale_a) ** 2 + abs(err_b / scale_b) ** 2))
        if err <= 1.0:
            # force exact arrival: t + h may round to just below t_end
            t_new = t_end if h == remainder else t + h
            if t_next <= t_new:
                y, y_new = (a, b), (a1, b1)
                while t_next <= t_new:
                    out[:, idx] = _hermite(y, f, y_new, f_new, h, min(1.0, (t_next - t) / h))
                    idx += 1
                    t_next = sample_ts[idx]
            t, a, b, f, abs_a, abs_b = t_new, a1, b1, f_new, abs_a1, abs_b1
            if h < h_cap:  # at h_cap, min(h_cap, h * max(1.0, factor)) is h_cap
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**-0.2)
                h = min(h_cap, h * max(1.0, factor))
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err**-0.2)
    return out
