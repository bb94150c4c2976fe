"""Numerical oracles for the driven two-level problem.

Three independent routes to the survival/transition probabilities validate
the closed form:

* :func:`evolve_instantaneous_basis` integrates the coupled amplitude
  equations in the frame of the instantaneous eigenstates,
      d alpha/dt = (i/2) (drift * alpha + coupling * beta)
      d beta/dt  = (i/2) (coupling * alpha - drift * beta)
  with drift = omega0 - omega cos(theta) and coupling = omega sin(theta).
* :func:`evolve_lab_frame` integrates i d psi/dt = H(t) psi in the fixed
  spinor basis and projects onto the instantaneous eigenvectors.
* :func:`rotating_frame_propagator` builds the exact propagator from the
  frame co-rotating with the drive, where the Hamiltonian is static and a
  single 2x2 matrix exponential (Rodrigues form) suffices.

The ODE routes use an embedded Dormand-Prince 5(4) pair with cubic Hermite
dense output.  Because reported samples come from the interpolant, the step
size is capped so the Hermite error (h Omega)^4 / 384 stays inside the
budget 2*rel_tol + abs_tol, with Omega a bound on the solution's angular
content supplied by each route; tolerances therefore hold at every sample,
independent of the output grid.  A further cap keeps the norm that DP5(4) loses at every
step, (h Omega)^6 / 1800, within 2*rel_tol over the whole span.

Both ODE routes are linear, y' = M(t) y, so a DP5(4) step of size h is y + D y with error E y.  The stages, run on
the basis vectors from t = 0 once per new step size, give D and E (D, not R = I + D: R's rounding would recur every
step and add up).  The instantaneous-basis M is constant.  The lab M turns with the drive, M(t + s) = U(t) M(s) U(t)^+
for U(t) = diag(e^{-i omega t/2}, e^{i omega t/2}), constant within a step, so the step from t is U(t) (I + D) U(t)^+,
e^{-+i omega t} on the off-diagonals of D and E.  Each step is two 2x2 mat-vecs; f = M y is formed only at samples.

The lab and rotating routes project onto the known eigenvectors of H(t), which no omega0 enters, so none underflows:
for s = sin(theta/2), c = cos(theta/2), the weak-field seeker (s, -c e^{i omega t}), strong-field (c, s e^{i omega t}).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# eigensystem_at is unused here but kept: bench/spans.py wraps it at this module.
from .spin import FINITE, POSITIVE, DriveParams, check, check_domain, check_finite, eigensystem_at  # noqa: F401

_MAX_STEP = 0.1  # step cap, as a fraction of the shortest drive period
_MAX_STEPS = 10**6  # solves needing more steps are refused before stepping
_BLOCK = 4096  # samples per batched projection: its temporaries stay at a few MB


class IntegrationError(RuntimeError):
    """Step-size underflow or a violated integration invariant."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t = {t!r})")
        self.t = t


@dataclass(frozen=True)
class IntegratorSettings:
    """ODE tolerances; abs_tol <= rel_tol, or error control outruns the 10 * rel_tol norm guard."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        check("rel_tol", *POSITIVE, self.rel_tol)
        check("abs_tol", "in (0, rel_tol]", lambda v: (v > 0.0) & (v <= self.rel_tol), self.abs_tol)


@dataclass(frozen=True)
class TimeSeries:
    """Sampled survival/transition probabilities from one method."""

    times: np.ndarray
    survival: np.ndarray
    transition: np.ndarray
    method: str

    def __post_init__(self):
        if not (len(self.times) == len(self.survival) == len(self.transition)):
            raise ValueError("times, survival and transition must have equal lengths")


DEFAULT_SETTINGS = IntegratorSettings()

# Dormand-Prince 5(4) tableau.  The propagated solution is 5th order; the
# difference to the embedded 4th-order solution drives step control; stage 7,
# the derivative at the step's end, enters only the error estimate.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# b - b_hat (error weights, including the 7th stage)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    35 / 384 - 5179 / 57600,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _hermite(y0, f0, y1, f1, h, u):
    """Cubic Hermite value at fraction u of a step of size h."""
    v = 1.0 - u
    h00 = (1.0 + 2.0 * u) * v * v
    h10 = u * v * v
    h01 = u * u * (3.0 - 2.0 * u)
    h11 = u * u * (u - 1.0)
    return (
        h00 * y0[0] + h * (h10 * f0[0] + h11 * f1[0]) + h01 * y1[0],
        h00 * y0[1] + h * (h10 * f0[1] + h11 * f1[1]) + h01 * y1[1],
    )


def _stages(rhs, y, h):
    """One DP5(4) step of size h from (0, y): (y1 - y, the error estimate)."""
    a, b = y
    fa1, fb1 = rhs(0.0, a, b)
    ya = a + h * _A21 * fa1
    yb = b + h * _A21 * fb1
    fa2, fb2 = rhs(_C2 * h, ya, yb)
    ya = a + h * (_A31 * fa1 + _A32 * fa2)
    yb = b + h * (_A31 * fb1 + _A32 * fb2)
    fa3, fb3 = rhs(_C3 * h, ya, yb)
    ya = a + h * (_A41 * fa1 + _A42 * fa2 + _A43 * fa3)
    yb = b + h * (_A41 * fb1 + _A42 * fb2 + _A43 * fb3)
    fa4, fb4 = rhs(_C4 * h, ya, yb)
    ya = a + h * (_A51 * fa1 + _A52 * fa2 + _A53 * fa3 + _A54 * fa4)
    yb = b + h * (_A51 * fb1 + _A52 * fb2 + _A53 * fb3 + _A54 * fb4)
    fa5, fb5 = rhs(_C5 * h, ya, yb)
    ya = a + h * (_A61 * fa1 + _A62 * fa2 + _A63 * fa3 + _A64 * fa4 + _A65 * fa5)
    yb = b + h * (_A61 * fb1 + _A62 * fb2 + _A63 * fb3 + _A64 * fb4 + _A65 * fb5)
    fa6, fb6 = rhs(h, ya, yb)
    da = h * (_B1 * fa1 + _B3 * fa3 + _B4 * fa4 + _B5 * fa5 + _B6 * fa6)
    db = h * (_B1 * fb1 + _B3 * fb3 + _B4 * fb4 + _B5 * fb5 + _B6 * fb6)
    fa7, fb7 = rhs(h, a + da, b + db)
    err_a = h * (_E1 * fa1 + _E3 * fa3 + _E4 * fa4 + _E5 * fa5 + _E6 * fa6 + _E7 * fa7)
    err_b = h * (_E1 * fb1 + _E3 * fb3 + _E4 * fb4 + _E5 * fb5 + _E6 * fb6 + _E7 * fb7)
    return (da, db), (err_a, err_b)


def _integrate_dp45(rhs, sample_ts, y0, rel_tol, abs_tol, h_cap, frame_freq=0.0, **drive):
    """Adaptive DP5(4) from t = 0 through sample_ts[-1]; returns 2xN complex samples.

    ``rhs(t, a, b) -> (da, db)`` is linear in (a, b) and works on plain complex scalars, several times faster than
    ndarray arithmetic for 2 components.  It is constant for ``frame_freq`` 0, else turns at it (module docstring).
    Stage sums beyond the float range, which no step size brings back, are a ValueError naming the ``drive`` inputs.
    """
    n = len(sample_ts)
    out = np.empty((2, n), dtype=complex)
    sample_ts = sample_ts.tolist()  # Python floats: the same values, without numpy-scalar arithmetic per step
    t_end = sample_ts[-1]
    sample_ts.append(math.inf)  # a sentinel: the next sample time is always sample_ts[idx]
    t, (a, b) = 0.0, y0
    idx = 0
    while sample_ts[idx] <= t:
        out[:, idx] = y0
        idx += 1
    t_next = sample_ts[idx]
    h_min = 1e-14 * t_end
    h, h_built = min(h_cap, t_end), None
    abs_a, abs_b = abs(a), abs(b)  # |y|, carried over from the step that reached y
    while idx < n:
        remainder = t_end - t
        if remainder - h < h_min:
            h = remainder  # take the whole remainder rather than leave a sliver below h_min
        if h < h_min:
            raise IntegrationError("step size underflow", t)
        if h != h_built:  # one-entry cache: h is h_cap on almost every step; a basis vector per column
            h_built = h
            (d00, d10), (e00, e10) = _stages(rhs, (1.0 + 0.0j, 0.0j), h)
            (d01, d11), (e01, e11) = _stages(rhs, (0.0j, 1.0 + 0.0j), h)
            sums = (d00, d10, d01, d11, e00, e10, e01, e11)
            if not all(map(cmath.isfinite, sums)):  # rates near the largest float times tableau weights up to 11.6
                check_finite("the DP5(4) stage sums", sums, **drive)
        if frame_freq:  # U(t) D U(t)^+ y: column 1 takes e^{-i omega t} into row 0, column 0 e^{+i omega t} into row 1
            phase = cmath.rect(1.0, -frame_freq * t)  # one cos/sin pair
            ra, rb = a * phase.conjugate(), b * phase
        else:
            ra, rb = a, b
        da, db = d00 * a + d01 * rb, d10 * ra + d11 * b
        err_a, err_b = e00 * a + e01 * rb, e10 * ra + e11 * b
        a1, b1 = a + da, b + db
        abs_a1, abs_b1 = abs(a1), abs(b1)
        scale_a = abs_tol + rel_tol * (abs_a1 if abs_a1 > abs_a else abs_a)  # max(abs_a, abs_a1), NaN alike
        scale_b = abs_tol + rel_tol * (abs_b1 if abs_b1 > abs_b else abs_b)
        err = math.sqrt(0.5 * (abs(err_a / scale_a) ** 2 + abs(err_b / scale_b) ** 2))
        if err <= 1.0:
            # force exact arrival: t + h may round to just below t_end
            t_new = t_end if h == remainder else t + h
            if t_next <= t_new:  # the interpolant's derivatives
                f, f_new = rhs(t, a, b), rhs(t_new, a1, b1)
                y, y_new = (a, b), (a1, b1)
                while t_next <= t_new:
                    out[:, idx] = _hermite(y, f, y_new, f_new, h, min(1.0, (t_next - t) / h))
                    idx += 1
                    t_next = sample_ts[idx]
            t, a, b, abs_a, abs_b = t_new, a1, b1, abs_a1, abs_b1
            if h < h_cap:  # at h_cap, min(h_cap, h * max(1.0, factor)) is h_cap
                factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err**-0.2)
                h = min(h_cap, h * max(1.0, factor))
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err**-0.2)
    return out


def _check_grid(t_grid) -> np.ndarray:
    ts = check_domain("t", t_grid)
    if ts.ndim != 1 or len(ts) == 0:
        raise ValueError("t_grid must be a non-empty 1-d array")
    if np.any(np.diff(ts) < 0.0):
        raise ValueError("t_grid must be ascending")
    return ts


def _run(rhs, ts, y0, s: IntegratorSettings, content_freq: float, norm_freq: float, p: DriveParams, frame_freq=0.0):
    """Run the DP5(4) stepper with the step caps for this route.

    ``content_freq`` bounds the solution's angular frequencies for the Hermite cap, and ``norm_freq``
    is the Omega of the secular norm loss.  Every step is at most the cap, so t_end / cap bounds the step count below.
    """
    t_end = float(ts[-1])
    h_user = _MAX_STEP * 2.0 * math.pi / max(p.omega, p.omega0)
    # Norm deviation at a sample is at most 4x the per-component Hermite
    # error, so a budget of 2*rel_tol keeps it inside the 10*rel_tol guard.
    budget = 2.0 * s.rel_tol + s.abs_tol
    h_interp = (384.0 * budget) ** 0.25 / content_freq if content_freq > 0.0 else math.inf
    # A DP5(4) step loses (h Omega)^6 / 1800 of the norm (its z^6 term is 1/600, exp's 1/720), so t_end / h
    # steps lose at most a further 2*rel_tol where h <= (3600 rel_tol / (t_end Omega^6))^(1/5).
    root = t_end**0.2 * norm_freq**0.2  # fifth roots first: no factor leaves the float range
    h_norm = (3600.0 * s.rel_tol) ** 0.2 / root / norm_freq if root > 0.0 else math.inf
    h_cap = min(h_user, h_interp, h_norm)
    if t_end > _MAX_STEPS * h_cap:
        steps = t_end / h_cap if h_cap > 0.0 else math.inf  # a float division: an overflow gives inf
        need = f"at least {steps:.3g} steps, over {_MAX_STEPS}" if steps < math.inf else f"more than {_MAX_STEPS} steps"
        raise ValueError(f"integrating to t = {t_end!r} needs {need}")
    return _integrate_dp45(rhs, ts, y0, s.rel_tol, s.abs_tol, h_cap, frame_freq, omega0=p.omega0, omega=p.omega)


def _norm_guard(survival, transition, ts, s: IntegratorSettings, label: str):
    dev = np.max(np.abs(survival + transition - 1.0))
    if not dev <= 10.0 * s.rel_tol:  # a NaN sample fails too
        worst = float(ts[int(np.argmax(np.abs(survival + transition - 1.0)))])
        raise IntegrationError(f"{label}: norm deviation {dev:.3e} exceeds 10*rel_tol", worst)


def evolve_instantaneous_basis(
    p: DriveParams, t_grid, settings: IntegratorSettings = DEFAULT_SETTINGS
) -> TimeSeries:
    """Integrate the coupled amplitude equations from alpha(0) = 1, beta(0) = 0.

    Args:
        p: drive parameters.
        t_grid: ascending sample times (seconds), all >= 0; the integration
            itself always starts at t = 0.
        settings: tolerances.

    Raises:
        ValueError: if the solve would exceed the step limit or omega_bar overflows.
        IntegrationError: on step-size underflow or norm loss beyond
            10 * rel_tol.
    """
    ts = _check_grid(t_grid)
    drift = p.drift
    coupling = p.coupling

    def rhs(t, a, b):
        return 0.5j * (drift * a + coupling * b), 0.5j * (coupling * a - drift * b)

    samples = _run(rhs, ts, (1.0 + 0.0j, 0.0j), settings, 0.5 * p.omega_bar, 0.5 * p.omega_bar, p)
    survival = np.abs(samples[0]) ** 2
    transition = np.abs(samples[1]) ** 2
    _norm_guard(survival, transition, ts, settings, "instantaneous-basis")
    return TimeSeries(times=ts, survival=survival, transition=transition, method="instantaneous-basis")


def evolve_lab_frame(p: DriveParams, t_grid, settings: IntegratorSettings = DEFAULT_SETTINGS) -> TimeSeries:
    """Integrate i d psi/dt = H(t) psi from the weak-field seeker (s, -c) at t = 0.

    Survival and transition are the squared projections onto the instantaneous eigenvectors at each sample time, so
    the result is independent of any eigenvector phase convention.
    """
    ts = _check_grid(t_grid)
    diag = 0.5 * p.omega0 * math.cos(p.theta)
    off_mag = 0.5 * p.omega0 * math.sin(p.theta)
    omega = p.omega

    def rhs(t, u, v):
        off = cmath.rect(off_mag, -omega * t)
        return -1j * (diag * u + off * v), -1j * (off.conjugate() * u - diag * v)

    start = (math.sin(0.5 * p.theta), -math.cos(0.5 * p.theta))
    # H turns at omega (module docstring); solution frequencies are at most omega/2 + omega_bar/2 <= omega + omega0/2.
    bound = 0.5 * p.omega + 0.5 * p.omega_bar
    samples = _run(rhs, ts, start, settings, p.omega + 0.5 * p.omega0, bound, p, p.omega)
    survival, transition = _projections(p, ts, lambda block: samples[:, block].T)
    _norm_guard(survival, transition, ts, settings, "lab-frame")
    return TimeSeries(times=ts, survival=survival, transition=transition, method="lab-frame")


def rotating_frame_propagator(p: DriveParams, t) -> np.ndarray:
    """Exact lab-frame propagator U(t), assembled from the co-rotating frame.

    In the frame rotating at the drive frequency the Hamiltonian is the
    static 0.5 * (omega0 sin(theta) sigma_x + (omega0 cos(theta) - omega) sigma_z),
    whose exponential follows from the Rodrigues expansion
    exp(-i a (m.sigma)) = cos(a) I - i sin(a) (m.sigma); transforming back
    multiplies by diag(e^{-i omega t / 2}, e^{+i omega t / 2}).  An array ``t`` gives a stack
    of shape ``t.shape + (2, 2)``; an overflowing omega_bar or phase is a ValueError naming the inputs.
    """
    t = check("t", *FINITE, t)
    ax = p.omega0 * math.sin(p.theta)
    az = p.omega0 * math.cos(p.theta) - p.omega
    wb = math.hypot(ax, az)  # its own hypot, not omega_bar_of: this route checks the closed form
    check_finite("omega_bar", wb, omega0=p.omega0, omega=p.omega)
    # m.sigma for the unit axis m; with wb == 0 the sine vanishes, so any axis does
    m_sigma = np.array([[az, ax], [ax, -az]]) / wb if wb > 0.0 else np.zeros((2, 2))
    with np.errstate(over="ignore"):  # an infinite phase is named below
        half = 0.5 * wb * t
        phase = p.omega * t
    check_finite("the phase wbar t/2", half, omega0=p.omega0, omega=p.omega, t=t)
    check_finite("the phase omega t", phase, omega=p.omega, t=t)
    core = np.multiply.outer(np.cos(half), np.eye(2)) - 1j * np.multiply.outer(np.sin(half), m_sigma)
    frame = np.exp(-0.5j * np.stack([phase, -phase], axis=-1))
    return frame[..., :, None] * core


def _projections(p: DriveParams, ts: np.ndarray, state_at):
    """Squared projections (survival, transition) onto the eigenvectors of the module docstring, block by block.

    The (n, 2) states (u, v) of ``state_at(block)`` give |s u - c w|^2 and |c u + s w|^2, for w = v e^{-i omega t}.
    """
    s, c = math.sin(0.5 * p.theta), math.cos(0.5 * p.theta)
    probs = np.empty((2, len(ts)))
    for lo in range(0, len(ts), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        with np.errstate(over="ignore"):  # an infinite phase is named below
            phase = p.omega * ts[block]
        check_finite("the phase omega t", phase, omega=p.omega, t=ts[block])  # before state_at, which names wbar t/2
        u, v = state_at(block).T
        w = v * np.exp(-1j * phase)
        probs[:, block] = np.abs([s * u - c * w, c * u + s * w]) ** 2
    return probs


def evolve_rotating_frame(p: DriveParams, t_grid) -> TimeSeries:
    """Probability series from the exact propagator; no ODE solve involved."""
    ts = _check_grid(t_grid)
    start = [math.sin(0.5 * p.theta), -math.cos(0.5 * p.theta)]  # the weak-field seeker at t = 0
    survival, transition = _projections(p, ts, lambda block: rotating_frame_propagator(p, ts[block]) @ start)
    return TimeSeries(times=ts, survival=survival, transition=transition, method="rotating-frame")
