"""Tests for the ODE routes and the rotating-frame propagator."""

import cmath
import itertools
import math
import re
import tracemalloc
import types

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest
import staged_reference

from toptrap import integrate, spin
from toptrap.closed_form import survival_probability, transition_probability
from toptrap.integrate import (
    IntegrationError,
    IntegratorSettings,
    SolverStats,
    TimeSeries,
    _integrate_dp45,
    _norm_guard,
    _projections,
    evolve_instantaneous_basis,
    evolve_lab_frame,
    evolve_rotating_frame,
    rotating_frame_propagator,
)
from toptrap.spin import DriveParams, eigensystem_at

RNG = np.random.default_rng(11)


def reference_projections(p, ts, states):
    """Per-sample eigensystem_at + vdot: the loop the batched projection replaced."""
    ref = np.empty((2, len(ts)))
    for k, t in enumerate(ts):
        pair = eigensystem_at(p, float(t))
        ref[0, k] = abs(np.vdot(pair.vec_minus, states[k])) ** 2
        ref[1, k] = abs(np.vdot(pair.vec_plus, states[k])) ** 2
    return ref


class TestSettings:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"abs_tol": -1e-12},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorSettings(**kwargs)

    def test_abs_tol_above_rel_tol_rejected(self):
        with pytest.raises(ValueError, match=r"abs_tol.*rel_tol"):
            IntegratorSettings(rel_tol=1e-13, abs_tol=1e-12)

    def test_timeseries_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(times=np.zeros(3), survival=np.zeros(2), transition=np.zeros(3), method="x")


class TestGridValidation:
    def test_descending_grid_rejected(self):
        with pytest.raises(ValueError):
            evolve_instantaneous_basis(DriveParams(1, 1, 1), [0.0, 2.0, 1.0])

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            evolve_lab_frame(DriveParams(1, 1, 1), [-1.0, 0.0])

    @pytest.mark.parametrize("grid", [[[0.0, 1.0], [2.0, 3.0]], []], ids=["2-d", "empty"])
    @pytest.mark.parametrize("route", [evolve_instantaneous_basis, evolve_lab_frame, evolve_rotating_frame])
    def test_grid_must_be_a_non_empty_1d_array(self, route, grid):
        with pytest.raises(ValueError, match="^t_grid must be a non-empty 1-d array$"):
            route(DriveParams(1, 1, 1), grid)


class TestInstantaneousBasis:
    def test_theta_zero_never_flips(self):
        p = DriveParams(1.0, 1.5, 0.0)
        series = evolve_instantaneous_basis(p, np.linspace(0, 30, 301))
        np.testing.assert_allclose(series.transition, 0.0, atol=1e-12)
        np.testing.assert_allclose(series.survival, 1.0, atol=1e-10)

    def test_matches_closed_form_over_twenty_periods(self):
        p = DriveParams(1.0, 1.5, math.pi / 2)
        ts = np.linspace(0.0, 20 * 2 * math.pi / p.omega_bar, 1501)
        series = evolve_instantaneous_basis(p, ts)
        delta = np.max(np.abs(series.survival - survival_probability(p, ts)))
        assert delta <= 1e-8

    def test_samples_pinned_bit_for_bit(self):
        """The cached step matrices and the step loop around them must not move a sample by a bit."""
        series = evolve_instantaneous_basis(DriveParams(1.0, 1.5, 1.0), np.linspace(0.0, 10.0, 11))
        assert [v.hex() for v in series.survival.tolist()] == [
            "0x1.0000000000000p+0", "0x1.4e4c833ec627bp-1", "0x1.abad4c2db6f60p-4", "0x1.10a4db1830f71p-3",
            "0x1.65887040f9995p-1", "0x1.fec8a34e9f84ep-1", "0x1.365bdf240bdb9p-1", "0x1.463f93641a9b4p-4",
            "0x1.52f82347135afp-3", "0x1.7bd5db7275094p-1", "0x1.fb2593c10f5f6p-1",
        ]  # fmt: skip
        assert [v.hex() for v in series.transition.tolist()] == [
            "0x0.0p+0", "0x1.6366f97dcce89p-2", "0x1.ca8a5676fb35dp-1", "0x1.bbd6c9392c77fp-1",
            "0x1.34ef1f7c3192dp-2", "0x1.375cae01502cap-9", "0x1.934841b382e1bp-2", "0x1.d7380d93728c3p-1",
            "0x1.ab41f72bbc827p-1", "0x1.085449148e7d9p-2", "0x1.369b0fb9a7476p-7",
        ]  # fmt: skip

    def test_norm_drift_small_at_long_times(self):
        for _ in range(10):
            p = DriveParams(1.0, RNG.uniform(0, 5), RNG.uniform(0, math.pi))
            series = evolve_instantaneous_basis(p, [0.0, 100.0])
            assert abs(series.survival[-1] + series.transition[-1] - 1.0) <= 1e-9


class TestLabFrame:
    def test_starts_cleanly(self):
        series = evolve_lab_frame(DriveParams(1.0, 1.5, 1.0), [0.0])
        assert series.survival[0] == pytest.approx(1.0, abs=1e-13)
        assert series.transition[0] == pytest.approx(0.0, abs=1e-13)

    def test_matches_closed_form_over_ten_drive_periods(self):
        p = DriveParams(1.0, 0.5, math.pi / 3)
        ts = np.linspace(0.0, 10 * 2 * math.pi / p.omega, 1001)
        series = evolve_lab_frame(p, ts)
        delta = np.max(np.abs(series.survival - survival_probability(p, ts)))
        assert delta <= 1e-8

    def test_degenerate_point_stays_put(self):
        series = evolve_lab_frame(DriveParams(1.0, 1.0, 0.0), np.linspace(0, 20, 41))
        np.testing.assert_allclose(series.survival, 1.0, atol=1e-10)

    def test_samples_pinned_bit_for_bit(self):
        """The lab frame steps with the cached matrices turned by U(t): its samples must not move by a bit."""
        series = evolve_lab_frame(DriveParams(1.0, 1.5, 1.0), np.linspace(0.0, 10.0, 11))
        assert [v.hex() for v in series.survival.tolist()] == [
            "0x1.0000000000000p+0", "0x1.4e4c83404a1a0p-1", "0x1.abad4c307b126p-4", "0x1.10a4db1899385p-3",
            "0x1.658870419f861p-1", "0x1.fec8a351fbcefp-1", "0x1.365bdf256101bp-1", "0x1.463f93641c566p-4",
            "0x1.52f82348b8710p-3", "0x1.7bd5db74de7b0p-1", "0x1.fb2593c119444p-1",
        ]  # fmt: skip
        assert [v.hex() for v in series.transition.tolist()] == [
            "0x0.0p+0", "0x1.6366f97f6bb91p-2", "0x1.ca8a5679f0795p-1", "0x1.bbd6c939d963cp-1",
            "0x1.34ef1f7cbfe5ep-2", "0x1.375cae036324bp-9", "0x1.934841b53bba8p-2", "0x1.d7380d937af61p-1",
            "0x1.ab41f72dcff9cp-1", "0x1.085449163e4c1p-2", "0x1.369b0fb9ab35ap-7",
        ]  # fmt: skip


BUILD_CALLS = 2 * 7  # rhs calls per build of D and E: the seven stages, on each basis vector
NEEDS_CONTROL = re.escape("error control would need a step below the route's cap") + r" \(t = [0-9.e+-]+\)"


def count_sqrt(monkeypatch, module) -> list:
    """Record every ``math.sqrt`` argument in ``module``: each step attempt that forms the error norm takes one sqrt
    (in ``integrate``, every attempt at a step size that is not certified; in ``staged_reference``, every attempt)."""
    norms = []
    counting = {**vars(math), "sqrt": lambda x: norms.append(x) or math.sqrt(x)}
    monkeypatch.setattr(module, "math", types.SimpleNamespace(**counting))
    return norms


class RecordingMargin(float):
    """A stand-in for ``integrate._CERTAIN`` that records each squared-norm bound compared with it: ``bound < margin``
    asks this subclass's ``margin > bound`` first."""

    def __gt__(self, bound):
        self.bounds.append(bound)
        return float(self) > bound


def record_bounds(monkeypatch) -> list:
    margin = RecordingMargin(integrate._CERTAIN)
    margin.bounds = []
    monkeypatch.setattr(integrate, "_CERTAIN", margin)
    return margin.bounds


def recorded_solve(monkeypatch, route, p, ts, settings=integrate.DEFAULT_SETTINGS):
    """Run ``route``; return the arguments it passed to the stepper, the stepper's samples and the series' stats."""
    solves = []
    stepper = integrate._integrate_dp45

    def recording(*args, **drive):
        solves.append((args, stepper(*args, **drive)))
        return solves[-1][1]

    monkeypatch.setattr(integrate, "_integrate_dp45", recording)
    series = route(p, ts, settings)
    [(args, (samples, stats))] = solves
    assert series.stats is stats
    return args, samples, stats


class TestCachedStepMatrices:
    """Both ODE routes step with D(h) and E(h) built from the stages at t = 0, turned by the drive's rotation in
    the lab frame; the staged loop of ``staged_reference``, run on the same rhs, is the reference."""

    DRIVES = [
        pytest.param(DriveParams(1.0, 1.001, 0.01), id="near-resonant"),
        pytest.param(DriveParams(1.0, 1.5, 1e-3), id="small-theta"),
        pytest.param(DriveParams(1.0, 1.5, math.pi - 1e-3), id="theta-near-pi"),
        pytest.param(DriveParams(1.0, 50.0, 1.0), id="omega-above-omega0"),
    ]

    @staticmethod
    def check_against_the_stages(monkeypatch, route, p, rel_tol, frame_freq):
        stage_hs, staged_hs = [], []
        stages, staged_step = integrate._stages, staged_reference.staged_step
        monkeypatch.setattr(integrate, "_stages", lambda rhs, y, h: stage_hs.append(h) or stages(rhs, y, h))
        monkeypatch.setattr(staged_reference, "staged_step", lambda *a: staged_hs.append(a[-1]) or staged_step(*a))
        cached_norms, staged_norms = count_sqrt(monkeypatch, integrate), count_sqrt(monkeypatch, staged_reference)
        bounds = record_bounds(monkeypatch)
        ts = np.linspace(0.0, 3 * 2 * math.pi / p.omega_bar, 41)
        settings = IntegratorSettings(rel_tol=rel_tol, abs_tol=rel_tol / 100)
        args, cached, stats = recorded_solve(monkeypatch, route, p, ts, settings)
        builds = stage_hs[::2]
        assert args[-1] == frame_freq
        assert stage_hs[1::2] == builds  # each build runs the stages on both basis vectors
        assert len(set(builds)) == len(builds) == stats.builds  # and happens once per distinct h
        staged = staged_reference.staged_dp45(*args[:-1])
        assert stats.attempts == len(staged_norms) == len(staged_hs) > len(builds)
        np.testing.assert_allclose(cached, staged, rtol=0.0, atol=1e-12)
        # A run of one h in the staged loop is one build.  A bound is recorded at each build at h_cap; where it
        # certifies, every staged norm of the run lies below it, and elsewhere E(h) y, turned by U(t) in the lab
        # frame, is the staged error estimate: the scaled errors agree far inside the accept threshold 1.
        h_cap, bounds, exact, certified = args[5], iter(bounds), [], 0
        runs = itertools.groupby(zip(staged_hs, staged_norms), key=lambda pair: pair[0])
        for h, run in runs:
            norms = [norm for _, norm in run]
            bound = next(bounds) if h == h_cap else math.inf
            if bound < float(integrate._CERTAIN):  # float(): no record of this comparison
                certified += 1
                assert max(norms) < bound
            else:
                exact += norms
        assert next(bounds, None) is None and certified == stats.certified_builds
        assert len(cached_norms) == len(exact)
        np.testing.assert_allclose(np.sqrt(cached_norms), np.sqrt(exact), rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-6])
    @pytest.mark.parametrize("p", DRIVES)
    def test_matrices_match_the_stages(self, monkeypatch, p, rel_tol):
        self.check_against_the_stages(monkeypatch, evolve_instantaneous_basis, p, rel_tol, 0.0)

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-6])
    @pytest.mark.parametrize("p", DRIVES)
    def test_turned_matrices_match_the_lab_stages(self, monkeypatch, p, rel_tol):
        self.check_against_the_stages(monkeypatch, evolve_lab_frame, p, rel_tol, p.omega)

    @pytest.mark.parametrize("route, attempts", [(evolve_instantaneous_basis, 383), (evolve_lab_frame, 1200)])
    def test_step_attempts_pinned(self, route, attempts):
        """The step sequence must not change."""
        assert route(DriveParams(1.0, 1.5, 1.0), np.linspace(0.0, 10.0, 11)).stats.attempts == attempts

    def test_no_drift_over_a_long_solve(self, monkeypatch):
        """Over 100 Rabi periods (about 19,000 steps) the cached solve stays with the staged one.  Caching R
        itself, not R - I, rounds every step alike and drifted 3e-13 away on this drive."""
        p = DriveParams(2.0, 1.0, 2.0)
        ts = np.linspace(0.0, 100 * 2 * math.pi / p.omega_bar, 11)
        args, cached, _ = recorded_solve(monkeypatch, evolve_instantaneous_basis, p, ts)
        np.testing.assert_allclose(cached, staged_reference.staged_dp45(*args[:-1]), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("route", [evolve_instantaneous_basis, evolve_lab_frame])
    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-6])
    def test_both_routes_stay_with_the_staged_loop_over_250_rabi_periods(self, monkeypatch, route, rel_tol):
        """The lab step from t is the t = 0 step turned by U(t): exact, so no error grows with t or with omega t."""
        p = DriveParams(1.0, 0.5, 2.5)
        ts = np.linspace(0.0, 250 * 2 * math.pi / p.omega_bar, 11)
        settings = IntegratorSettings(rel_tol=rel_tol, abs_tol=rel_tol / 100)
        args, cached, _ = recorded_solve(monkeypatch, route, p, ts, settings)
        np.testing.assert_allclose(cached, staged_reference.staged_dp45(*args[:-1]), rtol=0.0, atol=1e-12)


class TestRotatingFramePropagator:
    @pytest.mark.parametrize("p", [DriveParams(1.0, 1.5, 1.0), DriveParams(1.0, 1.0, 0.0)])
    def test_array_matches_scalar_calls(self, p):
        ts = np.array([[0.0, 0.3, 3.7], [-12.0, 100.0, 1e3]])
        stack = rotating_frame_propagator(p, ts)
        assert stack.shape == (2, 3, 2, 2)
        for idx in np.ndindex(ts.shape):
            np.testing.assert_allclose(stack[idx], rotating_frame_propagator(p, float(ts[idx])), rtol=0, atol=1e-15)

    def test_nonfinite_time_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            rotating_frame_propagator(DriveParams(1.0, 1.5, 1.0), np.array([0.0, math.nan]))

    @pytest.mark.parametrize(
        "call", [lambda p: rotating_frame_propagator(p, 0.0), lambda p: evolve_rotating_frame(p, [0.0, 1.0])],
        ids=["propagator", "series"],
    )
    def test_overflowing_omega_bar_named(self, call):
        """hypot(omega0 sin(theta), omega0 cos(theta) - omega) = inf once made the report blame the phase at t = 0."""
        message = "omega0 and omega must keep omega_bar finite, got omega0 = 1.7e+308, omega = 3e+307"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(DriveParams(1.7e308, 3e307, math.pi))

    def test_identity_at_time_zero(self):
        u = rotating_frame_propagator(DriveParams(1.0, 1.5, 1.0), 0.0)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-16)

    def test_unitarity(self):
        for _ in range(50):
            p = DriveParams(RNG.uniform(0.1, 5), RNG.uniform(0, 5), RNG.uniform(0, math.pi))
            u = rotating_frame_propagator(p, RNG.uniform(-20, 20))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-13)

    def test_survival_matches_closed_form(self):
        p = DriveParams(1.0, 1.5, math.pi / 4)
        t = 3.7
        psi = rotating_frame_propagator(p, t) @ eigensystem_at(p, 0.0).vec_minus
        pair = eigensystem_at(p, t)
        survival = abs(np.vdot(pair.vec_minus, psi)) ** 2
        assert survival == pytest.approx(float(survival_probability(p, t)), abs=1e-12)

    def test_series_helper(self):
        p = DriveParams(2.0, 1.0, 2.0)
        ts = np.linspace(0, 15, 301)
        series = evolve_rotating_frame(p, ts)
        np.testing.assert_allclose(series.survival, survival_probability(p, ts), atol=1e-12)
        np.testing.assert_allclose(series.transition, transition_probability(p, ts), atol=1e-12)


class TestProjection:
    @pytest.mark.parametrize(
        "omega0, omega, theta",
        [(1.0, 1.5, 0.0), (1.0, 1.5, math.pi / 2), (1.0, 1.5, math.pi), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1.0, 0.0)],
    )
    def test_matches_per_sample_reference(self, monkeypatch, omega0, omega, theta):
        monkeypatch.setattr(integrate, "_BLOCK", 7)  # several blocks and a ragged last one
        p = DriveParams(omega0, omega, theta)
        ts = np.linspace(0.0, 12.0, 40)
        states = RNG.normal(size=(40, 2)) + 1j * RNG.normal(size=(40, 2))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        probs = _projections(p, ts, lambda block: states[block])
        np.testing.assert_allclose(probs, reference_projections(p, ts, states), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("route", [evolve_lab_frame, evolve_rotating_frame])
    def test_routes_diagonalise_nothing(self, monkeypatch, route):
        """The routes project onto the known eigenbasis: eigh, einsum, hamiltonian_at and eigensystem_at stay unused."""

        def refuse(*args, **kwargs):
            raise AssertionError("numerical eigensystem called")

        numerical = [(np.linalg, "eigh"), (np, "einsum"), (spin, "hamiltonian_at"), (integrate, "eigensystem_at")]
        for owner, name in numerical:
            monkeypatch.setattr(owner, name, refuse)
        p = DriveParams(1.0, 1.5, 1.0)
        ts = np.linspace(0.0, 10.0, 101)
        np.testing.assert_allclose(route(p, ts).survival, survival_probability(p, ts), rtol=0, atol=1e-8)

    def test_rotating_frame_peak_memory_stays_blocked(self):
        ts = np.linspace(0.0, 50.0, 400_000)
        tracemalloc.start()
        try:
            evolve_rotating_frame(DriveParams(1.0, 1.5, 1.0), ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6


class TestCrossMethodAgreement:
    @pytest.mark.parametrize("ratio", [0.5, 1.5])
    @pytest.mark.parametrize("theta", [0.4, math.pi / 2, 2.6])
    def test_all_routes_agree(self, ratio, theta):
        p = DriveParams(1.0, ratio, theta)
        ts = np.linspace(0.0, 5 * 2 * math.pi / p.omega_bar, 97)
        closed = survival_probability(p, ts)
        for series in (
            evolve_instantaneous_basis(p, ts),
            evolve_lab_frame(p, ts),
            evolve_rotating_frame(p, ts),
        ):
            assert np.max(np.abs(series.survival - closed)) <= 1e-8


class TestSubnormalOmega0:
    """H(t) underflows to zero below the normal floats, but its eigenbasis does not depend on omega0."""

    @pytest.mark.parametrize("omega0", [1e-310, 1e-315, 1e-320, 5e-324])
    @pytest.mark.parametrize("route", [evolve_lab_frame, evolve_rotating_frame])
    def test_routes_match_closed_form(self, omega0, route):
        p = DriveParams(omega0, 3.9587, 2.2958)
        ts = np.linspace(0.0, 1.0, 51)
        series = route(p, ts)
        np.testing.assert_allclose(series.survival, survival_probability(p, ts), rtol=0, atol=1e-12)
        np.testing.assert_allclose(series.transition, transition_probability(p, ts), rtol=0, atol=1e-12)


class TestFailureModes:
    def test_error_norm_above_one_is_refused_at_its_time(self):
        def hopeless(t, a, b):
            """Finite stage sums at the cap 0.1, and an error estimate far above 1 there."""
            return 1j * 1e30 * a, -1j * 1e30 * b

        with pytest.raises(IntegrationError, match=f"^error norm [0-9.e+]+ above 1: {NEEDS_CONTROL}$") as err:
            _integrate_dp45(hopeless, np.array([0.0, 1.0]), (1.0 + 0j, 0.0j), 1e-10, 1e-12, 0.1)
        assert err.value.t == 0.0

    @pytest.mark.parametrize(
        "route, drive, tolerances",
        [
            (evolve_instantaneous_basis, (1e-50, 1e-50, 1.0), (1e-200, 1e-300)),
            (evolve_instantaneous_basis, (1e-100, 1e-100, 1.0), (1e-290, 1e-320)),
            (evolve_lab_frame, (1e-100, 1e-100, 1.0), (1e-290, 1e-320)),
        ],
        ids=["instantaneous-1e-50", "instantaneous-1e-100", "lab-1e-100"],
    )
    def test_error_norm_beyond_the_float_range_is_refused(self, route, drive, tolerances):
        """An error ratio above 1.3e154 at these absolute tolerances squares past the largest float: ``** 2`` raised
        OverflowError out of the solve, and the norm is now inf, which the step refuses."""
        message = f"^error norm inf above 1: {NEEDS_CONTROL}$"
        with pytest.raises(IntegrationError, match=message) as err:
            route(DriveParams(*drive), np.array([0.0, 0.5, 1.0]), IntegratorSettings(*tolerances))
        assert err.value.t == 0.0

    def test_corrupt_error_estimate_is_refused_not_run_out(self, monkeypatch):
        """With the last error weight -1/41 for -1/40 the estimate is first order, far above 1 at the route's cap:
        the first step is refused, where error control once shrank h to about 3e-9 and ran 2 * _MAX_STEPS attempts."""
        monkeypatch.setattr(integrate, "_E7", -1 / 41)
        with pytest.raises(IntegrationError, match=f"^error norm [0-9.e+]+ above 1: {NEEDS_CONTROL}$") as err:
            evolve_instantaneous_basis(DriveParams(1.0, 1.5, 1.0), np.array([0.0, 0.1]))
        assert err.value.t == 0.0

    def test_work_budget_refuses_a_long_solve(self):
        """A span of 2.5 * 10^6 steps at the cap, which ``_run`` refuses before stepping, called directly: the run
        that passes 2 * _MAX_STEPS attempts ends at its sample, and the solve is refused there."""
        h_cap = 1e-3
        ts = np.linspace(0.0, 2.5e6 * h_cap, 26)  # a sample every 10^5 steps

        def rhs(t, a, b):
            return 0.5j * (0.3 * a + 0.8 * b), 0.5j * (0.8 * a - 0.3 * b)

        with pytest.raises(IntegrationError, match=r"^more than 2000000 step attempts") as err:
            _integrate_dp45(rhs, ts, (1.0 + 0.0j, 0.0j), 1e-10, 1e-12, h_cap)
        assert 2e6 * h_cap <= err.value.t < 2.1e6 * h_cap

    @pytest.mark.parametrize("route", [evolve_instantaneous_basis, evolve_lab_frame])
    def test_overflowing_stage_sums_refused_before_any_step(self, monkeypatch, route):
        """At omega0 = 4e307 the stage sums overflow at every step size: a ValueError naming the drive, raised at
        the first build, where error control once shrank h down to an IntegrationError by underflow."""
        norms = count_sqrt(monkeypatch, integrate)
        message = r"omega0 and omega must keep the DP5\(4\) stage sums finite, got omega0 = 4e\+307, omega = 1.0$"
        with pytest.raises(ValueError, match=message):
            route(DriveParams(4e307, 1.0, 1.0), np.linspace(0.0, 1e-306, 4))
        assert norms == []  # one error norm per step attempt: none was made

    def test_norm_guard_trips_on_bad_series(self):
        settings = IntegratorSettings()
        bad = np.array([1.0, 0.9])
        with pytest.raises(IntegrationError, match="norm deviation"):
            _norm_guard(bad, np.zeros(2), np.array([0.0, 1.0]), settings, "test")

    def test_norm_guard_trips_on_nan(self):
        with pytest.raises(IntegrationError, match="norm deviation nan"):
            _norm_guard(np.array([math.nan]), np.array([0.0]), np.array([0.0]), IntegratorSettings(), "test")

    @pytest.mark.parametrize("route", [evolve_instantaneous_basis, evolve_lab_frame])
    def test_nan_sample_fails_the_route(self, monkeypatch, route):
        """A stepper that hands back one NaN sample trips either ODE route's norm guard, at that sample."""
        stepper = integrate._integrate_dp45

        def one_nan(*args, **drive):
            out, stats = stepper(*args, **drive)
            out[:, 1] = math.nan
            return out, stats

        monkeypatch.setattr(integrate, "_integrate_dp45", one_nan)
        with pytest.raises(IntegrationError, match="norm deviation nan") as err:
            route(DriveParams(1.0, 1.5, 1.0), np.array([0.0, 1.0, 2.0]))
        assert err.value.t == 1.0

    def test_last_step_takes_the_whole_remainder(self, monkeypatch):
        """Ten steps of 0.2 sum to a few ulp short of 2; the tenth must still arrive at 2."""
        calls = 0

        def rhs(t, a, b):
            nonlocal calls
            calls += 1
            return 0.5j * (0.3 * a + 0.8 * b), 0.5j * (0.8 * a - 0.3 * b)

        out, stats = _integrate_dp45(rhs, np.array([0.0, 2.0]), (1.0 + 0.0j, 0.0j), 1.0, 1.0, 0.2)
        assert stats.attempts == 10  # no sliver step after the tenth
        assert calls == BUILD_CALLS * 2 + 2  # builds for 0.2 and the remainder 0.2 + 2 ulp; f at the sample step
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("route", [evolve_instantaneous_basis, evolve_lab_frame])
    @pytest.mark.parametrize("t_end", [1e-16, 1e-300, 5e-324])
    def test_very_short_span_is_solved(self, route, t_end):
        """The step-size floor was 1e-14 of the step cap, above a whole span this short: underflow at t = 0."""
        p = DriveParams(1.0, 1.5, 1.0)
        series = route(p, [0.0, t_end])
        np.testing.assert_allclose(series.survival, [1.0, survival_probability(p, t_end)], rtol=0, atol=1e-15)
        np.testing.assert_allclose(series.transition, [0.0, transition_probability(p, t_end)], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("route", [evolve_instantaneous_basis, evolve_lab_frame])
    def test_step_bound_refuses_before_stepping(self, no_stepping, route):
        with pytest.raises(ValueError, match="steps"):
            route(DriveParams(1e6, 1.5e6, 1.0), [0.0, 1.0])


class TestNormLossCap:
    """A DP5(4) step loses (h Omega)^6 / 1800 of the norm, so the loss grows with the step count; the step cap
    keeps a whole span's loss inside 2 * rel_tol, and a span that needs more than 10^6 such steps is refused."""

    P = DriveParams(2.0, 1.0, 2.0)
    SETTINGS = IntegratorSettings(rel_tol=1e-6, abs_tol=1e-8)
    # t_end / h_cap = 10^6 for h_cap = (3600 rel_tol / (t_end Omega^6))^(1/5), Omega = wbar / 2
    REFUSED = 1e6 ** (5 / 6) * (3600.0 * SETTINGS.rel_tol) ** (1 / 6) / (0.5 * P.omega_bar)

    @pytest.mark.parametrize("fraction", [0.01, 0.1, 0.3])
    def test_span_keeps_the_norm_up_to_the_refusal(self, fraction):
        series = evolve_instantaneous_basis(self.P, np.linspace(0.0, fraction * self.REFUSED, 11), self.SETTINGS)
        assert np.max(np.abs(series.survival + series.transition - 1.0)) <= 4.0 * self.SETTINGS.rel_tol

    @pytest.mark.parametrize("route", [evolve_instantaneous_basis, evolve_lab_frame])
    def test_longer_span_is_refused(self, no_stepping, route):
        with pytest.raises(ValueError, match="needs at least .* steps, over 1000000"):
            route(self.P, [0.0, 1.01 * self.REFUSED], self.SETTINGS)

    @pytest.mark.parametrize("route", [evolve_instantaneous_basis, evolve_lab_frame])
    def test_cap_stays_in_the_float_range(self, route):
        """Omega^6 would overflow at omega_bar = 1e300 (1 / t_end at t_end = 5e-324: test_very_short_span_is_solved)."""
        p, t_end = DriveParams(1e300, 1e-10, 1.0), 1e-300
        series = route(p, [0.0, t_end])
        np.testing.assert_allclose(series.survival, [1.0, survival_probability(p, t_end)], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("route", [evolve_instantaneous_basis, evolve_lab_frame])
    def test_cap_below_the_float_range_is_refused(self, no_stepping, route):
        """The cap underflows to 0 here: the refusal still names the step count, with no division by zero."""
        with pytest.raises(ValueError, match="^integrating to t = 1e[+]300 needs more than 1000000 steps$"):
            route(DriveParams(1e300, 1e-10, 1.0), [0.0, 1e300])


def log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda exponent: 10.0**exponent)


CORNER_THETAS = [0.0, math.pi, 5e-324, math.pi - 1e-12]


@st.composite
def corner_drives(draw):
    """(omega0, omega, theta) at the corners of the drive domain: subnormal omega0 and omega0 up to 1e300, omega/omega0
    up to 10^+-6, theta at 0, pi and next to them, and near-resonant drives, omega cos(theta) = omega0, at small theta."""
    omega0 = draw(st.one_of(st.sampled_from([5e-324, 1e-320, 1e-310]), log_uniform(1e-300, 1e300)))
    if draw(st.booleans()):
        theta = draw(log_uniform(1e-8, 0.3))
        detuning = draw(st.sampled_from([-1.0, 1.0])) * draw(log_uniform(1e-9, 1e-1))
        return omega0, omega0 * (1.0 + detuning) / math.cos(theta), theta
    theta = draw(st.one_of(st.sampled_from(CORNER_THETAS), st.floats(0.0, math.pi)))
    return omega0, omega0 * draw(log_uniform(1e-6, 1e6)), theta


class TestStepCheck:
    """No step-size controller: every step is at the route's cap or the remainder, and a step whose error norm is
    not <= 1 is refused (module docstring of ``integrate``)."""

    @hyp.settings(max_examples=500, deadline=None)
    @hyp.given(
        drive=corner_drives(),
        rel_tol=st.one_of(log_uniform(1e-14, 1e3), log_uniform(1e-14, 1e-12)),
        abs_ratio=log_uniform(1e-12, 1.0),
        periods=log_uniform(0.1, 5.0),
        span=st.one_of(log_uniform(1e-300, 1.7e308), log_uniform(1e290, 1.7e308)),
        route=st.sampled_from([evolve_instantaneous_basis, evolve_lab_frame]),
    )
    def test_caps_pass_the_check_at_the_domain_corners(self, drive, rel_tol, abs_ratio, periods, span, route):
        """Rabi periods, at most ten periods of the fastest frequency and at most ``span``: a span far beyond the
        frequencies, where those are subnormal, makes E y's rounding the largest term of the error norm."""
        p = DriveParams(*drive)
        rabi_span = periods * 2.0 * math.pi / p.omega_bar if p.omega_bar > 0.0 else math.inf
        t_end = min(rabi_span, 10 * 2.0 * math.pi / max(p.omega0, p.omega), span)
        settings = IntegratorSettings(rel_tol=rel_tol, abs_tol=abs_ratio * rel_tol)
        try:
            route(p, np.linspace(0.0, t_end, 7), settings)
        except ValueError:
            pass  # refused before any step: over 10^6 steps, or a value beyond the float range

    @pytest.mark.parametrize("route, theta", [(evolve_instantaneous_basis, 0.05), (evolve_lab_frame, math.pi - 1e-12)])
    def test_rounding_of_subnormal_rates_is_not_refused(self, route, theta):
        """At omega0 = omega = 1e-310 the rate products round by up to 5e-324 whatever their size, so the one step of
        1e300 carries some 1e-24 in E y, above abs_tol: without the h * _ROUNDING floor it was refused."""
        p, ts = DriveParams(1e-310, 1e-310, theta), np.array([0.0, 1e300])
        series = route(p, ts, IntegratorSettings(rel_tol=1e-13, abs_tol=1e-25))
        assert series.stats.attempts == 1
        np.testing.assert_allclose(series.survival, survival_probability(p, ts), rtol=0, atol=1e-15)


class TestCertifiedStepSizes:
    """At a certified step size every step is accepted without its error norm (module docstring of ``integrate``).
    With the margin at 0 nothing is certified, so every step forms the norm: samples, refusals and step counts must
    not move."""

    @staticmethod
    def solve(route, p, ts, settings, cap_scale):
        stepper = integrate._integrate_dp45

        def scaled_cap(rhs, ts, y0, rel_tol, abs_tol, h_cap, *rest, **drive):
            return stepper(rhs, ts, y0, rel_tol, abs_tol, h_cap * cap_scale, *rest, **drive)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrate, "_integrate_dp45", scaled_cap)
            try:
                series = route(p, ts, settings)
            except (ValueError, IntegrationError) as err:
                return repr(err), None
        return [series.survival.tobytes(), series.transition.tobytes()], series.stats

    def check_both_ways(self, route, p, ts, settings, cap_scale=1.0) -> SolverStats | None:
        """The route with its step cap times ``cap_scale``: above 1, the error norm at the cap can refuse a step."""
        samples, stats = self.solve(route, p, ts, settings, cap_scale)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrate, "_CERTAIN", 0.0)
            exact_samples, exact_stats = self.solve(route, p, ts, settings, cap_scale)
        assert samples == exact_samples
        if stats is not None:
            assert exact_stats == SolverStats(stats.attempts, stats.builds, 0)
        return stats

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(
        ratio=log_uniform(1e-2, 1e2),
        theta=st.floats(0.0, math.pi),
        rel_tol=log_uniform(1e-13, 1e-5),
        abs_ratio=log_uniform(1e-4, 1.0),
        periods=log_uniform(0.1, 20.0),
        route=st.sampled_from([evolve_instantaneous_basis, evolve_lab_frame]),
        cap_scale=st.one_of(st.just(1.0), log_uniform(1.0, 1e3)),
    )
    def test_certificate_moves_no_bit(self, ratio, theta, rel_tol, abs_ratio, periods, route, cap_scale):
        """Rabi periods, but at most ten periods of the fastest frequency: a near-resonant drive at small theta
        would otherwise take millions of steps.  The routes' own caps keep the error norm at h_cap far below 1, so
        raised caps are drawn too: there the norm refuses a step at h_cap, and a bound that certified that step size
        would let the solve run on where the all-norms solve is refused."""
        p = DriveParams(1.0, ratio, theta)
        rabi_span = periods * 2.0 * math.pi / p.omega_bar if p.omega_bar > 0.0 else math.inf
        t_end = min(rabi_span, 10 * 2.0 * math.pi / max(1.0, ratio))
        settings = IntegratorSettings(rel_tol=rel_tol, abs_tol=min(rel_tol, abs_ratio * rel_tol))
        self.check_both_ways(route, p, np.linspace(0.0, t_end, 7), settings, cap_scale)

    def test_certified_drive(self, monkeypatch):
        """All steps but the last, the remainder, are at the certified h_cap: one error norm in 1,200 attempts."""
        norms = count_sqrt(monkeypatch, integrate)
        stats = self.check_both_ways(
            evolve_lab_frame, DriveParams(1.0, 1.5, 1.0), np.linspace(0.0, 10.0, 11), integrate.DEFAULT_SETTINGS
        )
        assert stats == SolverStats(attempts=1200, builds=2, certified_builds=1)
        assert len(norms) == 1200 + 1  # the margin-0 solve forms all 1,200 norms, the certified one only the last

    def test_norm_floor_certifies_the_default_drive(self, monkeypatch):
        """|y| stays near 1, so |a| or |b| stays near 1/sqrt(2) or above and its error term is scaled by
        rel_tol / sqrt(2), not abs_tol: the instantaneous cap of (1, 1.5, 1) is certified, one norm in 383 attempts."""
        norms = count_sqrt(monkeypatch, integrate)
        p, ts = DriveParams(1.0, 1.5, 1.0), np.linspace(0.0, 10.0, 11)
        stats = self.check_both_ways(evolve_instantaneous_basis, p, ts, integrate.DEFAULT_SETTINGS)
        assert stats == SolverStats(attempts=383, builds=2, certified_builds=1)
        assert len(norms) == 383 + 1  # the margin-0 solve forms all 383 norms, the certified one only the last

    @hyp.settings(max_examples=40, deadline=None)
    @hyp.given(
        theta=st.floats(0.3, 1.5),
        detuning=log_uniform(1e-7, 1e-1),
        sign=st.sampled_from([-1.0, 1.0]),
        rel_tol=log_uniform(1e-13, 1e-5),
        abs_ratio=log_uniform(1e-8, 1.0),
        periods=st.floats(0.5, 3.0),
        route=st.sampled_from([evolve_instantaneous_basis, evolve_lab_frame]),
        cap_scale=log_uniform(1.0, 4.0),
    )
    def test_norm_floor_near_resonance(self, theta, detuning, sign, rel_tol, abs_ratio, periods, route, cap_scale):
        """Near resonance, omega cos(theta) = omega0, the survival amplitude |a| passes near 0 and the other
        component carries the norm floor; raised caps make the error norm refuse a step there."""
        p = DriveParams(1.0, (1.0 + sign * detuning) / math.cos(theta), theta)
        t_end = min(periods * 2.0 * math.pi / p.omega_bar, 10 * 2.0 * math.pi / p.omega)
        settings = IntegratorSettings(rel_tol=rel_tol, abs_tol=abs_ratio * rel_tol)
        self.check_both_ways(route, p, np.linspace(0.0, t_end, 7), settings, cap_scale)

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(
        rates=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=4, max_size=4),
        h=log_uniform(1e-2, 1.0),
        rel_tol=log_uniform(1e-13, 1e-3),
        abs_ratio=log_uniform(1e-12, 1.0),
    )
    def test_bound_covers_every_state_of_the_build(self, rates, h, rel_tol, abs_ratio):
        """For any linear y' = M y, the bound recorded at a build from |y| = 1 lies above the error norm of the first
        step from every state of norm 1, also from |a| = 0 or |b| = 0, where one error term is scaled by abs_tol
        alone.  A general M, unlike the routes' anti-Hermitian ones, makes |e01| and |e10| differ."""
        for squared_norm, bound in self.first_norms_and_bounds(rates, h, rel_tol, abs_ratio * rel_tol):
            assert squared_norm <= bound

    @pytest.mark.parametrize(
        "rates, h, rel_tol, abs_tol, least",
        [
            ((0.018j, -5.5e-7 - 2e-7j, 1.3e-10 - 4.8e-11j, 0.044j), 0.5, 1e-3, 2e-8, 0.5),
            ((-0.9967j, 1.75e-9 - 4.7e-9j, -2.27e-7 + 8.2e-7j, -0.26j), 0.0116, 2e-9, 3.4e-14, 0.999),
        ],
        ids=["min-term-undercuts-twice", "tight"],
    )
    def test_bound_is_tight_where_the_norm_floor_acts(self, rates, h, rel_tol, abs_tol, least):
        """With a unitary diagonal and tiny, unequal off-diagonal rates, K is near 0, so the norm floor applies, and
        at or next to (0, 1) or (1, 0) the realised err^2 comes within a factor ``least`` of the bound: the larger of its two
        terms, which the other (the min) would undercut."""
        pairs = self.first_norms_and_bounds(rates, h, rel_tol, abs_tol)
        ratios = [squared_norm / bound for squared_norm, bound in pairs]
        assert least <= max(ratios) <= 1.0

    @staticmethod
    def first_norms_and_bounds(rates, h, rel_tol, abs_tol):
        """For y' = M y with M = [[m00, m01], [m10, m11]] = ``rates`` and nothing certified: from (1, 0), (0, 1) and
        states of norm 1 between them, the first step's squared error norm and the bound recorded at its build."""
        m00, m01, m10, m11 = rates

        def rhs(t, a, b):
            return m00 * a + m01 * b, m10 * a + m11 * b

        def first_norm(squared):  # the first attempt's squared error norm ends the solve
            raise StopIteration(squared)

        angles = itertools.product(np.linspace(0.0, 0.5 * math.pi, 17), [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        states = [(1.0 + 0.0j, 0.0j), (0.0j, 1.0 + 0.0j)]
        states += [(complex(math.cos(phi)), cmath.rect(math.sin(phi), psi)) for phi, psi in angles]
        pairs, margin = [], RecordingMargin(0.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrate, "math", types.SimpleNamespace(**{**vars(math), "sqrt": first_norm}))
            patch.setattr(integrate, "_CERTAIN", margin)
            for y0 in states:
                margin.bounds = []
                with pytest.raises(StopIteration) as norm:
                    _integrate_dp45(rhs, np.array([0.0, h]), y0, rel_tol, abs_tol, h)
                pairs.append((norm.value.value, margin.bounds[0]))  # the one build, at h_cap
        return pairs

    def test_uncertified_drive_forms_every_norm(self, monkeypatch):
        """At rel_tol 1e-6 the error matrix at h_cap is too large for the bound: every attempt forms the norm."""
        norms = count_sqrt(monkeypatch, integrate)
        bounds = record_bounds(monkeypatch)
        p, settings = DriveParams(1.0, 50.0, 1.0), IntegratorSettings(rel_tol=1e-6, abs_tol=1e-8)
        stats = evolve_instantaneous_basis(p, np.linspace(0.0, 3 * 2 * math.pi / p.omega_bar, 41), settings).stats
        assert stats == SolverStats(attempts=57, builds=2, certified_builds=0)
        assert len(norms) == stats.attempts
        assert len(bounds) == 1 and bounds[0] >= 1.0  # the one build at h_cap


class TestRuns:
    """At h_cap the stepper runs from sample to sample; the remainder rule and exact arrival act in the last four
    steps, which are taken one attempt at a time."""

    @pytest.mark.parametrize(
        "h_cap, ts",
        [
            (0.25, [0.0, 1.3, 1.5, 3.999, 4.0, 4.1, 4.5, 4.75, 4.9, 5.0]),  # exact step ends: samples on them
            (0.1, [0.0, 0.35, 1.55, 1.6, 1.65, 1.75, 1.95, 2.0]),  # twenty steps of 0.1 round short of 2
        ],
        ids=["binary-steps", "rounded-steps"],
    )
    def test_exact_arrival_with_samples_in_the_tail(self, h_cap, ts):
        """t_end is 20 steps of h_cap; samples sit inside runs, on step ends and in the last four steps."""

        def rhs(t, a, b):
            return 0.05j * (0.3 * a + 0.8 * b), 0.05j * (0.8 * a - 0.3 * b)

        ts, y0 = np.array(ts), (1.0 + 0.0j, 0.0j)
        out, stats = _integrate_dp45(rhs, ts, y0, 1e-10, 1e-12, h_cap)
        assert (stats.attempts, stats.certified_builds) == (20, 1)  # no sliver step
        reference = staged_reference.staged_dp45(rhs, ts, y0, 1e-10, 1e-12, h_cap)
        np.testing.assert_allclose(out, reference, rtol=0.0, atol=1e-14)


class TestStepperOrder:
    def test_fifth_order_error_reduction(self, monkeypatch):
        """Unit tolerances pass every step's error norm, so the solve runs and the order shows."""
        p = DriveParams(1.0, 1.5, math.pi / 4)
        t_end = 4.0
        exact = float(survival_probability(p, t_end))
        drift, coupling = p.drift, p.coupling
        calls = 0

        def rhs(t, a, b):
            nonlocal calls
            calls += 1
            return 0.5j * (drift * a + coupling * b), 0.5j * (coupling * a - drift * b)

        def error(h):
            nonlocal calls
            calls = 0
            samples, stats = _integrate_dp45(rhs, np.array([0.0, t_end]), (1.0 + 0.0j, 0.0j), 1.0, 1.0, h)
            assert stats.attempts == round(t_end / h)
            alpha = samples[0, -1]
            # builds for h and for the last step's remainder, a few ulp off h; f at the one sample step
            assert calls == BUILD_CALLS * 2 + 2
            return abs(abs(alpha) ** 2 - exact)

        assert error(0.2) / error(0.1) >= 16.0
