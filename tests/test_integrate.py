"""Tests for the ODE routes and the rotating-frame propagator."""

import math
import re
import tracemalloc
import types

import numpy as np
import pytest
import staged_reference

from toptrap import integrate, spin
from toptrap.closed_form import survival_probability, transition_probability
from toptrap.integrate import (
    IntegrationError,
    IntegratorSettings,
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


def count_sqrt(monkeypatch, module) -> list:
    """Record every ``math.sqrt`` argument in ``module``: each step attempt takes one error norm, so one sqrt."""
    norms = []
    counting = {**vars(math), "sqrt": lambda x: norms.append(x) or math.sqrt(x)}
    monkeypatch.setattr(module, "math", types.SimpleNamespace(**counting))
    return norms


def recorded_solve(monkeypatch, route, p, ts, settings=integrate.DEFAULT_SETTINGS):
    """Run ``route`` and return the arguments it passed to the stepper, with the stepper's samples."""
    solves = []
    stepper = integrate._integrate_dp45

    def recording(*args, **drive):
        solves.append((args, stepper(*args, **drive)))
        return solves[-1][1]

    monkeypatch.setattr(integrate, "_integrate_dp45", recording)
    route(p, ts, settings)
    [(args, samples)] = solves
    return args, samples


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
        stage_hs = []
        stages = integrate._stages
        monkeypatch.setattr(integrate, "_stages", lambda rhs, y, h: stage_hs.append(h) or stages(rhs, y, h))
        cached_norms, staged_norms = count_sqrt(monkeypatch, integrate), count_sqrt(monkeypatch, staged_reference)
        ts = np.linspace(0.0, 3 * 2 * math.pi / p.omega_bar, 41)
        settings = IntegratorSettings(rel_tol=rel_tol, abs_tol=rel_tol / 100)
        args, cached = recorded_solve(monkeypatch, route, p, ts, settings)
        builds = stage_hs[::2]
        assert args[-1] == frame_freq
        assert stage_hs[1::2] == builds  # each build runs the stages on both basis vectors
        assert len(set(builds)) == len(builds)  # and happens once per distinct h
        staged = staged_reference.staged_dp45(*args[:-1])
        assert len(staged_norms) == len(cached_norms) > len(builds)
        np.testing.assert_allclose(cached, staged, rtol=0.0, atol=1e-12)
        # E(h) y, turned by U(t) in the lab frame, is the staged error estimate: the scaled errors agree far
        # inside the accept threshold 1
        np.testing.assert_allclose(np.sqrt(cached_norms), np.sqrt(staged_norms), rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-6])
    @pytest.mark.parametrize("p", DRIVES)
    def test_matrices_match_the_stages(self, monkeypatch, p, rel_tol):
        self.check_against_the_stages(monkeypatch, evolve_instantaneous_basis, p, rel_tol, 0.0)

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-6])
    @pytest.mark.parametrize("p", DRIVES)
    def test_turned_matrices_match_the_lab_stages(self, monkeypatch, p, rel_tol):
        self.check_against_the_stages(monkeypatch, evolve_lab_frame, p, rel_tol, p.omega)

    @pytest.mark.parametrize("route, attempts", [(evolve_instantaneous_basis, 383), (evolve_lab_frame, 1200)])
    def test_step_attempts_pinned(self, monkeypatch, route, attempts):
        """Each step attempt takes one error norm, so one math.sqrt: the step sequence must not change."""
        norms = count_sqrt(monkeypatch, integrate)
        route(DriveParams(1.0, 1.5, 1.0), np.linspace(0.0, 10.0, 11))
        assert len(norms) == attempts

    def test_no_drift_over_a_long_solve(self, monkeypatch):
        """Over 100 Rabi periods (about 19,000 steps) the cached solve stays with the staged one.  Caching R
        itself, not R - I, rounds every step alike and drifted 3e-13 away on this drive."""
        p = DriveParams(2.0, 1.0, 2.0)
        ts = np.linspace(0.0, 100 * 2 * math.pi / p.omega_bar, 11)
        args, cached = recorded_solve(monkeypatch, evolve_instantaneous_basis, p, ts)
        np.testing.assert_allclose(cached, staged_reference.staged_dp45(*args[:-1]), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("route", [evolve_instantaneous_basis, evolve_lab_frame])
    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-6])
    def test_both_routes_stay_with_the_staged_loop_over_250_rabi_periods(self, monkeypatch, route, rel_tol):
        """The lab step from t is the t = 0 step turned by U(t): exact, so no error grows with t or with omega t."""
        p = DriveParams(1.0, 0.5, 2.5)
        ts = np.linspace(0.0, 250 * 2 * math.pi / p.omega_bar, 11)
        settings = IntegratorSettings(rel_tol=rel_tol, abs_tol=rel_tol / 100)
        args, cached = recorded_solve(monkeypatch, route, p, ts, settings)
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
    def test_step_underflow_reports_failing_time(self):
        def hopeless(t, a, b):
            """Finite stage sums at every step size, and an error estimate above 1 at every step size above h_min."""
            return 1j * 1e30 * a, -1j * 1e30 * b

        with pytest.raises(IntegrationError) as err:
            _integrate_dp45(hopeless, np.array([0.0, 1.0]), (1.0 + 0j, 0.0j), 1e-10, 1e-12, 0.1)
        assert err.value.t == 0.0
        assert "underflow" in str(err.value)

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
            out = stepper(*args, **drive)
            out[:, 1] = math.nan
            return out

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

        norms = count_sqrt(monkeypatch, integrate)
        out = _integrate_dp45(rhs, np.array([0.0, 2.0]), (1.0 + 0.0j, 0.0j), 1.0, 1.0, 0.2)
        assert len(norms) == 10  # ten step attempts: no sliver step after the tenth
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


class TestStepperOrder:
    def test_fifth_order_error_reduction(self, monkeypatch):
        """Unit tolerances accept every step, so h stays at the cap and the order shows."""
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
            norms = count_sqrt(monkeypatch, integrate)
            alpha = _integrate_dp45(rhs, np.array([0.0, t_end]), (1.0 + 0.0j, 0.0j), 1.0, 1.0, h)[0, -1]
            assert len(norms) == round(t_end / h)  # every attempt accepted
            # builds for h and for the last step's remainder, a few ulp off h; f at the one sample step
            assert calls == BUILD_CALLS * 2 + 2
            return abs(abs(alpha) ** 2 - exact)

        assert error(0.2) / error(0.1) >= 16.0
