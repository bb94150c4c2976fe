"""Tests for the closed-form amplitudes, probabilities and resurrection time."""

import math
import re
from dataclasses import astuple

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

import toptrap.spin
from toptrap.closed_form import (
    amplitudes_at,
    probabilities,
    resurrection_time,
    survival_probability,
    tau_extremum,
    tau_of_ratio,
    transition_probability,
)
from toptrap.geometry import confinement_advisor
from toptrap.integrate import evolve_instantaneous_basis, evolve_rotating_frame
from toptrap.spin import DriveParams, omega_bar_of
from toptrap.sweep import Axis, SweepSpec, run_sweep

RNG = np.random.default_rng(7)


def random_params(n):
    for _ in range(n):
        yield DriveParams(RNG.uniform(0.1, 10), RNG.uniform(0, 10), RNG.uniform(0, math.pi))


class TestAmplitudes:
    def test_initial_condition(self):
        amps = amplitudes_at(DriveParams(1.0, 1.5, 1.0), 0.0)
        assert amps.alpha == pytest.approx(1.0)
        assert amps.beta == 0.0

    def test_theta_zero_is_pure_phase(self):
        p = DriveParams(1.0, 0.7, 0.0)
        for t in (0.1, 1.0, 10.0):
            amps = amplitudes_at(p, t)
            assert abs(amps.alpha) == pytest.approx(1.0, abs=1e-15)
            assert amps.beta == 0.0

    def test_half_period_populations_against_ode(self):
        p = DriveParams(1.0, 1.5, math.pi / 2)
        t_half = math.pi / p.omega_bar
        amps = amplitudes_at(p, t_half)
        assert abs(amps.alpha) ** 2 == pytest.approx(1 / 3.25, abs=1e-14)
        assert abs(amps.beta) ** 2 == pytest.approx(2.25 / 3.25, abs=1e-14)
        series = evolve_instantaneous_basis(p, [0.0, t_half])
        assert series.survival[1] == pytest.approx(1 / 3.25, abs=1e-9)

    def test_degenerate_drive_stays_put(self):
        amps = amplitudes_at(DriveParams(1.0, 1.0, 0.0), 5.0)
        assert amps.alpha == 1.0 + 0.0j
        assert amps.beta == 0.0j

    def test_subnormal_angle_near_degeneracy(self):
        # sin(theta/2) underflows to 0 here while sin(theta) does not, so
        # omega_bar is exactly 0 with a non-zero coupling; the phase wbar t/2
        # is then 0, and the ratios, divided by 1 there, only multiply sin 0 = 0
        p = DriveParams(1.0, 1.0, 5e-324)
        assert p.omega_bar == 0.0 and p.coupling != 0.0
        assert survival_probability(p, 3.0) == 1.0
        assert transition_probability(p, 3.0) == 0.0
        amps = amplitudes_at(p, 3.0)
        assert amps.alpha == 1.0 + 0.0j and amps.beta == 0.0j

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            amplitudes_at(DriveParams(1.0, 1.0, 1.0), -0.1)

    @hyp.given(
        omega0=st.floats(1e-2, 1e2),
        ratio=st.floats(0.0, 10.0),
        theta=st.floats(0.0, math.pi),
        t=st.floats(0.0, 100.0),
    )
    @hyp.settings(max_examples=200, deadline=None)
    def test_unit_norm(self, omega0, ratio, theta, t):
        amps = amplitudes_at(DriveParams(omega0, ratio * omega0, theta), t)
        assert abs(amps.alpha) ** 2 + abs(amps.beta) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestProbabilities:
    def test_survival_starts_at_one(self):
        assert survival_probability(DriveParams(1.0, 1.5, 1.0), 0.0) == 1.0

    def test_survival_constant_for_theta_zero(self):
        p = DriveParams(1.0, 1.5, 0.0)
        ts = np.linspace(0.0, 50.0, 101)
        np.testing.assert_array_equal(survival_probability(p, ts), np.ones_like(ts))
        np.testing.assert_array_equal(transition_probability(p, ts), np.zeros_like(ts))

    def test_minimum_survival_quarter_angle(self):
        # min over t is drift^2/omega_bar^2, frozen from the formula and
        # cross-checked against the ODE at the minimising time.
        p = DriveParams(1.0, 1.5, math.pi / 4)
        t_min = math.pi / p.omega_bar
        expected = 0.0032601424322312887
        assert survival_probability(p, t_min) == pytest.approx(expected, abs=1e-14)
        series = evolve_instantaneous_basis(p, [0.0, t_min])
        assert series.survival[1] == pytest.approx(expected, abs=1e-9)

    def test_transition_examples(self):
        p = DriveParams(1.0, 1.5, math.pi / 2)
        assert transition_probability(p, 0.0) == 0.0
        assert transition_probability(p, math.pi / p.omega_bar) == pytest.approx(2.25 / 3.25, abs=1e-14)

    def test_matches_amplitudes(self):
        for p in random_params(50):
            t = RNG.uniform(0, 20)
            amps = amplitudes_at(p, t)
            assert survival_probability(p, t) == pytest.approx(abs(amps.alpha) ** 2, abs=1e-14)
            assert transition_probability(p, t) == pytest.approx(abs(amps.beta) ** 2, abs=1e-14)

    @hyp.given(
        ratio=st.floats(0.0, 10.0),
        theta=st.floats(0.0, math.pi),
        t=st.floats(0.0, 100.0),
    )
    @hyp.settings(max_examples=300, deadline=None)
    def test_normalisation_identity(self, ratio, theta, t):
        p = DriveParams(1.0, ratio, theta)
        total = survival_probability(p, t) + transition_probability(p, t)
        assert abs(total - 1.0) <= 1e-14

    def test_periodicity_and_full_resurrection(self):
        for p in random_params(50):
            if p.omega_bar == 0.0:
                continue
            period = 2 * math.pi / p.omega_bar
            t = RNG.uniform(0, 10)
            assert survival_probability(p, t + period) == pytest.approx(
                survival_probability(p, t), abs=1e-12
            )
            assert survival_probability(p, period) == pytest.approx(1.0, abs=1e-12)

    def test_adiabatic_limit_bound(self):
        p = DriveParams(100.0, 1.0, math.pi / 2)
        ts = np.linspace(0.0, 2 * math.pi / p.omega_bar, 2001)
        assert np.min(survival_probability(p, ts)) >= 0.9996

    def test_scale_invariance(self):
        p = DriveParams(1.2, 0.8, 1.0)
        for c in (0.1, 3.0, 250.0):
            scaled = DriveParams(c * p.omega0, c * p.omega, p.theta)
            for t in (0.3, 2.0, 11.0):
                assert survival_probability(scaled, t / c) == pytest.approx(
                    survival_probability(p, t), abs=1e-12
                )
            assert resurrection_time(scaled).tau == pytest.approx(
                resurrection_time(p).tau, rel=1e-13
            )

    def test_dip_amplitude_orderings(self):
        # dip amplitude = coupling^2/omega_bar^2; at matching theta the slower
        # drive (omega = 0.5 omega0) always oscillates less than the faster
        # one (omega = 1.5 omega0)
        thetas = np.linspace(0.05, math.pi / 2, 40)
        for theta in thetas:
            slow = DriveParams(1.0, 0.5, float(theta))
            fast = DriveParams(1.0, 1.5, float(theta))
            amp_slow = (slow.coupling / slow.omega_bar) ** 2
            amp_fast = (fast.coupling / fast.omega_bar) ** 2
            assert amp_slow < amp_fast

    def test_dip_amplitude_peaks_at_resonant_angle(self):
        # for omega > omega0 the dip amplitude reaches exactly 1 at
        # cos(theta) = omega0/omega and shrinks on either side, so it is
        # monotone in theta only up to that angle
        ratio = 1.5
        theta_star = math.acos(1.0 / ratio)
        p_star = DriveParams(1.0, ratio, theta_star)
        assert (p_star.coupling / p_star.omega_bar) ** 2 == pytest.approx(1.0, abs=1e-12)
        thetas = np.linspace(0.01, theta_star, 30)
        amps = [
            (DriveParams(1.0, ratio, float(t)).coupling / DriveParams(1.0, ratio, float(t)).omega_bar) ** 2
            for t in thetas
        ]
        assert all(a < b for a, b in zip(amps, amps[1:]))
        beyond = DriveParams(1.0, ratio, math.pi / 2)
        assert (beyond.coupling / beyond.omega_bar) ** 2 < 1.0


class TestKernelAgreement:
    """The scalar ``math`` path, the broadcast kernel and run_sweep agree."""

    @hyp.given(
        omega0=st.floats(1e-2, 1e2),
        ratio=st.floats(0.0, 10.0),
        theta=st.floats(0.0, math.pi),
        t=st.floats(0.0, 100.0),
    )
    @hyp.example(omega0=1.0, ratio=1.5, theta=0.0, t=3.0)
    @hyp.example(omega0=1.0, ratio=1.5, theta=math.pi, t=3.0)
    @hyp.example(omega0=2.0, ratio=0.0, theta=1.0, t=3.0)
    @hyp.example(omega0=2.0, ratio=1.0, theta=1.0, t=3.0)
    @hyp.example(omega0=1.0, ratio=1.0, theta=0.0, t=3.0)
    @hyp.example(omega0=1.0, ratio=1.0, theta=5e-324, t=3.0)
    # Squared by pow(), these drives' scalar and array results differed in the last bit.
    @hyp.example(omega0=75.78258601882392, ratio=2.747998961560717, theta=2.8051914887915435, t=87.1746863375472)
    @hyp.example(omega0=11.102295261113284, ratio=9.00146233269396, theta=0.6310450172660358, t=37.05008008819806)
    @hyp.example(omega0=46.89629674604318, ratio=3.2306457475777686, theta=0.9263468492734053, t=55.48557739057433)
    @hyp.settings(max_examples=200, deadline=None)
    def test_scalar_array_and_sweep_agree(self, omega0, ratio, theta, t):
        """Every call shape and sweep cell gives the scalar path's bits."""
        p = DriveParams(omega0, ratio * omega0, theta)
        expected = [survival_probability(p, t), transition_probability(p, t)]
        amplitudes = amplitudes_at(p, t)
        for ts in (np.float64(t), np.array(t), np.array([t]), np.array([[0.0, t], [t, 3.0 * t]])):
            at_t = np.asarray(ts) == t
            n = int(np.sum(at_t))
            for got, want in zip(
                (survival_probability(p, ts), transition_probability(p, ts), *astuple(amplitudes_at(p, ts))),
                (*expected, amplitudes.alpha, amplitudes.beta),
            ):
                assert np.asarray(got)[at_t].tolist() == [want] * n
        fixed_drive = SweepSpec(
            axes=(Axis("t", np.array([t, 0.5 * t])),),
            quantities=("survival", "transition"),
            fixed={"omega0": p.omega0, "omega": p.omega, "theta": p.theta},
        )
        drive_on_axes = SweepSpec(
            axes=(Axis("omega", np.array([0.5, p.omega])), Axis("theta", np.array([p.theta, 1.0])), Axis("t", np.array([t, 0.5 * t]))),
            quantities=("survival", "transition"),
            fixed={"omega0": p.omega0},
        )
        for spec in (fixed_drive, drive_on_axes):
            result = run_sweep(spec)
            drive = {**spec.fixed, **{a.name: result.column(a.name) for a in spec.axes}}
            cells = (drive["omega"] == p.omega) & (drive["theta"] == p.theta) & (drive["t"] == t)
            assert result.table[cells, -2:].tolist() == [expected] * int(np.sum(cells))
        if p.coupling == 0.0 or p.omega_bar == 0.0:
            assert expected == [1.0, 0.0]

    @hyp.given(
        omega0=st.floats(0.1, 10.0),
        detuning=st.one_of(st.just(0.0), st.floats(-1e-13, 1e-13)),
        theta=st.one_of(st.just(0.0), st.floats(1e-300, 1e-12)),
        phase=st.floats(0.0, 20.0),
    )
    # Below 1e-12 max(omega0, omega) the closed form once returned survival 1, transition 0.
    @hyp.example(omega0=1.0, detuning=0.0, theta=1e-13, phase=math.pi)  # t about pi 1e13: a complete flip
    @hyp.example(omega0=1.0, detuning=0.0, theta=1e-13, phase=1.0)  # t about 1e13: survival 0.770
    @hyp.example(omega0=1.0, detuning=0.0, theta=5e-13, phase=20.0)
    @hyp.example(omega0=2.0, detuning=0.0, theta=1e-300, phase=7.0)
    @hyp.settings(max_examples=200, deadline=None)
    def test_near_degenerate_drive_follows_the_route(self, omega0, detuning, theta, phase):
        """0 < wbar < 1e-12 max(omega0, omega): every call shape matches the rotating-frame propagator."""
        p = DriveParams(omega0, omega0 * (1.0 + detuning), theta)
        hyp.assume(0.0 < p.omega_bar < 1e-12 * max(p.omega0, p.omega))
        t = phase / p.omega_bar
        route = evolve_rotating_frame(p, [t])
        calls = [(survival_probability(p, ts), transition_probability(p, ts)) for ts in (t, np.array(t), np.array([[t, t]]))]
        for survival, transition in calls + [probabilities(p.omega0, p.omega, p.theta, np.array([t]))]:
            np.testing.assert_allclose(survival, route.survival[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(transition, route.transition[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(np.add(survival, transition), 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("omega", [1e-200, 2e-200])
    def test_underflowing_root_follows_the_route(self, omega):
        """omega0 * omega = 1e-400 underflows to 0: wbar was 0 (no flip ever) or far too small (s + q = 1.42)."""
        fixed = {"omega0": 1e-200, "omega": omega, "theta": 1.0}
        p = DriveParams(**fixed)
        ts = np.linspace(0.0, 2e201, 21)
        route = evolve_rotating_frame(p, ts)
        sweep = run_sweep(SweepSpec(axes=(Axis("t", ts),), quantities=("survival", "transition"), fixed=fixed))
        calls = [
            ([survival_probability(p, t) for t in ts.tolist()], [transition_probability(p, t) for t in ts.tolist()]),
            (survival_probability(p, ts), transition_probability(p, ts)),
            probabilities(p.omega0, p.omega, p.theta, ts),
            (sweep.column("survival"), sweep.column("transition")),
        ]
        for survival, transition in calls:
            np.testing.assert_allclose(survival, route.survival, rtol=0, atol=1e-12)
            np.testing.assert_allclose(transition, route.transition, rtol=0, atol=1e-12)
            np.testing.assert_allclose(np.add(survival, transition), 1.0, rtol=0, atol=1e-14)
        assert np.min(route.survival) < 0.5  # the spin does flip

    def test_drift_near_the_largest_float_follows_the_route(self):
        """2 omega sin^2(theta/2) = 3.06e308 once overflowed although drift = 1.36e308 is below wbar = 1.7e308:
        survival was nan at t = 0 and survival + transition 1.2 elsewhere."""
        fixed = {"omega0": 1e300, "omega": 1.7e308, "theta": 2.5}
        p = DriveParams(**fixed)
        ts = np.linspace(0.0, 3e-308, 4)
        route = evolve_rotating_frame(p, ts)
        sweep = run_sweep(SweepSpec(axes=(Axis("t", ts),), quantities=("survival", "transition"), fixed=fixed))
        calls = [
            ([survival_probability(p, t) for t in ts.tolist()], [transition_probability(p, t) for t in ts.tolist()]),
            (survival_probability(p, ts), transition_probability(p, ts)),
            probabilities(p.omega0, p.omega, p.theta, ts),
            (sweep.column("survival"), sweep.column("transition")),
        ]
        for survival, transition in calls:
            np.testing.assert_allclose(survival, route.survival, rtol=0, atol=1e-12)
            np.testing.assert_allclose(transition, route.transition, rtol=0, atol=1e-12)
        assert p.drift == pytest.approx(p.omega0 - p.omega * math.cos(p.theta), rel=1e-15)

    def test_subnormal_detuning_gives_the_same_bits_on_every_path(self):
        """omega0 - omega = 3 * 5e-324 does not halve exactly in the half-scale drift sum; the scalar and
        broadcast paths round it alike, and both follow the rotating-frame propagator."""
        omega = 4e-308
        p = DriveParams(omega + 3 * 5e-324, omega, 1.0)
        assert (p.omega0 - p.omega) * 0.5 * 2.0 != p.omega0 - p.omega
        ts = np.array([0.0, 2e307, 5e307])
        survival, transition = probabilities(p.omega0, p.omega, p.theta, ts)
        assert survival.tolist() == [survival_probability(p, t) for t in ts.tolist()]
        assert transition.tolist() == [transition_probability(p, t) for t in ts.tolist()]
        amplitudes = amplitudes_at(p, ts)
        for k, t in enumerate(ts.tolist()):
            assert (amplitudes.alpha[k], amplitudes.beta[k]) == astuple(amplitudes_at(p, t))
        route = evolve_rotating_frame(p, ts)
        np.testing.assert_allclose(survival, route.survival, rtol=0, atol=1e-12)
        np.testing.assert_allclose(transition, route.transition, rtol=0, atol=1e-12)
        assert 0.1 < np.min(survival) < 0.9  # the spin does flip

    @pytest.mark.parametrize(
        "args",
        [
            (np.array([[1.0], [2.5]]), np.array([0.0, 0.7, 1.5]), np.array([[[0.0]], [[1.2]]]), np.array([0.0, 3.0, 40.0]).reshape(3, 1, 1, 1)),
            (1.0, 1.5, 1.0, 2.0),
            (1.0, 1.0, np.array([0.0, 5e-324, 1.0]), np.array([[0.0], [2.0]])),
        ],
        ids=["broadcast", "0-d", "degenerate"],
    )
    @pytest.mark.parametrize("given", [(True, True), (True, False), (False, True)], ids=["both", "survival", "transition"])
    def test_out_gets_the_allocating_bits(self, args, given):
        """out= writes into and returns the arrays it is given; a None is allocated, as by the call without out."""
        expected = probabilities(*args)
        out = tuple(np.full(np.shape(e), np.nan) if wanted else None for e, wanted in zip(expected, given))
        got = probabilities(*args, out=out)
        for array, buffer, want in zip(got, out, expected):
            assert buffer is None or array is buffer
            assert array.shape == want.shape and array.tobytes() == want.tobytes()

    def test_masks_apply_per_point(self):
        survival, transition = probabilities(
            np.array([1.0, 1.0, 1.0, 1.0]), np.array([1.5, 0.0, 1.0, 1.5]), np.array([0.0, 1.0, 5e-324, 1.0]), 2.0
        )
        np.testing.assert_array_equal(survival[:3], 1.0)
        np.testing.assert_array_equal(transition[:3], 0.0)
        assert 0.0 < transition[3] < 1.0
        assert survival[3] + transition[3] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize(
        "args, name",
        [
            ((0.0, 1.0, 1.0, 1.0), "omega0"),
            ((1.0, -1.0, 1.0, 1.0), "omega"),
            ((1.0, 1.0, 3.2, 1.0), "theta"),
            ((1.0, 1.0, 1.0, -1.0), "t"),
            ((1.0, np.inf, 1.0, 1.0), "omega"),
            ((1.0, 1.0, 1.0, [0.0, np.nan]), "t"),
        ],
    )
    def test_domain_errors_name_the_parameter(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            probabilities(*args)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "call",
        [
            lambda p: survival_probability(p, 1e300),
            lambda p: transition_probability(p, 1e300),
            lambda p: amplitudes_at(p, 1e300),
            lambda p: survival_probability(p, np.array([0.0, 1e300])),
            lambda p: amplitudes_at(p, np.array([0.0, 1e300])),
            lambda p: probabilities(p.omega0, p.omega, p.theta, [0.0, 1e300]),
        ],
        ids=["scalar-survival", "scalar-transition", "scalar-amplitudes", "array-survival", "array-amplitudes", "kernel"],
    )
    def test_overflowing_phase_rejected(self, call):
        """wbar t/2 = inf would give nan (array) or a bare math domain error (scalar)."""
        with pytest.raises(ValueError, match=r"^t must keep the phase wbar t/2 finite, got t = 1e\+300$"):
            call(DriveParams(1e10, 1.5, 1.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "call",
        [
            lambda p: survival_probability(p, 0.0),
            lambda p: transition_probability(p, 0.0),
            lambda p: amplitudes_at(p, 0.0),
            lambda p: survival_probability(p, np.array([0.0, 1.0])),
            lambda p: amplitudes_at(p, np.array([0.0, 1.0])),
            lambda p: probabilities(p.omega0, p.omega, p.theta, 0.0),
            lambda p: probabilities(p.omega0, p.omega, np.array([0.0, p.theta]), np.array([[0.0], [1.0]])),
        ],
        ids=["scalar-survival", "scalar-transition", "scalar-amplitudes", "array-survival", "array-amplitudes", "kernel",
             "kernel-theta-zero"],
    )
    def test_overflowing_omega_bar_rejected(self, call):
        """An overflowing wbar (2e308 here) once made the error blame t; it names omega0 and omega."""
        with pytest.raises(ValueError, match=r"^omega0 and omega must keep omega_bar finite, got omega0 = 1e\+308, omega = 1e\+308$"):
            call(DriveParams(1e308, 1e308, math.pi))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_omega_bar_at_theta_zero(self):
        """2 sqrt(omega0 omega) = 2e308 once overflowed before it met sin(0) = 0, and the nan refused the drive;
        the true wbar, |omega0 - omega| = 0, is found on every path, and the spin never flips."""
        p = DriveParams(1e308, 1e308, 0.0)
        assert p.omega_bar == 0.0 and omega_bar_of(p.omega0, p.omega, np.array([0.0])).tolist() == [0.0]
        assert (survival_probability(p, 1.0), transition_probability(p, 1.0)) == (1.0, 0.0)
        survival, transition = probabilities(p.omega0, p.omega, p.theta, np.array([0.0, 1.0]))
        assert (survival.tolist(), transition.tolist()) == ([1.0, 1.0], [0.0, 0.0])
        report = confinement_advisor(p, escape_time=1.0)
        assert report.confined and report.resurrection_time == math.inf

    @pytest.mark.parametrize("t", [2.5, np.float64(2.5), np.array(2.5), 2])
    def test_scalar_time_types_agree(self, t):
        """A Python float skips np.ndim; numpy scalars, 0-d arrays and ints take it, to the same result."""
        p = DriveParams(1.0, 1.5, 1.0)
        exact = float(t)
        assert survival_probability(p, t) == survival_probability(p, exact)
        assert transition_probability(p, t) == transition_probability(p, exact)
        assert amplitudes_at(p, t) == amplitudes_at(p, exact)
        assert type(survival_probability(p, t)) is float

    def test_omega_bar_evaluated_once_per_drive(self, monkeypatch):
        """Survival, transition, amplitudes and the confinement verdict on one DriveParams share one omega_bar."""
        calls = []
        hypot = toptrap.spin.np.hypot

        def counting_hypot(*args):
            calls.append(args)
            return hypot(*args)

        monkeypatch.setattr(toptrap.spin.np, "hypot", counting_hypot)
        p = DriveParams(1.0, 1.5, 1.0)
        survival_probability(p, 2.0)
        transition_probability(p, 2.0)
        amplitudes_at(p, 2.0)
        confinement_advisor(p, escape_time=1.0)
        assert len(calls) == 1


class TestResurrection:
    def test_tau_of_ratio_at_zero_is_exactly_one(self):
        assert tau_of_ratio(0.0, math.pi / 6) == 1.0
        assert tau_of_ratio(0.0, 3 * math.pi / 4) == 1.0

    def test_tau_equator_profile(self):
        xs = np.linspace(0.0, 5.0, 100)
        taus = tau_of_ratio(xs, math.pi / 2)
        np.testing.assert_allclose(taus, 1.0 / np.sqrt(1.0 + xs**2), rtol=1e-14)
        assert np.all(np.diff(taus) < 0)

    def test_tau_scalar_x_broadcasts_over_theta(self):
        thetas = np.array([0.5, 1.0, 2.5])
        taus = tau_of_ratio(1.0, thetas)
        assert taus.tobytes() == tau_of_ratio(np.full(3, 1.0), thetas).tobytes()
        assert isinstance(tau_of_ratio(1.0, 0.5), float)

    def test_tau_broadcast_rows_equal_per_angle_calls(self):
        """One call over all angles gives each angle's own bits, as ``toptrap tau`` relies on."""
        xs = np.linspace(0.0, 4.0, 401)
        # Squared by pow(), the per-angle call for 1.3595568541055658 differed from the broadcast row.
        thetas = np.append(np.random.default_rng(5).uniform(0.01, math.pi, 300), 1.3595568541055658)
        for theta, row in zip(thetas, tau_of_ratio(xs, thetas[:, None])):
            assert row.tobytes() == tau_of_ratio(xs, float(theta)).tobytes()
            assert row[137] == tau_of_ratio(float(xs[137]), float(theta))

    def test_tau_degenerate_rejected(self):
        with pytest.raises(ValueError):
            tau_of_ratio(1.0, 0.0)

    @pytest.mark.parametrize(
        "x, theta, message",
        [
            (-0.5, 1.0, "x must be finite and >= 0, got -0.5"),
            (math.inf, 1.0, "x must be finite and >= 0, got inf"),
            (2.0, math.nan, "theta must be in [0, pi], got nan"),
            (np.array([1.0, 2.0]), np.array([[1.0], [4.0]]), "theta must be in [0, pi], got 4.0"),
            (1e200, 1.0, "x must keep (1 - x)^2 finite, got x = 1e+200"),
            (np.array([1.0, 1e154, 2e154]), 0.5, "x must keep (1 - x)^2 finite, got x = 2e+154"),
        ],
    )
    def test_tau_domain_errors_name_the_parameter(self, x, theta, message):
        """The kernel's rule and message for theta; x above about 1.3e154 raises, with no RuntimeWarning."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tau_of_ratio(x, theta)

    def test_resurrection_time_matches_omega_bar(self):
        for p in random_params(50):
            if p.omega == 0.0 or p.omega_bar == 0.0:
                continue
            point = resurrection_time(p)
            assert point.tau == pytest.approx(p.omega / p.omega_bar, rel=1e-12)
            assert point.x == pytest.approx(p.omega0 / p.omega, rel=1e-15)

    def test_resurrection_requires_drive_and_flip(self):
        with pytest.raises(ValueError):
            resurrection_time(DriveParams(1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            resurrection_time(DriveParams(1.0, 1.0, 0.0))

    def test_overflowing_omega_bar_leaves_tau_finite(self):
        """omega_bar overflows, but tau depends only on x and theta."""
        point = resurrection_time(DriveParams(1e308, 1e308, math.pi))
        assert point.tau == tau_of_ratio(1.0, math.pi)

    def test_local_maximum_pi_third(self):
        point = tau_of_ratio(0.5, math.pi / 3)
        assert point == pytest.approx(1.0 / math.sin(math.pi / 3), rel=1e-14)
        assert point == pytest.approx(1.1547005383792515, rel=1e-12)


class TestTauExtremum:
    def test_boundary_maximum_at_equator(self):
        x_star, tau_star = tau_extremum(math.pi / 2)
        assert x_star == pytest.approx(0.0, abs=1e-15)
        assert tau_star == pytest.approx(1.0, rel=1e-15)

    def test_quarter_angle_against_grid_search(self):
        x_star, tau_star = tau_extremum(math.pi / 4)
        assert x_star == pytest.approx(0.70711, abs=5e-6)
        assert tau_star == pytest.approx(1.41421, abs=5e-6)
        xs = np.arange(0.0, 5.0, 1e-4)
        taus = tau_of_ratio(xs, math.pi / 4)
        k = int(np.argmax(taus))
        assert abs(xs[k] - x_star) <= 1e-4
        assert taus[k] <= tau_star + 1e-12

    def test_obtuse_angle_has_no_interior_maximum(self):
        assert tau_extremum(3 * math.pi / 4) is None

    def test_domain(self):
        with pytest.raises(ValueError):
            tau_extremum(0.0)
        with pytest.raises(ValueError):
            tau_extremum(math.pi)
