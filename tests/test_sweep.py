"""Tests for the sweep engine and the canned figure datasets."""

import math

import numpy as np
import pytest

import toptrap.sweep as sweep_mod
from toptrap.closed_form import survival_probability
from toptrap.spin import DriveParams, adiabaticity_parameter
from toptrap.sweep import (
    Axis,
    OracleMismatchError,
    SweepSpec,
    figure_dataset,
    run_sweep,
)


class TestAxis:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            Axis("frequency", np.array([1.0, 2.0]))

    def test_single_value_rejected(self):
        with pytest.raises(ValueError):
            Axis("theta", np.array([1.0]))

    def test_range_constructors(self):
        lin = Axis.linear("t", 0.0, 1.0, 5)
        np.testing.assert_allclose(lin.values, [0, 0.25, 0.5, 0.75, 1.0])
        log = Axis.log("omega", 0.1, 10.0, 3)
        np.testing.assert_allclose(log.values, [0.1, 1.0, 10.0], rtol=1e-12)
        with pytest.raises(ValueError):
            Axis.linear("t", 1.0, 0.0, 5)
        with pytest.raises(ValueError):
            Axis.linear("t", 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Axis.log("omega", 0.0, 1.0, 4)


class TestSweepSpec:
    def test_too_many_axes(self):
        axes = tuple(Axis.linear(n, 0.1, 1.0, 2) for n in ("omega0", "omega", "theta", "t"))
        with pytest.raises(ValueError):
            SweepSpec(axes=axes, quantities=("omega_bar",))

    def test_duplicate_axis_names(self):
        axes = (Axis.linear("t", 0.0, 1.0, 2), Axis.linear("t", 2.0, 3.0, 2))
        with pytest.raises(ValueError):
            SweepSpec(axes=axes, quantities=("survival",), fixed={"omega0": 1, "omega": 1, "theta": 1})

    def test_unknown_quantity(self):
        with pytest.raises(ValueError):
            SweepSpec(quantities=("loss",), fixed={"omega0": 1, "omega": 1, "theta": 1, "t": 0})

    def test_missing_inputs_named(self):
        with pytest.raises(ValueError, match="theta"):
            SweepSpec(quantities=("survival",), fixed={"omega0": 1, "omega": 1, "t": 0})

    def test_x_and_omega0_conflict(self):
        with pytest.raises(ValueError):
            SweepSpec(quantities=("tau",), fixed={"x": 1.0, "omega0": 1.0, "omega": 1.0, "theta": 1.0})

    def test_oracle_needs_probability_quantity(self):
        with pytest.raises(ValueError):
            SweepSpec(quantities=("tau",), fixed={"x": 0.5, "theta": 1.0}, oracle=True)


class TestRunSweep:
    def test_single_point_grid(self):
        spec = SweepSpec(
            axes=(), quantities=("survival",), fixed={"omega0": 1.0, "omega": 1.5, "theta": 1.0, "t": 0.0}
        )
        result = run_sweep(spec)
        assert result.columns == ("survival",)
        np.testing.assert_array_equal(result.table, [[1.0]])

    def test_grid_too_large_refused(self):
        spec = SweepSpec(
            axes=(Axis.linear("t", 0.0, 1.0, 4000), Axis.linear("theta", 0.1, 3.0, 3000)),
            quantities=("survival",),
            fixed={"omega0": 1.0, "omega": 1.0},
        )
        with pytest.raises(ValueError, match="12000000"):
            run_sweep(spec)

    def test_determinism(self):
        spec = SweepSpec(
            axes=(Axis.linear("theta", 0.1, 3.0, 7), Axis.linear("t", 0.0, 9.0, 11)),
            quantities=("survival", "transition"),
            fixed={"omega0": 1.0, "omega": 0.8},
        )
        first = run_sweep(spec)
        second = run_sweep(spec)
        assert np.array_equal(first.table, second.table)
        assert first.columns == second.columns

    def test_x_axis_resolves_omega0(self):
        spec = SweepSpec(
            axes=(Axis.linear("x", 0.5, 2.0, 4),),
            quantities=("survival",),
            fixed={"omega": 2.0, "theta": 1.0, "t": 1.3},
        )
        result = run_sweep(spec)
        for x, value in zip(result.column("x"), result.column("survival")):
            expected = survival_probability(DriveParams(x * 2.0, 2.0, 1.0), 1.3)
            assert value == pytest.approx(float(expected), abs=1e-15)

    def test_quantities_match_scalar_api(self):
        spec = SweepSpec(
            axes=(Axis.linear("omega", 0.2, 3.0, 5), Axis.linear("theta", 0.1, 3.0, 5)),
            quantities=("adiabaticity", "omega_bar"),
            fixed={"omega0": 1.2},
        )
        result = run_sweep(spec)
        for omega, theta, adiabaticity, omega_bar in result.table:
            p = DriveParams(1.2, omega, theta)
            assert adiabaticity == pytest.approx(adiabaticity_parameter(p), rel=1e-14)
            assert omega_bar == pytest.approx(p.omega_bar, rel=1e-14)

    def test_oracle_columns_agree(self):
        spec = SweepSpec(
            axes=(Axis("theta", np.array([0.3, 1.2])), Axis.linear("t", 0.0, 15.0, 151)),
            quantities=("survival", "transition"),
            fixed={"omega0": 1.0, "omega": 1.5},
            oracle=True,
        )
        result = run_sweep(spec)
        assert "survival_ode" in result.columns and "transition_ode" in result.columns
        assert np.max(np.abs(result.column("survival") - result.column("survival_ode"))) <= 1e-8
        assert result.meta["oracle"] == "instantaneous-basis"

    def test_oracle_mismatch_fails_loudly(self, monkeypatch):
        def corrupted(p, t_grid, settings=None):
            from toptrap.integrate import TimeSeries

            ts = np.asarray(t_grid, dtype=float)
            return TimeSeries(
                times=ts,
                survival=np.full_like(ts, 0.5),
                transition=np.full_like(ts, 0.5),
                method="corrupted",
            )

        monkeypatch.setattr(sweep_mod, "evolve_instantaneous_basis", corrupted)
        spec = SweepSpec(
            axes=(Axis.linear("t", 0.0, 5.0, 10),),
            quantities=("survival",),
            fixed={"omega0": 1.0, "omega": 1.5, "theta": 0.8},
            oracle=True,
        )
        with pytest.raises(OracleMismatchError, match="t="):
            run_sweep(spec)

    def test_oracle_step_bound_refused_before_stepping(self, no_stepping):
        spec = SweepSpec(
            axes=(Axis.linear("t", 0.0, 1.0, 2),),
            quantities=("survival",),
            fixed={"omega0": 1e6, "omega": 1.5e6, "theta": 1.0},
            oracle=True,
        )
        with pytest.raises(ValueError, match="steps"):
            run_sweep(spec)

    def test_oracle_sweep_is_deterministic(self):
        spec = SweepSpec(
            axes=(Axis("theta", np.array([0.4, 0.9, 1.3])), Axis.linear("t", 0.0, 8.0, 41)),
            quantities=("survival",),
            fixed={"omega0": 1.0, "omega": 0.7},
            oracle=True,
        )
        assert np.array_equal(run_sweep(spec).table, run_sweep(spec).table)

    @pytest.mark.parametrize(
        "axis, fixed, name",
        [
            (Axis.linear("theta", 0.0, 3.5, 8), {"omega0": 1.0, "omega": 1.5}, "theta"),
            (Axis.linear("x", 0.0, 2.0, 5), {"omega": 1.5, "theta": 1.0}, "omega0"),
        ],
    )
    def test_out_of_domain_drive_rejected(self, axis, fixed, name):
        spec = SweepSpec(axes=(axis, Axis.linear("t", 0.0, 5.0, 4)), quantities=("survival",), fixed=fixed)
        with pytest.raises(ValueError, match=name):
            run_sweep(spec)


class TestFigureDatasets:
    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            figure_dataset("fig4")

    def test_fig1_shape_and_minimum(self):
        result = figure_dataset("fig1")
        assert result.table.shape[0] == 4 * 1501
        thetas = result.axes[0].values
        survival = result.column("survival").reshape(4, 1501)
        equator = survival[np.argmin(np.abs(thetas - math.pi / 2))]
        # grid minimum sits within grid resolution of the analytic 1/3.25
        assert np.min(equator) == pytest.approx(1 / 3.25, abs=1e-4)
        assert np.min(equator) >= 1 / 3.25 - 1e-12

    def test_fig2_minimum_and_smaller_amplitudes(self):
        fig1 = figure_dataset("fig1")
        fig2 = figure_dataset("fig2")
        s1 = fig1.column("survival").reshape(4, 1501)
        s2 = fig2.column("survival").reshape(4, 1501)
        thetas = fig1.axes[0].values
        equator = s2[np.argmin(np.abs(thetas - math.pi / 2))]
        assert np.min(equator) == pytest.approx(0.8, abs=1e-4)
        # the slower drive always dips less at matching theta
        for row1, row2 in zip(s1, s2):
            assert (1.0 - np.min(row2)) < (1.0 - np.min(row1))

    def test_fig3_extrema(self):
        result = figure_dataset("fig3")
        xs = result.axes[1].values
        step = xs[1] - xs[0]
        tau = result.column("tau").reshape(2, len(xs))
        solid, dashed = tau[0], tau[1]
        assert solid[0] == 1.0 and dashed[0] == 1.0
        k = int(np.argmax(solid))
        assert abs(xs[k] - math.cos(math.pi / 6)) <= step
        assert solid[k] == pytest.approx(2.0, abs=2e-4)
        assert solid[k] <= 2.0 + 1e-12
        assert np.all(np.diff(dashed) < 0.0)

    def test_metadata_recorded(self):
        result = figure_dataset("fig2")
        assert result.meta["figure"] == "fig2"
        assert "omega = 0.5" in result.meta["description"]
        assert result.params["omega0"] == 1.0
