"""Tests for the sweep engine and the canned figure datasets."""

import hashlib
import math
import re
import sys
import tracemalloc
import warnings

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

import toptrap.spin
import toptrap.sweep as sweep_mod
from toptrap import __version__
from toptrap.closed_form import (
    probabilities,
    resurrection_time,
    survival_probability,
    tau_of_ratio,
    transition_probability,
)
from toptrap.integrate import evolve_instantaneous_basis
from toptrap.spin import DriveParams, adiabaticity_parameter, omega_bar_of
from toptrap.sweep import (
    AXIS_NAMES,
    QUANTITIES,
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

    @pytest.mark.filterwarnings("error")
    def test_log_axis_up_to_the_largest_float(self):
        """geomspace's power overflows for the last value, which it then sets to the stop: no RuntimeWarning."""
        log = Axis.log("omega", 1e-300, sys.float_info.max, 5)
        assert log.values[0] == 1e-300 and log.values[-1] == sys.float_info.max and np.all(np.isfinite(log.values))


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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"quantities": ()}, "at least one quantity is required"),
            ({"fixed": {"omega0": 1, "omega": 1, "theta": 1, "t": 0, "phi": 1}}, "unknown fixed parameter 'phi'"),
            ({"axes": (Axis.linear("t", 0.0, 1.0, 2),), "fixed": {"omega0": 1, "omega": 1, "theta": 1, "t": 0}},
             "'t' is both an axis and a fixed parameter"),
            ({"fixed": {"omega0": 1, "omega": 1, "t": 0}}, "survival/transition requires ['theta']; give them as axes or fixed values"),
            ({"fixed": {"omega": 1, "theta": 1, "t": 0}}, "survival/transition requires ['omega0']; give them as axes or fixed values"),
            ({"quantities": ("omega_bar",), "fixed": {"x": 1}}, "adiabaticity/omega_bar requires ['theta', 'omega']; give them as axes or fixed values"),
            ({"quantities": ("adiabaticity",), "fixed": {"omega": 1, "theta": 1}}, "adiabaticity/omega_bar requires ['omega0']; give them as axes or fixed values"),
            ({"quantities": ("tau",), "fixed": {"theta": 1}}, "tau requires ['omega0', 'omega']; give them as axes or fixed values"),
            ({"quantities": ("tau",), "fixed": {"x": 1}}, "tau requires ['theta']; give them as axes or fixed values"),
        ],
        ids=["no-quantity", "unknown-fixed", "axis-and-fixed", "probability", "probability-drive", "omega-bar", "adiabaticity-drive",
             "tau-drive", "tau"],
    )  # fmt: skip
    def test_spec_errors_named(self, kwargs, message):
        """Each refusal's message; x = omega0/omega stands in for omega0, and for omega too where tau reads only x."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec(**kwargs)

    def test_repeated_quantity_rejected(self):
        with pytest.raises(ValueError, match="'survival' is repeated"):
            SweepSpec(quantities=("survival", "transition", "survival"), fixed={"omega0": 1, "omega": 1, "theta": 1, "t": 0})


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

    def test_non_finite_table_refused(self, monkeypatch):
        """The last guard: a kernel that writes a NaN into the table is refused, not returned."""
        kernel = sweep_mod._probabilities

        def nan_writing(*args):
            survival, _ = kernel(*args)
            survival[..., 0] = math.nan

        monkeypatch.setattr(sweep_mod, "_probabilities", nan_writing)
        fixed = {"omega0": 1.0, "omega": 1.5, "theta": 1.0}
        spec = SweepSpec(axes=(Axis.linear("t", 0.0, 9.0, 5),), quantities=("survival",), fixed=fixed)
        with pytest.raises(ValueError, match="^sweep produced non-finite values$"):
            run_sweep(spec)

    def test_four_quantity_sweep_evaluates_omega_bar_once(self, monkeypatch):
        """The kernel and the omega_bar column share one omega_bar_of over the drive grid; the adiabaticity needs none."""
        calls = []
        chord = toptrap.spin.chord

        def counting_chord(*args):
            calls.append(args)
            return chord(*args)

        monkeypatch.setattr(toptrap.spin, "chord", counting_chord)
        spec = SweepSpec(
            axes=(Axis.linear("omega", 0.5, 2.0, 3), Axis.linear("theta", 0.1, 3.0, 4), Axis.linear("t", 0.0, 9.0, 5)),
            quantities=("survival", "transition", "omega_bar", "adiabaticity"),
            fixed={"omega0": 1.0},
        )
        result = run_sweep(spec)
        assert len(calls) == 1
        omega, theta = result.column("omega"), result.column("theta")
        assert np.array_equal(result.column("omega_bar"), omega_bar_of(1.0, omega, theta))

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
            assert value == survival_probability(DriveParams(float(x) * 2.0, 2.0, 1.0), 1.3)

    def test_quantities_match_scalar_api(self):
        spec = SweepSpec(
            axes=(Axis.linear("omega", 0.2, 3.0, 5), Axis.linear("theta", 0.1, 3.0, 5)),
            quantities=("adiabaticity", "omega_bar", "tau"),
            fixed={"omega0": 1.2},
        )
        result = run_sweep(spec)
        for omega, theta, adiabaticity, omega_bar, tau in result.table:
            p = DriveParams(1.2, float(omega), float(theta))
            assert adiabaticity == adiabaticity_parameter(p)
            assert omega_bar == p.omega_bar
            assert tau == resurrection_time(p).tau

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
        assert result.params["oracle"] == "instantaneous-basis"

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

    def test_oracle_drives_hold_python_floats(self, monkeypatch):
        """numpy float64 drive values would make every oracle step run on numpy.complex128, nearly 2x slower."""
        drives = []
        evolve = sweep_mod.evolve_instantaneous_basis
        monkeypatch.setattr(sweep_mod, "evolve_instantaneous_basis", lambda p, ts: drives.append(p) or evolve(p, ts))
        spec = SweepSpec(
            axes=(Axis("omega", np.array([0.7, 1.5])), Axis("theta", np.array([0.4, 0.9])), Axis.linear("t", 0, 2, 5)),
            quantities=("survival",),
            fixed={"omega0": 1.0},
            oracle=True,
        )
        run_sweep(spec)
        assert len(drives) == 4
        assert {type(value) for p in drives for value in (p.omega0, p.omega, p.theta)} == {float}

    def test_oracle_mismatch_names_the_worst_point(self, monkeypatch):
        def bumped(p, t_grid, settings=None):
            """The closed form plus 1e-6 theta sin(t): worst at the largest theta and t = 1.5."""
            from toptrap.integrate import TimeSeries

            ts = np.asarray(t_grid, dtype=float)
            bump = 1e-6 * p.theta * np.sin(ts)
            return TimeSeries(ts, survival_probability(p, ts) + bump, transition_probability(p, ts) - bump, "bumped")

        monkeypatch.setattr(sweep_mod, "evolve_instantaneous_basis", bumped)
        spec = SweepSpec(
            axes=(Axis("theta", np.array([0.3, 1.2, 2.0])), Axis.linear("t", 0.0, 3.0, 7)),
            quantities=("survival", "transition"),
            fixed={"omega0": 1.0, "omega": 1.5},
            oracle=True,
        )
        with pytest.raises(OracleMismatchError) as info:
            run_sweep(spec)
        assert str(info.value) == "survival: closed form and ODE differ by 1.995e-06 (> 1e-08) at theta=2, t=1.5"

    def test_overflowing_omega_bar_named(self):
        """omega_bar overflows at the first point only: a ValueError naming both, and no RuntimeWarning first."""
        spec = SweepSpec(
            axes=(Axis("omega", np.array([1e308, 1e307])),), quantities=("omega_bar",), fixed={"omega0": 1e308, "theta": math.pi}
        )
        with pytest.raises(ValueError, match=r"omega0 = 1e\+308, omega = 1e\+308"):
            run_sweep(spec)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_adiabaticity_named(self):
        """omega / omega0 overflows: a ValueError naming both in the words of spin.adiabaticity_of, the column's
        kernel, and no RuntimeWarning first."""
        spec = SweepSpec(
            axes=(Axis("omega", np.array([1e299, 1e300])),), quantities=("adiabaticity",), fixed={"omega0": 1e-300, "theta": 1.0}
        )
        message = r"^omega0 and omega must keep the adiabaticity parameter finite, got omega0 = 1e-300, omega = 1e\+299$"
        with pytest.raises(ValueError, match=message):
            run_sweep(spec)

    @pytest.mark.filterwarnings("error")
    def test_tau_needs_a_drive(self):
        """x = omega0 / omega at omega = 0: the message of resurrection_time, and no RuntimeWarning first."""
        spec = SweepSpec(axes=(Axis("theta", np.array([0.5, 1.0])),), quantities=("tau",), fixed={"omega0": 1.0, "omega": 0.0})
        with pytest.raises(ValueError, match="^resurrection undefined: omega must be > 0$"):
            run_sweep(spec)

    @pytest.mark.parametrize(
        "quantities, names, bound",
        [
            (("survival",), ("omega", "theta", "t"), 1.2),  # 1.135 measured: the phase and its isfinite mask
            (("transition",), ("omega", "theta", "t"), 1.2),
            (("survival", "transition"), ("omega", "theta", "t"), 1.2),
            (("survival", "transition", "omega_bar", "adiabaticity"), ("omega", "theta", "t"), 1.2),
            (("survival", "transition"), ("t", "omega", "theta"), 0.7),  # 0.635 measured: the table's isfinite mask
        ],
        ids=["survival", "transition", "survival-transition", "four-quantities", "pair-phase-in-the-table"],
    )
    def test_peak_memory_near_the_table(self, quantities, names, bound):
        """Beside the table, at most the kernel's phase buffer, which takes its sine in place, holds one value per
        point: no meshgrid, no per-point copies of the inputs, no outputs copied into the table.  With a transition
        column the phase is built there, whatever the axis order, and the largest temporary is the guard's mask."""
        spec = SweepSpec(
            axes=tuple(Axis.linear(name, 0.1, 3.0, 100) for name in names),
            quantities=quantities,
            fixed={"omega0": 1.0},
        )
        tracemalloc.start()
        try:
            table = run_sweep(spec).table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid = 8 * table.shape[0]  # one float per point
        assert peak <= table.nbytes + bound * grid

    @pytest.mark.parametrize(
        "spec",
        [
            SweepSpec(
                axes=(Axis.linear("theta", 0.1, 3.0, 3), Axis.linear("t", 0.0, 9.0, 5)),
                quantities=("transition", "tau", "survival"),
                fixed={"omega0": 1.0, "omega": 0.8},
            ),
            SweepSpec(quantities=("survival", "omega_bar"), fixed={"omega0": 1.0, "omega": 1.5, "theta": 1.0, "t": 2.0}),
        ],
        ids=["two-axes", "no-axes"],
    )
    def test_columns_are_contiguous_views(self, spec):
        """The table is column-major: every column is one contiguous block of it."""
        result = run_sweep(spec)
        assert result.table.flags.f_contiguous
        for name in result.columns:
            column = result.column(name)
            assert column.flags.c_contiguous and np.shares_memory(column, result.table)

    @pytest.mark.parametrize(
        "axis, fixed, quantity, message",
        [
            pytest.param(
                Axis.linear("theta", 0.0, 3.5, 8), {"omega0": 1.0, "omega": 1.5}, "survival", "theta must be in [0, pi], got 3.5",
                id="axis0-fixed0-theta",
            ),
            pytest.param(
                Axis.linear("x", 0.0, 2.0, 5), {"omega": 1.5, "theta": 1.0}, "survival", "omega0 must be finite and > 0, got 0.0",
                id="axis1-fixed1-omega0",
            ),
            # omega0 = x * omega is 0 at x = 0: only tau may take it.
            *(
                pytest.param(
                    Axis.linear("x", 0.0, 2.0, 5), {"omega": 1.5, "theta": 1.0}, q, "omega0 must be finite and > 0, got 0.0",
                    id=f"{q}-derived-omega0",
                )
                for q in ("adiabaticity", "omega_bar")
            ),
            pytest.param(
                Axis.linear("theta", 0.0, 4.0, 9), {"omega0": 1.0, "omega": 1.5}, "tau", "theta must be in [0, pi], got 3.5",
                id="tau-theta",
            ),
            # x = omega0 / omega overflows, or (1 - x)^2 does: named, with no RuntimeWarning first.
            pytest.param(
                Axis("omega", np.array([2.2e-311, 1.0])), {"omega0": 1.0, "theta": 1.0}, "tau",
                "omega0 and omega must keep x finite, got omega0 = 1.0, omega = 2.2e-311",
                id="tau-subnormal-omega",
            ),
            pytest.param(
                Axis("omega", np.array([8e-237, 1.0])), {"omega0": 1.0, "theta": 1.0}, "tau", "x must keep (1 - x)^2 finite, got x = 1.25e+236",
                id="tau-x-above-1e154",
            ),
            # omega0 = x * omega overflows: named with x and omega, with no RuntimeWarning first.
            pytest.param(
                Axis("x", np.array([1e300, 1e301])), {"omega": 1e300, "theta": 1.0}, "survival",
                "x and omega must keep omega0 = x * omega finite, got x = 1e+300, omega = 1e+300",
                id="x-times-omega-overflows",
            ),
        ],
    )
    def test_out_of_domain_drive_rejected(self, axis, fixed, quantity, message):
        spec = SweepSpec(axes=(axis, Axis.linear("t", 0.0, 5.0, 4)), quantities=(quantity,), fixed=fixed)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_sweep(spec)


def reference_sweep(spec):
    """Closed-form sweep the meshgrid way: every input copied out to one value per grid point."""
    n = math.prod(len(a.values) for a in spec.axes)
    mesh = np.meshgrid(*(a.values for a in spec.axes), indexing="ij")
    axis_columns = {a.name: m.reshape(-1) for a, m in zip(spec.axes, mesh)}

    def per_point(name):
        value = axis_columns.get(name, spec.fixed.get(name))
        return None if value is None else np.broadcast_to(np.asarray(value, dtype=float), (n,))

    omega0, omega, theta, t, x = (per_point(name) for name in AXIS_NAMES)
    if omega0 is None and x is not None and omega is not None:
        omega0 = x * omega
    columns = [a.name for a in spec.axes]
    data = [axis_columns[a.name] for a in spec.axes]
    pair = ("survival", "transition")
    closed = dict(zip(pair, probabilities(omega0, omega, theta, t))) if set(pair) & set(spec.quantities) else {}
    for q in spec.quantities:
        if q in ("adiabaticity", "omega_bar") and not np.all(omega0 > 0.0):
            raise ValueError(f"omega0 must be finite and > 0, got {float(omega0[~(omega0 > 0.0)][0])!r}")
        if q in pair:
            values = closed[q]
        elif q == "tau":
            if x is None and not np.all(omega > 0.0):
                raise ValueError("resurrection undefined: omega must be > 0")
            with np.errstate(over="ignore"):
                ratio = x if x is not None else omega0 / omega
                one_minus_x = None if x is not None else (omega - omega0) / omega
            bad = ~np.isfinite(ratio)
            if np.any(bad):
                o0, om = float(omega0[bad][0]), float(omega[bad][0])
                raise ValueError(f"omega0 and omega must keep x finite, got omega0 = {o0!r}, omega = {om!r}")
            values = np.asarray(tau_of_ratio(ratio, theta, one_minus_x))
        elif q == "adiabaticity":  # 0.5 omega sin(theta) / omega0 on the mantissas, then one ldexp by the exponents
            (m0, e0), (m, e), (ms, es) = np.frexp(omega0), np.frexp(omega), np.frexp(np.sin(theta))
            with np.errstate(over="ignore"):
                values = np.ldexp(0.5 * m * ms / m0, e + es - e0)
            bad = ~np.isfinite(values)
            if np.any(bad):
                o0, om = float(omega0[bad][0]), float(omega[bad][0])
                message = f"omega0 and omega must keep the adiabaticity parameter finite, got omega0 = {o0!r}, omega = {om!r}"
                raise ValueError(message)
        else:
            values = np.asarray(omega_bar_of(omega0, omega, theta))
        columns.append(q)
        data.append(values)
    params = {**spec.fixed, "tool": f"toptrap {__version__}", "method": "closed-form"}
    return tuple(columns), np.column_stack(data), params


DOMAIN = {"omega0": (0.05, 5.0), "omega": (0.0, 5.0), "theta": (0.0, math.pi), "t": (0.0, 40.0), "x": (0.0, 4.0)}


@st.composite
def closed_form_specs(draw):
    """Any closed-form spec: axes in any order, each input an axis or fixed, x in place of omega0."""
    inputs = ["x" if draw(st.booleans()) else "omega0", "omega", "theta", "t"]
    names = draw(st.permutations(inputs))[: draw(st.integers(0, 3))]
    value = {name: st.floats(*DOMAIN[name]) for name in inputs}
    axes = tuple(
        Axis(name, np.sort(draw(st.lists(value[name], min_size=2, max_size=6, unique=True)))) for name in names
    )
    fixed = {name: draw(value[name]) for name in inputs if name not in names}
    quantities = draw(st.lists(st.sampled_from(QUANTITIES), min_size=1, max_size=5, unique=True))
    return SweepSpec(axes=axes, quantities=tuple(quantities), fixed=fixed)


class TestBroadcastGrid:
    """run_sweep's broadcast grid gives the meshgrid evaluation's table, bit for bit."""

    @hyp.given(spec=closed_form_specs())
    # Fixed values reach the kernels as floats; squared by pow(), this drive's sin(theta/2) was an ulp off.
    @hyp.example(
        spec=SweepSpec(axes=(Axis.linear("t", 0.0, 9.0, 7),), fixed={"omega0": 1.0, "omega": 1.5, "theta": 2.516})
    )
    @hyp.example(spec=SweepSpec(quantities=QUANTITIES, fixed={"omega0": 1.3, "omega": 0.7, "theta": 2.2, "t": 4.1}))
    @hyp.example(spec=SweepSpec(axes=(Axis("x", np.array([0.0, 1.0])),), quantities=("adiabaticity",), fixed={"omega": 1.5, "theta": 1.0}))
    # 0.5 omega is subnormal: as 0.5 omega sin(theta) / omega0 the column lost a bit here
    @hyp.example(spec=SweepSpec(quantities=("adiabaticity",), fixed={"omega0": 0.25, "omega": 1.1125369292536007e-308, "theta": 1.0}))
    @hyp.example(spec=SweepSpec(axes=(Axis("theta", np.array([0.5, 1.0])),), quantities=("tau",), fixed={"omega0": 1.0, "omega": 0.0}))
    @hyp.example(spec=SweepSpec(quantities=("tau",), fixed={"omega0": 1.0, "omega": 2.225073858507203e-309, "theta": 0.0}))
    @hyp.example(spec=SweepSpec(axes=(Axis("omega", np.array([8e-237, 1.0])),), quantities=("tau",), fixed={"omega0": 1.0, "theta": 1.0}))
    # x = 9e307: 4 x overflows, and times sin(0) = 0 it once warned "invalid value" before the ValueError.
    @hyp.example(
        spec=SweepSpec(
            axes=(Axis("theta", np.array([0.0, 1.0])), Axis("omega", np.array([1.1125369292536007e-308, 1.0]))),
            quantities=("tau",),
            fixed={"omega0": 1.0, "t": 0.0},
        )
    )
    @hyp.settings(max_examples=300, deadline=None)
    def test_bit_identical_to_meshgrid(self, spec):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                columns, table, params = reference_sweep(spec)
        # omega0 = 0, tau at omega = 0 or its degenerate point, x = omega0/omega overflowing or above
        # about 1e154 (tau_of_ratio squares it), a non-finite adiabaticity.
        except ValueError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                run_sweep(spec)
            return
        result = run_sweep(spec)
        assert result.columns == columns
        assert result.params == params
        assert result.table.shape == table.shape
        assert result.table.tobytes() == table.tobytes()


def solved_by_hand(spec, result):
    """Survival and transition columns from one direct solve per distinct drive over its times in ascending order,
    ties in row order, with the number of drives."""
    inputs = {name: np.full(len(result.table), float(value)) for name, value in spec.fixed.items()}
    inputs.update((a.name, result.column(a.name)) for a in spec.axes)
    if "x" in inputs:
        inputs["omega0"] = inputs["x"] * inputs["omega"]
    drives = {}
    for row, drive in enumerate(zip(*(inputs[name].tolist() for name in ("omega0", "omega", "theta")))):
        drives.setdefault(drive, []).append(row)
    expected = np.empty((2, len(result.table)))
    for drive, rows in drives.items():
        rows.sort(key=lambda row: inputs["t"][row])  # a stable sort
        series = evolve_instantaneous_basis(DriveParams(*drive), inputs["t"][rows])
        expected[:, rows] = series.survival, series.transition
    return expected, len(drives)


class TestOracleGrouping:
    """The oracle sorts the grid's points once, by drive and then by t: each run of equal drives is one solve, written
    straight into the table's ``_ode`` columns, with the bits of a direct solve over that drive's sorted times."""

    PAIR = ("survival", "transition")
    SPECS = [
        pytest.param(
            SweepSpec(axes=(Axis.linear("t", 0.0, 7.0, 9), Axis("theta", np.array([0.3, 1.1, 2.5]))),
                      quantities=PAIR, fixed={"omega0": 1.0, "omega": 1.5}, oracle=True),
            3, id="t-first",
        ),
        pytest.param(
            SweepSpec(axes=(Axis("omega", np.array([0.7, 1.5])), Axis("t", np.array([3.0, 0.5, 3.0, 1.25, 0.0, 0.5]))),
                      quantities=PAIR, fixed={"omega0": 1.0, "theta": 0.9}, oracle=True),
            2, id="unsorted-tied-t",
        ),
        pytest.param(
            SweepSpec(axes=(Axis("omega", np.array([0.7, 1.5, 0.7])), Axis("theta", np.array([0.4, 2.0])),
                            Axis.linear("t", 0.0, 4.0, 6)),
                      quantities=PAIR, fixed={"omega0": 1.0}, oracle=True),
            4, id="repeated-omega",
        ),
        pytest.param(
            SweepSpec(axes=(Axis("x", np.array([0.5, 1.0, 2.0, 4.0])),),
                      quantities=PAIR, fixed={"omega": 1.3, "theta": 0.7, "t": 2.5}, oracle=True),
            4, id="x-fixed-t",
        ),
        pytest.param(
            SweepSpec(axes=(Axis("theta", np.array([0.3, 1.2])), Axis.linear("t", 0.0, 5.0, 7)),
                      quantities=("transition",), fixed={"omega0": 1.0, "omega": 1.5}, oracle=True),
            2, id="transition-only",
        ),
    ]  # fmt: skip

    @pytest.mark.parametrize("spec, drives", SPECS)
    def test_columns_are_direct_solves(self, monkeypatch, spec, drives):
        solves = []
        evolve = sweep_mod.evolve_instantaneous_basis
        monkeypatch.setattr(sweep_mod, "evolve_instantaneous_basis", lambda p, ts: solves.append(p) or evolve(p, ts))
        result = run_sweep(spec)
        expected, distinct = solved_by_hand(spec, result)
        assert len(solves) == distinct == drives
        ode = [q for q in self.PAIR if f"{q}_ode" in result.columns]
        assert ode == list(spec.quantities)
        for q in ode:
            assert result.column(f"{q}_ode").tobytes() == expected[self.PAIR.index(q)].tobytes()


def fig_transition(omega):
    """The grid of fig1 (omega 1.5) or fig2 (omega 0.5), for the transition."""
    axes = (Axis("theta", np.array(sweep_mod.FIG1_THETAS)), Axis.linear("t", 0.0, 15.0, 1501))
    return SweepSpec(axes=axes, quantities=("transition",), fixed={"omega0": 1.0, "omega": omega})


class TestPinnedBits:
    """sha256 of whole tables, row by row, as the row-major sweep made them, and of columns: the kernel's bits stay put."""

    @pytest.mark.parametrize(
        "which, shape, digest",
        [
            ("fig1", (6004, 3), "033d2513cfbcf03e7746f71e8caa0dc257bbeca70164534086ffc7ea878a3e8c"),
            ("fig2", (6004, 3), "4ae82ca963925bfd39174685b01ceccbed7207f87a557b91607b5cce9219689e"),
            ("fig3", (802, 3), "9403d16654fcb09314f833c7eaac21e6f9f87f5716bbfc178c84a1370625cd85"),
        ],
        ids=["fig1", "fig2", "fig3"],
    )
    def test_figure_tables(self, which, shape, digest):
        table = figure_dataset(which).table
        assert table.shape == shape
        assert hashlib.sha256(table.tobytes()).hexdigest() == digest

    def test_oracle_table(self):
        spec = SweepSpec(
            axes=(Axis.linear("theta", 0.2, 3.0, 3), Axis.linear("t", 0.0, 9.0, 5)),
            quantities=("survival", "transition"),
            fixed={"omega0": 1.0, "omega": 1.5},
            oracle=True,
        )
        result = run_sweep(spec)
        assert result.columns == ("theta", "t", "survival", "survival_ode", "transition", "transition_ode")
        assert result.table.shape == (15, 6)
        assert hashlib.sha256(result.table.tobytes()).hexdigest() == "7dd310d0fe64b1a0426e3afd650cb3bff37ea41f1f1208919ea9f51ff403a885"
        # the ODE columns alone, as recorded when survival was still cos^2 + (drift/wbar)^2 sin^2
        ode = result.table[:, [3, 5]].tobytes()
        assert hashlib.sha256(ode).hexdigest() == "e4f806be53cbd5a71be5afa94e465f26d09b191a9cef49d38adf504f7ab4ff4e"

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (
                SweepSpec(
                    axes=(Axis.linear("omega", 0.0, 3.0, 31), Axis.linear("theta", 0.0, math.pi, 25), Axis.linear("t", 0.0, 40.0, 41)),
                    quantities=("survival", "transition"),
                    fixed={"omega0": 1.0},
                ),
                "efef6fca0addc05b763e27253089a8efc4210ac7af4f21556f3d48197c3e10bd",
            ),
            (fig_transition(1.5), "925bb10f3f35a1c9794eab60e4cf6464fb817af4578e5c407386033e4fb780bc"),
            (fig_transition(0.5), "2200642b09243cce4c1796daef9df84ac749ce48a3f24a7817273392e20b5e88"),
        ],
        ids=["omega-theta-t", "fig1-inputs", "fig2-inputs"],
    )
    def test_transition_columns(self, spec, digest):
        """Recorded while survival was still cos^2 + (drift/wbar)^2 sin^2: taking it as 1 - transition moves no
        transition bit."""
        column = run_sweep(spec).column("transition")
        assert hashlib.sha256(np.ascontiguousarray(column).tobytes()).hexdigest() == digest


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
        assert result.params["figure"] == "fig2"
        assert "omega = 0.5" in result.params["description"]
        assert result.params["omega0"] == 1.0
