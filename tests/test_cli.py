"""End-to-end tests of the command-line interface and its exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
from xml.etree import ElementTree as ET

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

import toptrap.cli
from test_serialize import reference_csv, reference_json
from toptrap.cli import EXIT_INTEGRITY, EXIT_IO, EXIT_OK, EXIT_USAGE, main, table_from_sweep
from toptrap.closed_form import survival_probability, tau_of_ratio, transition_probability
from toptrap.integrate import evolve_instantaneous_basis, evolve_lab_frame, evolve_rotating_frame
from toptrap.serialize import Table, parse_csv
from toptrap.spin import DriveParams
from toptrap.sweep import MAX_GRID_POINTS, figure_dataset

SVG_NS = "{http://www.w3.org/2000/svg}"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(argv):
    """``main`` with stdout and stderr captured; usable inside hypothesis tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def svg_curves(path):
    """The chart's polylines as (points, dash) pairs."""
    root = ET.fromstring(path.read_text())
    return [(line.get("points"), line.get("stroke-dasharray")) for line in root.iter(f"{SVG_NS}polyline")]


@pytest.fixture
def no_grids(monkeypatch):
    """Make any grid allocation fail loudly, so an oversized request is never built."""

    def refuse(*args, **kwargs):
        raise AssertionError("grid allocated before the size check")

    monkeypatch.setattr(np, "linspace", refuse)


class TestEvolve:
    def test_no_drive_means_no_loss(self, capsys):
        code, out, _ = run(
            ["evolve", "--omega0", "1", "--omega", "0", "--theta", "1.0", "--t-max", "10", "--samples", "11"],
            capsys,
        )
        assert code == EXIT_OK
        table = parse_csv(out)
        assert table.columns == ("t", "survival", "transition")
        assert table.rows.shape == (11, 3)
        np.testing.assert_array_equal(table.column("survival"), np.ones(11))

    def test_all_methods_agree_and_report_delta(self, capsys):
        code, out, err = run(
            [
                "evolve", "--omega0", "1", "--omega", "1.5", "--theta", "1.5708",
                "--t-max", "20", "--samples", "2001", "--method", "all",
            ],
            capsys,
        )
        assert code == EXIT_OK
        match = re.search(r"max cross-method delta: ([0-9.e+-]+)", err)
        assert match, err
        assert float(match.group(1)) <= 1e-8
        table = parse_csv(out)
        assert "survival_closed" in table.columns and "survival_rot" in table.columns
        assert table.rows.shape == (2001, 9)

    @pytest.mark.parametrize("omega0", ["1e-310", "1e-315", "1e-320", "5e-324"])
    def test_subnormal_omega0_passes_cross_method_check(self, omega0, capsys):
        """H(t) underflows below the normal floats; the lab and rotating routes project onto a basis free of omega0."""
        argv = ["evolve", "--omega0", omega0, "--omega", "3.9587", "--theta", "2.2958", "--t-max", "1"]
        code, out, err = run(argv + ["--samples", "101", "--method", "all"], capsys)
        assert code == EXIT_OK, err
        table = parse_csv(out)
        for name in ("lab", "rot"):
            delta = np.abs(table.column(f"survival_{name}") - table.column("survival_closed"))
            assert np.max(delta) <= 1e-12, name

    def test_bad_theta_is_usage_error(self, capsys):
        code, _, err = run(
            ["evolve", "--omega0", "1", "--omega", "1", "--theta", "4.0", "--t-max", "1", "--samples", "2"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "theta" in err

    def test_loose_tolerance_trips_integrity_check(self, capsys):
        code, _, err = run(
            [
                "evolve", "--omega0", "1", "--omega", "1.5", "--theta", "1.2",
                "--t-max", "40", "--samples", "101", "--method", "all", "--rel-tol", "1e-3",
            ],
            capsys,
        )
        assert code == EXIT_INTEGRITY
        assert "integrity" in err

    def test_contradictory_tolerances_are_usage_error(self, capsys):
        code, _, err = run(
            [
                "evolve", "--omega0", "1", "--omega", "1.5", "--theta", "1.5708",
                "--t-max", "20", "--samples", "2001", "--method", "all", "--rel-tol", "1e-13",
            ],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "abs_tol" in err and "rel_tol" in err

    def test_unbounded_ode_work_is_usage_error(self, no_stepping, capsys):
        code, _, err = run(
            [
                "evolve", "--omega0", "1e6", "--omega", "1.5e6", "--theta", "1",
                "--t-max", "1", "--samples", "2", "--method", "all",
            ],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "steps" in err

    def test_unwritable_output_is_io_error(self, capsys):
        code, _, err = run(
            [
                "evolve", "--omega0", "1", "--omega", "1", "--theta", "1", "--t-max", "1",
                "--samples", "2", "--out", "/nonexistent-dir/out.csv",
            ],
            capsys,
        )
        assert code == EXIT_IO

    def test_csv_file_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "series.csv"
        code, _, _ = run(
            [
                "evolve", "--omega0", "1", "--omega", "1.5", "--theta", "0.7",
                "--t-max", "12", "--samples", "301", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == EXIT_OK
        table = parse_csv(out_path.read_text())
        from toptrap.closed_form import survival_probability
        from toptrap.spin import DriveParams

        expected = survival_probability(DriveParams(1.0, 1.5, 0.7), table.column("t"))
        assert np.array_equal(table.column("survival"), np.asarray(expected))

    @pytest.mark.parametrize("method", ["ode", "lab"])
    def test_single_ode_method_columns(self, method, capsys):
        code, out, _ = run(
            ["evolve", "--omega0", "1", "--omega", "0.8", "--theta", "0.9",
             "--t-max", "6", "--samples", "61", "--method", method],
            capsys,
        )
        assert code == EXIT_OK
        table = parse_csv(out)
        assert table.columns == ("t", "survival", "transition")
        from toptrap.closed_form import survival_probability
        from toptrap.spin import DriveParams

        expected = survival_probability(DriveParams(1.0, 0.8, 0.9), table.column("t"))
        np.testing.assert_allclose(table.column("survival"), expected, atol=1e-8)

    def test_json_output(self, capsys):
        code, out, _ = run(
            [
                "evolve", "--omega0", "1", "--omega", "1", "--theta", "1", "--t-max", "2",
                "--samples", "5", "--format", "json",
            ],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload) == {"params", "axes", "columns", "data"}
        assert payload["params"]["method"] == "closed"

    def test_svg_requires_out(self, capsys):
        code, _, err = run(
            ["evolve", "--omega0", "1", "--omega", "1", "--theta", "1", "--t-max", "2",
             "--samples", "5", "--format", "svg"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "svg" in err

    def test_underflow_at_end_of_grid_is_avoided(self, capsys):
        """A whole number of drive periods once ended a few ulp short of t-max and underflowed."""
        code, out, _ = run(
            [
                "evolve", "--omega0", "1", "--omega", "1.5", "--theta", "0.3", "--t-max", "8.377580409572781",
                "--rel-tol", "1e-3", "--method", "all", "--samples", "11",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert parse_csv(out).rows.shape == (11, 9)

    def test_very_short_span_is_solved(self, capsys):
        """A t-max below 1e-14 of the step cap once tripped the step-size floor at t = 0 (exit 3)."""
        code, out, err = run(
            ["evolve", "--omega0", "1", "--omega", "1.5", "--theta", "1", "--t-max", "1e-16", "--samples", "3", "--method", "all"],
            capsys,
        )
        assert code == EXIT_OK
        assert err.startswith("max cross-method delta")
        rows = parse_csv(out).rows
        assert rows.shape == (3, 9)
        np.testing.assert_allclose(rows[:, 1::2], 1.0, rtol=0, atol=1e-15)

    def test_overflowing_phase_is_usage_error(self, capsys):
        code, out, err = run(
            ["evolve", "--omega0", "1e10", "--omega", "1.5", "--theta", "1", "--t-max", "1e300", "--samples", "2"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "t must keep the phase wbar t/2 finite" in err

    @pytest.mark.parametrize("method", ["closed", "ode", "all", "lab"])
    def test_overflowing_omega_bar_is_usage_error(self, method, capsys):
        """omega_bar overflows: every route needs it, the lab route for its norm-loss step cap."""
        message = "omega0 and omega must keep omega_bar finite, got omega0 = 1e+308, omega = 1e+308"
        code, out, err = run(
            ["evolve", "--omega0", "1e308", "--omega", "1e308", "--theta", repr(math.pi), "--t-max", "1", "--samples", "2",
             "--method", method],
            capsys,
        )
        assert (code, out, err) == (EXIT_USAGE, "", f"toptrap: {message}\n")

    @pytest.mark.parametrize("method", ["closed", "ode", "all", "lab"])
    def test_overflowing_hypot_is_usage_error(self, method, capsys):
        """The split root is finite and np.hypot overflows: the report alone reaches stderr, no RuntimeWarning."""
        message = "omega0 and omega must keep omega_bar finite, got omega0 = 1.7e+308, omega = 3e+307"
        argv = ["evolve", "--omega0", "1.7e308", "--omega", "3e307", "--theta", repr(math.pi), "--t-max", "1",
                "--samples", "2", "--method", method]  # fmt: skip
        assert run(argv, capsys) == (EXIT_USAGE, "", f"toptrap: {message}\n")

    def test_drift_near_the_largest_float(self, capsys):
        """drift = 1.36e308 once overflowed as 2 omega sin^2(theta/2): survival nan at t = 0, and
        survival + transition 1.2 elsewhere.  Now the rows follow the rotating-frame propagator."""
        argv = ["evolve", "--omega0", "1e300", "--omega", "1.7e308", "--theta", "2.5", "--t-max", "3e-308", "--samples", "4"]
        code, out, err = run(argv, capsys)
        assert (code, err) == (EXIT_OK, "")
        rows = parse_csv(out).rows
        route = evolve_rotating_frame(DriveParams(1e300, 1.7e308, 2.5), rows[:, 0])
        np.testing.assert_allclose(rows[:, 1], route.survival, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rows[:, 2], route.transition, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "drive, method",
        [
            (("1e300", "1.7e308", "2.5", "3e-308"), "ode"),
            (("1e300", "1.7e308", "2.5", "3e-308"), "all"),
            (("4e307", "1", "1", "1e-306"), "ode"),
            (("4e307", "1", "1", "1e-306"), "lab"),
        ],
    )
    def test_overflowing_stage_sums_are_usage_error(self, drive, method, capsys):
        """Rates near the largest float times DP5(4) weights up to 25360/2187 overflow at every step size: once
        rejected down to a step-size underflow at t = 0 (exit 3), now refused before any step."""
        omega0, omega, theta, t_max = drive
        argv = ["evolve", "--omega0", omega0, "--omega", omega, "--theta", theta, "--t-max", t_max, "--samples", "4"]
        named = f"omega0 = {float(omega0)!r}, omega = {float(omega)!r}"
        message = f"toptrap: omega0 and omega must keep the DP5(4) stage sums finite, got {named}\n"
        assert run(argv + ["--method", method], capsys) == (EXIT_USAGE, "", message)
        code, out, err = run(argv + ["--method", "closed"], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert parse_csv(out).rows.shape == (4, 3)

    @pytest.mark.parametrize("method", ["ode", "lab"])
    def test_stage_sums_just_inside_the_float_range(self, method, capsys):
        """At omega0 = 3e307 every stage sum stays finite: both ODE routes solve and follow the propagator."""
        argv = ["evolve", "--omega0", "3e307", "--omega", "1", "--theta", "1", "--t-max", "1e-306", "--samples", "4"]
        code, out, err = run(argv + ["--method", method], capsys)
        assert (code, err) == (EXIT_OK, "")
        rows = parse_csv(out).rows
        route = evolve_rotating_frame(DriveParams(3e307, 1.0, 1.0), rows[:, 0])
        np.testing.assert_allclose(rows[:, 1], route.survival, rtol=0, atol=1e-9)
        np.testing.assert_allclose(rows[:, 2], route.transition, rtol=0, atol=1e-9)

    def test_finite_omega_bar_above_the_largest_product(self, capsys):
        """omega0 * omega overflows but wbar = 9.6e299 does not: the closed form answers, and the ODE routes
        refuse a span of some 1e299 Rabi periods up front."""
        argv = ["evolve", "--omega0", "1e300", "--omega", "1e300", "--theta", "1", "--t-max", "1", "--samples", "2"]
        code, out, err = run(argv + ["--method", "closed"], capsys)
        assert (code, err) == (EXIT_OK, "")
        p = DriveParams(1e300, 1e300, 1.0)
        assert parse_csv(out).rows.tolist() == [[0.0, 1.0, 0.0], [1.0, survival_probability(p, 1.0), transition_probability(p, 1.0)]]
        for method in ("ode", "lab", "all"):
            code, out, err = run(argv + ["--method", method], capsys)
            assert (code, out, err) == (EXIT_USAGE, "", "toptrap: integrating to t = 1.0 needs more than 1000000 steps\n")

    def test_omega_bar_at_theta_zero_above_the_largest_product(self, capsys):
        """2 sqrt(omega0 omega) = 2e308 overflows, but at theta = 0 wbar = |omega0 - omega| = 0: the closed form
        answers survival 1, and the ODE routes refuse the span up front."""
        argv = ["evolve", "--omega0", "1e308", "--omega", "1e308", "--theta", "0", "--t-max", "1", "--samples", "2"]
        code, out, err = run(argv + ["--method", "closed"], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert parse_csv(out).rows.tolist() == [[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
        ode = "toptrap: integrating to t = 1.0 needs at least 1.59e+308 steps, over 1000000\n"
        lab = "toptrap: integrating to t = 1.0 needs more than 1000000 steps\n"
        for method, err in (("ode", ode), ("lab", lab), ("all", ode)):
            assert run(argv + ["--method", method], capsys) == (EXIT_USAGE, "", err)

    def test_long_span_keeps_the_norm(self, capsys):
        """A thousand time units, about 400 Rabi periods: the DP5(4) norm loss grows with the step count, and the
        step cap that bounds it keeps the instantaneous-basis route inside its 10 * rel_tol guard."""
        argv = ["evolve", "--omega0", "2", "--omega", "1", "--theta", "2", "--t-max", "1000", "--samples", "11",
                "--method", "ode"]  # fmt: skip
        code, out, err = run(argv, capsys)
        assert (code, err) == (EXIT_OK, "")
        rows = parse_csv(out).rows
        np.testing.assert_allclose(rows[:, 1] + rows[:, 2], 1.0, rtol=0, atol=1e-9)

    def test_span_beyond_the_norm_loss_cap_is_refused(self, no_stepping, capsys):
        """The norm-loss cap sets the step count, so a span too long to keep the norm is refused before stepping."""
        argv = ["evolve", "--omega0", "2", "--omega", "1", "--theta", "2", "--t-max", "1e5", "--samples", "11",
                "--method", "ode"]  # fmt: skip
        message = "integrating to t = 100000.0 needs at least 2.64e+07 steps, over 1000000"
        assert run(argv, capsys) == (EXIT_USAGE, "", f"toptrap: {message}\n")

    def test_step_count_beyond_the_float_range_is_usage_error(self, no_stepping, capsys):
        """t_end / h_cap overflows: the refusal says "more than", with no inf and no overflow RuntimeWarning."""
        code, out, err = run(
            ["evolve", "--omega0", "1", "--omega", "1e300", "--theta", "1", "--t-max", "1e10", "--samples", "3",
             "--method", "lab"],
            capsys,
        )
        message = "integrating to t = 10000000000.0 needs more than 1000000 steps"
        assert (code, out, err) == (EXIT_USAGE, "", f"toptrap: {message}\n")

    @pytest.mark.parametrize("method, dashed", [("closed", [None, "6,4"]), ("all", [None] * 4)])
    def test_svg_curves(self, tmp_path, method, dashed, capsys):
        out_path = tmp_path / "evolve.svg"
        code, _, _ = run(
            ["evolve", "--omega0", "1", "--omega", "1.5", "--theta", "1.2", "--t-max", "12", "--samples", "101",
             "--method", method, "--format", "svg", "--out", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK
        assert [dash for _, dash in svg_curves(out_path)] == dashed

    def test_samples_capped_before_allocation(self, no_grids, capsys):
        code, _, err = run(
            ["evolve", "--omega0", "1", "--omega", "1", "--theta", "1", "--t-max", "2",
             "--samples", str(MAX_GRID_POINTS + 1)],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "samples" in err and str(MAX_GRID_POINTS) in err


class TestTau:
    def test_extremum_report_and_unity_at_zero(self, capsys):
        code, out, err = run(["tau", "--theta", str(math.pi / 3), "--theta", str(3 * math.pi / 4)], capsys)
        assert code == EXIT_OK
        assert re.search(r"\(0\.5,\s*1\.1547\d*\)", err)
        assert "monotone decreasing, no interior maximum" in err
        table = parse_csv(out)
        zero_rows = table.rows[table.column("x") == 0.0]
        assert len(zero_rows) == 2
        np.testing.assert_array_equal(zero_rows[:, 2], [1.0, 1.0])

    def test_rows_are_theta_blocks(self, capsys):
        code, out, _ = run(
            ["tau", "--theta", "1.0", "--theta", "2.0", "--x-min", "0", "--x-max", "2", "--steps", "5"],
            capsys,
        )
        assert code == EXIT_OK
        table = parse_csv(out)
        assert table.rows.shape == (10, 3)
        np.testing.assert_allclose(table.column("theta")[:5], 1.0)
        np.testing.assert_allclose(table.column("theta")[5:], 2.0)

    def test_invalid_theta(self, capsys):
        code, _, err = run(["tau", "--theta", "0"], capsys)
        assert code == EXIT_USAGE
        assert "theta" in err

    def test_overflowing_x_rejected(self, capsys):
        """(1 - x)^2 overflows above x of about 1.3e154: exit 2 naming x, no tau = 0 rows, no RuntimeWarning."""
        code, out, err = run(["tau", "--theta", "1", "--x-max", "1e200"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "toptrap: x must keep (1 - x)^2 finite, got x = 2.5e+197\n"

    def test_peak_tied_on_a_narrow_window(self, capsys):
        """tau is flat to rounding on a window 1e-11 wide around x* = cos(1), so np.argmax returns the first
        of many tied grid points, far from x*; a tied point within one step of x* passes."""
        code, out, _ = run(
            ["tau", "--theta", "1", "--x-min", "0.54030230586", "--x-max", "0.54030230587", "--steps", "401"], capsys
        )
        assert code == EXIT_OK
        assert parse_csv(out).rows.shape == (401, 3)

    def test_peak_flat_to_rounding_over_the_grid(self, capsys):
        """At theta = pi/2, x* = cos(theta) = 6.1e-17, and tau differs from tau* = 1 by at most one ulp over the
        whole grid, so its argmax, 16 steps from x*, is rounding noise: the grid point at x*, one ulp below the
        maximum, passes.  It was an integrity failure."""
        argv = ["tau", "--theta", "1.5707963267948966", "--x-min", "3.321433360419354e-297"]
        code, out, _ = run(argv + ["--x-max", "1.2896444575545145e-09", "--steps", "19"], capsys)
        assert code == EXIT_OK
        assert parse_csv(out).rows.shape == (19, 3)

    def test_displaced_peak_is_integrity_failure(self, monkeypatch, capsys):
        """A tau curve whose peak sits five grid steps from the analytic x* exits 3."""
        step = 4.0 / 400
        monkeypatch.setattr("toptrap.cli.tau_of_ratio", lambda x, theta: tau_of_ratio(x + 5 * step, theta))
        code, out, err = run(["tau", "--theta", "1"], capsys)
        assert (code, out) == (EXIT_INTEGRITY, "")
        assert "disagrees with analytic x* 0.540302 by more than one grid step 0.01" in err

    def test_steps_capped_before_allocation(self, no_grids, capsys):
        code, _, err = run(["tau", "--theta", "1.0", "--steps", str(MAX_GRID_POINTS + 1)], capsys)
        assert code == EXIT_USAGE
        assert "steps" in err and str(MAX_GRID_POINTS) in err


    def test_ulp_wide_x_range_svg(self, tmp_path, capsys):
        """An x range two ulps wide once sent the chart's tick loop round until memory ran out."""
        out_path = tmp_path / "tau.svg"
        code, _, _ = run(
            ["tau", "--theta", "1", "--x-min", "1", "--x-max", "1.0000000000000002", "--steps", "2",
             "--format", "svg", "--out", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK
        assert len(svg_curves(out_path)) == 1

    def test_svg_dashes_only_obtuse_angles(self, tmp_path, capsys):
        out_path = tmp_path / "tau.svg"
        code, _, _ = run(
            ["tau", "--theta", "0.5", "--theta", "2.3", "--theta", str(math.pi / 2),
             "--format", "svg", "--out", str(out_path)],
            capsys,
        )
        assert code == EXIT_OK
        assert [dash for _, dash in svg_curves(out_path)] == [None, "6,4", None]


LARGEST = "1.7976931348623157e+308"


class TestGrids:
    """The time and ratio grids are built without a leaked RuntimeWarning; a grid that overflows names its flags."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["evolve", "--omega0", "1", "--omega", "1.5", "--theta", "1", "--t-max", LARGEST, "--samples", "4"], EXIT_OK),
            (["tau", "--theta", "1", "--x-max", LARGEST, "--steps", "4"], EXIT_USAGE),  # tau_of_ratio refuses x
        ],
    )
    def test_grid_to_the_largest_float_warns_nothing(self, argv, code, capsys):
        assert run(argv, capsys)[0] == code

    @pytest.mark.filterwarnings("error")
    def test_overflowing_grid_names_the_flags(self, capsys):
        argv = ["tau", "--theta", "1", "--x-min=-1e308", "--x-max", "1e308", "--steps", "4"]
        message = "x-min and x-max must keep the grid finite, got x-min = -1e+308, x-max = 1e+308"
        assert run(argv, capsys) == (EXIT_USAGE, "", f"toptrap: {message}\n")


class TestFig:
    def test_fig1_row_count(self, capsys):
        code, out, _ = run(["fig", "fig1"], capsys)
        assert code == EXIT_OK
        table = parse_csv(out)
        assert table.rows.shape == (4 * 1501, 3)

    def test_fig3_svg_solid_curve_peak(self, tmp_path, capsys):
        out_path = tmp_path / "fig3.svg"
        code, _, _ = run(["fig", "fig3", "--format", "svg", "--out", str(out_path)], capsys)
        assert code == EXIT_OK
        text = out_path.read_text()
        root = ET.fromstring(text)
        assert "href" not in text and "url(" not in text
        polylines = list(root.iter(f"{SVG_NS}polyline"))
        assert len(polylines) == 2
        assert polylines[1].get("stroke-dasharray")  # obtuse-angle curve is dashed
        x_lo, x_hi = float(root.get("data-x-min")), float(root.get("data-x-max"))
        y_lo, y_hi = float(root.get("data-y-min")), float(root.get("data-y-max"))
        left, top = float(root.get("data-plot-left")), float(root.get("data-plot-top"))
        pw, ph = float(root.get("data-plot-width")), float(root.get("data-plot-height"))
        best_x, best_y = None, -math.inf
        for raw in polylines[0].get("points").split():
            px, py = map(float, raw.split(","))
            y = y_hi - (py - top) / ph * (y_hi - y_lo)
            if y > best_y:
                best_y = y
                best_x = x_lo + (px - left) / pw * (x_hi - x_lo)
        assert best_y == pytest.approx(2.0, abs=1e-3)
        assert best_x == pytest.approx(math.cos(math.pi / 6), abs=0.011)

    def test_json_axes(self, capsys):
        code, out, _ = run(["fig", "fig3", "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [a["name"] for a in payload["axes"]] == ["theta", "x"]
        assert len(payload["data"]) == 2 * 401


DRIVES = dict(
    omega0=st.floats(0.1, 10.0),
    ratio=st.floats(0.0, 5.0),
    theta=st.floats(0.0, math.pi),
    t_max=st.floats(0.1, 20.0),
    samples=st.integers(2, 40),
)


def outputs(argv):
    """The table of one invocation as (columns, rows) from the CSV and from the JSON output."""
    code, csv_text, _ = run_quiet(argv)
    assert code == EXIT_OK
    code, json_text, _ = run_quiet(argv + ["--format", "json"])
    assert code == EXIT_OK
    table = parse_csv(csv_text)
    payload = json.loads(json_text)
    return [(table.columns, table.rows), (tuple(payload["columns"]), np.array(payload["data"], dtype=float))]


def assert_bit_identical(got, columns, rows):
    for got_columns, got_rows in got:
        assert got_columns == columns
        assert got_rows.shape == rows.shape
        assert got_rows.tobytes() == rows.tobytes()


class TestDifferential:
    """CSV, JSON and the library give the same table, bit for bit."""

    @hyp.given(method=st.sampled_from(["closed", "ode"]), **DRIVES)
    @hyp.settings(max_examples=40, deadline=None)
    def test_evolve(self, method, omega0, ratio, theta, t_max, samples):
        argv = [
            "evolve", "--omega0", repr(omega0), "--omega", repr(ratio * omega0), "--theta", repr(theta),
            "--t-max", repr(t_max), "--samples", str(samples), "--method", method,
        ]
        p = DriveParams(omega0, ratio * omega0, theta)
        ts = np.linspace(0.0, t_max, samples)
        if method == "closed":
            pair = (survival_probability(p, ts), transition_probability(p, ts))
        else:
            series = evolve_instantaneous_basis(p, ts)
            pair = (series.survival, series.transition)
        assert_bit_identical(outputs(argv), ("t", "survival", "transition"), np.column_stack([ts, *pair]))

    @hyp.given(
        thetas=st.lists(st.floats(0.05, math.pi), min_size=1, max_size=3),
        x_min=st.floats(0.0, 2.0),
        width=st.floats(0.1, 4.0),
        steps=st.integers(2, 60),
    )
    @hyp.settings(max_examples=40, deadline=None)
    def test_tau(self, thetas, x_min, width, steps):
        argv = ["tau", "--x-min", repr(x_min), "--x-max", repr(x_min + width), "--steps", str(steps)]
        for theta in thetas:
            argv += ["--theta", repr(theta)]
        xs = np.linspace(x_min, x_min + width, steps)
        rows = np.vstack([np.column_stack([xs, np.full_like(xs, th), tau_of_ratio(xs, th)]) for th in thetas])
        assert_bit_identical(outputs(argv), ("x", "theta", "tau"), rows)

    @pytest.mark.parametrize("which", ["fig1", "fig2", "fig3"])
    def test_fig(self, which):
        result = figure_dataset(which)
        assert_bit_identical(outputs(["fig", which]), result.columns, result.table)

    @hyp.given(method=st.sampled_from(["lab", "all"]), **DRIVES)
    @hyp.settings(max_examples=20, deadline=None)
    def test_evolve_ode_routes(self, method, omega0, ratio, theta, t_max, samples):
        argv = [
            "evolve", "--omega0", repr(omega0), "--omega", repr(ratio * omega0), "--theta", repr(theta),
            "--t-max", repr(t_max), "--samples", str(samples), "--method", method,
        ]
        p = DriveParams(omega0, ratio * omega0, theta)
        ts = np.linspace(0.0, t_max, samples)
        lab = evolve_lab_frame(p, ts)
        if method == "lab":
            columns, pairs = ("t", "survival", "transition"), [(lab.survival, lab.transition)]
        else:
            columns = ("t",) + tuple(f"{q}_{name}" for name in ("closed", "ode", "lab", "rot") for q in ("survival", "transition"))
            ode, rot = evolve_instantaneous_basis(p, ts), evolve_rotating_frame(p, ts)
            pairs = [
                (survival_probability(p, ts), transition_probability(p, ts)),
                (ode.survival, ode.transition),
                (lab.survival, lab.transition),
                (rot.survival, rot.transition),
            ]
        assert_bit_identical(outputs(argv), columns, np.column_stack([ts, *(col for pair in pairs for col in pair)]))


def fig_result(which):
    result = figure_dataset(which)
    thetas, inner = (axis.values for axis in result.axes)
    curves = result.column("tau" if which == "fig3" else "survival").reshape(len(thetas), len(inner))
    return table_from_sweep(result), [(inner, y) for y in curves]


def tau_result():
    thetas, xs = (0.7, 2.2), np.linspace(0.0, 4.0, 101)
    curves = [tau_of_ratio(xs, theta) for theta in thetas]
    rows = np.vstack([np.column_stack([xs, np.full_like(xs, theta), y]) for theta, y in zip(thetas, curves)])
    params = {"command": "tau", "theta": "0.7,2.2", "x_min": 0.0, "x_max": 4.0, "steps": 101}
    return Table(("x", "theta", "tau"), rows, params, (("x", xs),)), [(xs, y) for y in curves]


def evolve_all_result():
    p, ts = DriveParams(1.0, 1.5, 1.2), np.linspace(0.0, 12.0, 301)
    pairs = {"closed": (survival_probability(p, ts), transition_probability(p, ts))}
    for name, route in (("ode", evolve_instantaneous_basis), ("lab", evolve_lab_frame), ("rot", evolve_rotating_frame)):
        series = route(p, ts)
        pairs[name] = (series.survival, series.transition)
    columns = ("t",) + tuple(f"{q}_{name}" for name in pairs for q in ("survival", "transition"))
    rows = np.column_stack([ts, *(column for pair in pairs.values() for column in pair)])
    params = {
        "command": "evolve", "omega0": 1.0, "omega": 1.5, "theta": 1.2, "t_max": 12.0, "samples": 301,
        "method": "all", "rel_tol": 1e-10, "abs_tol": 1e-12,
    }
    return Table(columns, rows, params, (("t", ts),)), [(ts, pair[0]) for pair in pairs.values()]


# (command line, library table and chart curves it must write)
PINNED = {
    "fig1": (["fig", "fig1"], lambda: fig_result("fig1")),
    "fig2": (["fig", "fig2"], lambda: fig_result("fig2")),
    "fig3": (["fig", "fig3"], lambda: fig_result("fig3")),
    "tau": (["tau", "--theta", "0.7", "--theta", "2.2", "--steps", "101"], tau_result),
    "evolve-all": (
        ["evolve", "--omega0", "1", "--omega", "1.5", "--theta", "1.2", "--t-max", "12", "--samples", "301",
         "--method", "all"],
        evolve_all_result,
    ),
}
# sha256 of each PINNED command's --format svg file: the renderer's whole output, markup and numbers, bit for bit
SVG_SHA256 = {
    "fig1": "a15a8c16b0db915bfc2d4149f36668df8279c9bd49d17fa67450f6e9a0d0a68c",
    "fig2": "8da881e9e57c5f0dd7c9566cecc460ec07fbfc575db6493bf2f2b6d53f451e2d",
    "fig3": "15e10f4d7b2960b766b0b2f6272965fc44922b26e576c3b8b0227c4731704e52",
    "tau": "32394a477d02fe70f4ad5d7356625a03b8289b21f9785e8a0ebe7ea032d8c01d",
    "evolve-all": "ee0fa22b3d9979779f4b483da22bb327f243d5d972be34b83bb7ce47120f7ec9",
}


class TestBytes:
    """Table and chart output equals the per-value reference writers applied to the library result."""

    @pytest.mark.parametrize("name", PINNED)
    def test_csv_and_json(self, name, capsys):
        argv, library = PINNED[name]
        table, _ = library()
        for fmt, reference in (("csv", reference_csv), ("json", reference_json)):
            code, out, _ = run(argv + ["--format", fmt], capsys)
            assert code == EXIT_OK
            # compared as lines: pytest's diff of two long unequal strings takes minutes
            assert out.splitlines(keepends=True) == reference(table).splitlines(keepends=True)

    @pytest.mark.parametrize("name", PINNED)
    def test_svg_polyline_points(self, name, tmp_path, capsys):
        argv, library = PINNED[name]
        _, curves = library()
        path = tmp_path / "chart.svg"
        assert run(argv + ["--format", "svg", "--out", str(path)], capsys)[0] == EXIT_OK
        root = ET.fromstring(path.read_text())
        keys = ("x-min", "x-max", "y-min", "y-max", "plot-left", "plot-top", "plot-width", "plot-height")
        x_lo, x_hi, y_lo, y_hi, left, top, width, height = (float(root.get(f"data-{key}")) for key in keys)
        want = [
            " ".join(
                f"{left + (x - x_lo) / (x_hi - x_lo) * width:.3f},{top + (y_hi - y) / (y_hi - y_lo) * height:.3f}"
                for x, y in zip(xs.tolist(), ys.tolist())
            )
            for xs, ys in curves
        ]
        assert [line.get("points") for line in root.iter(f"{SVG_NS}polyline")] == want

    @pytest.mark.parametrize("name", PINNED)
    def test_svg_bytes(self, name, tmp_path, capsys):
        path = tmp_path / "chart.svg"
        assert run(PINNED[name][0] + ["--format", "svg", "--out", str(path)], capsys)[0] == EXIT_OK
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SVG_SHA256[name]


class TestAdiabatic:
    def test_theta_zero_is_adiabatic(self, capsys):
        code, out, _ = run(["adiabatic", "--omega0", "1", "--omega", "5", "--theta", "0"], capsys)
        assert code == EXIT_OK
        assert "verdict" in out and "NOT" not in out

    def test_slow_drive_value(self, capsys):
        code, out, _ = run(
            ["adiabatic", "--omega0", "100", "--omega", "1", "--theta", str(math.pi / 2), "--format", "json"],
            capsys,
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["parameter"] == pytest.approx(0.005, rel=1e-12)
        assert payload["matrix_element"] == pytest.approx(0.005, abs=1e-9)
        assert payload["adiabatic"] is True

    def test_fast_drive_not_adiabatic(self, capsys):
        code, out, _ = run(
            ["adiabatic", "--omega0", "1", "--omega", "1.5", "--theta", str(math.pi / 2)], capsys
        )
        assert code == EXIT_OK
        assert "0.75" in out
        assert "NOT adiabatic" in out

    def test_overflow_is_usage_error(self, capsys):
        code, out, err = run(["adiabatic", "--omega0", "1e-300", "--omega", "1e300", "--theta", "1"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "omega0" in err

    @pytest.mark.parametrize(
        "drive",
        [
            "--omega0 4.0266671566387116e-261 --omega 1.6839658029233765e-117 --theta 1.8926637372142934",
            "--omega0 1e306 --omega 1 --theta 1",
            "--omega0 1e300 --omega 1e300 --theta 1",
        ],
        ids=["element-was-0", "omega0-1e306", "omega0-omega-1e300"],
    )
    def test_element_matches_the_parameter(self, drive, capsys):
        """The complex difference of H over a tiny spacing underflowed to 0 (first) or overflowed, refused (others)."""
        code, out, _ = run(["adiabatic", *drive.split(), "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["matrix_element"] == pytest.approx(payload["parameter"], rel=1e-9)

    def test_overflowing_shifted_time_names_t_and_dt(self, capsys):
        """t + dt overflows: the message names the given t and dt, not an infinite t."""
        argv = ["adiabatic", "--omega0", "1", "--omega", "10", "--theta", "1", "--t", "1e308", "--dt", "1e308"]
        message = "t and dt must keep t +/- dt finite, got t = 1e+308, dt = 1e+308"
        assert run(argv, capsys) == (EXIT_USAGE, "", f"toptrap: {message}\n")

    def test_overflowing_shifted_phase_names_omega_t_and_dt(self, capsys):
        """omega (t + dt) overflows at t = 0: the message names omega and the given t and dt, not t + dt."""
        argv = ["adiabatic", "--omega0", "1", "--omega", "10", "--theta", "1", "--t", "0", "--dt", "1e308"]
        message = "omega and t and dt must keep the phase omega (t +/- dt) finite, got omega = 10.0, t = 0.0, dt = 1e+308"
        assert run(argv, capsys) == (EXIT_USAGE, "", f"toptrap: {message}\n")

    def test_overflowing_parameter_names_omega0_and_omega(self, capsys):
        """The parameter omega sin(theta) / (2 omega0) overflows: no Infinity reaches the JSON report."""
        argv = ["adiabatic", "--omega0", "3.47066335873237e-270", "--omega", "4.6747883941380365e+144"]
        argv += ["--theta", "1.9158013801054554", "--t", "1", "--format", "json"]
        message = (
            "omega0 and omega must keep the adiabaticity parameter finite, "
            "got omega0 = 3.47066335873237e-270, omega = 4.6747883941380365e+144"
        )
        assert run(argv, capsys) == (EXIT_USAGE, "", f"toptrap: {message}\n")

    def test_step_lost_against_t_names_t_and_dt(self, capsys):
        """The default dt, 1e-6 of 2 pi / omega, rounds away against t = 1: the difference quotient would be 0."""
        argv = ["adiabatic", "--omega0", "1", "--omega", "4.6747883941380365e+144", "--theta", "1.9158013801054554"]
        argv += ["--t", "1", "--format", "json"]
        message = "dt must be large enough that t +/- dt differs from t = 1.0, got 1.3440576936184753e-150"
        assert run(argv, capsys) == (EXIT_USAGE, "", f"toptrap: {message}\n")


class TestGeometry:
    ARGS = [
        "geometry", "--a0", "1", "--b0", "1e-3", "--omega", "43982.29715", "--gamma", "4.4e10",
        "--mu", "9.274e-24", "--mass", "1.443e-25",
    ]

    def test_text_report(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == EXIT_OK
        assert "0.001" in out  # r0
        assert "satisfied" in out

    def test_json_report(self, capsys):
        code, out, _ = run(self.ARGS + ["--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["r0"] == pytest.approx(1e-3, rel=1e-12)
        assert payload["k"] == pytest.approx(4.637e-21, rel=1e-12)
        assert payload["omega_osc"] == pytest.approx(179.26082152674113, rel=1e-12)
        assert payload["satisfied"] is True

    def test_invalid_config(self, capsys):
        bad = list(self.ARGS)
        bad[bad.index("--mass") + 1] = "0"
        code, _, err = run(bad, capsys)
        assert code == EXIT_USAGE
        assert "mass" in err


    @pytest.mark.parametrize(
        "a0, b0, message",
        [
            ("1e200", "1", "mu and a0 and b0 must keep k finite, got mu = 1.0, a0 = 1e+200, b0 = 1.0"),
            ("1", "1e-320", "mu and a0 and b0 must keep k finite, got mu = 1.0, a0 = 1.0, b0 = 1e-320"),
        ],
    )
    def test_overflowing_scale_is_usage_error(self, a0, b0, message, capsys):
        argv = ["geometry", "--a0", a0, "--b0", b0, "--omega", "1", "--gamma", "1", "--mu", "1", "--mass", "1"]
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (EXIT_USAGE, "", f"toptrap: {message}\n")


class TestTopLevel:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK

    def test_parser_built_once_and_reused_cleanly(self, monkeypatch, capsys):
        """The parser is built on the first call of a process and serves every later call: no flag, default or
        appended value of one call reaches the next, and usage errors and --version behave as on a new parser."""
        built, init = [], argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        toptrap.cli._parser.cache_clear()
        try:
            evolve = ["evolve", "--omega0", "1", "--omega", "1.5", "--theta", "1", "--t-max", "2", "--samples", "3"]
            code, out, _ = run(evolve + ["--method", "all", "--format", "json"], capsys)
            assert code == EXIT_OK and len(json.loads(out)["columns"]) == 9
            first = len(built)
            assert first == 6  # toptrap and its five subcommands
            code, _, err = run(["tau", "--theta"], capsys)
            assert code == EXIT_USAGE
            assert err.startswith("usage: toptrap tau") and "--theta: expected one argument" in err
            code, out, err = run(["--version"], capsys)
            assert (code, err) == (EXIT_OK, "") and out.startswith("toptrap ")
            code, out, _ = run(evolve, capsys)  # --method closed and --format csv again
            assert code == EXIT_OK and parse_csv(out).columns == ("t", "survival", "transition")
            for thetas in (["1", "2"], ["1"]):
                code, out, _ = run(["tau", "--steps", "3"] + [arg for t in thetas for arg in ("--theta", t)], capsys)
                assert code == EXIT_OK and len(parse_csv(out).rows) == 3 * len(thetas)
            assert len(built) == first
        finally:
            toptrap.cli._parser.cache_clear()  # later tests build their own, unpatched parser

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
