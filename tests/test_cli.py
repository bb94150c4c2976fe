"""End-to-end tests of the command-line interface and its exit codes."""

import json
import math
import re
from xml.etree import ElementTree as ET

import numpy as np
import pytest

from toptrap.cli import EXIT_INTEGRITY, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from toptrap.serialize import parse_csv
from toptrap.sweep import MAX_GRID_POINTS

SVG_NS = "{http://www.w3.org/2000/svg}"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_steps_capped_before_allocation(self, no_grids, capsys):
        code, _, err = run(["tau", "--theta", "1.0", "--steps", str(MAX_GRID_POINTS + 1)], capsys)
        assert code == EXIT_USAGE
        assert "steps" in err and str(MAX_GRID_POINTS) in err


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


class TestTopLevel:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE
