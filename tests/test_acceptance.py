"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 5 includes a qualitative clause (dip amplitude monotone
in theta over the whole quarter circle) that the exact solution does not
satisfy at these drive ratios: the amplitude peaks where cos(theta) =
min(omega0/omega, omega/omega0) and shrinks beyond it.  The quantitative
clauses of that criterion are asserted first; the monotonicity clause is
asserted last, as stated, and fails.  See README, "Acceptance status".
"""

import contextlib
import math
import re
import time
from xml.etree import ElementTree as ET

import numpy as np
import pytest

from toptrap.cli import EXIT_INTEGRITY, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from toptrap.closed_form import (
    survival_probability,
    tau_extremum,
    tau_of_ratio,
    transition_probability,
)
from toptrap.geometry import (
    TrapConfig,
    circle_of_death_radius,
    field_at,
    oscillation_frequency,
    spring_constant,
    zero_locus,
)
from toptrap.integrate import (
    evolve_instantaneous_basis,
    evolve_lab_frame,
    evolve_rotating_frame,
)
from toptrap.serialize import parse_csv
from toptrap.spin import DriveParams, adiabaticity_matrix_element, adiabaticity_parameter
from toptrap.sweep import figure_dataset


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number}: FAIL - {label}")
        raise
    print(f"\ncriterion {number}: PASS - {label}")


def test_criterion_1_normalisation_identity():
    with criterion(1, "survival + transition = 1 to 1e-14 over 1e4 random points, < 1 s"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(10_000):
            p = DriveParams(1.0, rng.uniform(0.0, 10.0), rng.uniform(0.0, math.pi))
            t = rng.uniform(0.0, 100.0)
            total = survival_probability(p, t) + transition_probability(p, t)
            worst = max(worst, abs(total - 1.0))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-14, f"worst |s + q - 1| = {worst:.3e}"
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_2_oracle_equivalence():
    with criterion(2, "closed form, both ODE routes and the propagator agree to 1e-8, < 30 s"):
        rng = np.random.default_rng(202)
        start = time.perf_counter()
        worst = 0.0
        for ratio in (0.1, 0.5, 1.0, 1.5, 5.0):
            for theta in (0.1, math.pi / 4, math.pi / 2, 2.0, 3.0):
                p = DriveParams(1.0, ratio, theta)
                horizon = 10.0 * 2.0 * math.pi / p.omega_bar
                ts = np.sort(rng.uniform(0.0, horizon, 5))
                closed = np.asarray(survival_probability(p, ts))
                for series in (
                    evolve_instantaneous_basis(p, ts),
                    evolve_lab_frame(p, ts),
                    evolve_rotating_frame(p, ts),
                ):
                    worst = max(worst, float(np.max(np.abs(series.survival - closed))))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-8, f"worst cross-method delta = {worst:.3e}"
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_3_full_resurrection():
    with criterion(3, "survival(2 pi / omega_bar) = 1 to 1e-12 for 100 random drives"):
        rng = np.random.default_rng(303)
        for _ in range(100):
            p = DriveParams(
                rng.uniform(0.1, 10.0), rng.uniform(0.05, 10.0), rng.uniform(0.01, math.pi - 0.01)
            )
            value = survival_probability(p, 2.0 * math.pi / p.omega_bar)
            assert abs(value - 1.0) <= 1e-12


def test_criterion_4_resurrection_curve():
    with criterion(4, "tau curve: unit start, peak 2 at x = cos(pi/6) +- one step, obtuse monotone, < 1 s"):
        start = time.perf_counter()
        result = figure_dataset("fig3")
        xs = result.axes[1].values
        step = xs[1] - xs[0]
        tau = result.column("tau").reshape(2, len(xs))
        solid, dashed = tau[0], tau[1]
        assert solid[0] == 1.0 and dashed[0] == 1.0
        x_star, tau_star = tau_extremum(math.pi / 6)
        assert abs(tau_star - 2.0) <= 1e-6
        k = int(np.argmax(solid))
        assert abs(xs[k] - x_star) <= step, f"grid argmax {xs[k]} vs analytic {x_star}"
        assert solid[k] <= tau_star + 1e-12
        assert solid[k] == tau_of_ratio(float(xs[k]), math.pi / 6)
        assert np.all(np.diff(dashed) < 0.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_5_survival_oscillations():
    with criterion(5, "minima 1/3.25 and 0.8; slower drive dips less; amplitude monotone in theta"):
        fast = DriveParams(1.0, 1.5, math.pi / 2)
        slow = DriveParams(1.0, 0.5, math.pi / 2)
        assert survival_probability(fast, math.pi / fast.omega_bar) == pytest.approx(1 / 3.25, abs=1e-12)
        assert survival_probability(slow, math.pi / slow.omega_bar) == pytest.approx(0.8, abs=1e-12)

        def dip_amplitude(ratio, theta):
            p = DriveParams(1.0, ratio, theta)
            return (p.coupling / p.omega_bar) ** 2

        thetas = np.linspace(0.05, math.pi / 2, 30)
        for theta in thetas:
            assert dip_amplitude(0.5, float(theta)) < dip_amplitude(1.5, float(theta))

        # final clause: amplitude monotone increasing in theta on [0, pi/2]
        # at both ratios.  The exact solution violates this: the amplitude
        # peaks at cos(theta) = min(omega0/omega, omega/omega0) with value
        # min(1, (omega/omega0)^2) and decreases from there to pi/2.
        for ratio in (0.5, 1.5):
            amplitudes = np.array([dip_amplitude(ratio, float(t)) for t in thetas])
            rising = np.diff(amplitudes) > 0.0
            peak = min(1.0, ratio**2)
            theta_star = math.acos(min(ratio, 1.0 / ratio))
            assert np.all(rising), (
                f"ratio {ratio}: amplitude not monotone on [0, pi/2]; "
                f"peak {peak:.4g} at theta = {theta_star:.4f} rad, "
                f"then falls to {amplitudes[-1]:.4f} at pi/2"
            )


def test_criterion_6_adiabatic_limit():
    with criterion(6, "omega0 = 100 omega, theta = pi/2: transition never exceeds 1.01e-4"):
        p = DriveParams(100.0, 1.0, math.pi / 2)
        analytic_max = (p.coupling / p.omega_bar) ** 2
        assert analytic_max <= 1.01e-4
        ts = np.linspace(0.0, 2.0 * math.pi / p.omega_bar, 4001)
        assert float(np.max(transition_probability(p, ts))) <= 1.01e-4
        peak = evolve_instantaneous_basis(p, [0.0, math.pi / p.omega_bar])
        assert peak.transition[-1] <= 1.01e-4


def test_criterion_7_finite_difference_convergence():
    with criterion(7, "matrix-element criterion converges to (omega/(2 omega0)) sin(theta) at order >= 1.9"):
        for p in (DriveParams(1.0, 1.5, math.pi / 2), DriveParams(2.0, 3.0, 1.1)):
            exact = adiabaticity_parameter(p)
            errors = [
                abs(adiabaticity_matrix_element(p, 0.3, dt) - exact) for dt in (4e-3, 2e-3, 1e-3)
            ]
            orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
            assert min(orders) >= 1.9, f"observed orders {orders}"


def test_criterion_8_geometry_identities():
    with criterion(8, "field zero on the locus; r0 and omega_osc match hand-computed values"):
        config = TrapConfig(
            a0=1.0, b0=1e-3, omega=2 * math.pi * 7e3, gamma=4.4e10, mu=9.274e-24, mass=1.443e-25
        )
        rng = np.random.default_rng(808)
        for t in rng.uniform(0.0, 1e-2, 100):
            x, y, z = zero_locus(config, float(t))
            f = field_at(config, float(x), float(y), float(z), float(t))
            assert f.magnitude() <= 1e-15 * config.b0
        assert circle_of_death_radius(config) == pytest.approx(1e-3, rel=1e-15)
        assert spring_constant(config) == pytest.approx(4.637e-21, rel=1e-12)
        assert oscillation_frequency(config) == pytest.approx(179.26082152674113, rel=1e-12)


def test_criterion_9_cli_contract(tmp_path, capsys):
    with criterion(9, "evolve examples, exit-code table, CSV round trip, self-contained fig3 SVG"):
        # evolve example: no drive, survival stays 1
        code = main(["evolve", "--omega0", "1", "--omega", "0", "--theta", "1.0",
                     "--t-max", "10", "--samples", "11"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        table = parse_csv(out)
        np.testing.assert_array_equal(table.column("survival"), np.ones(11))

        # evolve example: all methods agree, delta reported on stderr
        code = main(["evolve", "--omega0", "1", "--omega", "1.5", "--theta", "1.5708",
                     "--t-max", "20", "--samples", "2001", "--method", "all"])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        match = re.search(r"max cross-method delta: ([0-9.e+-]+)", captured.err)
        assert match and float(match.group(1)) <= 1e-8

        # evolve example: validation failure names the flag
        code = main(["evolve", "--omega0", "1", "--omega", "1", "--theta", "4.0",
                     "--t-max", "1", "--samples", "2"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and "theta" in captured.err

        # exit-code table: 3 on integrity failure, 4 on i/o failure
        code = main(["evolve", "--omega0", "1", "--omega", "1.5", "--theta", "1.2",
                     "--t-max", "40", "--samples", "101", "--method", "all", "--rel-tol", "1e-3"])
        capsys.readouterr()
        assert code == EXIT_INTEGRITY
        code = main(["evolve", "--omega0", "1", "--omega", "1", "--theta", "1",
                     "--t-max", "1", "--samples", "2", "--out", "/nonexistent-dir/x.csv"])
        capsys.readouterr()
        assert code == EXIT_IO

        # CSV round trip through a file
        out_path = tmp_path / "roundtrip.csv"
        code = main(["evolve", "--omega0", "1", "--omega", "1.5", "--theta", "0.7",
                     "--t-max", "12", "--samples", "301", "--out", str(out_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        parsed = parse_csv(out_path.read_text())
        expected = survival_probability(DriveParams(1.0, 1.5, 0.7), parsed.column("t"))
        assert np.array_equal(parsed.column("survival"), np.asarray(expected))

        # fig3 SVG: well-formed XML, nothing external referenced
        svg_path = tmp_path / "fig3.svg"
        code = main(["fig", "fig3", "--format", "svg", "--out", str(svg_path)])
        capsys.readouterr()
        assert code == EXIT_OK
        text = svg_path.read_text()
        root = ET.fromstring(text)
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert "href" not in text and "url(" not in text
        assert len(list(root.iter("{http://www.w3.org/2000/svg}polyline"))) == 2
