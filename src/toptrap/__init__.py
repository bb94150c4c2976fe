"""Spin dynamics of a two-level atom held in a time-orbiting-potential trap.

The package models an atom whose magnetic moment sees the rotating bias
field of a TOP trap: a quadrupole field plus a uniform field rotating at
angular frequency ``omega``.  Inside the circle traced by the instantaneous
field zero the spin problem reduces to a two-level system driven at fixed
polar angle ``theta`` with Larmor frequency ``omega0``.  The survival
probability of the trapped (weak-field-seeking) state is available in
closed form and is cross-checked against three independent numerical
routes: the coupled amplitude equations in the instantaneous eigenbasis,
direct integration of the Schrodinger equation in the fixed spinor basis,
and the exact propagator built in the frame co-rotating with the drive.
"""

from .closed_form import (
    ResurrectionPoint,
    SpinAmplitudes,
    amplitudes_at,
    probabilities,
    resurrection_time,
    survival_probability,
    tau_extremum,
    tau_of_ratio,
    transition_probability,
)
from .geometry import (
    ConfinementReport,
    FieldVector,
    HierarchyReport,
    TrapConfig,
    circle_of_death_radius,
    confinement_advisor,
    field_angle_at,
    field_at,
    hierarchy_check,
    larmor_at,
    oscillation_frequency,
    spring_constant,
    zero_locus,
)
from .integrate import (
    IntegrationError,
    IntegratorSettings,
    TimeSeries,
    evolve_instantaneous_basis,
    evolve_lab_frame,
    evolve_rotating_frame,
    rotating_frame_propagator,
)
from .spin import (
    DriveParams,
    EigenPair,
    adiabaticity_matrix_element,
    adiabaticity_parameter,
    eigensystem_at,
    hamiltonian_at,
)
from .sweep import Axis, OracleMismatchError, SweepResult, SweepSpec, figure_dataset, run_sweep

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "ConfinementReport",
    "DriveParams",
    "EigenPair",
    "FieldVector",
    "HierarchyReport",
    "IntegrationError",
    "IntegratorSettings",
    "OracleMismatchError",
    "ResurrectionPoint",
    "SpinAmplitudes",
    "SweepResult",
    "SweepSpec",
    "TimeSeries",
    "TrapConfig",
    "adiabaticity_matrix_element",
    "adiabaticity_parameter",
    "amplitudes_at",
    "circle_of_death_radius",
    "confinement_advisor",
    "eigensystem_at",
    "evolve_instantaneous_basis",
    "evolve_lab_frame",
    "evolve_rotating_frame",
    "field_angle_at",
    "field_at",
    "figure_dataset",
    "hamiltonian_at",
    "hierarchy_check",
    "larmor_at",
    "oscillation_frequency",
    "probabilities",
    "resurrection_time",
    "rotating_frame_propagator",
    "run_sweep",
    "spring_constant",
    "survival_probability",
    "tau_extremum",
    "tau_of_ratio",
    "transition_probability",
    "zero_locus",
]
