"""Solvable four-particle chain with an inverse-square three-body barrier.

The package computes the spectrum three independent ways (closed-form
separated levels, a chained spherical-coordinate eigensolve, and direct 3D
grid diagonalization), cross-checks the routes against each other, and
resolves two misprinted constants in the published level formulas.
"""

from .model import (
    EnergyLevel,
    ModelParams,
    QuantumTriple,
    RADIAL_RULE_CANDIDATE,
    RADIAL_RULE_PUBLISHED,
    SHO_OFFSET_CANDIDATES,
    SpectrumTable,
    SphericalQuantum,
    composite_energy,
    delta_constant,
    enumerate_spectrum,
    hf_derivative_closed_form,
    ho_energy,
    radial_energy,
    radial_energy_candidate,
    radial_energy_published,
    sho_energy_published,
    sho_energy_resolved,
)
from .coords import jacobi_matrix, potential_particle
from .numsolve import (
    ChannelKind,
    ChannelSpec,
    EigenResult,
    Grid1D,
    TridiagonalMatrix,
    eigen_tridiag,
    expectation,
    recommended_grid,
    richardson,
    solve_channel,
    solve_channel_extrapolated,
)
from .grid3d import ConvergenceError, lanczos_lowest, solve_hd_3d
from .verify import (
    CheckEntry,
    ResolutionError,
    VerificationReport,
    bk_audit,
    hellmann_feynman_check,
    resolve_formula_offsets,
    verify_3d,
    verify_jacobi_route,
    verify_spherical_route,
)

__version__ = "0.1.0"
