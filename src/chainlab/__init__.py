"""chainlab: a numerical laboratory for 2D lattice Schrodinger operators
whose potential is constant along one lattice direction.

Submodules load lazily so the command-line front end can pin BLAS/OpenMP
thread counts before the first numpy import.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "operators": (
        "GOLDEN_MEAN",
        "DENSE_SITE_CAP",
        "FAMILIES",
        "BOUNDARIES",
        "PotentialSpec",
        "Potential1D",
        "Operator1D",
        "cosine_profile",
        "constant_potential",
        "almost_mathieu",
        "sample_potential",
        "build_operator_1d",
        "free_operator",
        "delta_vector",
        "delta_state",
        "apply_h2d",
        "hamiltonian_2d_entries",
        "m_symmetries",
        "energy_expectation",
    ),
    "spectral": (
        "ATOM_MERGE_TOL",
        "EigenSystem",
        "free_delta_measure",
        "eigh_tridiagonal",
        "dense_measure",
        "sector_sizes",
        "eigen_residual",
        "gram_defect",
        "SpectralMeasure",
        "GridTooNarrowError",
        "spectral_measure_1d",
        "spectral_measure_2d",
        "default_convolution_grid",
        "convolve_measures",
        "max_atom_weight",
        "atom_weight_discrepancy",
    ),
    "evolution": (
        "M_METHODS",
        "DEFAULT_TAIL_TOL",
        "bessel_pad",
        "light_cone_reach",
        "check_wrap_free",
        "bessel_j",
        "bessel_kernel",
        "evolve_1d_eigen",
        "evolve_free_1d",
        "PropagatorPlan",
        "make_plan",
        "evolve_2d_factorized",
        "evolve_2d_direct",
    ),
    "diagnostics": (
        "DecayTrace",
        "DecayFit",
        "SpreadingMoments",
        "time_bracket",
        "minimal_wrap_free_m",
        "record_decay",
        "conservation_defects",
        "fit_decay_exponent",
        "n_fiber_isometry_defect",
        "lyapunov_scan",
        "truncation_energies",
        "spreading_moments",
    ),
    "config": (
        "ConfigError",
        "Tolerances",
        "ExperimentConfig",
        "parse_config",
        "parse_config_file",
        "write_config",
    ),
    "datafiles": (
        "write_potential_csv",
        "read_potential_csv",
        "write_eigenvalues_csv",
        "write_measure_csv",
        "read_measure_csv",
        "write_trajectory_csv",
        "write_trajectory_binary",
        "read_trajectory_binary",
        "write_trace_csv",
        "write_fit_json",
        "write_lyapunov_csv",
        "write_json",
    ),
    "verify": (
        "CheckResult",
        "run_verification",
        "verification_report",
    ),
    "cli": ("CheckFailure",),
}

_ORIGIN = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name: str):
    mod = _ORIGIN.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(__all__)
