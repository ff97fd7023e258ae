"""Self-contained invariant suite behind the ``verify`` command.

Each check evaluates one structural identity of the model on the configured
lattice and reports a residual against its tolerance; the suite is the
machine-readable health report, the full evidence lives in the test suite.
Nine checks run, eight above DENSE_SITE_CAP, where convolution_identity is
left out.  The fault screen in tests/test_verify.py injects faults into the
sweeps, A1's eigensystem, the measures and H's application: each fault fails
at least one check, and each check is the only one to fail under some fault
on some config.  delta_crosscheck, the convolution identity at a site delta,
is the one check ``convolve`` also runs: both commands take it from here, and
verify keeps of it measure_mass_delta and convolution_identity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .evolution import PropagatorPlan, check_wrap_free, evolve_2d_direct, evolve_2d_factorized
from .operators import DENSE_SITE_CAP, apply_h2d, energy_expectation, hamiltonian_2d_entries, m_symmetries
from .spectral import (
    atom_weight_discrepancy,
    convolve_measures,
    dense_measure,
    eigen_residual,
    free_delta_measure,
    gram_defect,
    sector_sizes,
    spectral_measure_1d,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    def __post_init__(self):
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


CHECK_TIMES = (0.5, 2.0, 5.0)  # propagator check times


def delta_crosscheck(plan: PropagatorPlan, i: int, j: int, merge_tol: float):
    """The convolution identity at the site delta e_i (x) e_j: (mu1, mu2, mu1 * mu2, mass_defect, direct, sizes).

    mu1 is A1's measure at e_i from the plan's eigensystem, mu2 is A2's at
    e_j from row j of its closed-form basis (free_delta_measure), and mu1 * mu2
    is H's measure at the delta, with mass_defect
    |mass(mu1 * mu2) - mass(mu1) mass(mu2)|.  Up to DENSE_SITE_CAP sites,
    direct is dense_measure at the delta on the sectors of H's m-axis
    symmetries about j, and sizes are the blocks it solved; above the cap
    both are None.  convolve and verify both run this one check.
    """
    a1, a2 = plan.a1_operator(), plan.a2_operator()
    N, M = a1.size, a2.size
    if not (0 <= i < N and 0 <= j < M):
        raise ValueError(f"site ({i}, {j}) is outside the {N} x {M} lattice")
    chi = np.zeros(N, dtype=complex)
    chi[i] = 1.0
    mu1 = spectral_measure_1d(plan.es1, chi, merge_tol=merge_tol)
    mu2 = free_delta_measure(a2, j, merge_tol)
    conv = convolve_measures(mu1, mu2, merge_tol=merge_tol)
    mass_defect = float(abs(conv.total_mass() - mu1.total_mass() * mu2.total_mass()))
    if N * M > DENSE_SITE_CAP:
        return mu1, mu2, conv, mass_defect, None, None
    delta = np.zeros(N * M, dtype=complex)
    delta[i * M + j] = 1.0
    symmetries = m_symmetries(N, a2, j)  # A2 is free, so the m-axis always has its reflection
    direct = dense_measure(hamiltonian_2d_entries(a1, a2), N * M, delta, merge_tol, symmetries)
    return mu1, mu2, conv, mass_defect, direct, sector_sizes(N * M, delta, symmetries)


def run_verification(cfg: ExperimentConfig) -> list[CheckResult]:
    """Run every invariant check on the configured model; order is fixed.

    The model is cfg.plan(N, M) on the sizes of cfg.lattice().  Under
    bessel_kernel the propagator checks evolve a state kept a light-cone
    reach away from both ends of the m-window, where the kernel matches the
    dirichlet window: check_wrap_free must pass
    for the centre site up to CHECK_TIMES[-1], or it raises ValueError naming
    the window needed.  Each check takes one route at every size.  The
    factorized propagator is checked against evolve_2d_direct's Chebyshev
    route.  The convolution checks are delta_crosscheck at the centre site,
    convolve's check at its default origin: A2's measure from one row of its
    closed-form basis and, up to DENSE_SITE_CAP sites, dense_measure on
    sectors of H's m-axis symmetries; above the cap convolution_identity is
    left out.  measure_mass_delta is the mass of that same mu1 * mu2.  Neither
    H nor A2's M x M basis is formed, so the memory is O(N M) at every size.
    """
    N, M = cfg.lattice()
    tol = cfg.tolerances
    plan = cfg.plan(N, M)
    a1, a2 = plan.a1_operator(), plan.a2_operator()
    if cfg.m_method == "bessel_kernel":
        centre = np.zeros(M)
        centre[M // 2] = 1.0
        reach = check_wrap_free(centre, CHECK_TIMES[-1], plan.tail_tol, ring=False)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.potential.seed or 0, spawn_key=(99,)))
    results: list[CheckResult] = []

    def rand_vec(size):
        v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return v / np.linalg.norm(v)

    # separability: H(chi x phi) = (A1 chi) x phi + chi x (A2 phi)
    chi, phi = rand_vec(N), rand_vec(M)
    lhs = apply_h2d(np.outer(chi, phi), a1, a2)
    rhs = np.outer(a1.apply(chi), phi) + np.outer(chi, a2.apply(phi))
    results.append(CheckResult("separability_pure_tensor", float(np.abs(lhs - rhs).max()), 1e-13))

    # hermiticity of the 2D application: <psi, H eta> = <H psi, eta>
    psi = rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
    eta = rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
    lhs_h = np.vdot(psi, apply_h2d(eta, a1, a2))
    rhs_h = np.vdot(apply_h2d(psi, a1, a2), eta)
    results.append(CheckResult("h2d_hermitian", abs(lhs_h - rhs_h) / max(1.0, abs(lhs_h)), 1e-12))

    # eigensystem residual and orthonormality of A1; the free A2 is swept by FFT and has no basis to check
    results.append(CheckResult("eigen_residual_n", eigen_residual(plan.es1, a1) / a1.norm_bound, 1e-10))
    results.append(CheckResult("eigen_gram_n", gram_defect(plan.es1), 1e-10))

    # measure mass at the centre delta, and the convolution route against the dense 2D route
    _, _, conv, _, direct, _ = delta_crosscheck(plan, N // 2, M // 2, tol.atom_merge)
    results.append(CheckResult("measure_mass_delta", abs(conv.total_mass() - 1.0), tol.mass_conservation))
    if direct is not None:
        results.append(
            CheckResult("convolution_identity", atom_weight_discrepancy(conv, direct), tol.measure_match)
        )

    # factorized against direct propagator, unitarity, energy conservation
    if cfg.m_method == "bessel_kernel":  # keep to the sites the kernel cannot carry to the window ends
        psi[:, :reach] = 0.0
        psi[:, M - reach :] = 0.0
    psi0 = psi / np.linalg.norm(psi)
    e0 = energy_expectation(psi0, a1, a2)
    worst_fact = worst_unit = worst_energy = 0.0
    for t in CHECK_TIMES:
        psi_f = evolve_2d_factorized(psi0, plan, t)
        psi_d = evolve_2d_direct(psi0, a1, a2, t, "chebyshev")
        worst_fact = max(worst_fact, float(np.linalg.norm(psi_f - psi_d)))
        worst_unit = max(worst_unit, abs(np.linalg.norm(psi_f) - 1.0))
        worst_energy = max(
            worst_energy,
            abs(energy_expectation(psi_f, a1, a2) - e0) / max(1.0, abs(e0)),
        )
    results.append(CheckResult("factorization_vs_direct", worst_fact, tol.factorization))
    results.append(CheckResult("unitarity", worst_unit, tol.conservation))
    results.append(CheckResult("energy_conservation", worst_energy, tol.conservation))
    return results


def verification_report(results: list[CheckResult]) -> dict:
    return {
        "all_passed": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "residual": r.residual, "tolerance": r.tolerance, "passed": r.passed}
            for r in results
        ],
    }
