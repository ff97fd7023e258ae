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
verify keeps of it measure_mass_delta and convolution_identity.  The
random test vectors are values of the site hash that random_iid potentials
read, keyed by the config's seed, so the suite has no other random source.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, naming
from .evolution import CHEB_TOL, CONSERVATION_TOL, FACTORIZATION_TOL, PropagatorPlan, _bessel_tail_order
from .evolution import check_wrap_free, conservation_defects, evolve_2d_direct, evolve_2d_factorized
from .operators import DENSE_SITE_CAP, _iid_uniform, apply_h2d, delta_state, delta_vector, energy_expectation
from .operators import hamiltonian_2d_entries, m_symmetries
from .spectral import (
    MASS_CONSERVATION_TOL,
    MEASURE_MATCH_TOL,
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
VECTOR_SITES = 2**62  # the test vectors' first hash index: no potential window reaches it


def delta_crosscheck(plan: PropagatorPlan, i: int):
    """The convolution identity at the site delta e_i (x) e_j: (mu1, mu2, mu1 * mu2, mass_defect, direct, sizes).

    j = M // 2 is the middle column.  mu1 is A1's measure at e_i from the
    plan's eigensystem, mu2 is A2's at e_j in closed form (free_delta_measure),
    and mu1 * mu2 is H's measure at the delta, with mass_defect
    |mass(mu1 * mu2) - mass(mu1) mass(mu2)|.  Up to DENSE_SITE_CAP sites,
    direct is dense_measure at the delta on the sectors of H's m-axis
    symmetries, and sizes are the blocks it solved; above the cap both are
    None.  convolve and verify both run this one check.
    """
    a1, a2 = plan.a1, plan.a2
    N, M, j = a1.size, a2.size, a2.size // 2
    mu1 = spectral_measure_1d(plan.es1, delta_vector(N, i))  # refuses an i off the n-window
    mu2 = free_delta_measure(a2, j)
    conv = convolve_measures(mu1, mu2)
    mass_defect = abs(conv.total_mass() - mu1.total_mass() * mu2.total_mass())
    if N * M > DENSE_SITE_CAP:
        return mu1, mu2, conv, mass_defect, None, None
    delta = delta_state(N, M, i).ravel()
    symmetries = m_symmetries(N, a2)  # A2 is free, so the m-axis always has its reflection
    direct = dense_measure(hamiltonian_2d_entries(a1, a2), N * M, delta, symmetries=symmetries)
    return mu1, mu2, conv, mass_defect, direct, sector_sizes(N * M, delta, symmetries)


def run_verification(cfg: ExperimentConfig) -> list[CheckResult]:
    """Run every invariant check on the configured model; order is fixed.

    The model is cfg.plan(N, M) on the sizes of cfg.lattice().  Under
    bessel_kernel the propagator checks evolve a state kept a light-cone
    reach away from both ends of the m-window, where the kernel matches the
    dirichlet window: check_wrap_free must pass for the centre site up to
    CHECK_TIMES[-1], or it raises ValueError naming [lattice] m and the window
    needed.  A Chebyshev order at CHECK_TIMES[-1] that float64 cannot count
    raises ValueError naming [potential] amplitude, before any check runs.
    Each check takes one route at every size.  The factorized propagator is
    checked against evolve_2d_direct's Chebyshev route.  The convolution
    checks are delta_crosscheck at row cfg.origin(N), the check convolve runs
    on the same config: A2's measure in closed form and, up to DENSE_SITE_CAP
    sites, dense_measure on sectors of H's m-axis symmetries; above the cap
    convolution_identity is left out.  measure_mass_delta is the mass of that
    same mu1 * mu2.  Neither H nor A2's M x M basis is formed, so the memory
    is O(N M) at every size.
    The random test vectors chi, phi, psi and eta come from random_iid's
    SplitMix64 site hash (operators._iid_uniform), keyed by the potential's
    seed (0 when it has none), at indices from VECTOR_SITES on, which no
    potential window reaches: the same config gives the same residuals.
    """
    N, M = cfg.lattice()
    plan = cfg.plan(N, M)
    a1, a2 = plan.a1, plan.a2
    with naming("[potential] amplitude"):  # the Chebyshev order at the last check time, set by the amplitude
        _bessel_tail_order((a1.norm_bound + a2.norm_bound) * CHECK_TIMES[-1], CHEB_TOL)
    if cfg.m_method == "bessel_kernel":
        with naming("[lattice] m"):
            reach = check_wrap_free(delta_vector(M), CHECK_TIMES[-1], ring=False)

    # the test vectors: real and imaginary parts are consecutive hash values from index VECTOR_SITES on
    sizes = (N, M, N * M, N * M)
    v = _iid_uniform(cfg.potential.seed or 0, VECTOR_SITES, VECTOR_SITES + 2 * sum(sizes))
    chi, phi, psi, eta = np.split(v[::2] + 1j * v[1::2], np.cumsum(sizes[:-1]))
    chi, phi = chi / np.linalg.norm(chi), phi / np.linalg.norm(phi)
    psi, eta = psi.reshape(N, M), eta.reshape(N, M)
    results: list[CheckResult] = []

    # separability: H(chi x phi) = (A1 chi) x phi + chi x (A2 phi)
    lhs = apply_h2d(np.outer(chi, phi), a1, a2)
    rhs = np.outer(a1.apply(chi), phi) + np.outer(chi, a2.apply(phi))
    results.append(CheckResult("separability_pure_tensor", float(np.abs(lhs - rhs).max()), 1e-13))

    # hermiticity of the 2D application: <psi, H eta> = <H psi, eta>
    lhs_h = np.vdot(psi, apply_h2d(eta, a1, a2))
    rhs_h = np.vdot(apply_h2d(psi, a1, a2), eta)
    results.append(CheckResult("h2d_hermitian", abs(lhs_h - rhs_h) / max(1.0, abs(lhs_h)), 1e-12))

    # eigensystem residual and orthonormality of A1; the free A2 is swept by FFT and has no basis to check
    results.append(CheckResult("eigen_residual_n", eigen_residual(plan.es1, a1) / a1.norm_bound, 1e-10))
    results.append(CheckResult("eigen_gram_n", gram_defect(plan.es1), 1e-10))

    # measure mass at convolve's delta, and the convolution route against the dense 2D route
    _, _, conv, _, direct, _ = delta_crosscheck(plan, cfg.origin(N))
    results.append(CheckResult("measure_mass_delta", abs(conv.total_mass() - 1.0), MASS_CONSERVATION_TOL))
    if direct is not None:
        results.append(CheckResult("convolution_identity", atom_weight_discrepancy(conv, direct), MEASURE_MATCH_TOL))

    # factorized against direct propagator; unitarity and energy conservation: conservation_defects from |psi0| = 1
    if cfg.m_method == "bessel_kernel":  # keep to the sites the kernel cannot carry to the window ends
        psi[:, :reach] = 0.0
        psi[:, M - reach :] = 0.0
    psi0 = psi / np.linalg.norm(psi)
    e0 = energy_expectation(psi0, a1, a2)
    gaps, samples = [], []  # np.max, unlike max, keeps a NaN
    for t in CHECK_TIMES:
        psi_f = evolve_2d_factorized(psi0, plan, t)
        psi_d = evolve_2d_direct(psi0, a1, a2, t, "chebyshev")
        gaps.append(np.linalg.norm(psi_f - psi_d))
        samples.append((np.linalg.norm(psi_f), energy_expectation(psi_f, a1, a2)))
    worst_unit, worst_energy = conservation_defects(*np.array(samples).T, 1.0, e0)
    results.append(CheckResult("factorization_vs_direct", np.max(gaps), FACTORIZATION_TOL))
    results.append(CheckResult("unitarity", worst_unit, CONSERVATION_TOL))
    results.append(CheckResult("energy_conservation", worst_energy, CONSERVATION_TOL))
    return results


def verification_report(results: list[CheckResult]) -> dict:
    return {
        "all_passed": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "residual": r.residual, "tolerance": r.tolerance, "passed": r.passed}
            for r in results
        ],
    }
