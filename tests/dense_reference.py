"""Full-matrix references for the package's routes, kept out of the package.

The package never forms the N*M x N*M matrix of H: its dense routes solve
H's symmetry sectors from the stencil entries.  Tests that want all of H,
or numpy's eigh of all of it, to compare against build them here, and
record_eigh_rows logs eigh's inputs to show that no route gives it all of H.
And it takes the norms of a product state from its two factors (record_decay):
norm_chain takes them from the full N x M array instead.

No command needs the rest either, so it lives here: spectral_measure_2d is
H's measure at a whole N x M state, n_fiber_isometry_defect compares column
norms with and without the n-sweep, and spreading_moments reads the second
moments of |psi|^2.  Each takes a plain N x M array and never writes to it.
cosine_samples is the profile of a quasiperiodic spec that tests compare against almost_mathieu.
"""
from dataclasses import dataclass

import numpy as np

from chainlab.operators import hamiltonian_2d_entries
from chainlab.spectral import EigenSystem, SpectralMeasure


def dense_hamiltonian(a1, a2) -> np.ndarray:
    """The (N*M, N*M) matrix of H: the scatter of hamiltonian_2d_entries, entries at one position added."""
    sites = a1.size * a2.size
    rows, cols, values = hamiltonian_2d_entries(a1, a2)
    return np.bincount(rows * sites + cols, values, sites * sites).reshape(sites, sites)


def full_eigensystem(h: np.ndarray) -> EigenSystem:
    """numpy's eigh of the whole symmetric matrix h."""
    lam, vec = np.linalg.eigh(h)
    return EigenSystem(lam, vec)


def norm_chain(psi) -> tuple[float, float, float, float, float]:
    """Norms of an N x M state in the order of the chain sup <= l2n_supm <= supm_l2n <= l2 <= l1.

    l2n_supm is the sup over m of the l2 norm along n, supm_l2n the l2 norm along n of the sup along m.
    """
    mod = np.abs(psi)
    return (
        float(mod.max()),
        float(np.linalg.norm(psi, axis=0).max()),
        float(np.linalg.norm(mod.max(axis=1))),
        float(np.linalg.norm(psi)),
        float(mod.sum()),
    )


def cosine_samples(samples: int = 512) -> tuple[float, ...]:
    """cos on a uniform grid of [0, 2 pi): a quasiperiodic profile whose spline is almost_mathieu's cosine."""
    return tuple(np.cos(2.0 * np.pi * np.arange(samples) / samples))


def unit_vector(size: int, site: int) -> np.ndarray:
    """e_site among size sites."""
    vec = np.zeros(size)
    vec[site] = 1.0
    return vec


def record_eigh_rows(monkeypatch) -> list[int]:
    """Patch np.linalg.eigh to log the row count of every matrix it is given; returns the log."""
    rows = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        rows.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return rows


def spectral_measure_2d(es1: EigenSystem, es2: EigenSystem, psi) -> SpectralMeasure:
    """Measure of A1 (x) I + I (x) A2 at the N x M state psi.

    Built without ever forming the 2D operator: the atom at
    lambda1_j + lambda2_k weighs |(V1^T psi V2)_jk|^2, two GEMMs on psi.  For
    psi = sum_j alpha_j chi_j (x) phi_j this is the sesquilinear sum
    sum_{j,k} conj(alpha_j) alpha_k (mu1_jk * mu2_jk) of convolved 1D
    matrix-element measures.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (es1.size, es2.size):
        raise ValueError(f"state shape {psi.shape} does not match the eigensystems ({es1.size}, {es2.size})")
    coeffs = es2.overlaps(es1.overlaps(psi).T).T  # V1^T psi V2
    energies = np.add.outer(es1.eigenvalues, es2.eigenvalues)
    return SpectralMeasure.from_atoms(energies.ravel(), (coeffs.real**2 + coeffs.imag**2).ravel())


def n_fiber_isometry_defect(plan, psi0, t: float) -> float:
    """max_m | ||psi(t)[:, m]||_2 - ||(m-sweep only)[:, m]||_2 | for an N x M state psi0.

    The n-sweep is an isometry on every column, so the two column-norm
    profiles must coincide.
    """
    half = plan.m_sweep(psi0, t)
    full = plan.n_sweep(half, t)
    return float(np.abs(np.linalg.norm(full, axis=0) - np.linalg.norm(half, axis=0)).max())


@dataclass(frozen=True)
class SpreadingMoments:
    m_second_moment: float
    n_second_moment: float
    participation_ratio: float


def spreading_moments(state, origin: tuple[float, float] | None = None) -> SpreadingMoments:
    """Second moments of |psi|^2 of an N x M state about ``origin`` (its centroid when omitted).

    Coordinates are array indices: row i is n = i and column j is m = j, so
    a physical origin goes in as its index (ExperimentConfig.origin's value, M // 2 along m).
    """
    p = np.abs(state) ** 2
    total = p.sum()
    if total <= 0:
        raise ValueError("state is identically zero")
    n = np.arange(p.shape[0], dtype=float)
    m = np.arange(p.shape[1], dtype=float)
    pn = p.sum(axis=1) / total
    pm = p.sum(axis=0) / total
    if origin is None:
        origin = (float(n @ pn), float(m @ pm))
    n_bar, m_bar = float(origin[0]), float(origin[1])
    return SpreadingMoments(
        m_second_moment=float(((m - m_bar) ** 2) @ pm),
        n_second_moment=float(((n - n_bar) ** 2) @ pn),
        participation_ratio=float(total**2 / (p**2).sum()),
    )
