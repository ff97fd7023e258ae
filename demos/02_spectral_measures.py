"""Local spectral measures and the convolution identity.

The local measure of a 1D operator at a vector chi puts weight |<v_j, chi>|^2
on each eigenvalue.  For the split 2D operator the local measure at a pure
tensor chi (x) phi is the *convolution* of the two 1D measures: the 2D atoms
sit at sums lambda_j + mu_k with product weights.  This script computes both
sides on a small lattice and compares, then shows the free chain's arcsine
limit law.
"""
import numpy as np

from chainlab.operators import (
    PotentialSpec,
    build_operator_1d,
    free_operator,
    hamiltonian_2d_entries,
    m_symmetries,
    sample_potential,
)
from chainlab.spectral import (
    SpectralMeasure,
    atom_weight_discrepancy,
    convolve_measures,
    dense_measure,
    eigh_tridiagonal,
    spectral_measure_1d,
)

print("== 1D measures ==")
N = 32
pot = sample_potential(PotentialSpec("almost_mathieu", amplitude=3.0, theta=0.42), (-16, 16))
a1 = build_operator_1d(pot)
es1 = eigh_tridiagonal(a1)
chi = np.zeros(N)
chi[16] = 1.0  # delta at the origin
mu1 = spectral_measure_1d(es1, chi)
print(f"measure at delta_0:  {mu1.atom_count} atoms, mass {mu1.total_mass():.12f}")
print(f"largest atom weight: {np.abs(mu1.weights).max():.4f} (localized chain piles mass on few atoms)")

a2 = free_operator(N)
es2 = eigh_tridiagonal(a2)
phi = np.zeros(N)
phi[16] = 1.0
mu2 = spectral_measure_1d(es2, phi)
print(f"free chain measure:  {mu2.atom_count} atoms, largest weight {np.abs(mu2.weights).max():.4f}")

print("\n== the convolution identity ==")
# route 1: convolve the 1D measures
conv = convolve_measures(mu1, mu2)
# route 2: the measure of the full 2D operator at the site chi (x) phi, from
# numpy's eigh on the blocks of H that the window's reflection m -> N-1-m
# leaves even and odd (the delta at m = 16 is half in each), each block
# scattered straight from H's five-point stencil: H itself is never formed
entries, mirror = hamiltonian_2d_entries(a1, a2), m_symmetries(N, a2)
direct = dense_measure(entries, N * N, np.outer(chi, phi).ravel(), symmetries=mirror)
disc = atom_weight_discrepancy(conv, direct)
print(f"convolution route:   {conv.atom_count} atoms, mass {conv.total_mass():.12f}")
print(f"direct 2D route:     {direct.atom_count} atoms, mass {direct.total_mass():.12f}")
print(f"max atom-weight discrepancy: {disc:.3e}")

print("\n== beyond pure tensors ==")
# the identity extends to finite combinations; here a two-term state
rng = np.random.default_rng(1)
vec = np.zeros((N, N), dtype=complex)
for alpha in (0.8, -0.6j):
    c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    p = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    c /= np.linalg.norm(c)
    p /= np.linalg.norm(p)
    vec += alpha * np.outer(c, p)
# the measure at a whole N x N state: an atom at each lambda1_j + lambda2_k that
# weighs |(V1^T vec V2)_jk|^2, two GEMMs on vec, with no 2D operator formed
coeffs = es2.overlaps(es1.overlaps(vec).T).T
sums = np.add.outer(es1.eigenvalues, es2.eigenvalues)
mu2d = SpectralMeasure.from_atoms(sums.ravel(), (coeffs.real**2 + coeffs.imag**2).ravel())
# the same sectors: the measure at vec sums each block's measure at vec's part in it
direct2 = dense_measure(entries, N * N, vec.ravel(), symmetries=mirror)
print(f"two-term state discrepancy: {atom_weight_discrepancy(mu2d, direct2):.3e}")

print("\n== arcsine limit of the free chain ==")
# as N grows the local measure of the free chain approaches the density
# 1 / (pi sqrt(4 - E^2)) on [-2, 2]; compare truncation CDFs with the limit
for n in (101, 401, 1601):
    es = eigh_tridiagonal(free_operator(n))
    d = np.zeros(n)
    d[n // 2] = 1.0
    mu = spectral_measure_1d(es, d)
    cdf = np.cumsum(mu.weights)
    limit = 0.5 + np.arcsin(np.clip(mu.energies / 2.0, -1, 1)) / np.pi
    print(f"  N = {n:5d}: sup |CDF - arcsine| = {np.abs(cdf - limit).max():.4e}")
