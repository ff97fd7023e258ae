"""Potential families and the 1D/2D operators built from them.

The model is H = -Delta + V on the 2D integer lattice, with V constant along
the m direction: H = A1 (x) I + I (x) (-Delta_m), where A1 = -Delta_n + V
acts on the n coordinate only.  This script samples each potential family,
builds the corresponding operators, and checks the split structure.
"""
import numpy as np

from chainlab import (
    PotentialSpec,
    almost_mathieu,
    apply_h2d,
    build_operator_1d,
    constant_potential,
    cosine_profile,
    delta_state,
    energy_expectation,
    free_operator,
    sample_potential,
)

rng = np.random.default_rng(0)

print("== sampling the potential families ==")
specs = {
    "constant 1.5": constant_potential(1.5),
    "almost-Mathieu a=3": almost_mathieu(3.0, theta=0.42),
    "quasiperiodic (cosine profile)": PotentialSpec(
        "quasiperiodic", amplitude=3.0, theta=0.42, profile=cosine_profile()
    ),
    "iid uniform, seed 7": PotentialSpec("random_iid", amplitude=2.0, seed=7),
    "explicit barrier": PotentialSpec(
        "explicit", amplitude=1.0, values=(0.0, 0.0, 5.0, 5.0, 0.0, 0.0)
    ),
}
for label, spec in specs.items():
    window = (0, 6)
    v = sample_potential(spec, window).values
    print(f"  {label:32s} V[0:6] = {np.array2string(v, precision=3)}")

# the quasiperiodic family interpolates a periodic profile; with a cosine
# profile it reproduces the almost-Mathieu closed form
va = sample_potential(specs["almost-Mathieu a=3"], (-100, 100)).values
vq = sample_potential(specs["quasiperiodic (cosine profile)"], (-100, 100)).values
print(f"\ncosine-profile vs closed form, max deviation: {np.abs(va - vq).max():.2e}")

# iid sampling is window independent: the same site always draws the same value
spec = specs["iid uniform, seed 7"]
wide = sample_potential(spec, (-500, 500)).values
narrow = sample_potential(spec, (3, 9)).values
print(f"iid window independence: {np.array_equal(narrow, wide[503:509])}")

print("\n== 1D operators ==")
pot = sample_potential(almost_mathieu(3.0), (-16, 16))
a1 = build_operator_1d(pot)                       # dirichlet truncation
a2 = free_operator(24, boundary="periodic")        # free ring along m
print(f"A1: {a1.size} sites, norm bound {a1.norm_bound:.3f}")
print(f"A2: {a2.size} sites, norm bound {a2.norm_bound:.3f} (free band is [-2, 2])")

eig1 = np.linalg.eigvalsh(a1.matrix())
print(f"A1 spectrum within +-norm bound: {np.abs(eig1).max() <= a1.norm_bound}")

print("\n== the split 2D Hamiltonian ==")
# on a pure tensor chi (x) phi the two parts act independently
chi = rng.standard_normal(32)
phi = rng.standard_normal(24)
psi = np.outer(chi, phi)                           # a 2D state is a plain N x M array
h_psi = apply_h2d(psi, a1, a2)
split = np.outer(a1.apply(chi), phi) + np.outer(chi, a2.apply(phi))
print(f"separability residual on a pure tensor: {np.abs(h_psi - split).max():.2e}")

delta = delta_state(32, 24)
print(f"delta state energy <psi, H psi> = {energy_expectation(delta, a1, a2):.6f}"
      f" (equals V at the origin: {pot.values[16]:.6f})")

psi = rng.standard_normal((32, 24)) + 1j * rng.standard_normal((32, 24))
quad = np.vdot(psi, apply_h2d(psi, a1, a2))
print(f"hermiticity, imaginary part of <psi, H psi>: {abs(quad.imag):.2e}")
