"""The factorized propagator e^{iHt} = e^{iA1 t} e^{i(-Delta_m) t}.

Because the two parts of H act on different coordinates they commute, and the
2D propagator splits into an n-sweep (eigensolver of the 1D chain) and an
m-sweep (free chain, three interchangeable methods).  This script checks the
factorization against the two direct routes, the dense solve of H's m-axis
symmetry sectors and a Chebyshev expansion, and looks at the free kernel.
"""
import time

import numpy as np
from scipy.special import jv

from chainlab.evolution import bessel_kernel, evolve_2d_direct, evolve_2d_factorized, evolve_free_1d, make_plan
from chainlab.operators import PotentialSpec, build_operator_1d, delta_state, sample_potential

print("== free-chain kernel ==")
# the infinite free chain evolves a delta into Bessel amplitudes:
# amplitude at displacement r after time t is (-i)^r J_r(2t)
t = 3.0
M = 256
phi = np.zeros(M, dtype=complex)
phi[M // 2] = 1.0
out = evolve_free_1d(phi, t)
r = np.arange(-4, 5)
table = np.array([out[M // 2 + k] for k in r])
print(f"t = {t}: amplitudes at r = -4..4")
print("  evolved:", np.array2string(table, precision=4, suppress_small=True))
print("  kernel: ", np.array2string(bessel_kernel(t, 4), precision=4, suppress_small=True))
print(f"  return amplitude |<delta, psi(t)>| = {abs(out[M // 2]):.6f} = |J_0(2t)| = {abs(jv(0, 2 * t)):.6f}")

# the three m-sweep methods agree wherever wrap and boundary effects vanish
a = evolve_free_1d(phi, t, method="dft_multiplier")
b = evolve_free_1d(phi, t, method="bessel_kernel")
c = evolve_free_1d(phi, t, method="eigen")  # the dirichlet window, as a sine transform
print(f"  dft vs bessel: {np.abs(a - b).max():.2e}   dft vs eigen: {np.abs(a - c).max():.2e}")

print("\n== factorization against direct routes ==")
N, M = 32, 32
psi0 = delta_state(N, M)  # the origin at index (N // 2, M // 2): the window starts at n = -N // 2
pot = sample_potential(PotentialSpec("almost_mathieu", amplitude=3.0, theta=0.42), (-(N // 2), N - N // 2))
a1 = build_operator_1d(pot)
plan = make_plan(a1, "dft_multiplier", M)
a2 = plan.a2

for t in (0.5, 2.0, 10.0):
    fact = evolve_2d_factorized(psi0, plan, t)
    dense = evolve_2d_direct(psi0, a1, a2, t, method="dense")
    cheb = evolve_2d_direct(psi0, a1, a2, t, method="chebyshev")
    print(
        f"  t = {t:5.1f}: |factorized - dense| = "
        f"{np.linalg.norm(fact - dense):.2e},  "
        f"|factorized - chebyshev| = {np.linalg.norm(fact - cheb):.2e},  "
        f"norm drift = {abs(np.linalg.norm(fact) - 1):.2e}"
    )

print("\n== sweep order does not matter (the parts commute) ==")
rng = np.random.default_rng(2)
amp = rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
amp /= np.linalg.norm(amp)
nm = plan.m_sweep(plan.n_sweep(amp, 4.0), 4.0)
mn = plan.n_sweep(plan.m_sweep(amp, 4.0), 4.0)
print(f"  |nm - mn| = {np.abs(nm - mn).max():.2e}")

print("\n== cost scaling ==")
# the factorized route avoids the (N M)^2 dense object entirely
for size in (32, 64, 128):
    psi0 = delta_state(size, size)
    pot = sample_potential(PotentialSpec("almost_mathieu", amplitude=3.0), (-(size // 2), size - size // 2))
    plan = make_plan(build_operator_1d(pot), "dft_multiplier", size)
    tic = time.perf_counter()
    evolve_2d_factorized(psi0, plan, 10.0)
    toc = time.perf_counter()
    print(f"  {size:4d} x {size}: factorized evolution in {1e3 * (toc - tic):7.2f} ms")
