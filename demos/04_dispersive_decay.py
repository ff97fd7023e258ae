"""Dispersive decay: the sup norm falls off like <t>^{-1/3}.

A delta state spreads ballistically along the free m-direction, and its
pointwise amplitude decays with the one-third power characteristic of the
cosine band's vanishing curvature at the band edges.  The same law survives
when a potential acts along n, because each n-fiber still rides the free
m-propagator.
"""
import numpy as np

from chainlab.diagnostics import fit_decay_exponent, minimal_wrap_free_m, record_decay
from chainlab.evolution import conservation_defects, make_plan
from chainlab.operators import PotentialSpec, build_operator_1d, delta_vector, free_operator, sample_potential

T_MAX = 80.0
FIT = (10.0, 80.0)
TIMES = np.geomspace(2.0, T_MAX, 22)


def wrap_free_grid(t_max):
    need = minimal_wrap_free_m(t_max)
    return 1 << (need - 1).bit_length()


M = wrap_free_grid(T_MAX)
print(f"m-grid: M = {M} (wrap-free out to t = {T_MAX} at light-cone speed 2)")

print("\n== free chain (single fiber) ==")
plan = make_plan(free_operator(1), "dft_multiplier", M)
trace = record_decay(plan, delta_vector(1), delta_vector(M), TIMES)
fit = fit_decay_exponent(trace, *FIT)
print(f"  fitted sup-norm exponent: {fit.exponent:+.4f}  (one-third law: -0.3333)")
print(f"  log-log fit rms residual: {fit.residual:.3e}")

print("\n== localized chain in n, free in m ==")
N = 96
spec = PotentialSpec("almost_mathieu", amplitude=3.0, theta=0.42)
a1 = build_operator_1d(sample_potential(spec, (-(N // 2), N - N // 2)))
plan = make_plan(a1, "dft_multiplier", M)
chi, phi = delta_vector(N), delta_vector(M)
trace = record_decay(plan, chi, phi, TIMES)
fit = fit_decay_exponent(trace, *FIT)
print(f"  fitted sup-norm exponent: {fit.exponent:+.4f}")

bracket = np.sqrt(1.0 + trace.times**2)
ratio = trace.sup_norms * bracket ** (1.0 / 4.0) / (np.abs(chi).sum() * np.abs(phi).sum())  # |psi_0|_1
print(f"  envelope constant sup_t |psi|_inf <t>^(1/4) / |psi_0|_1 = {ratio.max():.4f}")

l2_drift, energy_drift = conservation_defects(trace.l2_norms, trace.energies, trace.psi0_l2, trace.psi0_energy)
print(f"  l2 drift over the run: {l2_drift:.2e}   energy drift: {energy_drift:.2e}")

print("\n== trace excerpt (localized chain) ==")
print("      t      sup|psi|   sup * <t>^(1/3)")
for k in range(0, TIMES.size, 3):
    t, s = trace.times[k], trace.sup_norms[k]
    print(f"  {t:7.2f}   {s:.5f}    {s * (1 + t * t) ** (1 / 6):.5f}")
print("  (the rescaled column stays bounded while sup|psi| falls: the decay matches <t>^{-1/3})")
