"""Localization along n versus dispersion along m.

The cosine chain V_n = a cos(2 pi omega n + theta) localizes when a > 2: the
transfer-matrix growth rate on the spectrum equals log(a/2) > 0, and a wave
packet confined to the chain stops spreading.  Yet in the 2D model the same
potential leaves the m-direction free, so the sup norm still decays
dispersively.  This script shows both faces side by side.
"""
import numpy as np

from chainlab import (
    PotentialSpec,
    almost_mathieu,
    build_operator_1d,
    delta_state,
    delta_vector,
    eigh_tridiagonal,
    evolve_1d_eigen,
    evolve_2d_factorized,
    fit_decay_exponent,
    lyapunov_scan,
    make_plan,
    minimal_wrap_free_m,
    record_decay,
    sample_potential,
    spreading_moments,
    truncation_energies,
)

L = 200_000
print(f"== transfer-matrix growth rates (length {L}) ==")
for label, spec, target in (
    ("cosine a = 1 (subcritical) ", almost_mathieu(1.0, theta=0.42), "0 on the spectrum"),
    ("cosine a = 3 (supercritical)", almost_mathieu(3.0, theta=0.42), f"log(3/2) = {np.log(1.5):.4f}"),
    ("cosine a = 3, other phase   ", almost_mathieu(3.0, theta=1.77), "same (phase-independent)"),
    ("iid uniform a = 3           ", PotentialSpec("random_iid", amplitude=3.0, seed=11), "> 0 at every energy"),
):
    energies = truncation_energies(spec, count=6)
    gammas = lyapunov_scan(spec, energies, L=L)
    print(
        f"  {label}: gamma in [{gammas.min():.5f}, {gammas.max():.5f}]   expected {target}"
    )

print("\n== the 1D chain at a = 3 stops spreading ==")
N = 256
spec = almost_mathieu(3.0, theta=0.42)
es = eigh_tridiagonal(build_operator_1d(sample_potential(spec, (-N // 2, N - N // 2))))
chi0 = np.zeros(N, dtype=complex)
chi0[N // 2] = 1.0
sites = np.arange(N) - N // 2
for t in (0.0, 20.0, 80.0):
    chi_t = evolve_1d_eigen(es, chi0, t)
    p = np.abs(chi_t) ** 2
    width = np.sqrt(p @ sites**2)
    print(f"  t = {t:5.1f}: rms width {width:7.3f} sites,  sup|chi| = {np.abs(chi_t).max():.4f}")
print("  (width saturates and the peak amplitude never decays)")

print("\n== the 2D model with the same potential still disperses ==")
T_MAX = 80.0
M = 1 << (minimal_wrap_free_m(T_MAX, 1) - 1).bit_length()
psi0 = delta_state(96, M)  # the origin at index (48, M // 2)
a1 = build_operator_1d(sample_potential(spec, (-48, 48)))
plan = make_plan(a1, "dft_multiplier", M)
times = np.geomspace(2.0, T_MAX, 18)
trace = record_decay(plan, delta_vector(96), delta_vector(M), times)
fit = fit_decay_exponent(trace, 10.0, T_MAX)
print(f"  sup-norm exponent along the trajectory: {fit.exponent:+.4f} (free value -1/3)")

psi_late = evolve_2d_factorized(psi0, plan, T_MAX)
mom = spreading_moments(psi_late, origin=(48, M // 2))  # index coordinates
print(
    f"  at t = {T_MAX}: <m^2> = {mom.m_second_moment:9.1f} (ballistic 2t^2 = {2 * T_MAX**2:.0f}),  "
    f"<n^2> = {mom.n_second_moment:7.2f} (frozen)"
)
print(f"  participation ratio of |psi|^2: {mom.participation_ratio:.1f} sites")
