"""Acceptance gate: one test per criterion, at the stated tolerance.

Run with `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion; each test also prints a one-line summary (visible with -s).
"""
import math

import numpy as np
import pytest

from chainlab.diagnostics import (
    conservation_defects,
    fit_decay_exponent,
    lyapunov_scan,
    n_fiber_isometry_defect,
    record_decay,
    time_bracket,
    truncation_energies,
)
from chainlab.evolution import evolve_2d_direct, evolve_2d_factorized, make_plan
from chainlab.operators import (
    PotentialSpec,
    almost_mathieu,
    build_operator_1d,
    constant_potential,
    delta_state,
    delta_vector,
    energy_expectation,
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
    max_atom_weight,
    spectral_measure_1d,
    spectral_measure_2d,
)
from dense_reference import norm_chain, record_eigh_rows

FIT_WINDOW = (20.0, 200.0)
TRACE_TIMES = np.geomspace(20.0, 200.0, 25)


def _report(text):
    print(text, flush=True)


# -- shared expensive computations ------------------------------------------------


@pytest.fixture(scope="module")
def factorization_runs():
    """32x32 factorized-vs-direct residuals for four potential families.

    The direct route is evolve_2d_direct's dense default: at every time it
    solves the m-axis symmetry sectors of H that the delta has a part in.
    The row count of every eigh input is kept, to show none is all of H.
    """
    specs = {
        "zero": constant_potential(0.0),
        "constant": constant_potential(1.5),
        "amo_a3": almost_mathieu(3.0, theta=0.42),
        "random": PotentialSpec("random_iid", amplitude=2.0, seed=7),
    }
    psi0 = delta_state(32, 32)  # the origin at index (16, 16)
    residuals = {}
    norm_drift = 0.0
    energy_drift = 0.0
    with pytest.MonkeyPatch.context() as monkeypatch:
        eigh_rows = record_eigh_rows(monkeypatch)
        for name, spec in specs.items():
            pot = sample_potential(spec, (-16, 16))
            a1 = build_operator_1d(pot)
            plan = make_plan(a1, "dft_multiplier", 32)
            a2 = plan.a2_operator()
            e0 = energy_expectation(psi0, a1, a2)
            worst = 0.0
            for t in (0.5, 1.0, 2.0, 5.0, 10.0):
                fact = evolve_2d_factorized(psi0, plan, t)
                direct = evolve_2d_direct(psi0, a1, a2, t)
                worst = max(worst, float(np.linalg.norm(fact - direct)))
                norm_drift = max(norm_drift, abs(np.linalg.norm(fact) - 1.0))
                energy_drift = max(
                    energy_drift, abs(energy_expectation(fact, a1, a2) - e0) / max(1.0, abs(e0))
                )
            residuals[name] = worst
    return {"residuals": residuals, "norm_drift": norm_drift, "energy_drift": energy_drift, "eigh_rows": eigh_rows}


@pytest.fixture(scope="module")
def free_chain_run():
    """Free 1D chain decay trace on a wrap-free grid."""
    M = 1024
    phi = delta_vector(M)
    plan = make_plan(free_operator(1), "dft_multiplier", M)
    trace = record_decay(plan, delta_vector(1), phi, TRACE_TIMES)
    return plan, phi, trace


@pytest.fixture(scope="module")
def amo_2d_run():
    """Coupled 2D lattice: localized AMO(a=3) along n, free along m."""
    N, M = 128, 1024
    psi0 = delta_state(N, M)  # the origin at index (N // 2, M // 2)
    pot = sample_potential(almost_mathieu(3.0, theta=0.42), (-(N // 2), N - N // 2))
    a1 = build_operator_1d(pot)
    plan = make_plan(a1, "dft_multiplier", M)
    trace = record_decay(plan, delta_vector(N), delta_vector(M), TRACE_TIMES)
    return plan, psi0, trace


# -- criteria ---------------------------------------------------------------------


def test_criterion_1_factorization_identity(factorization_runs):
    worst = max(factorization_runs["residuals"].values())
    for name, residual in factorization_runs["residuals"].items():
        assert residual <= 1e-8, f"{name}: factorization residual {residual:.3e} > 1e-8"
    assert max(factorization_runs["eigh_rows"]) < 32 * 32, "an eigh was given all of H"
    _report(f"criterion 1 (factorization identity): PASS, max residual {worst:.3e} <= 1e-8")


def test_criterion_2_tensor_convolution_identity(monkeypatch):
    """The direct route is dense_measure on the sectors of the window's m-reflection, at both states."""
    rng = np.random.default_rng(21)
    worst = 0.0
    eigh_rows = record_eigh_rows(monkeypatch)

    def two_term(n, m):
        # unit-norm factors keep the state at the same scale as the delta tensors
        vec = np.zeros((n, m), dtype=complex)
        for alpha in (0.7 - 0.2j, -0.35 + 0.6j):
            chi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            phi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            chi /= np.linalg.norm(chi)
            phi /= np.linalg.norm(phi)
            vec += alpha * np.outer(chi, phi)
        return vec

    for size in (16, 64):
        pot = sample_potential(almost_mathieu(3.0, theta=0.42), (-(size // 2), size // 2))
        a1 = build_operator_1d(pot)
        a2 = free_operator(size)
        es1, es2 = eigh_tridiagonal(a1), eigh_tridiagonal(a2)
        entries, symmetries = hamiltonian_2d_entries(a1, a2), m_symmetries(size, a2, size // 2)

        chi = np.zeros(size)
        chi[size // 2] = 1.0
        phi = np.zeros(size)
        phi[size // 2] = 1.0
        conv = convolve_measures(spectral_measure_1d(es1, chi), spectral_measure_1d(es2, phi))
        direct = dense_measure(entries, size * size, np.outer(chi, phi).ravel(), symmetries=symmetries)
        worst = max(worst, atom_weight_discrepancy(conv, direct))

        vec = two_term(size, size)
        mu2d = spectral_measure_2d(es1, es2, vec)
        direct = dense_measure(entries, size * size, vec.ravel(), symmetries=symmetries)
        worst = max(worst, atom_weight_discrepancy(mu2d, direct))
        assert max(eigh_rows) < size * size, "an eigh was given all of H"

    assert worst <= 1e-10, f"atom-weight discrepancy {worst:.3e} > 1e-10"
    _report(f"criterion 2 (tensor-convolution identity): PASS, max discrepancy {worst:.3e} <= 1e-10")


def test_criterion_3_convolution_mass_multiplicativity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        na, nb = rng.integers(1, 40), rng.integers(1, 40)
        mu = SpectralMeasure.from_atoms(
            rng.uniform(-4, 4, na), rng.standard_normal(na) + 1j * rng.standard_normal(na)
        )
        nu = SpectralMeasure.from_atoms(
            rng.uniform(-4, 4, nb), rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
        )
        conv = convolve_measures(mu, nu)
        worst = max(worst, abs(conv.total_mass() - mu.total_mass() * nu.total_mass()))
    assert worst <= 1e-10, f"mass multiplicativity defect {worst:.3e} > 1e-10"
    _report(f"criterion 3 (mass multiplicativity): PASS, max defect {worst:.3e} <= 1e-10 over 200 pairs")


def _quarter_law_constant(trace):
    # smallest C with sup_norm(t) <= C <t>^{-1/4} ||psi0||_l1 over the window
    ratios = trace.sup_norms * time_bracket(trace.times) ** 0.25 / trace.psi0_l1
    return float(ratios.max())


def test_criterion_4_dispersive_exponent(free_chain_run, amo_2d_run):
    _, _, free_trace = free_chain_run
    free_fit = fit_decay_exponent(free_trace, *FIT_WINDOW)
    assert -0.40 <= free_fit.exponent <= -0.28, f"free-chain exponent {free_fit.exponent:.4f}"

    _, _, amo_trace = amo_2d_run
    amo_fit = fit_decay_exponent(amo_trace, *FIT_WINDOW)
    assert -0.45 <= amo_fit.exponent <= -0.25, f"coupled 2D exponent {amo_fit.exponent:.4f}"

    c_fit = _quarter_law_constant(amo_trace)
    assert c_fit <= 1.0, f"<t>^(-1/4) envelope needs C = {c_fit:.3f} > 1 on the window"
    _report(
        "criterion 4 (dispersive exponent): PASS, free "
        f"{free_fit.exponent:+.4f} in [-0.40, -0.28], coupled {amo_fit.exponent:+.4f} "
        f"in [-0.45, -0.25], quarter-law envelope holds with C = {c_fit:.3f} <= 1"
    )


def test_criterion_5_mixed_norm_chain(free_chain_run, amo_2d_run):
    slack = 1e-12
    for _, _, trace in (free_chain_run, amo_2d_run):
        assert np.all(trace.sup_norms <= trace.l2n_supm + slack)
        # record_decay writes one value, ||u||_2 ||w||_inf, to both mixed columns: exact on a product state,
        # so this link of the chain cannot fail on a trace and is checked on the full states below
        assert np.all(trace.l2n_supm <= trace.supm_l2n + slack)
        assert np.all(trace.supm_l2n <= trace.l2_norms + slack)
    plan, psi0, _ = amo_2d_run
    for t in (5.0, 50.0, 200.0):
        chain = norm_chain(evolve_2d_factorized(psi0, plan, t))  # sup, l2n_supm, supm_l2n, l2, l1
        assert all(low <= high + slack for low, high in zip(chain, chain[1:])), f"t = {t}: {chain}"
    worst_defect = max(n_fiber_isometry_defect(plan, psi0, t) for t in (5.0, 50.0, 200.0))
    assert worst_defect <= 1e-10, f"n-fiber isometry defect {worst_defect:.3e} > 1e-10"
    _report(
        "criterion 5 (mixed-norm chain): PASS on all "
        f"{2 * TRACE_TIMES.size} trace samples and 3 full states, isometry defect {worst_defect:.3e} <= 1e-10"
    )


def test_criterion_6_absolute_continuity_proxy():
    sizes = np.array([64, 128, 256, 512])
    pot = sample_potential(almost_mathieu(3.0, theta=0.42), (-32, 32))
    es1 = eigh_tridiagonal(build_operator_1d(pot))
    chi = np.zeros(64)
    chi[32] = 1.0
    mu1 = spectral_measure_1d(es1, chi)
    weights = []
    for M in sizes:
        es2 = eigh_tridiagonal(free_operator(int(M), boundary="periodic"))
        phi = np.zeros(int(M))
        phi[int(M) // 2] = 1.0
        mu2 = spectral_measure_1d(es2, phi)
        weights.append(max_atom_weight(convolve_measures(mu1, mu2)))
    slope = np.polyfit(np.log(sizes), np.log(weights), 1)[0]
    assert -1.05 <= slope <= -0.95, f"max-atom-weight slope {slope:.4f} outside [-1.05, -0.95]"
    _report(f"criterion 6 (absolute-continuity proxy): PASS, slope {slope:+.4f} in [-1.05, -0.95]")


def test_criterion_7_localization_contrast(amo_2d_run):
    L = 10**6
    spec_a = almost_mathieu(3.0, theta=0.42)
    spec_b = almost_mathieu(3.0, theta=1.77)
    energies = truncation_energies(spec_a, count=8)
    g_a = lyapunov_scan(spec_a, energies, L=L)
    g_b = lyapunov_scan(spec_b, energies, L=L)
    assert np.all(g_a > 0.0), "supercritical growth rate not positive"
    assert np.abs(g_a / g_b - 1.0).max() <= 0.02, "phase draws disagree beyond 2%"
    # theory pins the on-spectrum value at log(a/2) for a > 2
    np.testing.assert_allclose(g_a, math.log(1.5), rtol=0.05)

    spec_sub = almost_mathieu(1.0, theta=0.42)
    g_sub = lyapunov_scan(spec_sub, truncation_energies(spec_sub, count=8), L=L)
    assert np.abs(g_sub).max() <= 0.02, f"subcritical |gamma| {np.abs(g_sub).max():.3e} > 0.02"

    # the same coupling that localizes the chain leaves the coupled system dispersive
    _, _, amo_trace = amo_2d_run
    amo_fit = fit_decay_exponent(amo_trace, *FIT_WINDOW)
    assert -0.45 <= amo_fit.exponent <= -0.25
    _report(
        "criterion 7 (localization contrast): PASS, gamma(a=3) ~ "
        f"{g_a.mean():.5f} (log 1.5 = {math.log(1.5):.5f}), phase spread "
        f"{np.abs(g_a / g_b - 1.0).max():.2e} <= 2%, |gamma(a=1)| <= "
        f"{np.abs(g_sub).max():.2e}, coupled exponent {amo_fit.exponent:+.4f}"
    )


def test_criterion_8_conservation_suite(factorization_runs, free_chain_run, amo_2d_run):
    worst_norm = factorization_runs["norm_drift"]
    worst_energy = factorization_runs["energy_drift"]
    for _, _, trace in (free_chain_run, amo_2d_run):
        norm_drift, energy_drift = conservation_defects(trace.l2_norms, trace.energies)
        worst_norm = max(worst_norm, norm_drift)
        worst_energy = max(worst_energy, energy_drift)
    assert worst_norm <= 1e-9, f"l2 drift {worst_norm:.3e} > 1e-9"
    assert worst_energy <= 1e-9, f"energy drift {worst_energy:.3e} > 1e-9"
    _report(
        "criterion 8 (conservation suite): PASS, worst l2 drift "
        f"{worst_norm:.3e}, worst energy drift {worst_energy:.3e} <= 1e-9"
    )
