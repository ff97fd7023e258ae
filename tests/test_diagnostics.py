import math

import numpy as np
import pytest

from chainlab.diagnostics import (
    DecayTrace,
    conservation_defects,
    fit_decay_exponent,
    lyapunov_scan,
    minimal_wrap_free_m,
    n_fiber_isometry_defect,
    record_decay,
    spreading_moments,
    time_bracket,
    truncation_energies,
)
from chainlab.evolution import evolve_2d_factorized, evolve_free_1d, make_plan
from chainlab.operators import (
    PotentialSpec,
    almost_mathieu,
    build_operator_1d,
    constant_potential,
    delta_state,
    delta_vector,
    energy_expectation,
    free_operator,
    sample_potential,
)
from dense_reference import norm_chain

# growth rate of the free transfer matrix at E = 3: log((3 + sqrt 5) / 2)
FREE_GAMMA_AT_3 = 0.9624236501192069


def test_time_bracket_values():
    assert time_bracket(0.0) == 1.0
    assert abs(time_bracket(1.0) - math.sqrt(2.0)) < 1e-15
    assert abs(time_bracket(100.0) - math.hypot(1.0, 100.0)) < 1e-13


# -- decay traces -----------------------------------------------------------------


def test_record_decay_free_chain_matches_kernel():
    M = 256
    phi = delta_vector(M)
    plan = make_plan(free_operator(1), "dft_multiplier", M)
    times = np.array([0.0, 1.0, 5.0, 10.0])
    trace = record_decay(plan, delta_vector(1), phi, times)
    assert trace.psi0_l1 == 1.0 and trace.psi0_l2 == 1.0
    for i, t in enumerate(times):
        out = evolve_free_1d(phi, t)
        assert abs(trace.sup_norms[i] - np.abs(out).max()) < 1e-14
    # all four norms coincide on a single-fiber state up to the chain ordering
    np.testing.assert_allclose(trace.l2n_supm, trace.sup_norms, atol=1e-14)
    np.testing.assert_allclose(trace.l2_norms, 1.0, atol=1e-12)


def test_record_decay_rejects_wrapped_grid():
    plan = make_plan(free_operator(1), "dft_multiplier", 32)
    with pytest.raises(ValueError, match=r"\d+"):
        record_decay(plan, delta_vector(1), delta_vector(32), [0.0, 50.0])


def test_record_decay_requires_ascending_times():
    plan = make_plan(free_operator(1), "dft_multiplier", 64)
    for times in ([1.0, 0.5], [-1.0, 0.5], [0.0, 1.0, math.inf], [0.0, 1.0, math.nan]):
        with pytest.raises(ValueError, match="finite, nonnegative and ascending"):
            record_decay(plan, delta_vector(1), delta_vector(64), times)


REFERENCE_TIMES = np.array([0.0, 0.5, 3.0, 20.0, 80.0])


def _product_factors(N, M, rng):
    """A complex chi and phi, phi on 5 central sites, so the grid stays wrap-free."""
    chi = rng.normal(size=N) + 1j * rng.normal(size=N)
    phi = np.zeros(M, dtype=complex)
    phi[M // 2 - 2 : M // 2 + 3] = rng.normal(size=5) + 1j * rng.normal(size=5)
    return chi, phi


def _full_state_trace(plan, psi0, a1):
    """Every trace column from the full N x M state, one factorized step per time."""
    a2 = plan.a2_operator()
    rows = []
    for t in REFERENCE_TIMES:
        psi_t = evolve_2d_factorized(psi0, plan, t)
        rows.append((*norm_chain(psi_t)[:4], energy_expectation(psi_t, a1, a2)))
    return np.array(rows).T


@pytest.mark.parametrize(
    "m_method, M, free_chain",
    [
        ("dft_multiplier", 1024, False),
        ("bessel_kernel", 1024, False),
        ("eigen", 512, False),
        ("dft_multiplier", 1024, True),
    ],
)
def test_record_decay_matches_full_state_reference(m_method, M, free_chain):
    rng = np.random.default_rng(5)
    N = 1 if free_chain else 128
    chi, phi = _product_factors(N, M, rng)
    psi0 = np.outer(chi, phi)
    a1 = free_operator(1)
    if not free_chain:
        a1 = build_operator_1d(sample_potential(almost_mathieu(3.0, theta=0.42), (-(N // 2), N - N // 2)))
    plan = make_plan(a1, m_method, M)
    trace = record_decay(plan, chi, phi, REFERENCE_TIMES)
    assert trace.psi0_l1 == pytest.approx(np.abs(psi0).sum(), rel=1e-14)
    assert trace.psi0_l2 == pytest.approx(np.linalg.norm(psi0), rel=1e-14)
    columns = (trace.sup_norms, trace.l2n_supm, trace.supm_l2n, trace.l2_norms, trace.energies)
    names = ("sup", "l2n_supm", "supm_l2n", "l2", "energy")
    for name, got, want in zip(names, columns, _full_state_trace(plan, psi0, a1)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=name)


def test_dft_record_decay_never_solves_a2(monkeypatch):
    import chainlab.evolution as evolution

    solved = []
    solve = evolution.eigh_tridiagonal
    monkeypatch.setattr(evolution, "eigh_tridiagonal", lambda op: solved.append(op.size) or solve(op))
    plan = make_plan(build_operator_1d(size=16), "dft_multiplier", 256)
    record_decay(plan, delta_vector(16), delta_vector(256), [0.0, 1.0, 10.0])
    assert solved == [16]  # A1 only: the ring's m-sweep is the closed-form DFT multiplier


def test_record_decay_rejects_state_off_the_plan_grid():
    plan = make_plan(free_operator(1), "dft_multiplier", 256)
    for chi, phi in (
        (delta_vector(2), delta_vector(256)),  # N off the plan
        (delta_vector(1), delta_vector(512)),  # M off the plan
        (delta_vector(1), delta_state(1, 256)),  # a 2D state is not a factor
    ):
        with pytest.raises(ValueError, match="do not match plan"):
            record_decay(plan, chi, phi, [0.0, 1.0])


def test_minimal_wrap_free_m_grows_with_time():
    m1 = minimal_wrap_free_m(10.0, 1)
    m2 = minimal_wrap_free_m(100.0, 1)
    assert m2 > m1 > 2 * 2 * 10  # at least the bare light cone


def test_conservation_defects_on_flat_trace():
    trace = DecayTrace(
        times=[0.0, 1.0],
        sup_norms=[1.0, 0.5],
        l2n_supm=[1.0, 0.6],
        supm_l2n=[1.0, 0.7],
        l2_norms=[1.0, 1.0],
        energies=[2.0, 2.0],
        psi0_l1=1.0,
        psi0_l2=1.0,
    )
    norm_drift, energy_drift = conservation_defects(trace.l2_norms, trace.energies)
    assert norm_drift == 0.0 and energy_drift == 0.0


def test_fit_recovers_exact_power_law():
    times = np.geomspace(20.0, 200.0, 30)
    sups = 1.7 * time_bracket(times) ** (-1.0 / 3.0)
    trace = DecayTrace(
        times=times,
        sup_norms=sups,
        l2n_supm=sups,
        supm_l2n=sups,
        l2_norms=np.ones_like(times),
        energies=np.zeros_like(times),
        psi0_l1=1.0,
        psi0_l2=1.0,
    )
    fit = fit_decay_exponent(trace)
    assert abs(fit.exponent + 1.0 / 3.0) < 1e-12
    assert abs(fit.prefactor - 1.7) < 1e-12
    assert fit.residual < 1e-12
    assert fit.n_samples == 30


def test_fit_needs_enough_samples():
    times = np.geomspace(20.0, 200.0, 4)
    ones = np.ones_like(times)
    trace = DecayTrace(times, ones, ones, ones, ones, ones, 1.0, 1.0)
    with pytest.raises(ValueError):
        fit_decay_exponent(trace)


def test_free_chain_decay_exponent_near_minus_third():
    M = 1024
    plan = make_plan(free_operator(1), "dft_multiplier", M)
    times = np.geomspace(20.0, 200.0, 25)
    trace = record_decay(plan, delta_vector(1), delta_vector(M), times)
    fit = fit_decay_exponent(trace)
    assert -0.40 <= fit.exponent <= -0.28


def test_n_fiber_isometry_defect_small():
    pot = sample_potential(almost_mathieu(3.0), (-8, 8))
    a1 = build_operator_1d(pot)
    plan = make_plan(a1, "dft_multiplier", 32)
    psi0 = delta_state(16, 32)
    assert n_fiber_isometry_defect(plan, psi0, 3.0) < 1e-12


# -- transfer matrices and growth rates ---------------------------------------------


def test_free_transfer_growth_rate_closed_form():
    # outside the band the free cocycle grows like the larger root of
    # x^2 - E x + 1
    gamma = lyapunov_scan(constant_potential(0.0), [3.0], L=100_000)[0]
    assert abs(gamma - FREE_GAMMA_AT_3) < 1e-3


def test_inside_band_growth_rate_vanishes():
    gamma = lyapunov_scan(constant_potential(0.0), [0.7], L=100_000)[0]
    assert abs(gamma) < 1e-3


def test_almost_mathieu_supercritical_growth():
    # coupling a = 3 > 2: growth rate log(a/2) on the spectrum
    spec = almost_mathieu(3.0, theta=0.31)
    energies = truncation_energies(spec, count=4)
    gammas = lyapunov_scan(spec, energies, L=100_000)
    np.testing.assert_allclose(gammas, math.log(1.5), rtol=2e-2)


def test_almost_mathieu_growth_is_phase_stable():
    spec1 = almost_mathieu(3.0, theta=0.1)
    spec2 = almost_mathieu(3.0, theta=2.0)
    e = truncation_energies(spec1, count=2)
    g1 = lyapunov_scan(spec1, e, L=200_000)
    g2 = lyapunov_scan(spec2, e, L=200_000)
    np.testing.assert_allclose(g1, g2, rtol=2e-2)


def test_almost_mathieu_subcritical_no_growth():
    spec = almost_mathieu(1.0)
    energies = truncation_energies(spec, count=3)
    gammas = lyapunov_scan(spec, energies, L=100_000)
    assert np.abs(gammas).max() < 0.02


def test_scan_requires_minimum_length():
    with pytest.raises(ValueError):
        lyapunov_scan(constant_potential(0.0), [0.0], L=10)


def test_truncation_energies_sit_inside_spectrum():
    spec = almost_mathieu(3.0)
    e = truncation_energies(spec, N=256, count=8)
    assert e.shape == (8,)
    assert np.all(np.diff(e) >= 0)
    op = build_operator_1d(sample_potential(spec, (0, 256)))
    assert e[0] > -op.norm_bound and e[-1] < op.norm_bound


def test_truncation_energies_never_repeat_an_eigenvalue():
    # 512 sites leave 512 - 2 (512 // 12) = 428 mid-spectrum eigenvalues; a count of 600 once repeated them
    spec = almost_mathieu(3.0)
    assert np.unique(truncation_energies(spec, count=428)).size == 428
    with pytest.raises(ValueError, match="count = 429 exceeds the 428 mid-spectrum eigenvalues of the 512-site"):
        truncation_energies(spec, count=429)


@pytest.mark.parametrize("count", [0, -1])
def test_truncation_energies_refuses_a_count_below_1(count):
    # count = 0 once returned no energies and count = -1 failed in numpy's linspace
    with pytest.raises(ValueError, match=f"^count = {count} must be positive$"):
        truncation_energies(almost_mathieu(3.0), count=count)


def test_random_potential_localizes():
    # iid coupling 3 gives a strictly positive growth rate at mid-band
    spec = PotentialSpec("random_iid", amplitude=3.0, seed=11)
    gammas = lyapunov_scan(spec, truncation_energies(spec, count=3), L=200_000)
    assert gammas.min() > 0.1


# -- spreading moments ----------------------------------------------------------------


def test_spreading_moments_of_delta():
    mom = spreading_moments(delta_state(8, 8))
    assert mom.m_second_moment == 0.0
    assert mom.n_second_moment == 0.0
    assert abs(mom.participation_ratio - 1.0) < 1e-12
    # coordinates are indices: the centred delta of an 8 x 6 window sits at (4, 3)
    mom = spreading_moments(delta_state(8, 6), origin=(0.0, 0.0))
    assert (mom.n_second_moment, mom.m_second_moment) == (16.0, 9.0)


def test_free_spreading_is_ballistic():
    M = 512
    t = 12.0
    psi_t = evolve_free_1d(delta_state(1, M), t)  # the origin at index (0, M // 2)
    mom = spreading_moments(psi_t, origin=(0.0, M // 2))
    assert abs(mom.m_second_moment - 2.0 * t * t) < 1e-6 * t * t
    assert mom.participation_ratio > 10.0
