import numpy as np
import pytest
import scipy.linalg
from scipy.special import jv

from chainlab.evolution import (
    CHEB_TOL,
    M_METHODS,
    PropagatorPlan,
    _chebyshev_order,
    bessel_j,
    bessel_kernel,
    bessel_pad,
    check_wrap_free,
    evolve_1d_eigen,
    evolve_2d_direct,
    evolve_2d_factorized,
    evolve_free_1d,
    light_cone_reach,
    make_plan,
)
from chainlab.operators import (
    BOUNDARIES,
    DENSE_SITE_CAP,
    Operator1D,
    almost_mathieu,
    build_operator_1d,
    delta_state,
    free_operator,
    sample_potential,
)
from chainlab.spectral import eigh_tridiagonal
from dense_reference import dense_hamiltonian, record_eigh_rows

# series value of J_0(2), the t = 1 return amplitude of the free chain
J0_OF_2 = 0.22389077914123562


def _random_state(rng, M):
    v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    return v / np.linalg.norm(v)


# -- free-chain kernel ----------------------------------------------------------


def test_kernel_is_minus_i_power_times_bessel():
    t = 1.7
    k = bessel_kernel(t, 5)
    r = np.arange(-5, 6)
    np.testing.assert_allclose(k, (-1j) ** np.mod(r, 4) * jv(r, 2 * t), atol=1e-15)
    # J_{-r} = (-1)^r J_r and (-i)^{-r} = (-1)^r (-i)^r cancel: the kernel is even
    np.testing.assert_allclose(k, k[::-1], atol=1e-15)


# bessel_j against 60-digit mpmath.  The worst errors measured over the cases
# below: 1.8e-16 absolute (0.8 ulp of 1, at x = 200, order 159) and, for
# orders past |x| where J is a normal float, 5.9e-15 relative (27 ulp, at
# x = 0.1, order 99: the normalizing sum carries the rounding of about 400
# recurrence steps).  Each bound is about 5x the worst measured error.
BESSEL_ABS_TOL = 1e-15
BESSEL_TAIL_REL_TOL = 3e-14
BESSEL_NORMAL_FLOOR = 1e-290  # relative errors are checked above it, clear of the subnormals below 2.2e-308


def _mp_bessel(orders, x):
    import mpmath

    with mpmath.workdps(60):
        return [mpmath.besselj(int(k), mpmath.mpf(x)) for k in orders]


def _bessel_orders(x):
    """Orders below |x|, around the turning point and far above it, down into underflow."""
    top = int(abs(x)) + 400
    if abs(x) <= 100:
        return np.arange(top + 1)
    # mpmath costs up to 20 ms a value at x = 1600: sample the oscillatory orders and the far tail
    turn = int(abs(x))
    near, far = np.arange(turn - 3, turn + 30), np.arange(turn + 30, top + 1, 17)
    return np.unique(np.r_[np.arange(0, turn, 53), near, far])


def _bessel_errors(x):
    """(orders, computed, absolute errors, relative errors) of bessel_j against mpmath."""
    orders = _bessel_orders(x)
    got = bessel_j(int(orders[-1]), x)[orders]
    ref = _mp_bessel(orders, x)
    err = np.array([float(abs(g - r)) for g, r in zip(got, ref)])
    rel = np.array([float(abs((g - r) / r)) if r != 0 else 0.0 for g, r in zip(got, ref)])
    return orders, got, np.array([float(r) for r in ref]), err, rel


@pytest.mark.parametrize("x", [0.0, 0.1, -0.1, 3.4, -3.4, 2.0, 20.0, 200.0, 800.0, 1600.0])
def test_bessel_j_matches_mpmath(x):
    orders, got, ref, err, rel = _bessel_errors(x)
    assert err.max() <= BESSEL_ABS_TOL, (orders[err.argmax()], err.max())
    tail = (orders > abs(x)) & (np.abs(ref) > BESSEL_NORMAL_FLOOR)
    assert rel[tail].max(initial=0.0) <= BESSEL_TAIL_REL_TOL, (orders[tail][rel[tail].argmax()], rel[tail].max())
    # where the reference rounds to zero in double, so does bessel_j: the rescaled recurrence never overflows
    below = ref == 0.0
    assert np.all(got[below] == 0.0)
    if abs(x) <= 20:
        assert below.any()  # the small arguments do reach underflow within 400 orders


def test_bessel_j_is_finite_where_the_recurrence_would_overflow():
    # J_700(2) is about 1e-1690, so the recurrence from there to order 0 must rescale many times
    vals = bessel_j(700, 2.0)
    assert np.all(np.isfinite(vals)) and vals[0] == pytest.approx(jv(0, 2.0), abs=1e-16)
    assert abs(vals[0] + 2.0 * vals[2::2].sum() - 1.0) < 1e-15
    with pytest.raises(ValueError, match="order"):
        bessel_j(-1, 1.0)


def test_return_amplitude_is_bessel_j0():
    phi = np.zeros(64, dtype=complex)
    phi[32] = 1.0
    out = evolve_free_1d(phi, 1.0)
    assert abs(out[32] - J0_OF_2) < 1e-14


def test_pad_bounds_kernel_tail():
    for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14):
        for t in (*np.geomspace(0.1, 1e4, 25), 5.0, 50.0, 200.0):
            reach = light_cone_reach(t, tol)
            assert reach == int(np.ceil(2 * t)) + bessel_pad(t, tol)
            # two-sided l1 mass of the kernel beyond the padded light cone, over 40 Airy lengths and more
            r = np.arange(reach, reach + 400 + int(40 * max(t, 1.0) ** (1 / 3)))
            tail = 2.0 * np.abs(jv(r, 2 * t)).sum()
            assert tail < tol, (t, tol, tail)


def test_pad_narrows_for_looser_tails_and_keeps_the_default():
    pads = [bessel_pad(100.0, tol) for tol in (1e-4, 1e-6, 1e-10, 1e-14)]
    assert pads[0] < pads[1] < pads[2] < pads[3]
    # the default margin is the calibrated one: ceil(10 (z/2)^(1/3)) + 12
    assert pads[2] == bessel_pad(100.0) == int(np.ceil(10.0 * 100.0 ** (1 / 3))) + 12
    with pytest.raises(ValueError, match="tail_tol"):
        bessel_pad(100.0, 1.0)


def test_ballistic_second_moment_identity():
    # sum_m m^2 J_m(2t)^2 = 2 t^2 exactly on the infinite free chain
    M = 512
    phi = np.zeros(M, dtype=complex)
    phi[M // 2] = 1.0
    for t in (1.0, 5.0, 20.0):
        out = evolve_free_1d(phi, t)
        m = np.arange(M) - M // 2
        second = float(np.sum(m**2 * np.abs(out) ** 2))
        assert abs(second - 2.0 * t * t) < 1e-8 * 2.0 * t * t


# -- method cross-agreement ------------------------------------------------------


def test_dft_and_bessel_agree_on_wrap_free_window():
    rng = np.random.default_rng(0)
    M, t = 256, 10.0
    phi = np.zeros(M, dtype=complex)
    phi[M // 2 - 2 : M // 2 + 3] = _random_state(rng, 5)
    a = evolve_free_1d(phi, t, method="dft_multiplier")
    b = evolve_free_1d(phi, t, method="bessel_kernel")
    np.testing.assert_allclose(a, b, atol=1e-13)


def _smallest_7_smooth_at_least(n):
    """Brute force: the least product 2^a 3^b 5^c 7^d that is >= n."""
    best = None
    for a in range(n.bit_length() + 1):
        for b in range(12):
            for c in range(8):
                for d in range(7):
                    k = 2**a * 3**b * 5**c * 7**d
                    if k >= n and (best is None or k < best):
                        best = k
    return best


def test_bessel_route_transforms_at_smallest_7_smooth_length(monkeypatch):
    # decay-fit's dispersion grid: at every one of these times M + 2 reach has a prime factor above 7
    M = 4096
    lengths = []
    for name in ("fft", "ifft"):
        real = getattr(np.fft, name)

        def recording(a, n=None, axis=-1, _real=real, **kw):
            lengths.append(np.shape(a)[axis] if n is None else n)
            return _real(a, n, axis, **kw)

        monkeypatch.setattr(np.fft, name, recording)
    phi = np.zeros(M, dtype=complex)
    phi[M // 2] = 1.0
    for t in np.geomspace(20.0, 800.0, 25):
        lengths.clear()
        evolve_free_1d(phi, t, method="bessel_kernel")
        want = _smallest_7_smooth_at_least(M + 2 * light_cone_reach(t))
        assert lengths == [want, want, want], t


def test_padded_bessel_route_is_the_linear_convolution():
    rng = np.random.default_rng(3)
    t = 6.0
    reach = light_cone_reach(t)
    M = 93  # M + 2 reach = 179 is prime, so the transforms run longer than the convolution
    assert reach == 43 and _smallest_7_smooth_at_least(M + 2 * reach) > M + 2 * reach
    block = np.zeros((3, M), dtype=complex)
    block[:, reach : M - reach] = rng.standard_normal((3, M - 2 * reach)) + 1j * rng.standard_normal((3, M - 2 * reach))
    kern = bessel_kernel(t, reach)
    want = np.array([np.convolve(row, kern)[reach : reach + M] for row in block])
    np.testing.assert_allclose(evolve_free_1d(block, t, method="bessel_kernel"), want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("M", [2, 3, 24, 101])
def test_eigen_method_matches_dirichlet_expm(M):
    rng = np.random.default_rng(1)
    t = 3.0
    phi = _random_state(rng, M)
    out = make_plan(free_operator(1), "eigen", M).m_sweep(phi, t)
    propagator = scipy.linalg.expm(1j * t * free_operator(M).matrix())
    np.testing.assert_allclose(out, propagator @ phi, atol=1e-12)
    block = np.array([_random_state(rng, M) for _ in range(3)])  # a (K, M) input: each row is swept
    np.testing.assert_allclose(evolve_free_1d(block, t, method="eigen"), block @ propagator.T, atol=1e-12)


def test_dirichlet_eigen_agrees_with_infinite_kernel_when_wrap_free():
    # away from the boundary the dirichlet chain looks infinite up to tail mass
    M, t = 256, 8.0
    phi = np.zeros(M, dtype=complex)
    phi[M // 2] = 1.0
    a = make_plan(free_operator(1), "eigen", M).m_sweep(phi, t)
    b = evolve_free_1d(phi, t, method="bessel_kernel")
    np.testing.assert_allclose(a, b, atol=1e-8)


def test_bessel_window_too_small_raises():
    phi = np.zeros(16, dtype=complex)
    phi[8] = 1.0
    with pytest.raises(ValueError, match="site"):
        evolve_free_1d(phi, 30.0, method="bessel_kernel")


@pytest.mark.parametrize("width", [1, 5])
@pytest.mark.parametrize("ring", [True, False], ids=["ring", "window"])
def test_check_wrap_free_is_tight(ring, width):
    t, tol = 20.0, 1e-10
    reach = light_cone_reach(t, tol)
    need = width + 2 * reach

    def state(M):  # two n-fibers, support [reach, reach + width) along m
        amp = np.zeros((2, M), dtype=complex)
        amp[1, reach : reach + width] = 1.0
        return amp

    with pytest.raises(ValueError, match=rf"site.* {reach} sites of margin.*at least {need} sites"):
        check_wrap_free(state(need - 1), t, tol, ring)
    assert check_wrap_free(state(need), t, tol, ring) == reach
    # one site off centre: a ring does not mind, a window loses its left margin
    off_centre = np.roll(state(need), -1, axis=-1)
    if ring:
        assert check_wrap_free(off_centre, t, tol, ring) == reach
    else:
        with pytest.raises(ValueError, match=rf"at least {need} sites"):
            check_wrap_free(off_centre, t, tol, ring)


@pytest.mark.parametrize("m_method", M_METHODS)
def test_plan_builds_no_m_basis(monkeypatch, m_method):
    import chainlab.evolution as evolution
    import chainlab.spectral as spectral

    solved, written = [], []
    solve, write = evolution.eigh_tridiagonal, spectral._free_basis_rows
    monkeypatch.setattr(evolution, "eigh_tridiagonal", lambda op: solved.append(op.size) or solve(op))
    # every closed-form free basis, free_delta_measure's row included, is built by _free_basis_rows
    monkeypatch.setattr(spectral, "_free_basis_rows", lambda op, rows: written.append(op.size) or write(op, rows))
    plan = make_plan(build_operator_1d(sample_potential(almost_mathieu(3.0), (0, 8))), m_method, 96)
    phi = np.zeros(96, dtype=complex)
    phi[44:52] = _random_state(np.random.default_rng(9), 8)
    for t in (0.5, 1.0, 2.0):
        plan.m_sweep(phi, t)
    assert solved == [8]  # A1 only: the free A2 is never handed to a solver
    assert written == []  # nor written down as a basis: every m-sweep is an FFT
    assert not hasattr(plan, "m_eigensystem")


def test_evolve_1d_eigen_matches_expm_with_potential():
    rng = np.random.default_rng(2)
    pot = sample_potential(almost_mathieu(3.0), (-8, 8))
    op = build_operator_1d(pot)
    es = eigh_tridiagonal(op)
    chi = _random_state(rng, 16)
    t = 2.5
    expected = scipy.linalg.expm(1j * t * op.matrix()) @ chi
    np.testing.assert_allclose(evolve_1d_eigen(es, chi, t), expected, atol=1e-12)


# -- 2D factorized propagator ----------------------------------------------------


@pytest.mark.parametrize("m_method", ["dft_multiplier", "eigen"])
def test_factorized_matches_dense_direct(m_method):
    rng = np.random.default_rng(3)
    N, M = 12, 10
    pot = sample_potential(almost_mathieu(3.0), (-6, 6))
    a1 = build_operator_1d(pot)
    plan = make_plan(a1, m_method, M)
    a2 = plan.a2_operator()
    amp = rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
    psi0 = amp / np.linalg.norm(amp)
    for t in (0.4, 1.0, 3.0):
        fact = evolve_2d_factorized(psi0, plan, t)
        direct = evolve_2d_direct(psi0, a1, a2, t, method="dense")
        np.testing.assert_allclose(fact, direct, atol=1e-11)


@pytest.mark.parametrize("m_method", M_METHODS)
def test_factorized_state_owns_its_n_by_m_memory(m_method):
    # the eigen and bessel_kernel m-sweeps end on a slice of a padded work array: the state returned is
    # a compact copy, so a list of snapshots does not keep the padded arrays alive
    N, M = 4, 64
    plan = make_plan(build_operator_1d(size=N), m_method, M)
    out = evolve_2d_factorized(delta_state(N, M), plan, 2.0)
    assert out.shape == (N, M) and out.flags.c_contiguous and out.flags.owndata


def test_factorized_sweep_order_is_immaterial():
    rng = np.random.default_rng(4)
    a1 = build_operator_1d(sample_potential(almost_mathieu(2.0), (0, 9)))
    plan = make_plan(a1, "dft_multiplier", 11)
    amp = rng.standard_normal((9, 11)) + 1j * rng.standard_normal((9, 11))
    nm = plan.m_sweep(plan.n_sweep(amp, 2.7), 2.7)
    mn = plan.n_sweep(plan.m_sweep(amp, 2.7), 2.7)
    np.testing.assert_allclose(nm, mn, atol=1e-12)


def test_factorized_against_scipy_expm_oracle():
    # third route: dense expm of the assembled 2D matrix
    rng = np.random.default_rng(5)
    N, M = 6, 7
    a1 = build_operator_1d(sample_potential(almost_mathieu(3.0, theta=0.4), (0, N)))
    plan = make_plan(a1, "dft_multiplier", M)
    a2 = plan.a2_operator()
    amp = rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
    t = 1.3
    U = scipy.linalg.expm(1j * t * dense_hamiltonian(a1, a2))
    expected = (U @ amp.ravel()).reshape(N, M)
    out = evolve_2d_factorized(amp, plan, t)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_free_chain_plan_skips_n_sweep():
    M = 128
    amp = np.zeros((1, M), dtype=complex)
    amp[0, M // 2] = 1.0
    plan = make_plan(free_operator(1), "dft_multiplier", M)
    assert plan.n_size == 1
    np.testing.assert_array_equal(plan.n_sweep(amp, 1.0), amp)  # the one-site sweep is the identity
    out = evolve_2d_factorized(amp, plan, 1.0)
    assert abs(out[0, M // 2] - J0_OF_2) < 1e-14


def test_unitarity_of_factorized_evolution():
    rng = np.random.default_rng(6)
    a1 = build_operator_1d(sample_potential(almost_mathieu(3.0), (0, 10)))
    for m_method in ("dft_multiplier", "eigen"):
        plan = make_plan(a1, m_method, 12)
        amp = rng.standard_normal((10, 12)) + 1j * rng.standard_normal((10, 12))
        out = evolve_2d_factorized(amp / np.linalg.norm(amp), plan, 7.3)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_chebyshev_direct_matches_dense():
    """The Chebyshev route, verify's propagator oracle, meets CHEB_TOL up to a rounding allowance.

    With X = H / r, r = a1.norm_bound + a2.norm_bound and z = r t, the route
    sums c_k T_k(X) psi for k <= K = _chebyshev_order(z, CHEB_TOL), with
    c_0 = J_0(z) and c_k = 2 i^k J_k(z).  Truncation: ||T_k(X)|| <= 1, so the
    dropped terms weigh at most 2 sum_{k>K} |J_k(z)| < CHEB_TOL.  Rounding,
    with u the unit roundoff:
    - each step of T_{k+1} = 2 X T_k - T_{k-1} adds an error of norm at most
      16 u: apply_h2d sums five stencil terms, so it is within
      gamma_5 || |H| || <= 5.01 u r of H T_k; the division by r adds u, the
      doubling is exact, and the subtraction adds 3 u: 2 (6.01 u) + 3 u;
    - an error added at step j reaches T_k as U_{k-j}(X) times it, and
      ||U_n(X)|| <= n + 1, so T_k is off by at most 8 u k (k + 1);
    - sum_k |c_k| <= sqrt(2 (K + 1)), from J_0^2 + 2 sum_k J_k^2 = 1, weighs
      those errors and the (K + 3) u of the products and the running sum:
      together at most 9 u (K + 1)^2 sqrt(2 (K + 1));
    - bessel_j is within BESSEL_ABS_TOL of each J_k: 2 (K + 1) BESSEL_ABS_TOL.
    The dense route solves H's symmetry sectors, each block P^T H P exact
    to a few u (P's entries are +-1/sqrt|O|) and of at most n = N M rows.
    Each solve is backward stable: V diag(lambda) V^T = P^T H P + E with
    ||E|| <= n u ||H|| moves e^{iHt} psi by at most n u r t, and V's
    departure from orthogonality, the phases and P^T, P add 4 n u.
    """
    rng = np.random.default_rng(7)
    N, M = 14, 9
    a1 = build_operator_1d(sample_potential(almost_mathieu(3.0), (0, N)))
    a2 = free_operator(M, boundary="periodic")
    amp = rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
    psi0 = amp / np.linalg.norm(amp)
    u, radius = np.finfo(float).eps / 2, a1.norm_bound + a2.norm_bound
    for t in (0.5, 4.0):
        dense = evolve_2d_direct(psi0, a1, a2, t, method="dense")
        cheb = evolve_2d_direct(psi0, a1, a2, t, method="chebyshev")
        K = _chebyshev_order(radius * t, CHEB_TOL)
        rounding = 9 * u * (K + 1) ** 2 * np.sqrt(2 * (K + 1)) + 2 * (K + 1) * BESSEL_ABS_TOL
        dense_error = N * M * u * (radius * t + 4)
        bound = CHEB_TOL + rounding + dense_error  # 4.8e-11 at t = 4
        assert np.linalg.norm(cheb - dense) <= bound


DENSE_PROPAGATOR_LATTICES = [
    *((M, "periodic") for M in (1, 2, 3, 4, 5, 8)),
    *((M, "dirichlet") for M in (1, 2, 3, 5)),
]


@pytest.mark.parametrize("boundary_n", BOUNDARIES)
@pytest.mark.parametrize("M, boundary_m", DENSE_PROPAGATOR_LATTICES)
def test_dense_direct_matches_expm_at_any_state(M, boundary_m, boundary_n):
    # the sector route sums P V e^{i Lambda t} V^T P^T psi over the sectors psi has a part in: a unit random
    # complex state has a part in all of them, and a delta only in those its site has a part in (1- and
    # 2-site rings, whose reflection is the identity, and the 2-site ring hopping twice, included)
    N, t = 3, 1.7
    rng = np.random.default_rng(M)
    a1 = Operator1D(rng.uniform(-2.0, 2.0, N), boundary=boundary_n)
    a2 = free_operator(M, boundary=boundary_m)
    U = scipy.linalg.expm(1j * t * dense_hamiltonian(a1, a2))
    amp = rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
    amp /= np.linalg.norm(amp)
    out = evolve_2d_direct(amp, a1, a2, t)  # dense is the default
    assert np.abs(out.ravel() - U @ amp.ravel()).max() <= 1e-13
    for site in range(N * M):
        out = evolve_2d_direct(np.eye(N * M)[site].reshape(N, M), a1, a2, t, method="dense")
        assert np.abs(out.ravel() - U[:, site]).max() <= 1e-13


@pytest.mark.parametrize("boundary_m", BOUNDARIES)
def test_dense_direct_never_gives_eigh_all_of_h(monkeypatch, boundary_m):
    # 6 x 8 sites.  On the ring, per n, the reflection about 4 and the half-turn make the orbits {0, 4},
    # {2, 6} and {1, 3, 5, 7}: four sectors of 3, 1, 2 and 2 orbits, and the delta at m = 4 has a part in
    # the two with a trivial sign on the reflection.  The window's reflection makes two sectors of 4 orbits.
    N, M = 6, 8
    a1 = build_operator_1d(sample_potential(almost_mathieu(3.0), (0, N)))
    a2 = free_operator(M, boundary=boundary_m)
    rng = np.random.default_rng(11)
    psi0 = rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
    rows = record_eigh_rows(monkeypatch)
    evolve_2d_direct(psi0, a1, a2, 2.0)
    assert rows == ([18, 6, 12, 12] if boundary_m == "periodic" else [24, 24])
    rows.clear()
    evolve_2d_direct(delta_state(N, M), a1, a2, 2.0, method="dense")  # the delta at m = M // 2
    assert rows == ([18, 12] if boundary_m == "periodic" else [24, 24])


def test_dense_direct_enforces_site_cap():
    a1 = free_operator(80)
    a2 = free_operator(80)
    psi0 = delta_state(80, 80)
    assert 80 * 80 > DENSE_SITE_CAP
    with pytest.raises(ValueError, match="chebyshev"):
        evolve_2d_direct(psi0, a1, a2, 1.0, method="dense")


def test_plan_validation():
    with pytest.raises(ValueError):
        PropagatorPlan(None, "nonsense", 8)
    with pytest.raises(ValueError):
        make_plan(free_operator(1), "dft_multiplier", 1)


def test_t_zero_is_identity():
    rng = np.random.default_rng(8)
    a1 = build_operator_1d(sample_potential(almost_mathieu(1.0), (0, 5)))
    plan = make_plan(a1, "dft_multiplier", 6)
    amp = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    out = evolve_2d_factorized(amp, plan, 0.0)
    np.testing.assert_allclose(out, amp, atol=1e-15)
